"""Confusion-matrix metrics.

Micro and macro F-scores follow the standard conventions: micro pools
counts over classes (which for single-label prediction equals accuracy);
macro is the unweighted mean of per-class F1 over every class in the label
map, with 0/0 ratios defined as 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

__all__ = ["Metrics", "confusion", "f_scores", "metrics_json"]


@dataclass(frozen=True)
class Metrics:
    precision: np.ndarray  # (C,)
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray  # true-label counts
    micro_f: float
    macro_f: float


def confusion(preds, labels, num_classes: int) -> np.ndarray:
    """C x C count matrix; rows are true labels, columns predictions."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ShapeError(f"preds/labels must be equal-length 1-D, got {preds.shape} vs {labels.shape}")
    if preds.size:
        lo = min(preds.min(), labels.min())
        hi = max(preds.max(), labels.max())
        if lo < 0 or hi >= num_classes:
            raise ShapeError(f"class ids must lie in [0, {num_classes}), saw [{lo}, {hi}]")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (labels, preds), 1)
    return cm


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    nz = den > 0
    out[nz] = num[nz] / den[nz]
    return out


def f_scores(cm: np.ndarray) -> Metrics:
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ShapeError(f"confusion matrix must be square, got {cm.shape}")
    total = cm.sum()
    if total < 1:
        raise ShapeError("confusion matrix is empty")
    tp = np.diag(cm).astype(np.float64)
    col = cm.sum(axis=0).astype(np.float64)
    row = cm.sum(axis=1).astype(np.float64)
    precision = _safe_div(tp, col)
    recall = _safe_div(tp, row)
    f1 = _safe_div(2 * precision * recall, precision + recall)
    fp = col - tp
    fn = row - tp
    micro = float(tp.sum() / (tp.sum() + 0.5 * (fp.sum() + fn.sum())))
    return Metrics(
        precision=precision,
        recall=recall,
        f1=f1,
        support=row.astype(np.int64),
        micro_f=micro,
        macro_f=float(f1.mean()),
    )


def metrics_json(m: Metrics, label_map: dict[str, int]) -> str:
    by_id = {v: k for k, v in label_map.items()}
    per_class = [
        {
            "label": by_id.get(i, str(i)),
            "precision": float(m.precision[i]),
            "recall": float(m.recall[i]),
            "f1": float(m.f1[i]),
            "support": int(m.support[i]),
        }
        for i in range(len(m.f1))
    ]
    return json.dumps(
        {"micro_f": m.micro_f, "macro_f": m.macro_f, "per_class": per_class},
        ensure_ascii=False,
    )

