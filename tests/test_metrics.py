"""F-score arithmetic against float64 brute force; export format checks."""

from __future__ import annotations

import json

import numpy as np
import pytest

from glyphtext.atlas import build_synthetic_atlas
from glyphtext.errors import ShapeError
from glyphtext.metrics import Metrics, confusion, f_scores, metrics_json
from glyphtext.models import ModelConfig, init_params
from glyphtext.pipeline import Dataset
from glyphtext.train import export_embeddings


def brute_force(cm):
    """Textbook per-class precision/recall/F1 plus micro/macro pooling."""
    C = cm.shape[0]
    prec, rec, f1 = np.zeros(C), np.zeros(C), np.zeros(C)
    for c in range(C):
        tp = cm[c, c]
        fp = cm[:, c].sum() - tp
        fn = cm[c, :].sum() - tp
        prec[c] = tp / (tp + fp) if tp + fp else 0.0
        rec[c] = tp / (tp + fn) if tp + fn else 0.0
        denom = prec[c] + rec[c]
        f1[c] = 2 * prec[c] * rec[c] / denom if denom else 0.0
    tp_all = np.trace(cm)
    fp_all = cm.sum() - tp_all  # every off-diagonal is one FP and one FN
    micro = tp_all / (tp_all + 0.5 * (fp_all + fp_all))
    return prec, rec, f1, micro, f1.mean()


def test_confusion_matrix_counts():
    cm = confusion([0, 1, 1, 2, 0], [0, 1, 2, 2, 1], num_classes=3)
    assert cm.tolist() == [[1, 0, 0], [1, 1, 0], [0, 1, 1]]
    assert cm.sum() == 5


def test_confusion_validates():
    with pytest.raises(ShapeError):
        confusion([0, 1], [0], 2)
    with pytest.raises(ShapeError):
        confusion([0, 3], [0, 1], 3)
    with pytest.raises(ShapeError):
        confusion([0, -1], [0, 1], 3)


@pytest.mark.parametrize("seed", range(10))
def test_f_scores_match_brute_force_on_random_confusions(seed):
    rng = np.random.default_rng(seed)
    C = int(rng.integers(2, 9))
    cm = rng.integers(0, 30, size=(C, C))
    cm[rng.integers(0, C)] = 0  # often leave one class without true samples
    if cm.sum() == 0:
        cm[0, 0] = 1
    m = f_scores(cm)
    prec, rec, f1, micro, macro = brute_force(cm.astype(np.float64))
    assert np.allclose(m.precision, prec, atol=1e-12)
    assert np.allclose(m.recall, rec, atol=1e-12)
    assert np.allclose(m.f1, f1, atol=1e-12)
    assert m.micro_f == pytest.approx(micro, abs=1e-12)
    assert m.macro_f == pytest.approx(macro, abs=1e-12)
    assert m.support.tolist() == cm.sum(axis=1).tolist()


def test_micro_f_equals_accuracy_for_single_label():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=200)
    preds = labels.copy()
    flip = rng.random(200) < 0.3
    preds[flip] = (preds[flip] + 1) % 4
    m = f_scores(confusion(preds, labels, 4))
    assert m.micro_f == pytest.approx((preds == labels).mean())


def test_macro_averages_over_all_mapped_classes():
    # perfect on class 0, absent class 1: macro must still divide by 2
    cm = confusion([0, 0], [0, 0], num_classes=2)
    m = f_scores(cm)
    assert m.f1.tolist() == [1.0, 0.0]
    assert m.macro_f == 0.5


def majority_baseline(train: Dataset, test: Dataset) -> Metrics:
    """Metrics of always predicting the most frequent training label
    (ties broken toward the lowest label id)."""
    counts = np.bincount(train.labels, minlength=train.num_classes)
    majority = int(counts.argmax())  # argmax returns the first (lowest id) maximum
    preds = np.full(test.labels.shape, majority, dtype=np.int64)
    return f_scores(confusion(preds, test.labels, train.num_classes))


def test_majority_baseline():
    train = Dataset([(0, "x")] * 6 + [(1, "y")] * 3 + [(2, "z")],
                    {"a": 0, "b": 1, "c": 2})
    test = Dataset([(0, "t")] * 2 + [(1, "t")] * 5 + [(2, "t")] * 3,
                   {"a": 0, "b": 1, "c": 2})
    m = majority_baseline(train, test)
    assert m.micro_f == pytest.approx(0.2)  # majority class 0 covers 2/10
    assert m.recall.tolist() == [1.0, 0.0, 0.0]
    assert m.macro_f == pytest.approx((2 * 1 * 0.2 / 1.2) / 3)


def test_metrics_json_round_trips():
    cm = confusion([0, 1, 1], [0, 1, 0], num_classes=2)
    m = f_scores(cm)
    blob = json.loads(metrics_json(m, {"ثقافة": 0, "رياضة": 1}))
    assert blob["micro_f"] == pytest.approx(m.micro_f)
    assert blob["macro_f"] == pytest.approx(m.macro_f)
    assert [c["label"] for c in blob["per_class"]] == ["ثقافة", "رياضة"]
    assert [c["support"] for c in blob["per_class"]] == [2, 1]


def test_export_embeddings_tsv(tmp_path):
    keys = [(0xFE8F,), (0xFE91, 0x064E), (0xFEB3,)]
    atlas = build_synthetic_atlas(keys, seed=1)
    params = init_params(ModelConfig("bigru", num_classes=2, wildcard_ratio=0.0), seed=0)
    out = tmp_path / "emb.tsv"
    n = export_embeddings(params, atlas, out)
    assert n == 3
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    names = [ln.split("\t", 1)[0] for ln in lines]
    assert names == ["FE8F", "FE91+064E", "FEB3"]
    for ln in lines:
        vec = [float(v) for v in ln.split("\t")[1:]]
        assert len(vec) == 128
        assert all(np.isfinite(vec))
