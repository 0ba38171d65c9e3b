"""Output checks. Each returns a list of failure messages, empty on success.

The checks take plain values (texts, counts, probabilities, log bytes),
never program objects, so `selfcheck.py` can feed them corrupted results.
Expected values come from the benchmark's own reference in `workloads.py`
or from properties the method must have, never from the code under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from workloads import RESOLVE_LEVELS, cluster_count

# Below this top-two probability margin, float rounding in a different
# batch composition may legitimately flip the argmax.
TIE_MARGIN = 1e-4
PROB_SUM_TOL = 1e-5
CLI_PROB_TOL = 1e-6


def check_cluster_counts(texts, shaped_counts, encoded_lens, cap) -> list[str]:
    """Shaped clusters per document equal the non-mark characters left
    after NFC and Cf/Cc stripping; encoded length is that count capped."""
    bad = []
    for i, (text, shaped, enc) in enumerate(zip(texts, shaped_counts, encoded_lens, strict=True)):
        want = cluster_count(text)
        if shaped != want or enc != min(want, cap):
            bad.append(f"doc {i}: {shaped} shaped / {enc} encoded clusters, expected "
                       f"{want} / {min(want, cap)}")
    return bad[:5]


def check_resolution(observed, expected) -> list[str]:
    got = {level: int(observed.get(level, 0)) for level in RESOLVE_LEVELS}
    want = {level: int(expected.get(level, 0)) for level in RESOLVE_LEVELS}
    return [] if got == want else [f"atlas resolution counts {got}, expected {want}"]


def check_losses(losses) -> list[str]:
    if len(losses) < 2:
        return [f"need at least two epoch losses, got {len(losses)}"]
    if not all(math.isfinite(x) for x in losses):
        return [f"non-finite epoch loss in {losses}"]
    if not losses[-1] < losses[0]:
        return [f"last epoch loss {losses[-1]} is not below the first {losses[0]}"]
    return []


def f_scores(preds, labels, num_classes) -> tuple[float, float]:
    """Micro and macro F from a bincount confusion matrix (0/0 taken as 0)."""
    preds, labels = np.asarray(preds), np.asarray(labels)
    cm = np.bincount(labels * num_classes + preds,
                     minlength=num_classes * num_classes).reshape(num_classes, num_classes)
    tp = np.diag(cm).astype(float)
    pred_n, true_n = cm.sum(axis=0), cm.sum(axis=1)
    prec = np.divide(tp, pred_n, out=np.zeros_like(tp), where=pred_n > 0)
    rec = np.divide(tp, true_n, out=np.zeros_like(tp), where=true_n > 0)
    f1 = np.divide(2 * prec * rec, prec + rec, out=np.zeros_like(tp), where=prec + rec > 0)
    return float(tp.sum() / cm.sum()), float(f1.mean())


def check_f_scores(eval_f, log_f, probs, labels, num_classes) -> list[str]:
    """`run_eval` F equals the final log record and the benchmark's own F
    over its batched predictions `probs` (N, C) for true `labels`.

    A document whose top-two margin is below TIE_MARGIN may take either
    of its two top classes.
    """
    bad = []
    if not np.allclose(eval_f, log_f, rtol=0, atol=1e-12):
        bad.append(f"run_eval micro/macro {eval_f} != final train.log record {log_f}")
    probs = np.asarray(probs)
    order = np.argsort(-probs, axis=1)
    preds = order[:, 0].copy()
    margin = probs[np.arange(len(probs)), order[:, 0]] - probs[np.arange(len(probs)), order[:, 1]]
    ties = np.flatnonzero(margin < TIE_MARGIN)[:10]
    for choice in itertools.product((0, 1), repeat=len(ties)):
        preds[ties] = order[ties, np.array(choice, dtype=np.int64)]
        if np.allclose(f_scores(preds, labels, num_classes), eval_f, rtol=0, atol=1e-12):
            return bad
    bad.append(f"run_eval micro/macro {eval_f} != own bincount F "
               f"{f_scores(order[:, 0], labels, num_classes)}")
    return bad


def check_predictions(labels, probs, names, batched_probs) -> list[str]:
    """Per document: probabilities finite and summing to 1, label their
    argmax, and the same argmax as a batched forward (beyond a tie)."""
    bad = []
    for i, (label, p, q) in enumerate(zip(labels, probs, batched_probs, strict=True)):
        p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
        top2 = np.sort(q)[-2:]
        if not np.isfinite(p).all():
            bad.append(f"doc {i}: non-finite probabilities")
        elif abs(p.sum() - 1.0) > PROB_SUM_TOL:
            bad.append(f"doc {i}: probabilities sum to {p.sum()!r}")
        elif label != names[int(np.argmax(p))]:
            bad.append(f"doc {i}: label {label!r} is not the argmax {names[int(np.argmax(p))]!r}")
        elif top2[1] - top2[0] > TIE_MARGIN and np.argmax(p) != np.argmax(q):
            bad.append(f"doc {i}: single-document argmax {names[int(np.argmax(p))]!r} != "
                       f"batched {names[int(np.argmax(q))]!r}")
    return bad[:5]


def check_cli(cli_outputs, labels, probs, names) -> list[str]:
    """`glyphtext predict` JSON carries the in-process label and probabilities."""
    bad = []
    for i, (out, label, p) in enumerate(zip(cli_outputs, labels, probs)):
        got = out.get("probabilities", {})
        if out.get("label") != label:
            bad.append(f"cli doc {i}: label {out.get('label')!r} != in-process {label!r}")
        elif set(got) != set(names) or any(
                abs(got[n] - float(p[j])) > CLI_PROB_TOL for j, n in enumerate(names)):
            bad.append(f"cli doc {i}: probabilities differ from in-process predict_text")
    if len(cli_outputs) != len(labels):
        bad.append(f"{len(cli_outputs)} cli outputs for {len(labels)} documents")
    return bad[:5]


def check_same_log(untraced: bytes, traced: bytes) -> list[str]:
    if untraced != traced:
        return ["traced train.log differs from the untraced train.log of the same seed"]
    return []
