"""Self-check of the benchmark's output checks.

    python3 perfbench/selfcheck.py

Feeds every check in `checks.py` a correct result, which must pass, and
deliberately corrupted ones (a dropped cluster, a moved resolution count,
permuted predictions, a perturbed probability, an edited log, ...), each
of which must fail. Expected values are worked out by hand here, not by
the benchmark's reference code. Needs numpy only; exits 1 if any case
goes the wrong way.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

# (text, clusters counted by hand): marks ride on their letter, ZWNJ/RLM
# vanish, spaces, digits and Latin letters count one each.
TEXTS = [
    ("كَتَبَ", 3),
    ("مُحَمَّدٌ", 4),
    ("مرحبا بكم", 9),
    ("كتا‌ب 2019", 9),
    ("‏سلام abc", 8),
]


def _probs(rows):
    p = np.array(rows, dtype=np.float64)
    return p / p.sum(axis=1, keepdims=True)


# Five documents, three classes; predictions [0, 1, 1, 1, 2] for labels
# [0, 0, 1, 1, 2]: micro F = 4/5, per-class F = 2/3, 4/5, 1.
LABELS = np.array([0, 0, 1, 1, 2])
PROBS = _probs([[.7, .2, .1], [.2, .7, .1], [.1, .8, .1], [.2, .6, .2], [.1, .1, .8]])
F = (0.8, (2 / 3 + 0.8 + 1.0) / 3)
NAMES = ["a", "b", "c"]
PRED_LABELS = [NAMES[i] for i in PROBS.argmax(axis=1)]


def cases():
    texts = [t for t, _ in TEXTS]
    counts = [n for _, n in TEXTS]
    yield "clusters: correct", True, checks.check_cluster_counts(texts, counts, counts, 128)
    dropped = counts[:1] + [counts[1] - 1] + counts[2:]
    yield "clusters: dropped cluster", False, checks.check_cluster_counts(
        texts, dropped, counts, 128)
    yield "clusters: encoded past the cap", False, checks.check_cluster_counts(
        texts, counts, counts, 4)
    capped = [min(n, 4) for n in counts]
    yield "clusters: capped at max_len", True, checks.check_cluster_counts(
        texts, counts, capped, 4)

    want = {"exact": 90, "bare": 5, "isolated": 3, "fallback": 2}
    yield "resolution: correct", True, checks.check_resolution(dict(want), want)
    yield "resolution: exact counted as fallback", False, checks.check_resolution(
        dict(want, exact=89, fallback=3), want)

    yield "losses: decreasing", True, checks.check_losses([1.6, 1.5, 1.4])
    yield "losses: non-finite", False, checks.check_losses([1.6, float("nan"), 1.4])
    yield "losses: rising", False, checks.check_losses([1.4, 1.5, 1.6])
    yield "losses: one epoch", False, checks.check_losses([1.4])

    yield "f: correct", True, checks.check_f_scores(F, F, PROBS, LABELS, 3)
    yield "f: permuted predictions", False, checks.check_f_scores(
        F, F, PROBS[[4, 0, 1, 2, 3]], LABELS, 3)
    yield "f: log disagrees", False, checks.check_f_scores(F, (0.6, F[1]), PROBS, LABELS, 3)
    tie = PROBS.copy()
    tie[1] = [0.45, 0.45 - 5e-5, 0.10 + 5e-5]  # top-two margin below TIE_MARGIN
    yield "f: near-tie may go either way", True, checks.check_f_scores(F, F, tie, LABELS, 3)

    yield "predict: correct", True, checks.check_predictions(PRED_LABELS, PROBS, NAMES, PROBS)
    bumped = PROBS.copy()
    bumped[2, 0] += 1e-3
    yield "predict: perturbed probability", False, checks.check_predictions(
        PRED_LABELS, bumped, NAMES, PROBS)
    nan = PROBS.copy()
    nan[0, 2] = np.nan
    yield "predict: non-finite", False, checks.check_predictions(PRED_LABELS, nan, NAMES, PROBS)
    yield "predict: label not the argmax", False, checks.check_predictions(
        ["c"] + PRED_LABELS[1:], PROBS, NAMES, PROBS)
    yield "predict: batched forward disagrees", False, checks.check_predictions(
        PRED_LABELS, PROBS, NAMES, PROBS[[1, 0, 2, 3, 4]])

    cli = [{"label": lab, "probabilities": {n: float(p[j]) for j, n in enumerate(NAMES)}}
           for lab, p in zip(PRED_LABELS, PROBS)]
    yield "cli: correct", True, checks.check_cli(cli, PRED_LABELS, PROBS, NAMES)
    wrong = [dict(c) for c in cli]
    wrong[3] = dict(wrong[3], label="a")
    yield "cli: wrong label", False, checks.check_cli(wrong, PRED_LABELS, PROBS, NAMES)
    drift = [dict(c) for c in cli]
    drift[0] = dict(drift[0], probabilities=dict(drift[0]["probabilities"], a=0.71))
    yield "cli: perturbed probability", False, checks.check_cli(drift, PRED_LABELS, PROBS, NAMES)
    yield "cli: missing output", False, checks.check_cli(cli[:-1], PRED_LABELS, PROBS, NAMES)

    log = b'{"epoch": 0, "loss": 1.6}\n{"epoch": 1, "loss": 1.5}\n'
    yield "log: identical", True, checks.check_same_log(log, bytes(log))
    yield "log: one digit differs", False, checks.check_same_log(log, log.replace(b"1.5", b"1.4"))


def main() -> int:
    wrong = 0
    for name, should_pass, failures in cases():
        ok = (not failures) == should_pass
        wrong += not ok
        verdict = "pass" if not failures else "fail"
        print(f"{'ok ' if ok else 'BAD'} {name}: check says {verdict}"
              + ("" if ok else f" ({failures})"))
    print(f"{wrong} case(s) went the wrong way")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
