"""Release gate: one test per shipping criterion.

`pytest -v tests/test_acceptance.py` yields exactly one pass/fail line
per criterion; each test also prints a `[criterion NN] PASS` summary
with the measured numbers (visible with -rA / -s).  Tolerances and
budgets are pinned constants here — nothing is tuned at run time.  The
per-module suites exercise the same ground in finer grain; this module
re-checks the headline behaviour end to end.

Training-based criteria (05-08) run real training loops on synthetic
long-tailed corpora and take several minutes on one CPU.
"""
from __future__ import annotations

import os
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

import test_balance
import test_metrics
import test_shaping
import test_tensor_ops as tto
from gradharness import COMPOSITE_KW, COMPOSITE_SEEDS, COMPOSITE_TOL, build_composite

from glyphtext.atlas import build_synthetic_atlas, save_atlas
from glyphtext.balance import cb_weights, effective_number
from glyphtext.checkpoint import load_checkpoint
from glyphtext.metrics import f_scores
from glyphtext.models import ModelConfig, forward_documents, init_params
from glyphtext.nn import finite_diff_check, ops
from glyphtext.nn.ops import softmax_cross_entropy
from glyphtext.nn.optim import Adam
from glyphtext.nn.tensor import Tensor
from glyphtext.pipeline import (
    Dataset,
    GlyphIndex,
    encode_corpus,
    iter_id_batches,
    synth_longtail,
)
from glyphtext.shaping import ArabicShaper, presentation_form
from glyphtext.train import TrainConfig, run_train

ROOT = Path(__file__).resolve().parents[1]
F32 = np.float32


def make_env(dirpath: Path, ds: Dataset) -> tuple[Path, Path]:
    """Write `ds` as a TSV plus a synthetic atlas covering all its clusters."""
    by_id = {v: k for k, v in ds.label_map.items()}
    tsv = dirpath / "corpus.tsv"
    with open(tsv, "w", encoding="utf-8") as fh:
        for label, text in ds.records:
            fh.write(f"{by_id[label]}\t{text}\n")
    shaper = ArabicShaper()
    keys = set()
    for _, text in ds.records:
        for sc in shaper.shape_text(text):
            keys.add((presentation_form(sc.base, sc.form), *sc.marks))
    atlas_path = dirpath / "glyphs.atlas"
    save_atlas(build_synthetic_atlas(sorted(keys), seed=0), atlas_path)
    return tsv, atlas_path


@pytest.fixture(scope="module")
def longtail(tmp_path_factory):
    """Memoised trainer on the shared 5-class long-tailed corpus.

    Criteria 06 and 07 draw from the same run grid, so results are cached
    by (classifier, beta, seed, epochs) and each configuration trains once.
    """
    base = tmp_path_factory.mktemp("longtail")
    tsv, atlas = make_env(base, synth_longtail(5, 1000, 10, seed=0))
    cache: dict[tuple, dict] = {}

    def run(classifier: str, beta, seed: int, epochs: int) -> dict:
        key = (classifier, beta, seed, epochs)
        if key not in cache:
            cfg = TrainConfig(
                dataset=str(tsv),
                atlas=str(atlas),
                classifier=classifier,
                checkpoint_dir=str(base / f"{classifier}-{beta}-{seed}-{epochs}"),
                max_len=18 if classifier == "clcnn" else None,
                batch_size=64,
                lr=1e-3,
                beta=beta,
                wildcard_ratio=0.1,
                epochs=epochs,
                seed=seed,
                eval_every=epochs,  # evaluate held-out metrics at the final epoch
            )
            _, records = run_train(cfg)
            cache[key] = records[-1]
        return cache[key]

    return run


# ---------------------------------------------------------------------------
# criterion 01 — gradient checks: every operator + end-to-end composite


def test_criterion_01_gradient_checks():
    t0 = time.monotonic()
    checks = [
        ("linear", tto.test_fd_linear, ()),
        ("relu", tto.test_fd_relu, ()),
        ("conv2d", tto.test_fd_conv2d, ()),
        ("conv1d-same", tto.test_fd_conv1d, (6,)),
        ("maxpool1d", tto.test_fd_maxpool1d, ()),
        ("maxpool2d", tto.test_fd_maxpool2d, ()),
        ("adaptive-maxpool1d", tto.test_fd_adaptive_maxpool1d, ()),
        ("gru-cell", tto.test_fd_gru_cell, ()),
        ("batch-norm-train", tto.test_fd_batch_norm_train, ()),
        ("batch-norm-eval", tto.test_fd_batch_norm_eval, ()),
        ("dropout", tto.test_fd_dropout, ()),
        ("masked-mean-time", tto.test_fd_masked_mean_time, ()),
        ("gather-rows", tto.test_fd_gather_rows, ()),
        ("softmax-ce", tto.test_fd_softmax_ce, (False,)),
        ("softmax-ce-weighted", tto.test_fd_softmax_ce, (True,)),
        ("structural-ops", tto.test_fd_structural_ops, ()),
    ]
    assert len(tto.SEEDS) >= 5
    for _, fn, extra in checks:
        for seed in tto.SEEDS:
            fn(seed, *extra)  # each asserts rel err < 1e-2 internally

    # composite: encoder -> BiGRU head -> class-balanced CE, all wrt leaves
    assert len(COMPOSITE_SEEDS) >= 5
    worst = 0.0
    for seed in COMPOSITE_SEEDS:
        f, leaves = build_composite(seed)
        worst = max(worst, finite_diff_check(f, leaves, seed=seed, **COMPOSITE_KW))
    assert worst < COMPOSITE_TOL

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(
        f"[criterion 01] PASS — {len(checks)} operator checks x {len(tto.SEEDS)} seeds"
        f" + composite x {len(COMPOSITE_SEEDS)} seeds"
        f" (worst composite rel err {worst:.2e} < {COMPOSITE_TOL:g}) in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 02 — architecture fidelity: 800-flatten, 256-wide sentence
# embedding, 1024-wide CLCNN flatten, checked on a live forward trace


def test_criterion_02_architecture_shapes():
    rng = np.random.default_rng(0)

    bcfg = ModelConfig("bigru", num_classes=7)
    pb = init_params(bcfg, seed=0)
    t = pb.params

    # character encoder, op by op
    x = Tensor(rng.random((3, 1, 36, 36)).astype(F32), requires_grad=False)
    h = ops.relu(ops.conv2d(x, t["enc.conv1.w"], t["enc.conv1.b"]))
    assert h.shape == (3, 32, 34, 34)
    h = ops.maxpool2d(h, 2)
    assert h.shape == (3, 32, 17, 17)
    h = ops.relu(ops.conv2d(h, t["enc.conv2.w"], t["enc.conv2.b"]))
    assert h.shape == (3, 32, 15, 15)
    h = ops.maxpool2d(h, 2)
    assert h.shape == (3, 32, 7, 7)
    h = ops.relu(ops.conv2d(h, t["enc.conv3.w"], t["enc.conv3.b"]))
    assert h.shape == (3, 32, 5, 5)
    flat = ops.reshape(h, (h.shape[0], 32 * 5 * 5))
    assert flat.shape == (3, 800)
    assert t["enc.fc1.w"].shape == (128, 800)
    assert t["enc.fc2.w"].shape == (128, 128)

    # BiGRU head: 128 hidden per direction, 3 stacked layers, 256-wide
    # sentence embedding into batch norm and the linear classifier
    for layer in (1, 2, 3):
        d_in = 128 if layer == 1 else 256
        for d in ("f", "b"):
            assert t[f"cls.gru{layer}{d}.wx"].shape == (384, d_in)
            assert t[f"cls.gru{layer}{d}.wh"].shape == (384, 128)
    assert t["cls.bn.gamma"].shape == (256,)
    assert t["cls.fc.w"].shape == (7, 256)
    bank = rng.random((5, 1, 36, 36)).astype(F32)
    ids = np.array([[1, 2, 3], [4, 1, 0]])
    logits = forward_documents(ids, np.array([3, 2]), bank, pb, bcfg, "eval")
    assert logits.shape == (2, 7)

    # CLCNN head at max_len 60, op by op
    ccfg = ModelConfig("clcnn", num_classes=11, max_len=60)
    pc = init_params(ccfg, seed=0)
    tc = pc.params
    e = Tensor(rng.random((2, 60, 128)).astype(F32), requires_grad=False)
    h = ops.swap_axes(e, 1, 2)
    assert h.shape == (2, 128, 60)
    h = ops.relu(ops.conv1d(h, tc["cls.conv1.w"], tc["cls.conv1.b"]))
    assert h.shape == (2, 512, 60)
    h = ops.maxpool1d(h, 3)
    assert h.shape == (2, 512, 20)
    h = ops.relu(ops.conv1d(h, tc["cls.conv2.w"], tc["cls.conv2.b"]))
    h = ops.maxpool1d(h, 3)
    assert h.shape == (2, 512, 6)
    h = ops.relu(ops.conv1d(h, tc["cls.conv3.w"], tc["cls.conv3.b"]))
    h = ops.relu(ops.conv1d(h, tc["cls.conv4.w"], tc["cls.conv4.b"]))
    assert h.shape == (2, 512, 6)
    h = ops.adaptive_maxpool1d(h, 2)
    assert h.shape == (2, 512, 2)
    flat = ops.reshape(h, (h.shape[0], 1024))
    assert flat.shape == (2, 1024)
    assert tc["cls.fc1.w"].shape == (1024, 1024)
    assert tc["cls.fc2.w"].shape == (11, 1024)
    ids = rng.integers(0, 5, size=(2, 60))
    logits = forward_documents(ids, np.full(2, 60), bank, pc, ccfg, "eval")
    assert logits.shape == (2, 11)

    print(
        "[criterion 02] PASS — encoder flattens to 800, BiGRU sentence"
        " embedding is 256-wide, CLCNN flattens to 1024 (live traces)"
    )


# ---------------------------------------------------------------------------
# criterion 03 — effective-number weighting against high-precision reference


def test_criterion_03_effective_number_numerics():
    worst = 0.0
    for beta in (0.0, 0.9, 0.99, 0.999):
        for n in (1, 10, 100, 10000):
            got = float(effective_number(np.array([n]), beta)[0])
            want = test_balance.oracle_effective(n, beta)  # 50-digit mpmath
            worst = max(worst, abs(got - want) / want)
    assert worst < 1e-9

    # beta -> 1 limit: weights approach inverse class frequency
    counts = np.array([1, 10, 100, 10000])
    w = cb_weights(counts, 1.0 - 1e-9)
    inv = 1.0 / counts
    inv *= len(counts) / inv.sum()  # same sum-to-C normalisation
    limit_err = float(np.max(np.abs(w - inv) / inv))
    assert limit_err < 1e-4

    print(
        f"[criterion 03] PASS — grid rel err {worst:.2e} < 1e-9;"
        f" beta->1 inverse-frequency deviation {limit_err:.2e} < 1e-4"
    )


# ---------------------------------------------------------------------------
# criterion 04 — contextual shaping against an independent oracle


def test_criterion_04_shaping_conformance():
    shaper = ArabicShaper()
    rng = np.random.default_rng(12345)
    n_strings = 1200
    mismatches = 0
    for _ in range(n_strings):
        text = test_shaping.random_arabic_text(rng)
        if test_shaping.shaper_forms(shaper, text) != test_shaping.oracle_forms(text):
            mismatches += 1
    assert mismatches == 0

    # exemplars: sin takes all four contextual forms
    from glyphtext.shaping import Form

    seen, beh = "س", "ب"
    assert test_shaping.shaper_forms(shaper, seen) == [Form.ISOLATED]
    assert test_shaping.shaper_forms(shaper, seen + beh)[0] == Form.INITIAL
    assert test_shaping.shaper_forms(shaper, beh + seen + beh)[1] == Form.MEDIAL
    assert test_shaping.shaper_forms(shaper, beh + seen)[1] == Form.FINAL

    # beh + fatha form one cluster: the mark rides on the base glyph
    clusters = shaper.shape_text(beh + "َ")
    assert len(clusters) == 1
    assert clusters[0].base == 0x0628 and clusters[0].marks == (0x064E,)

    print(
        f"[criterion 04] PASS — 0/{n_strings} oracle mismatches;"
        " sin takes all four forms; diacritic stays in its cluster"
    )


# ---------------------------------------------------------------------------
# criterion 05 — both classifiers overfit a 64-document two-class corpus


def _overfit_epochs(classifier: str, cap: int) -> tuple[int, float]:
    """Train on all 64 documents; return (epochs until 100% train acc, secs)."""
    t0 = time.monotonic()
    ds = synth_longtail(2, 32, 32, seed=0)  # 64 docs, two balanced classes
    shaper = ArabicShaper()
    keys = set()
    for _, text in ds.records:
        for sc in shaper.shape_text(text):
            keys.add((presentation_form(sc.base, sc.form), *sc.marks))
    index = GlyphIndex(build_synthetic_atlas(sorted(keys), seed=0))
    bank = index.bank()

    max_len = 18 if classifier == "clcnn" else None
    mcfg = ModelConfig(classifier, num_classes=2, max_len=max_len, wildcard_ratio=0.0)
    params = init_params(mcfg, seed=0)
    adam = Adam(params.params, lr=1e-3)
    rng = np.random.default_rng(1)
    docs = encode_corpus(ds, index, shaper, max_len)
    labels = ds.labels

    for epoch in range(cap):
        for ids, lens, labs in iter_id_batches(docs, labels, 16, max_len, 0, epoch):
            logits = forward_documents(ids, lens, bank, params, mcfg, "train", rng)
            loss = softmax_cross_entropy(logits, labs)
            adam.zero_grad()
            loss.backward()
            adam.step()
        preds, labs_all = [], []
        for ids, lens, labs in iter_id_batches(docs, labels, 16, max_len, 0, 0):
            out = forward_documents(ids, lens, bank, params, mcfg, "eval")
            preds.append(np.argmax(out.data, axis=1))
            labs_all.append(labs)
        if float((np.concatenate(preds) == np.concatenate(labs_all)).mean()) == 1.0:
            return epoch + 1, time.monotonic() - t0
    return 0, time.monotonic() - t0  # 0 = never reached 100%


def test_criterion_05_overfit_tiny_corpus():
    ep_b, sec_b = _overfit_epochs("bigru", cap=100)
    assert 0 < ep_b <= 100
    assert sec_b < 300.0
    ep_c, sec_c = _overfit_epochs("clcnn", cap=200)
    assert 0 < ep_c <= 200
    assert sec_c < 300.0
    print(
        f"[criterion 05] PASS — 100% train accuracy: bigru in {ep_b} epochs"
        f" ({sec_b:.1f}s), clcnn in {ep_c} epochs ({sec_c:.1f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 06 — class-balanced weighting helps macro-F on the long tail


def test_criterion_06_class_balance_effect(longtail):
    t0 = time.monotonic()
    budgets = {"bigru": 3, "clcnn": 16}
    means: dict[tuple, tuple[float, float]] = {}
    for clf, epochs in budgets.items():
        for beta in (0.99, None):
            rows = [longtail(clf, beta, seed, epochs) for seed in (0, 1, 2)]
            means[clf, beta] = (
                float(np.mean([r["test_micro"] for r in rows])),
                float(np.mean([r["test_macro"] for r in rows])),
            )
    elapsed = time.monotonic() - t0

    parts = []
    for clf in budgets:
        mi_cb, ma_cb = means[clf, 0.99]
        mi_off, ma_off = means[clf, None]
        assert ma_cb >= ma_off, (
            f"{clf}: balanced macro-F {ma_cb:.4f} < unweighted {ma_off:.4f}"
        )
        assert mi_off - mi_cb <= 0.02, (
            f"{clf}: micro-F degraded by {mi_off - mi_cb:.4f} > 0.02"
        )
        parts.append(
            f"{clf} macro {ma_cb:.3f}>= {ma_off:.3f}, micro {mi_cb:.3f} vs {mi_off:.3f}"
        )
    assert elapsed < 1800.0
    print(
        f"[criterion 06] PASS — 3 seeds each: {'; '.join(parts)} ({elapsed:.0f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 07 — BiGRU outperforms CLCNN on macro-F at an equal epoch budget


def test_criterion_07_classifier_ordering(longtail):
    epochs = 16
    macro_b = float(
        np.mean([longtail("bigru", 0.99, s, epochs)["test_macro"] for s in (0, 1, 2)])
    )
    macro_c = float(
        np.mean([longtail("clcnn", 0.99, s, epochs)["test_macro"] for s in (0, 1, 2)])
    )
    assert macro_b >= macro_c, f"bigru {macro_b:.4f} < clcnn {macro_c:.4f}"
    print(
        f"[criterion 07] PASS — mean macro-F over 3 seeds at {epochs} epochs:"
        f" bigru {macro_b:.4f} >= clcnn {macro_c:.4f}"
    )


# ---------------------------------------------------------------------------
# criterion 08 — bitwise reproducibility and exact resume


def test_criterion_08_determinism_and_resume(tmp_path):
    tsv, atlas = make_env(tmp_path, synth_longtail(3, 12, 6, seed=0))

    def cfg(ckpt_dir: str, epochs: int, resume: bool = False) -> TrainConfig:
        return TrainConfig(
            dataset=str(tsv),
            atlas=str(atlas),
            classifier="bigru",
            checkpoint_dir=str(tmp_path / ckpt_dir),
            max_len=None,
            batch_size=8,
            lr=1e-3,
            beta=0.99,
            wildcard_ratio=0.1,
            epochs=epochs,
            seed=0,
            eval_every=2,
            resume=resume,
        )

    path_a, rec_a = run_train(cfg("run_a", 4))
    path_b, rec_b = run_train(cfg("run_b", 4))
    assert rec_a == rec_b
    bytes_a = path_a.read_bytes()
    assert bytes_a == path_b.read_bytes()

    # stop after 2 epochs, resume to 4: loss log and weights match exactly
    path_c, rec_c1 = run_train(cfg("run_c", 2))
    _, rec_c2 = run_train(cfg("run_c", 4, resume=True))
    assert rec_c1 == rec_a[:2]
    assert rec_c2 == rec_a[2:]
    assert path_c.read_bytes() == bytes_a

    ck = load_checkpoint(path_a)
    assert ck.config["epoch"] == "4"
    print(
        "[criterion 08] PASS — twin runs byte-identical"
        f" ({len(bytes_a)} bytes); interrupted+resumed run reproduces the"
        " unbroken loss log and final checkpoint exactly"
    )


# ---------------------------------------------------------------------------
# criterion 09 — documented full-scale benchmark script


def test_criterion_09_full_scale_script():
    script = ROOT / "scripts" / "run_full_scale.sh"
    assert script.is_file()
    assert os.access(script, os.X_OK)
    subprocess.run(["bash", "-n", str(script)], check=True)
    out = subprocess.run(
        [str(script), "--help"], capture_output=True, text=True, check=True
    ).stdout
    for token in ("--awt", "--arap", "--out", "epochs"):
        assert token in out
    print(
        "[criterion 09] PASS — scripts/run_full_scale.sh exists, is"
        " executable, parses (bash -n), and documents its protocol"
    )


# ---------------------------------------------------------------------------
# criterion 10 — F-scores against brute force; majority baseline exact


def test_criterion_10_metrics_correctness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        C = int(rng.integers(2, 9))
        cm = rng.integers(0, 40, size=(C, C))
        if rng.random() < 0.3:
            cm[int(rng.integers(0, C)), :] = 0  # absent class
        if cm.sum() == 0:
            cm[0, 0] = 1
        m = f_scores(cm)
        prec, rec, f1, micro, macro = test_metrics.brute_force(cm)
        worst = max(
            worst,
            float(np.max(np.abs(m.precision - prec))),
            float(np.max(np.abs(m.recall - rec))),
            float(np.max(np.abs(m.f1 - f1))),
            abs(m.micro_f - micro),
            abs(m.macro_f - macro),
        )
    assert worst <= 1e-12

    label_map = {"a": 0, "b": 1, "c": 2}
    train = Dataset([(0, "x")] * 6 + [(1, "y")] * 3 + [(2, "z")], label_map)
    test = Dataset([(0, "t")] * 2 + [(1, "t")] * 5 + [(2, "t")] * 3, label_map)
    m = test_metrics.majority_baseline(train, test)
    assert m.micro_f == 2 / 10  # exactly the majority class share of the test set
    print(
        f"[criterion 10] PASS — 100 random confusion matrices within"
        f" {worst:.1e} of brute force (<= 1e-12); majority-baseline micro-F"
        " equals the majority share exactly"
    )
