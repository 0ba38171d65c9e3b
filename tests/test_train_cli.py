"""Checkpoint format, training determinism/resume, and the CLI surface.

The training tests share one tiny synthetic corpus (3 classes, 26 docs)
and a synthetic atlas generated through the CLI itself, so the whole
synth-atlas -> train -> eval -> predict -> export-embeddings flow is
exercised end to end.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import glyphtext.atlas
import glyphtext.checkpoint
import glyphtext.train
from glyphtext.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from glyphtext.cli import main
from glyphtext.errors import (
    CheckpointError,
    CompatibilityError,
    ParameterError,
    TrainingLockError,
)
from glyphtext.pipeline import synth_longtail
from glyphtext.train import TrainConfig, predict_text, run_eval, run_train


# ---------------------------------------------------------------------------
# shared corpus + atlas


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, capsysbinary_not_used=None):
    root = tmp_path_factory.mktemp("traincli")
    ds = synth_longtail(3, 12, 6, seed=0)
    names = {v: k for k, v in ds.label_map.items()}
    lines = [f"{names[lab]}\t{text}" for lab, text in ds.records]
    data = root / "corpus.tsv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    atlas = root / "glyphs.atlas"
    rc = main(["synth-atlas", "--dataset", str(data), "--out", str(atlas), "--seed", "1"])
    assert rc == 0 and atlas.exists()
    return root


def base_config(workdir, ckpt_dir, **kw):
    cfg = dict(
        dataset=str(workdir / "corpus.tsv"),
        atlas=str(workdir / "glyphs.atlas"),
        classifier="bigru",
        checkpoint_dir=str(ckpt_dir),
        max_len=12,
        batch_size=8,
        lr=1e-3,
        beta=0.99,
        wildcard_ratio=0.1,
        epochs=4,
        seed=0,
        eval_every=2,
    )
    cfg.update(kw)
    return TrainConfig(**cfg)


@pytest.fixture(scope="module")
def trained(workdir):
    """One 4-epoch reference run, reused by eval/predict/export tests."""
    ckpt_path, records = run_train(base_config(workdir, workdir / "run_ref"))
    return ckpt_path, records


# ---------------------------------------------------------------------------
# checkpoint serialization


def test_checkpoint_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    ck = Checkpoint(
        config={"format": "glyphtext-train", "label_map": '{"ثقافة": 0}', "epoch": "3"},
        tensors={
            "w": rng.normal(size=(3, 4)).astype(np.float32),
            "b": rng.normal(size=4).astype(np.float32),
            "deep": rng.normal(size=(2, 3, 2, 2)).astype(np.float32),
        },
        rng_blob=b'{"state": 123}',
    )
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, ck)
    loaded = load_checkpoint(p1)
    assert loaded.config == ck.config
    assert loaded.rng_blob == ck.rng_blob
    assert set(loaded.tensors) == set(ck.tensors)
    for k in ck.tensors:
        assert np.array_equal(loaded.tensors[k], ck.tensors[k])
    save_checkpoint(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    p = tmp_path / "c.bin"
    save_checkpoint(p, Checkpoint({"k": "v"}, {"t": np.zeros(2, np.float32)}))
    blob = p.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(blob[:-3])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(trunc)
    trail = tmp_path / "trail.bin"
    trail.write_bytes(blob + b"\0")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(trail)
    with pytest.raises(CheckpointError, match="'='"):
        save_checkpoint(tmp_path / "k.bin", Checkpoint({"a=b": "v"}, {}))


def test_save_checkpoint_fsyncs_before_rename(tmp_path, monkeypatch):
    events = []
    fsync, replace_ = os.fsync, Path.replace

    def record_fsync(fd):
        events.append("fsync")
        fsync(fd)

    def record_replace(self, target):
        events.append("replace")
        return replace_(self, target)

    monkeypatch.setattr(os, "fsync", record_fsync)
    monkeypatch.setattr(Path, "replace", record_replace)
    p = tmp_path / "c.bin"
    save_checkpoint(p, Checkpoint({"k": "v"}, {"t": np.zeros(2, np.float32)}))
    assert events == ["fsync", "replace"]
    assert load_checkpoint(p).config == {"k": "v"}


# ---------------------------------------------------------------------------
# training determinism and resume


def test_same_seed_runs_are_bitwise_identical(workdir, trained):
    ckpt_a, records_a = trained
    ckpt_b, records_b = run_train(base_config(workdir, workdir / "run_twin"))
    assert records_a == records_b
    assert ckpt_a.read_bytes() == ckpt_b.read_bytes()


def test_training_loss_actually_decreases(trained):
    _, records = trained
    losses = [r["loss"] for r in records]
    assert losses[-1] < losses[0]
    assert all(np.isfinite(losses))


def test_eval_epochs_carry_test_metrics(trained):
    _, records = trained
    eval_epochs = [r["epoch"] for r in records if "test_micro" in r]
    assert eval_epochs == [1, 3]  # every 2nd epoch of 4
    for r in records:
        if "test_micro" in r:
            assert 0.0 <= r["test_micro"] <= 1.0
            assert 0.0 <= r["test_macro"] <= 1.0


def test_resume_replays_the_unbroken_run(workdir, trained):
    _, records_full = trained
    d = workdir / "run_resume"
    run_train(base_config(workdir, d, epochs=2))
    ckpt_path, tail = run_train(base_config(workdir, d, epochs=4, resume=True))
    assert [r["epoch"] for r in tail] == [2, 3]
    for mine, ref in zip(tail, records_full[2:]):
        assert mine == ref  # bitwise-equal losses and metrics
    assert ckpt_path.read_bytes() == trained[0].read_bytes()


def test_resume_refuses_mismatched_config(workdir):
    d = workdir / "run_mismatch"
    run_train(base_config(workdir, d, epochs=2))
    with pytest.raises(CompatibilityError, match="seed"):
        run_train(base_config(workdir, d, epochs=4, seed=1, resume=True))
    # a different validation carve-out would change the training split
    with pytest.raises(CompatibilityError, match="val_fraction"):
        run_train(base_config(workdir, d, epochs=4, val_fraction=0.3, resume=True))


def test_resumed_log_equals_unbroken_log(workdir):
    d = workdir / "run_log"
    run_train(base_config(workdir, d, epochs=2))
    # a crash after an epoch's log line but before its checkpoint leaves
    # a line that the resumed run writes again
    with open(d / "train.log", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"epoch": 2, "loss": 9.0}) + "\n")
    run_train(base_config(workdir, d, epochs=3, resume=True))
    ref = workdir / "run_log_ref"
    run_train(base_config(workdir, ref, epochs=3))
    assert (d / "train.log").read_bytes() == (ref / "train.log").read_bytes()
    # a fresh run overwrites the checkpoint, so it starts a fresh log too
    run_train(base_config(workdir, d, epochs=3))
    assert (d / "train.log").read_bytes() == (ref / "train.log").read_bytes()


def test_run_train_drops_records_that_normalize_to_nothing(workdir, tmp_path):
    ds = synth_longtail(3, 4, 4, seed=0)
    names = {v: k for k, v in ds.label_map.items()}
    lines = [f"{names[lab]}\t{text}" for lab, text in ds.records] + [f"{names[0]}\t\u200b"]
    data = tmp_path / "blank.tsv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert len(lines) == 13
    _, records = run_train(base_config(workdir, tmp_path / "blank", dataset=str(data),
                                       epochs=1))
    assert len(records) == 1 and np.isfinite(records[0]["loss"])


def test_epochs_zero_saves_an_initial_checkpoint(workdir, tmp_path):
    ckpt_path, records = run_train(base_config(workdir, tmp_path / "e0", epochs=0))
    assert records == []
    ck = load_checkpoint(ckpt_path)
    assert ck.config["epoch"] == "0"


def test_live_lock_blocks_and_stale_lock_is_reclaimed(workdir, tmp_path):
    d = tmp_path / "locked"
    d.mkdir()
    (d / "train.lock").write_text("1")  # pid 1 is always alive, never us
    with pytest.raises(TrainingLockError, match="locked"):
        run_train(base_config(workdir, d, epochs=1))
    (d / "train.lock").write_text("999999999")  # dead pid: reclaim
    ckpt_path, _ = run_train(base_config(workdir, d, epochs=0))
    assert ckpt_path.exists()
    assert not (d / "train.lock").exists()


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig("d", "a", "bigru", "c", epochs=-1)
    with pytest.raises(ParameterError):
        TrainConfig("d", "a", "bigru", "c", beta=1.0)
    with pytest.raises(ParameterError):
        TrainConfig("d", "a", "bigru", "c", lr=0.0)


def test_clcnn_branch_trains(workdir, tmp_path):
    cfg = base_config(workdir, tmp_path / "clcnn", classifier="clcnn",
                      max_len=18, epochs=1, eval_every=1)
    ckpt_path, records = run_train(cfg)
    assert len(records) == 1 and "test_micro" in records[0]
    assert load_checkpoint(ckpt_path).config["classifier"] == "clcnn"


# ---------------------------------------------------------------------------
# eval / predict / export on the reference run


def test_run_eval_reproduces_training_split_metrics(trained):
    ckpt_path, records = trained
    m = run_eval(ckpt_path)
    final = records[-1]
    assert m.micro_f == pytest.approx(final["test_micro"], abs=1e-12)
    assert m.macro_f == pytest.approx(final["test_macro"], abs=1e-12)


def test_run_eval_writes_metrics_json(trained, tmp_path):
    ckpt_path, _ = trained
    out = tmp_path / "metrics.json"
    m = run_eval(ckpt_path, out_path=out)
    blob = json.loads(out.read_text(encoding="utf-8"))
    assert blob["micro_f"] == pytest.approx(m.micro_f)
    assert len(blob["per_class"]) == 3


def test_run_eval_rejects_foreign_dataset(trained, tmp_path):
    ckpt_path, _ = trained
    other = tmp_path / "other.tsv"
    other.write_text("x\tنص\nx\tنص اخر\ny\tثالث\ny\tرابع\n", encoding="utf-8")
    with pytest.raises(CompatibilityError, match="label map"):
        run_eval(ckpt_path, dataset_path=other)


def test_predict_text_returns_label_and_distribution(workdir, trained):
    ckpt_path, _ = trained
    label, probs = predict_text(ckpt_path, "نص تجريبي قصير")
    assert label in ("class0", "class1", "class2")
    assert probs.shape == (3,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-5)
    assert (probs >= 0).all()


# ---------------------------------------------------------------------------
# restoring a trained model


def test_load_copies_only_what_the_restorers_keep(trained):
    ckpt = load_checkpoint(trained[0])
    moments = [a for name, a in ckpt.tensors.items() if name.startswith("adam.")]
    assert moments and not any(a.flags.owndata for a in moments)
    _, _, params = glyphtext.train._restore_model(ckpt)
    adam = glyphtext.train._restore_adam(ckpt, params, 1e-3)
    kept = [t.data for t in params.params.values()] + list(params.state.values())
    kept += [a for st in adam.state.values() for a in (st.m, st.v)]
    assert all(a.flags.owndata and a.flags.writeable and a.flags.aligned for a in kept)


@pytest.mark.parametrize("change,error", [
    pytest.param(lambda c: c.config.update(gru_layers="2"), CompatibilityError,
                 id="gru_layers"),
    pytest.param(lambda c: c.config.update(mean_all_layers="1"), CompatibilityError,
                 id="mean_all_layers"),
    pytest.param(lambda c: c.tensors.update({"cls.fc.b": np.zeros(4, np.float32)}),
                 CheckpointError, id="misshapen-tensor"),
])
def test_restore_model_refuses_other_sizes_and_shapes(trained, change, error):
    ckpt = load_checkpoint(trained[0])
    change(ckpt)
    with pytest.raises(error):
        glyphtext.train._restore_model(ckpt)


@pytest.mark.parametrize("marker", [
    pytest.param(b"enc.conv1.w", id="tensor-name"),
    pytest.param(b"\nclassifier=", id="config-key"),
])
def test_cli_predict_reports_a_flipped_checkpoint_byte(trained, tmp_path, capsys, marker):
    blob = bytearray(trained[0].read_bytes())
    blob[blob.index(marker) + marker.startswith(b"\n")] ^= 0x01
    bad = tmp_path / "flipped.bin"
    bad.write_bytes(bytes(blob))
    assert main(["predict", "--checkpoint", str(bad), "نص تجريبي قصير"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "CheckpointError"


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_eval_and_predict_read_each_file_once(trained, monkeypatch, capsys):
    ckpt_path, _ = trained
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in (glyphtext.train, glyphtext.checkpoint):
        monkeypatch.setattr(mod, "load_checkpoint", counting("checkpoint", mod.load_checkpoint))
    for mod in (glyphtext.train, glyphtext.atlas):
        monkeypatch.setattr(mod, "load_atlas", counting("atlas", mod.load_atlas))

    text = "نص تجريبي قصير"
    assert main(["predict", "--checkpoint", str(ckpt_path), text]) == 0
    assert calls == {"checkpoint": 1, "atlas": 1}
    pred = json.loads(capsys.readouterr().out.strip())
    calls.clear()
    label, probs = predict_text(ckpt_path, text)
    assert pred["label"] == label
    assert list(pred["probabilities"].values()) == [float(p) for p in probs]

    calls.clear()
    assert main(["eval", "--checkpoint", str(ckpt_path)]) == 0
    assert calls == {"checkpoint": 1, "atlas": 1}
    blob = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    m = run_eval(ckpt_path)
    assert (blob["micro_f"], blob["macro_f"]) == (m.micro_f, m.macro_f)


def test_cli_train_eval_predict_export_flow(workdir, tmp_path, capsys):
    d = tmp_path / "cli_run"
    rc = main([
        "train",
        "--dataset", str(workdir / "corpus.tsv"),
        "--atlas", str(workdir / "glyphs.atlas"),
        "--classifier", "bigru",
        "--checkpoint-dir", str(d),
        "--max-len", "12", "--batch-size", "8", "--epochs", "2",
        "--eval-every", "2", "--seed", "0",
    ])
    assert rc == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    ckpt = json.loads(out_lines[-1])["checkpoint"]
    assert os.path.exists(ckpt)
    # per-epoch JSON log lines went to stdout and train.log
    epochs = [json.loads(l)["epoch"] for l in out_lines[:-1]]
    assert epochs == [0, 1]
    log_lines = (d / "train.log").read_text().strip().splitlines()
    assert [json.loads(l)["epoch"] for l in log_lines] == [0, 1]

    assert main(["eval", "--checkpoint", ckpt]) == 0
    blob = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(blob) == {"micro_f", "macro_f", "per_class"}

    assert main(["predict", "--checkpoint", ckpt, "نص للتصنيف"]) == 0
    pred = json.loads(capsys.readouterr().out.strip())
    assert pred["label"] in pred["probabilities"]
    assert sum(pred["probabilities"].values()) == pytest.approx(1.0, abs=1e-5)

    emb = tmp_path / "emb.tsv"
    assert main(["export-embeddings", "--checkpoint", ckpt, "--out", str(emb)]) == 0
    written = json.loads(capsys.readouterr().out.strip())["written"]
    assert written == len(emb.read_text().splitlines()) > 0


def test_cli_build_atlas(tmp_path, capsys):
    from glyphtext.atlas import BITMAP_BYTES, load_atlas

    d = tmp_path / "glyphs"
    d.mkdir()
    (d / "a.bin").write_bytes(bytes([5]) * BITMAP_BYTES)
    (d / "manifest.txt").write_text("FE8F\ta.bin\n", encoding="utf-8")
    out = tmp_path / "out.atlas"
    assert main(["build-atlas", "--glyph-dir", str(d), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 1
    assert len(load_atlas(out)) == 1


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_runtime_error_exits_1(tmp_path, capsys):
    rc = main(["eval", "--checkpoint", str(tmp_path / "missing.bin")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "error" in err and "message" in err


def test_cli_missing_required_flag_exits_1(tmp_path, capsys):
    rc = main(["train", "--dataset", "x.tsv"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "--atlas" in err["message"]


def test_cli_config_file_with_flag_override(workdir, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "# defaults for the smoke run\n"
        f"dataset = {workdir / 'corpus.tsv'}\n"
        f"atlas = {workdir / 'glyphs.atlas'}\n"
        "classifier = bigru\n"
        "max-len = 12\n"
        "batch-size = 4\n"
        "epochs = 5\n"
        "beta = off\n",
        encoding="utf-8",
    )
    d = tmp_path / "cfg_run"
    rc = main(["train", "--config", str(cfg), "--checkpoint-dir", str(d),
               "--epochs", "1"])
    assert rc == 0
    ckpt = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["checkpoint"]
    stored = load_checkpoint(ckpt).config
    assert stored["epochs"] == "1"      # flag beats file
    assert stored["batch_size"] == "4"  # file beats default
    assert stored["beta"] == "off"


def test_cli_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for key in ("no-such-option", "mean_all_layers"):
        cfg.write_text(f"{key} = 1\n", encoding="utf-8")
        rc = main(["train", "--config", str(cfg)])
        assert rc == 1
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert "unknown key" in message and key in message


def test_cli_refuses_threads_below_one(tmp_path, capsys):
    cfg = tmp_path / "threads.cfg"
    cfg.write_text("checkpoint = missing.bin\nthreads = 0\n", encoding="utf-8")
    for argv in (["predict", "--checkpoint", "missing.bin", "--threads", "0", "نص"],
                 ["predict", "--config", str(cfg), "نص"]):
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ParameterError" and "threads" in err["message"]
