"""Training, evaluation, and prediction over checkpoint directories.

A training run owns its checkpoint directory through a pid lock file.
Every epoch appends one JSON record to `train.log` (and stdout); eval
epochs add held-out micro/macro F and write `checkpoint.bin`. A run first
cuts `train.log` back to the epochs its starting checkpoint holds, so a
resumed run leaves the same log as an unbroken one. All
randomness derives from the run seed: parameter init, the stateful
wildcard-dropout stream, and per-epoch batch shuffles use separate
seed-sequence branches, and the wildcard stream's generator state is
serialized into the checkpoint so a resumed run replays exactly the
loss log an unbroken run would have produced.
"""

from __future__ import annotations

import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .atlas import GlyphAtlas, load_atlas, to_feature
from .balance import cb_weights
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .errors import (
    CheckpointError,
    CompatibilityError,
    DatasetError,
    DivergenceError,
    ParameterError,
    TrainingLockError,
)
from .metrics import Metrics, confusion, f_scores, metrics_json
from .models import (
    GRU_HIDDEN,
    GRU_LAYERS,
    ModelConfig,
    ModelParams,
    _encoder_stack,
    forward_documents,
    init_params,
    param_table,
)
from .nn.ops import softmax, softmax_cross_entropy
from .nn.optim import Adam, AdamState
from .nn.tensor import Tensor
from .pipeline import (
    Dataset,
    GlyphIndex,
    class_counts,
    encode_corpus,
    encode_document,
    iter_id_batches,
    load_dataset,
    split_stratified,
)
from .shaping import ArabicShaper

__all__ = ["TrainConfig", "run_train", "run_eval", "predict_text", "export_embeddings"]

log = logging.getLogger(__name__)

CHECKPOINT_NAME = "checkpoint.bin"
LOG_NAME = "train.log"
LOCK_NAME = "train.lock"


@dataclass
class TrainConfig:
    dataset: str
    atlas: str
    classifier: str
    checkpoint_dir: str
    max_len: Optional[int] = None
    batch_size: int = 64
    lr: float = 1e-3
    beta: Optional[float] = 0.99  # None disables class-balanced weighting
    wildcard_ratio: float = 0.1
    epochs: int = 150
    seed: int = 0
    eval_every: int = 10
    val_fraction: float = 0.0
    stratified: bool = True
    resume: bool = False

    def __post_init__(self):
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ParameterError(f"lr must be positive, got {self.lr}")
        if self.beta is not None and not 0.0 <= self.beta < 1.0:
            raise ParameterError(f"beta must lie in [0, 1) or be disabled, got {self.beta}")
        if self.eval_every < 1:
            raise ParameterError(f"eval_every must be >= 1, got {self.eval_every}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ParameterError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


@contextmanager
def _lock_dir(ckpt_dir: Path):
    lock = ckpt_dir / LOCK_NAME
    for attempt in range(2):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            break
        except FileExistsError:
            try:
                pid = int(lock.read_text() or "0")
            except (ValueError, OSError):
                pid = 0
            if pid and _pid_alive(pid) and pid != os.getpid():
                raise TrainingLockError(
                    f"checkpoint dir {ckpt_dir} is locked by running process {pid}"
                )
            if attempt:
                raise TrainingLockError(f"could not claim stale lock {lock}")
            lock.unlink(missing_ok=True)  # stale: owner is gone
    try:
        yield
    finally:
        lock.unlink(missing_ok=True)


def _model_config(cfg: TrainConfig, num_classes: int) -> ModelConfig:
    return ModelConfig(
        classifier=cfg.classifier,
        num_classes=num_classes,
        max_len=cfg.max_len,
        wildcard_ratio=cfg.wildcard_ratio,
    )


# The BiGRU has one size. Checkpoints still record it, so the file format
# stays as it was, and `_restore_model` refuses any other size.
_FIXED_ARCH = {
    "gru_hidden": str(GRU_HIDDEN),
    "gru_layers": str(GRU_LAYERS),
    "mean_all_layers": "0",
}
# Every key `_config_dict` writes.
_CONFIG_KEYS = frozenset((
    "format", "classifier", "num_classes", "max_len", "wildcard_ratio", *_FIXED_ARCH,
    "dataset", "atlas", "batch_size", "lr", "beta", "epochs", "seed", "eval_every",
    "val_fraction", "stratified", "epoch", "adam_step", "num_glyphs", "label_map",
))


def _config_dict(
    cfg: TrainConfig,
    mcfg: ModelConfig,
    label_map: dict[str, int],
    epoch: int,
    adam_step: int,
    num_glyphs: int,
) -> dict[str, str]:
    return {
        "format": "glyphtext-train",
        "classifier": mcfg.classifier,
        "num_classes": str(mcfg.num_classes),
        "max_len": "" if mcfg.max_len is None else str(mcfg.max_len),
        "wildcard_ratio": repr(mcfg.wildcard_ratio),
        **_FIXED_ARCH,
        "dataset": str(cfg.dataset),
        "atlas": str(cfg.atlas),
        "batch_size": str(cfg.batch_size),
        "lr": repr(cfg.lr),
        "beta": "off" if cfg.beta is None else repr(cfg.beta),
        "epochs": str(cfg.epochs),
        "seed": str(cfg.seed),
        "eval_every": str(cfg.eval_every),
        "val_fraction": repr(cfg.val_fraction),
        "stratified": "1" if cfg.stratified else "0",
        "epoch": str(epoch),
        "adam_step": str(adam_step),
        "num_glyphs": str(num_glyphs),
        "label_map": json.dumps(label_map, ensure_ascii=False),
    }


def _assemble_checkpoint(
    cfg: TrainConfig,
    mcfg: ModelConfig,
    label_map: dict[str, int],
    params: ModelParams,
    adam: Adam,
    epoch: int,
    rng: np.random.Generator,
    num_glyphs: int,
) -> Checkpoint:
    config = _config_dict(cfg, mcfg, label_map, epoch, adam.step_count, num_glyphs)
    tensors: dict[str, np.ndarray] = {}
    for name, t in params.params.items():
        tensors[name] = t.data
    for name, arr in params.state.items():
        tensors["state." + name] = arr
    for name in params.params:
        st = adam.state[name]
        tensors["adam.m." + name] = st.m
        tensors["adam.v." + name] = st.v
    rng_blob = json.dumps(rng.bit_generator.state).encode("utf-8")
    return Checkpoint(config, tensors, rng_blob)


def _restore_model(ckpt: Checkpoint) -> tuple[ModelConfig, dict[str, int], ModelParams]:
    """Rebuild the model a checkpoint holds, after checking that its config
    keys and its tensor names and shapes are exactly what the writer makes.

    Parameters and running statistics are copied out of the file buffer, so
    they are aligned and writable; Adam moments are left to `_restore_adam`.
    """
    c = ckpt.config
    if c.get("format") != "glyphtext-train":
        raise CompatibilityError(f"not a training checkpoint (format={c.get('format')!r})")
    _check_names("config key", c, _CONFIG_KEYS)
    for key, want in _FIXED_ARCH.items():
        if c[key] != want:
            raise CompatibilityError(
                f"checkpoint has {key}={c[key]!r}; the model supports only {want!r}"
            )
    mcfg = ModelConfig(
        classifier=c["classifier"],
        num_classes=int(c["num_classes"]),
        max_len=int(c["max_len"]) if c["max_len"] else None,
        wildcard_ratio=float(c["wildcard_ratio"]),
    )
    label_map = json.loads(c["label_map"])
    table = param_table(mcfg)
    shapes: dict[str, tuple[int, ...]] = {}
    for name, (shape, _) in table.items():
        shapes[name] = shape
        if not name.startswith("state."):
            shapes["adam.m." + name] = shapes["adam.v." + name] = shape
    _check_names("tensor", ckpt.tensors, shapes)
    for name, arr in ckpt.tensors.items():
        if arr.shape != shapes[name]:
            raise CheckpointError(
                f"checkpoint tensor {name!r} has shape {arr.shape}, expected {shapes[name]}"
            )
    params: dict[str, Tensor] = {}
    state: dict[str, np.ndarray] = {}
    for name in table:
        if name.startswith("state."):
            state[name[len("state.") :]] = ckpt.tensors[name].copy()
        else:
            params[name] = Tensor(ckpt.tensors[name].copy(), requires_grad=True)
    return mcfg, label_map, ModelParams(params, state)


def _check_names(kind: str, got, want) -> None:
    missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
    if missing or extra:
        raise CheckpointError(f"checkpoint {kind}s differ: missing {missing}, unexpected {extra}")


def _restore_adam(ckpt: Checkpoint, params: ModelParams, lr: float) -> Adam:
    """Adam with the checkpoint's moments, copied out of the file buffer;
    `_restore_model` has already checked that they are all present."""
    state = {
        name: AdamState(ckpt.tensors["adam.m." + name].copy(),
                        ckpt.tensors["adam.v." + name].copy())
        for name in params.params
    }
    return Adam(params.params, lr=lr, step_count=int(ckpt.config["adam_step"]), state=state)


def _evaluate(
    params: ModelParams,
    mcfg: ModelConfig,
    docs,
    labels: np.ndarray,
    bank: np.ndarray,
    batch_size: int,
) -> Metrics:
    preds, labs = [], []
    for ids, lens, lab in iter_id_batches(docs, labels, batch_size, mcfg.max_len, 0, 0):
        logits = forward_documents(ids, lens, bank, params, mcfg, "eval")
        preds.append(np.argmax(logits.data, axis=1))
        labs.append(lab)
    return f_scores(confusion(np.concatenate(preds), np.concatenate(labs), mcfg.num_classes))


_RESUME_KEYS = (
    "classifier", "num_classes", "max_len", "wildcard_ratio", "batch_size", "lr",
    "beta", "seed", "val_fraction", "stratified", "num_glyphs", "label_map",
)


def _truncate_log(log_path: Path, epoch: int) -> None:
    """Keep only the records of epochs before `epoch`, as an unbroken run
    would have written them; a line torn by a crash is dropped too."""
    if not log_path.exists():
        return
    kept = []
    for line in log_path.read_text(encoding="utf-8").splitlines():
        try:
            if json.loads(line)["epoch"] < epoch:
                kept.append(line + "\n")
        except (ValueError, TypeError, KeyError):
            continue
    tmp = log_path.with_name(log_path.name + ".tmp")
    tmp.write_text("".join(kept), encoding="utf-8")
    tmp.replace(log_path)


def run_train(cfg: TrainConfig) -> tuple[Path, list[dict]]:
    """Train per `cfg`; returns the checkpoint path and per-epoch records."""
    ckpt_dir = Path(cfg.checkpoint_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    with _lock_dir(ckpt_dir):
        return _run_train_locked(cfg, ckpt_dir)


def _run_train_locked(cfg: TrainConfig, ckpt_dir: Path) -> tuple[Path, list[dict]]:
    ds = load_dataset(cfg.dataset)
    atlas = load_atlas(cfg.atlas)
    index = GlyphIndex(atlas)
    bank = index.bank()
    shaper = ArabicShaper()

    train_ds, test_ds = split_stratified(ds, 0.2, cfg.seed, stratified=cfg.stratified)
    val_ds: Optional[Dataset] = None
    if cfg.val_fraction > 0:
        train_ds, val_ds = split_stratified(
            train_ds, cfg.val_fraction, cfg.seed, stratified=cfg.stratified
        )

    mcfg = _model_config(cfg, ds.num_classes)
    counts = class_counts(train_ds)
    weights = cb_weights(counts, cfg.beta) if cfg.beta is not None else None

    ckpt_path = ckpt_dir / CHECKPOINT_NAME
    start_epoch = 0
    if cfg.resume and ckpt_path.exists():
        ckpt = load_checkpoint(ckpt_path)
        fresh = _config_dict(cfg, mcfg, dict(ds.label_map), 0, 0, index.num_glyphs)
        for key in _RESUME_KEYS:
            if ckpt.config.get(key) != fresh[key]:
                raise CompatibilityError(
                    f"cannot resume: checkpoint {key}={ckpt.config.get(key)!r} "
                    f"differs from requested {fresh[key]!r}"
                )
        mcfg, _, params = _restore_model(ckpt)
        adam = _restore_adam(ckpt, params, cfg.lr)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
        rng.bit_generator.state = json.loads(ckpt.rng_blob.decode("utf-8"))
        start_epoch = int(ckpt.config["epoch"])
    else:
        params = init_params(mcfg, cfg.seed)
        adam = Adam(params.params, lr=cfg.lr)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))

    docs_train = encode_corpus(train_ds, index, shaper, cfg.max_len)
    labels_train = train_ds.labels
    docs_test = encode_corpus(test_ds, index, shaper, cfg.max_len)
    docs_val = encode_corpus(val_ds, index, shaper, cfg.max_len) if val_ds else None

    log_path = ckpt_dir / LOG_NAME
    _truncate_log(log_path, start_epoch)
    records: list[dict] = []

    def emit(rec: dict) -> None:
        line = json.dumps(rec)
        print(line, flush=True)
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        records.append(rec)

    def save(epoch_done: int) -> None:
        save_checkpoint(
            ckpt_path,
            _assemble_checkpoint(
                cfg, mcfg, dict(ds.label_map), params, adam, epoch_done, rng,
                index.num_glyphs,
            ),
        )

    if start_epoch >= cfg.epochs:
        save(start_epoch)
        return ckpt_path, records

    warned_single = False
    for epoch in range(start_epoch, cfg.epochs):
        total_loss, n_batches = 0.0, 0
        for bi, (ids, lens, labs) in enumerate(
            iter_id_batches(docs_train, labels_train, cfg.batch_size, cfg.max_len,
                            cfg.seed, epoch)
        ):
            if len(labs) == 1 and mcfg.classifier == "bigru":
                # batch norm cannot run on a single-document training batch
                if not warned_single:
                    log.warning("skipping size-1 batch(es); batch norm needs >= 2 documents")
                    warned_single = True
                continue
            logits = forward_documents(ids, lens, bank, params, mcfg, "train", rng)
            loss = softmax_cross_entropy(logits, labs, weights)
            lv = float(loss.data)
            if not np.isfinite(lv):
                raise DivergenceError(f"non-finite loss at epoch {epoch}, batch {bi}")
            adam.zero_grad()
            loss.backward()
            adam.step()
            total_loss += lv
            n_batches += 1
        if n_batches == 0:
            raise DatasetError("every training batch was skipped; use a larger dataset "
                               "or a batch size that avoids single-document batches")

        rec = {"epoch": epoch, "loss": total_loss / n_batches}
        is_eval = (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1
        if is_eval:
            m = _evaluate(params, mcfg, docs_test, test_ds.labels, bank, cfg.batch_size)
            rec["test_micro"], rec["test_macro"] = m.micro_f, m.macro_f
            if docs_val is not None:
                mv = _evaluate(params, mcfg, docs_val, val_ds.labels, bank, cfg.batch_size)
                rec["val_micro"], rec["val_macro"] = mv.micro_f, mv.macro_f
            save(epoch + 1)
        emit(rec)
    return ckpt_path, records


@dataclass(frozen=True)
class _Trained:
    """A checkpoint restored for inference, with the atlas it was trained on."""

    config: dict[str, str]
    mcfg: ModelConfig
    label_map: dict[str, int]
    params: ModelParams
    index: GlyphIndex


def _load_trained(checkpoint_path) -> _Trained:
    """Read the checkpoint and its stored atlas once, and check they match."""
    ckpt = load_checkpoint(checkpoint_path)
    mcfg, label_map, params = _restore_model(ckpt)
    c = ckpt.config
    index = GlyphIndex(load_atlas(c["atlas"]))
    if index.num_glyphs != int(c["num_glyphs"]):
        raise CompatibilityError(
            f"atlas has {index.num_glyphs} glyphs but checkpoint was trained with "
            f"{c['num_glyphs']}"
        )
    return _Trained(c, mcfg, label_map, params, index)


def _eval_trained(
    model: _Trained, dataset_path=None, seed: Optional[int] = None, out_path=None
) -> Metrics:
    c = model.config
    ds = load_dataset(dataset_path or c["dataset"])
    if ds.label_map != model.label_map:
        raise CompatibilityError(
            "dataset label map does not match the checkpoint's "
            f"({len(ds.label_map)} vs {len(model.label_map)} classes or different labels)"
        )
    split_seed = seed if seed is not None else int(c["seed"])
    _, test_ds = split_stratified(ds, 0.2, split_seed, stratified=c["stratified"] == "1")
    docs = encode_corpus(test_ds, model.index, ArabicShaper(), model.mcfg.max_len)
    m = _evaluate(model.params, model.mcfg, docs, test_ds.labels, model.index.bank(),
                  int(c["batch_size"]))
    if out_path is not None:
        Path(out_path).write_text(metrics_json(m, model.label_map) + "\n", encoding="utf-8")
    return m


def _predict_trained(model: _Trained, text: str) -> tuple[str, np.ndarray]:
    doc = encode_document(text, model.index, ArabicShaper(), model.mcfg.max_len)
    ids = doc.glyph_ids[None, :]
    lens = np.array([doc.true_len], dtype=np.int64)
    logits = forward_documents(ids, lens, model.index.bank(), model.params, model.mcfg, "eval")
    probs = softmax(logits.data)[0]
    by_id = {v: k for k, v in model.label_map.items()}
    return by_id[int(np.argmax(probs))], probs


def run_eval(
    checkpoint_path,
    dataset_path=None,
    seed: Optional[int] = None,
    out_path=None,
) -> Metrics:
    """Re-create the held-out split from the stored seed and score it."""
    return _eval_trained(_load_trained(checkpoint_path), dataset_path, seed, out_path)


def predict_text(checkpoint_path, text: str) -> tuple[str, np.ndarray]:
    """Classify one document; returns (label, per-class probabilities)."""
    return _predict_trained(_load_trained(checkpoint_path), text)


def export_embeddings(params: ModelParams, atlas: GlyphAtlas, path) -> int:
    """Write one `key<TAB>128 floats` line per atlas entry; returns the count.

    Keys are the entry codepoints in hex, '+'-joined. Encoding runs in
    chunks so large atlases stay within memory.
    """
    keys = list(atlas.entries)
    written = 0
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(keys), 256):
            chunk = keys[start : start + 256]
            feats = np.stack([to_feature(atlas.entries[k]) for k in chunk])
            emb = _encoder_stack(Tensor(feats), params.params).data
            for key, vec in zip(chunk, emb):
                name = "+".join(f"{cp:04X}" for cp in key)
                fh.write(name + "\t" + "\t".join(repr(float(v)) for v in vec) + "\n")
                written += 1
    return written
