"""Document classifiers over glyph-image character embeddings.

A shared convolutional character encoder maps each 36x36 glyph bitmap to a
128-dim vector; documents are then classified either by a character-level
CNN over the embedding sequence (fixed length) or by a 3-layer
bidirectional GRU with a masked time-average sentence embedding (variable
length). Wildcard training — dropout of whole character vectors — sits
between the encoder and either classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, ShapeError
from .nn import ops
from .nn.tensor import Tensor

__all__ = [
    "ModelConfig",
    "ModelParams",
    "param_table",
    "init_params",
    "encode_unique",
    "wildcard_dropout",
    "clcnn_forward",
    "bigru_forward",
    "forward_documents",
    "CLCNN_MIN_LEN",
]

GLYPH_SIZE = 36
EMBED_DIM = 128
GRU_HIDDEN = 128  # units per direction
GRU_LAYERS = 3
# Two stride-3 max-pools then an adaptive pool to length 2: need L//3//3 >= 2.
CLCNN_MIN_LEN = 18

_f32 = np.float32


@dataclass(frozen=True)
class ModelConfig:
    classifier: str  # "clcnn" | "bigru"
    num_classes: int
    max_len: Optional[int] = None  # required for clcnn; None = unbounded (bigru)
    wildcard_ratio: float = 0.1

    def __post_init__(self):
        if self.classifier not in ("clcnn", "bigru"):
            raise ParameterError(f"classifier must be 'clcnn' or 'bigru', got {self.classifier!r}")
        if self.num_classes < 2:
            raise ParameterError(f"num_classes must be >= 2, got {self.num_classes}")
        if not 0.0 <= self.wildcard_ratio < 1.0:
            raise ParameterError(f"wildcard_ratio must lie in [0, 1), got {self.wildcard_ratio}")
        if self.classifier == "clcnn":
            if self.max_len is None:
                raise ParameterError("clcnn requires a finite max_len")
            if self.max_len < CLCNN_MIN_LEN:
                raise ParameterError(
                    f"clcnn max_len must be >= {CLCNN_MIN_LEN} "
                    f"(two stride-3 pools then an adaptive pool to 2), got {self.max_len}"
                )
        if self.max_len is not None and self.max_len < 1:
            raise ParameterError(f"max_len must be >= 1, got {self.max_len}")


@dataclass
class ModelParams:
    """Learned tensors plus non-learned running statistics (batch norm)."""

    params: dict[str, Tensor]
    state: dict[str, np.ndarray]


def param_table(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Name -> (shape, init) of every tensor `config` implies, in the order
    `init_params` draws them.

    init is "uniform" (U(±1/sqrt(fan_in)), fan_in = prod(shape[1:])),
    "zeros" or "ones". Names under "state." are the batch-norm running
    statistics, which are not learned.
    """
    u, z = "uniform", "zeros"
    t = {
        # Character encoder (shared by both classifiers).
        "enc.conv1.w": ((32, 1, 3, 3), u), "enc.conv1.b": ((32,), z),
        "enc.conv2.w": ((32, 32, 3, 3), u), "enc.conv2.b": ((32,), z),
        "enc.conv3.w": ((32, 32, 3, 3), u), "enc.conv3.b": ((32,), z),
        "enc.fc1.w": ((EMBED_DIM, 800), u), "enc.fc1.b": ((EMBED_DIM,), z),
        "enc.fc2.w": ((EMBED_DIM, EMBED_DIM), u), "enc.fc2.b": ((EMBED_DIM,), z),
    }
    nc = config.num_classes
    if config.classifier == "clcnn":
        for i in (1, 2, 3, 4):
            t[f"cls.conv{i}.w"] = ((512, EMBED_DIM if i == 1 else 512, 3), u)
            t[f"cls.conv{i}.b"] = ((512,), z)
        t["cls.fc1.w"], t["cls.fc1.b"] = ((1024, 1024), u), ((1024,), z)
        t["cls.fc2.w"], t["cls.fc2.b"] = ((nc, 1024), u), ((nc,), z)
    else:
        h = GRU_HIDDEN
        for layer in range(1, GRU_LAYERS + 1):
            d_in = EMBED_DIM if layer == 1 else 2 * h
            for d in ("f", "b"):
                t[f"cls.gru{layer}{d}.wx"] = ((3 * h, d_in), u)
                t[f"cls.gru{layer}{d}.wh"] = ((3 * h, h), u)
                t[f"cls.gru{layer}{d}.b"] = ((3 * h,), z)
        t["cls.bn.gamma"], t["cls.bn.beta"] = ((2 * h,), "ones"), ((2 * h,), z)
        t["state.cls.bn.running_mean"] = ((2 * h,), z)
        t["state.cls.bn.running_var"] = ((2 * h,), "ones")
        t["cls.fc.w"], t["cls.fc.b"] = ((nc, 2 * h), u), ((nc,), z)
    return t


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Deterministic parameter set for `config`, drawn from `param_table`:
    U(±1/sqrt(fan_in)) weights, zero biases, batch-norm scale 1 / shift 0,
    running stats (0, 1)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    params: dict[str, Tensor] = {}
    state: dict[str, np.ndarray] = {}
    for name, (shape, init) in param_table(config).items():
        if init == "uniform":
            bound = 1.0 / np.sqrt(math.prod(shape[1:]))
            arr = rng.uniform(-bound, bound, size=shape).astype(_f32)
        else:
            arr = (np.zeros if init == "zeros" else np.ones)(shape, dtype=_f32)
        if name.startswith("state."):
            state[name[len("state.") :]] = arr
        else:
            params[name] = Tensor(arr, requires_grad=True)
    return ModelParams(params, state)


def _encoder_stack(x: Tensor, params: dict[str, Tensor]) -> Tensor:
    """(N,1,36,36) -> (N,128) through the conv/pool/fc encoder stack."""
    if x.ndim != 4 or x.shape[1:] != (1, GLYPH_SIZE, GLYPH_SIZE):
        raise ShapeError(f"encoder input must be (N, 1, 36, 36), got {x.shape}")
    h = ops.relu(ops.conv2d(x, params["enc.conv1.w"], params["enc.conv1.b"]))  # 34
    h = ops.maxpool2d(h, 2)  # 17
    h = ops.relu(ops.conv2d(h, params["enc.conv2.w"], params["enc.conv2.b"]))  # 15
    h = ops.maxpool2d(h, 2)  # 7
    h = ops.relu(ops.conv2d(h, params["enc.conv3.w"], params["enc.conv3.b"]))  # 5
    h = ops.reshape(h, (h.shape[0], 32 * 5 * 5))  # 800
    h = ops.relu(ops.linear(h, params["enc.fc1.w"], params["enc.fc1.b"]))
    h = ops.relu(ops.linear(h, params["enc.fc2.w"], params["enc.fc2.b"]))
    return h


def encode_unique(
    glyph_ids: np.ndarray, bank: np.ndarray, params: ModelParams
) -> Tensor:
    """Encode a (B, L) glyph-id grid against a (G, 1, 36, 36) bitmap bank.

    Runs the encoder once per distinct glyph in the batch and gathers rows
    back into position — the encoder is a pure per-bitmap function, so this
    matches encoding every position independently.
    """
    glyph_ids = np.asarray(glyph_ids)
    if glyph_ids.ndim != 2:
        raise ShapeError(f"glyph_ids must be (B, L), got {glyph_ids.shape}")
    B, L = glyph_ids.shape
    uniq, inverse = np.unique(glyph_ids.ravel(), return_inverse=True)
    if uniq[0] < 0 or uniq[-1] >= bank.shape[0]:
        raise ShapeError(f"glyph id outside bank of {bank.shape[0]} bitmaps")
    enc = _encoder_stack(Tensor(bank[uniq]), params.params)  # (U, 128)
    flat = ops.gather_rows(enc, inverse)
    return ops.reshape(flat, (B, L, EMBED_DIM))


def wildcard_dropout(
    embeddings: Tensor, ratio: float, rng: Optional[np.random.Generator], mode: str
) -> Tensor:
    """Zero whole character vectors with probability `ratio` (train only)."""
    if embeddings.ndim != 3:
        raise ShapeError(f"wildcard_dropout needs (B, L, E), got {embeddings.shape}")
    B, L, _ = embeddings.shape
    return ops.dropout(embeddings, ratio, rng, mode, mask_shape=(B, L, 1))


def clcnn_forward(embeddings: Tensor, params: ModelParams, config: ModelConfig) -> Tensor:
    """(B, max_len, 128) embeddings -> (B, nc) logits through the 1-d conv stack."""
    if embeddings.ndim != 3 or embeddings.shape[2] != EMBED_DIM:
        raise ShapeError(f"embeddings must be (B, L, {EMBED_DIM}), got {embeddings.shape}")
    if embeddings.shape[1] != config.max_len:
        raise ShapeError(
            f"clcnn expects sequence length {config.max_len}, got {embeddings.shape[1]}"
        )
    p = params.params
    h = ops.swap_axes(embeddings, 1, 2)  # (B, 128, L)
    h = ops.relu(ops.conv1d(h, p["cls.conv1.w"], p["cls.conv1.b"]))
    h = ops.maxpool1d(h, 3)
    h = ops.relu(ops.conv1d(h, p["cls.conv2.w"], p["cls.conv2.b"]))
    h = ops.maxpool1d(h, 3)
    h = ops.relu(ops.conv1d(h, p["cls.conv3.w"], p["cls.conv3.b"]))
    h = ops.relu(ops.conv1d(h, p["cls.conv4.w"], p["cls.conv4.b"]))
    h = ops.adaptive_maxpool1d(h, 2)  # (B, 512, 2)
    h = ops.reshape(h, (h.shape[0], 1024))
    h = ops.relu(ops.linear(h, p["cls.fc1.w"], p["cls.fc1.b"]))
    return ops.linear(h, p["cls.fc2.w"], p["cls.fc2.b"])


def _gru_step(
    xg_t: Tensor, h_prev: Tensor, w_h_zr: Tensor, w_h_n: Tensor, dh: int
) -> Tensor:
    """One recurrence step given the precomputed input projection xg_t (B, 3h)."""
    hg = ops.linear(h_prev, w_h_zr)  # (B, 2h): update and reset recurrent terms
    z = ops.sigmoid(ops.add(ops.narrow(xg_t, 1, 0, dh), ops.narrow(hg, 1, 0, dh)))
    r = ops.sigmoid(ops.add(ops.narrow(xg_t, 1, dh, 2 * dh), ops.narrow(hg, 1, dh, 2 * dh)))
    n = ops.tanh(
        ops.add(ops.narrow(xg_t, 1, 2 * dh, 3 * dh), ops.linear(ops.mul(r, h_prev), w_h_n))
    )
    return ops.add(ops.mul(ops.affine(z, -1.0, 1.0), h_prev), ops.mul(z, n))


def _gru_direction(
    x_seq: Tensor,
    mask: np.ndarray,
    w_x: Tensor,
    w_h: Tensor,
    b: Tensor,
    reverse: bool,
) -> Tensor:
    """Run one GRU direction over (B, L, d_in); returns states (B, L, h).

    `mask` is (B, L) with 1 at real positions. Masked steps keep the
    previous state, so trailing padding never leaks into real positions —
    in particular the reverse scan carries h = 0 across padding before it
    reaches the document tail.
    """
    B, L, d_in = x_seq.shape
    dh = w_h.shape[1]
    # Project every time step's input in one matrix product.
    xg_all = ops.linear(ops.reshape(x_seq, (B * L, d_in)), w_x, b)
    xg_all = ops.reshape(xg_all, (B, L, 3 * dh))
    w_h_zr = ops.narrow(w_h, 0, 0, 2 * dh)
    w_h_n = ops.narrow(w_h, 0, 2 * dh, 3 * dh)

    h = Tensor(np.zeros((B, dh), dtype=_f32))
    order = range(L - 1, -1, -1) if reverse else range(L)
    steps: list[Tensor] = [h] * L
    full_mask = bool(mask.all())
    for t in order:
        h_new = _gru_step(ops.select_time(xg_all, t), h, w_h_zr, w_h_n, dh)
        if full_mask:
            h = h_new
        else:
            m = Tensor(mask[:, t : t + 1])  # (B, 1)
            h = ops.add(ops.mul(m, h_new), ops.mul(ops.affine(m, -1.0, 1.0), h))
        steps[t] = h
    return ops.stack_time(steps)


def bigru_forward(
    embeddings: Tensor,
    lengths: np.ndarray,
    params: ModelParams,
    config: ModelConfig,
    mode: str,
) -> Tensor:
    """(B, L, 128) embeddings + per-document lengths -> (B, nc) logits."""
    if embeddings.ndim != 3 or embeddings.shape[2] != EMBED_DIM:
        raise ShapeError(f"embeddings must be (B, L, {EMBED_DIM}), got {embeddings.shape}")
    B, L, _ = embeddings.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (B,):
        raise ShapeError(f"lengths shape {lengths.shape} != ({B},)")
    if lengths.min() < 1 or lengths.max() > L:
        raise ShapeError(f"lengths must lie in [1, {L}], got range "
                         f"[{lengths.min()}, {lengths.max()}]")
    p = params.params
    mask = (np.arange(L)[None, :] < lengths[:, None]).astype(_f32)

    layer_in = embeddings
    for layer in range(1, GRU_LAYERS + 1):
        fwd = _gru_direction(
            layer_in, mask, p[f"cls.gru{layer}f.wx"], p[f"cls.gru{layer}f.wh"],
            p[f"cls.gru{layer}f.b"], reverse=False,
        )
        bwd = _gru_direction(
            layer_in, mask, p[f"cls.gru{layer}b.wx"], p[f"cls.gru{layer}b.wh"],
            p[f"cls.gru{layer}b.b"], reverse=True,
        )
        layer_in = ops.concat_last(fwd, bwd)  # (B, L, 2h)

    sent = ops.masked_mean_time(layer_in, lengths)  # (B, 2h)
    sent = ops.batch_norm(
        sent, p["cls.bn.gamma"], p["cls.bn.beta"],
        params.state["cls.bn.running_mean"], params.state["cls.bn.running_var"],
        mode,
    )
    return ops.linear(sent, p["cls.fc.w"], p["cls.fc.b"])


def forward_documents(
    glyph_ids: np.ndarray,
    lengths: np.ndarray,
    bank: np.ndarray,
    params: ModelParams,
    config: ModelConfig,
    mode: str,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Full pipeline: glyph ids -> shared encoder -> wildcard -> classifier."""
    emb = encode_unique(glyph_ids, bank, params)
    emb = wildcard_dropout(emb, config.wildcard_ratio, rng, mode)
    if config.classifier == "clcnn":
        return clcnn_forward(emb, params, config)
    return bigru_forward(emb, np.asarray(lengths), params, config, mode)
