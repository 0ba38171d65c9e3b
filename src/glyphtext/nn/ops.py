"""Differentiable operators.

Each function takes Tensors, validates shapes, computes the forward value,
and records a backward closure producing exact vector-Jacobian products.
Convolutions lower to im2col matrix products; their input gradients are
computed as full correlations with flipped kernels so both directions run
on BLAS. Max pooling routes gradient to the first maximal element of each
window (lowest linear index).

Operators take exactly the batched shapes the models pass them: a leading
batch axis is required, never added.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import LabelError, ParameterError, ShapeError
from .tensor import Tensor

__all__ = [
    "add",
    "mul",
    "affine",
    "relu",
    "sigmoid",
    "tanh",
    "reshape",
    "swap_axes",
    "narrow",
    "concat_last",
    "select_time",
    "stack_time",
    "masked_mean_time",
    "gather_rows",
    "tsum",
    "linear",
    "conv2d",
    "conv1d",
    "maxpool2d",
    "maxpool1d",
    "adaptive_maxpool1d",
    "batch_norm",
    "dropout",
    "softmax",
    "softmax_cross_entropy",
]

_f32 = np.float32


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        a.accumulate(_unbroadcast(g, a.shape))
        b.accumulate(_unbroadcast(g, b.shape))

    return _node(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), backward)


def affine(x: Tensor, scale: float, shift: float = 0.0) -> Tensor:
    """Elementwise scale * x + shift with scalar constants."""
    s = _f32(scale)
    data = s * x.data + _f32(shift)

    def backward(g):
        x.accumulate(s * g)

    return _node(data, (x,), backward)


# When not None (armed by nn.gradcheck), every relu/maxpool forward appends
# a byte-string encoding of the branch it took. Two forward passes with equal
# traces provably evaluated the same piecewise-linear region.
_BRANCH_TRACE: "list[bytes] | None" = None


def relu(x: Tensor) -> Tensor:
    """max(0, x); subgradient at 0 is 0."""
    mask = x.data > 0
    if _BRANCH_TRACE is not None:
        _BRANCH_TRACE.append(np.packbits(mask).tobytes())

    def backward(g):
        x.accumulate(g * mask)

    return _node(x.data * mask, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    # Split by sign to keep exp() arguments non-positive.
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out[~pos] = e / (1.0 + e)

    def backward(g):
        x.accumulate(g * out * (1.0 - out))

    return _node(out, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def backward(g):
        x.accumulate(g * (1.0 - out * out))

    return _node(out, (x,), backward)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    data = x.data.reshape(shape)

    def backward(g):
        x.accumulate(g.reshape(x.shape))

    return _node(data, (x,), backward)


def swap_axes(x: Tensor, a1: int, a2: int) -> Tensor:
    data = np.ascontiguousarray(np.swapaxes(x.data, a1, a2))

    def backward(g):
        x.accumulate(np.swapaxes(g, a1, a2))

    return _node(data, (x,), backward)


def narrow(x: Tensor, axis: int, lo: int, hi: int) -> Tensor:
    """Contiguous slice [lo, hi) along one axis."""
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(lo, hi)
    idx = tuple(idx)
    data = np.ascontiguousarray(x.data[idx])

    def backward(g):
        if x.grad is None and x.requires_grad:
            x.grad = np.zeros_like(x.data)
        if x.requires_grad:
            x.grad[idx] += g

    return _node(data, (x,), backward)


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat_last: leading shapes differ, {a.shape} vs {b.shape}")
    na = a.shape[-1]
    data = np.concatenate([a.data, b.data], axis=-1)

    def backward(g):
        a.accumulate(g[..., :na])
        b.accumulate(g[..., na:])

    return _node(data, (a, b), backward)


def select_time(x: Tensor, t: int) -> Tensor:
    """Step t of a (B, L, C) sequence -> (B, C)."""
    if x.ndim != 3:
        raise ShapeError(f"select_time needs (B, L, C), got {x.shape}")
    data = np.ascontiguousarray(x.data[:, t, :])

    def backward(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[:, t, :] += g

    return _node(data, (x,), backward)


def stack_time(steps: Sequence[Tensor]) -> Tensor:
    """Stack L tensors of shape (B, C) into (B, L, C)."""
    data = np.stack([s.data for s in steps], axis=1)
    steps = tuple(steps)

    def backward(g):
        for t, s in enumerate(steps):
            s.accumulate(g[:, t, :])

    return _node(data, steps, backward)


def masked_mean_time(x: Tensor, lengths: np.ndarray) -> Tensor:
    """Per-row mean of x[b, :lengths[b], :] over the time axis."""
    if x.ndim != 3:
        raise ShapeError(f"masked_mean_time needs (B, L, C), got {x.shape}")
    B, L, _ = x.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (B,) or lengths.min() < 1 or lengths.max() > L:
        raise ShapeError(f"lengths must lie in [1, {L}] with shape ({B},), got {lengths!r}")
    mask = (np.arange(L)[None, :] < lengths[:, None]).astype(_f32)  # (B, L)
    inv_len = (1.0 / lengths).astype(_f32)[:, None]
    data = (x.data * mask[:, :, None]).sum(axis=1) * inv_len

    def backward(g):
        x.accumulate(g[:, None, :] * (mask * inv_len)[:, :, None])

    return _node(data, (x,), backward)


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Row lookup out[i] = x[index[i]]; gradient scatter-adds per row."""
    index = np.asarray(index, dtype=np.int64)
    if index.min() < 0 or index.max() >= x.shape[0]:
        raise ShapeError(f"gather_rows: index outside [0, {x.shape[0]})")
    data = x.data[index]

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, index, g)
        x.accumulate(gx)

    return _node(data, (x,), backward)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    data = np.asarray(x.data.sum(), dtype=_f32)

    def backward(g):
        x.accumulate(np.broadcast_to(g, x.shape))

    return _node(data, (x,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w.T (+ b) for x of shape (B, n_in) and w of shape (n_out, n_in)."""
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"linear needs 2-D input/weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear input width {x.shape[1]} != weight fan-in {w.shape[1]}")
    data = x.data @ w.data.T
    if b is not None:
        if b.shape != (w.shape[0],):
            raise ShapeError(f"linear bias shape {b.shape} != ({w.shape[0]},)")
        data = data + b.data

    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        if x.requires_grad:
            x.accumulate(g @ w.data)
        if w.requires_grad:
            w.accumulate(g.T @ x.data)
        if b is not None:
            b.accumulate(g.sum(axis=0))

    return _node(data, parents, backward)


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Valid (unpadded) stride-1 2-D convolution.

    x: (B, C, H, W); w: (F, C, kh, kw); b: (F,). Output spatial size is
    (H - kh + 1, W - kw + 1).
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d needs (B, C, H, W) input, got {x.shape}")
    if w.ndim != 4:
        raise ShapeError(f"conv2d weight must be (F, C, kh, kw), got {w.shape}")
    B, C, H, W = x.shape
    F, Cw, kh, kw = w.shape
    if Cw != C:
        raise ShapeError(f"conv2d channel axis mismatch: input C={C}, weight C={Cw}")
    if H < kh or W < kw:
        raise ShapeError(f"conv2d input {H}x{W} smaller than kernel {kh}x{kw}")
    if b.shape != (F,):
        raise ShapeError(f"conv2d bias shape {b.shape} != ({F},)")
    OH, OW = H - kh + 1, W - kw + 1

    win = sliding_window_view(x.data, (kh, kw), axis=(2, 3))  # (B,C,OH,OW,kh,kw)
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(B * OH * OW, C * kh * kw)
    out = cols @ w.data.reshape(F, -1).T + b.data
    out = np.ascontiguousarray(out.reshape(B, OH, OW, F).transpose(0, 3, 1, 2))

    def backward(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(B * OH * OW, F)
        if w.requires_grad:
            w.accumulate((gmat.T @ cols).reshape(w.shape))
        if b.requires_grad:
            b.accumulate(gmat.sum(axis=0))
        if x.requires_grad:
            gpad = np.zeros((B, F, OH + 2 * (kh - 1), OW + 2 * (kw - 1)), dtype=_f32)
            gpad[:, :, kh - 1 : kh - 1 + OH, kw - 1 : kw - 1 + OW] = g
            win2 = sliding_window_view(gpad, (kh, kw), axis=(2, 3))  # (B,F,H,W,kh,kw)
            cols2 = np.ascontiguousarray(win2.transpose(0, 2, 3, 1, 4, 5)).reshape(
                B * H * W, F * kh * kw
            )
            wf = np.ascontiguousarray(
                w.data[:, :, ::-1, ::-1].transpose(0, 2, 3, 1)
            ).reshape(F * kh * kw, C)
            gx = (cols2 @ wf).reshape(B, H, W, C).transpose(0, 3, 1, 2)
            x.accumulate(np.ascontiguousarray(gx))

    return _node(out, (x, w, b), backward)


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Stride-1 1-D convolution over (B, C, L) input with an odd kernel k.

    Zero-pads (k - 1) / 2 positions at each end, so the output keeps length L.
    """
    if x.ndim != 3:
        raise ShapeError(f"conv1d needs (B, C, L) input, got {x.shape}")
    if w.ndim != 3:
        raise ShapeError(f"conv1d weight must be (F, C, k), got {w.shape}")
    B, C, L = x.shape
    F, Cw, k = w.shape
    if Cw != C:
        raise ShapeError(f"conv1d channel axis mismatch: input C={C}, weight C={Cw}")
    if k % 2 == 0:
        raise ShapeError(f"conv1d needs an odd kernel for same padding, got k={k}")
    if b.shape != (F,):
        raise ShapeError(f"conv1d bias shape {b.shape} != ({F},)")
    pad = (k - 1) // 2

    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad)))
    Lp = xp.shape[2]
    win = sliding_window_view(xp, k, axis=2)  # (B, C, L, k)
    cols = np.ascontiguousarray(win.transpose(0, 2, 1, 3)).reshape(B * L, C * k)
    out = cols @ w.data.reshape(F, -1).T + b.data
    out = np.ascontiguousarray(out.reshape(B, L, F).transpose(0, 2, 1))

    def backward(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(B * L, F)
        if w.requires_grad:
            w.accumulate((gmat.T @ cols).reshape(w.shape))
        if b.requires_grad:
            b.accumulate(gmat.sum(axis=0))
        if x.requires_grad:
            gpad = np.zeros((B, F, L + 2 * (k - 1)), dtype=_f32)
            gpad[:, :, k - 1 : k - 1 + L] = g
            win2 = sliding_window_view(gpad, k, axis=2)  # (B, F, Lp, k)
            cols2 = np.ascontiguousarray(win2.transpose(0, 2, 1, 3)).reshape(B * Lp, F * k)
            wf = np.ascontiguousarray(w.data[:, :, ::-1].transpose(0, 2, 1)).reshape(F * k, C)
            gx = (cols2 @ wf).reshape(B, Lp, C).transpose(0, 2, 1)
            x.accumulate(np.ascontiguousarray(gx[:, :, pad : pad + L]))

    return _node(out, (x, w, b), backward)


def maxpool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping k x k max pooling over (B, C, H, W); trailing
    remainder rows/cols drop."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d needs (B, C, H, W) input, got {x.shape}")
    B, C, H, W = x.shape
    if H < k or W < k:
        raise ShapeError(f"maxpool2d input {H}x{W} smaller than window {k}x{k}")
    OH, OW = H // k, W // k
    xr = x.data[:, :, : OH * k, : OW * k]
    xr = xr.reshape(B, C, OH, k, OW, k).transpose(0, 1, 2, 4, 3, 5).reshape(B, C, OH, OW, k * k)
    idx = xr.argmax(axis=-1)  # first max = lowest linear index in the window
    out = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
    if _BRANCH_TRACE is not None:
        _BRANCH_TRACE.append(idx.tobytes())

    def backward(g):
        gwin = np.zeros((B, C, OH, OW, k * k), dtype=_f32)
        np.put_along_axis(gwin, idx[..., None], g[..., None], axis=-1)
        gx = np.zeros_like(x.data)
        gx[:, :, : OH * k, : OW * k] = (
            gwin.reshape(B, C, OH, OW, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(B, C, OH * k, OW * k)
        )
        x.accumulate(gx)

    return _node(np.ascontiguousarray(out), (x,), backward)


def maxpool1d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping window-k max pooling over the last axis of (B, C, L)."""
    if x.ndim != 3:
        raise ShapeError(f"maxpool1d needs (B, C, L) input, got {x.shape}")
    B, C, L = x.shape
    if L < k:
        raise ShapeError(f"maxpool1d length {L} smaller than window {k}")
    OL = L // k
    xr = x.data[:, :, : OL * k].reshape(B, C, OL, k)
    idx = xr.argmax(axis=-1)
    out = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
    if _BRANCH_TRACE is not None:
        _BRANCH_TRACE.append(idx.tobytes())

    def backward(g):
        gwin = np.zeros((B, C, OL, k), dtype=_f32)
        np.put_along_axis(gwin, idx[..., None], g[..., None], axis=-1)
        gx = np.zeros_like(x.data)
        gx[:, :, : OL * k] = gwin.reshape(B, C, OL * k)
        x.accumulate(gx)

    return _node(np.ascontiguousarray(out), (x,), backward)


def adaptive_maxpool1d(x: Tensor, out_len: int) -> Tensor:
    """Max of (B, C, L) over `out_len` tiling slices
    [floor(j*L/m), floor((j+1)*L/m))."""
    if x.ndim != 3:
        raise ShapeError(f"adaptive_maxpool1d needs (B, C, L) input, got {x.shape}")
    B, C, L = x.shape
    m = int(out_len)
    if m < 1 or L < m:
        raise ShapeError(f"adaptive_maxpool1d needs 1 <= out_len <= L, got out_len={m}, L={L}")
    bounds = [(j * L // m, (j + 1) * L // m) for j in range(m)]
    out = np.empty((B, C, m), dtype=_f32)
    idx = np.empty((B, C, m), dtype=np.int64)
    for j, (lo, hi) in enumerate(bounds):
        seg = x.data[:, :, lo:hi]
        local = seg.argmax(axis=-1)
        idx[:, :, j] = local + lo
        out[:, :, j] = np.take_along_axis(seg, local[..., None], axis=-1)[..., 0]
    if _BRANCH_TRACE is not None:
        _BRANCH_TRACE.append(idx.tobytes())

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(
            gx,
            (np.arange(B)[:, None, None], np.arange(C)[None, :, None], idx),
            g,
        )
        x.accumulate(gx)

    return _node(out, (x,), backward)


_BN_MOMENTUM = 0.1


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    mode: str,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel batch normalization over (B, C).

    Train mode normalizes by batch statistics (biased variance) and blends
    them into the running buffers in place with momentum 0.1; eval mode
    normalizes by the running statistics. Train mode requires B >= 2.
    """
    if mode not in ("train", "eval"):
        raise ParameterError(f"batch_norm mode must be 'train' or 'eval', got {mode!r}")
    if x.ndim != 2:
        raise ShapeError(f"batch_norm needs (B, C) input, got {x.shape}")
    B, C = x.shape
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ShapeError(f"batch_norm scale/shift must be ({C},)")
    if mode == "train" and B < 2:
        raise ShapeError(f"batch_norm train mode needs batch size >= 2, got {B}")
    eps = _f32(eps)

    if mode == "train":
        mu = x.data.mean(axis=0)
        var = x.data.var(axis=0)  # biased
        running_mean *= _f32(1.0 - _BN_MOMENTUM)
        running_mean += _f32(_BN_MOMENTUM) * mu
        running_var *= _f32(1.0 - _BN_MOMENTUM)
        running_var += _f32(_BN_MOMENTUM) * var
    else:
        mu = running_mean
        var = running_var
    ivstd = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * ivstd
    out = gamma.data * xhat + beta.data

    def backward(g):
        if gamma.requires_grad:
            gamma.accumulate((g * xhat).sum(axis=0))
        if beta.requires_grad:
            beta.accumulate(g.sum(axis=0))
        if x.requires_grad:
            gxhat = g * gamma.data
            if mode == "train":
                # d/dx of batch statistics included (biased variance).
                gx = (
                    gxhat - gxhat.mean(axis=0) - xhat * (gxhat * xhat).mean(axis=0)
                ) * ivstd
            else:
                gx = gxhat * ivstd
            x.accumulate(gx.astype(_f32, copy=False))

    return _node(out.astype(_f32, copy=False), (x, gamma, beta), backward)


def dropout(
    x: Tensor,
    p: float,
    rng: np.random.Generator | None,
    mode: str,
    mask_shape: tuple[int, ...] | None = None,
) -> Tensor:
    """Zero elements with probability p and scale survivors by 1/(1-p).

    Identity in eval mode (and for p = 0). `mask_shape` may broadcast
    against x to drop whole slices, e.g. (B, L, 1) to blank entire
    character embedding vectors.
    """
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout ratio must lie in [0, 1), got {p}")
    if mode not in ("train", "eval"):
        raise ParameterError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or p == 0.0:
        return x
    if rng is None:
        raise ParameterError("dropout in train mode needs an rng")
    shape = mask_shape or x.shape
    keep = (rng.random(shape) >= p).astype(_f32)
    scaled = keep * _f32(1.0 / (1.0 - p))
    data = x.data * scaled

    def backward(g):
        x.accumulate(_unbroadcast(g * scaled, x.shape))

    return _node(data, (x,), backward)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row softmax of a raw (B, C) array, computed in shifted form."""
    zs = z - z.max(axis=-1, keepdims=True)
    e = np.exp(zs)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(
    logits: Tensor, labels: np.ndarray, class_weights: np.ndarray | None = None
) -> Tensor:
    """Tape node for the weighted softmax cross-entropy loss.

    loss = mean_b w[y_b] * (-log softmax(z_b)[y_b]), with the log-sum-exp
    in shifted form; gradient rows are w[y_b]/B * (softmax(z_b) - onehot).
    Unit weights are used when `class_weights` is None.
    """
    z = logits.data
    if z.ndim != 2:
        raise ShapeError(f"logits must be (B, C), got {z.shape}")
    B, C = z.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (B,):
        raise ShapeError(f"labels shape {labels.shape} != ({B},)")
    bad = np.nonzero((labels < 0) | (labels >= C))[0]
    if bad.size:
        raise LabelError(f"label {labels[bad[0]]} out of range [0, {C}) at row {bad[0]}")
    if class_weights is None:
        w = np.ones(C, dtype=_f32)
    else:
        w = np.asarray(class_weights, dtype=_f32)
        if w.shape != (C,):
            raise ShapeError(f"class_weights shape {w.shape} != ({C},)")
        if not (w > 0).all():
            raise ParameterError("class weights must be strictly positive")

    zs = z - z.max(axis=1, keepdims=True)
    e = np.exp(zs)
    esum = e.sum(axis=1)
    rows = np.arange(B)
    logp_y = zs[rows, labels] - np.log(esum)
    wy = w[labels]
    loss = float((-wy * logp_y).mean())

    dz = (e / esum[:, None]) * (wy / B)[:, None]
    dz[rows, labels] -= wy / B
    dz = dz.astype(_f32, copy=False)

    def backward(g):
        logits.accumulate(float(g) * dz)

    return _node(np.asarray(loss, dtype=_f32), (logits,), backward)
