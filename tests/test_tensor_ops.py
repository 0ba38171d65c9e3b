"""Numeric core checks: forward oracles, gradient harnesses, Adam.

Every differentiable op gets two kinds of scrutiny: a forward comparison
against an independently coded reference (plain numpy loops or float64
closed forms), and a finite-difference check of its VJP at a constructed
evaluation point.  The harness geometry is deliberate -- see the comments
on individual tests -- because float32 central differences only resolve
gradients when operands are positive where cancellation threatens, kinks
are given margin, and the readout keeps |f| small.
"""

from __future__ import annotations

import numpy as np
import pytest

from glyphtext import models
from glyphtext.errors import DivergenceError, LabelError, ShapeError
from glyphtext.nn import finite_diff_check, ops
from glyphtext.nn.optim import Adam
from glyphtext.nn.tensor import Tensor

from gradharness import (
    COMPOSITE_KW,
    COMPOSITE_SEEDS,
    COMPOSITE_TOL,
    U,
    build_composite,
)

F32 = np.float32
SEEDS = range(5)
TOL = 1e-2


def T(a, requires_grad=True):
    return Tensor(np.asarray(a, dtype=F32), requires_grad=requires_grad)


def gru_step(x, h_prev, w_x, w_h, b):
    """One GRU step through the production `models._gru_step`, with the
    input projection that `models._gru_direction` hoists out of its loop.

    Gate stacking order is [update z | reset r | candidate n]:
        z = sigmoid(W_z x + U_z h + b_z)
        r = sigmoid(W_r x + U_r h + b_r)
        n = tanh(W_n x + U_n (r * h) + b_n)
        h' = (1 - z) * h + z * n
    w_x: (3h, d_in); w_h: (3h, h); b: (3h,); x and h_prev are (B, d).
    """
    dh = h_prev.shape[1]
    xg = ops.linear(x, w_x, b)
    w_h_zr = ops.narrow(w_h, 0, 0, 2 * dh)
    w_h_n = ops.narrow(w_h, 0, 2 * dh, 3 * dh)
    return models._gru_step(xg, h_prev, w_h_zr, w_h_n, dh)


# ---------------------------------------------------------------------------
# forward oracles


def test_linear_matches_matmul():
    rng = np.random.default_rng(3)
    x, w, b = U(rng, (4, 7), -1, 1), U(rng, (5, 7), -1, 1), U(rng, 5, -1, 1)
    out = ops.linear(T(x), T(w), T(b))
    np.testing.assert_allclose(out.data, x @ w.T + b, rtol=1e-6)


def test_conv2d_matches_nested_loops():
    rng = np.random.default_rng(4)
    x = U(rng, (2, 3, 6, 5), -1, 1)
    w = U(rng, (4, 3, 3, 3), -1, 1)
    b = U(rng, 4, -1, 1)
    out = ops.conv2d(T(x), T(w), T(b)).data
    B, Co, Ho, Wo = out.shape
    assert (Ho, Wo) == (4, 3)  # valid convolution: 6-3+1, 5-3+1
    ref = np.zeros_like(out, dtype=np.float64)
    for n in range(B):
        for c in range(Co):
            for i in range(Ho):
                for j in range(Wo):
                    ref[n, c, i, j] = (
                        x[n, :, i : i + 3, j : j + 3].astype(np.float64) * w[c]
                    ).sum() + b[c]
    np.testing.assert_allclose(out, ref, rtol=1e-5)


def test_conv1d_same_all_ones_kernel():
    # [1,2,3] * [1,1,1] with zero padding: neighbourhood sums [3, 6, 5].
    x = T(np.array([[[1.0, 2.0, 3.0]]]))
    w = T(np.ones((1, 1, 3)))
    b = T(np.zeros(1))
    out = ops.conv1d(x, w, b)
    np.testing.assert_allclose(out.data, [[[3.0, 6.0, 5.0]]], rtol=1e-6)


def test_maxpool2d_matches_window_loops():
    rng = np.random.default_rng(5)
    x = U(rng, (2, 3, 6, 8), -1, 1)
    out = ops.maxpool2d(T(x), 2).data
    for n in range(2):
        for c in range(3):
            for i in range(3):
                for j in range(4):
                    assert out[n, c, i, j] == x[n, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()


def test_adaptive_maxpool1d_covers_every_position():
    rng = np.random.default_rng(6)
    x = U(rng, (2, 3, 7), -1, 1)
    out = ops.adaptive_maxpool1d(T(x), 2).data
    # tiling slices [floor(j*L/m), floor((j+1)*L/m)): disjoint, union = axis
    for n in range(2):
        for c in range(3):
            assert out[n, c, 0] == x[n, c, 0:3].max()
            assert out[n, c, 1] == x[n, c, 3:7].max()


def test_gru_cell_scalar_oracle():
    # d=1, all weights 1, biases 0, x=1, h_prev=0:
    #   z = sigma(1), r = sigma(1), htilde = tanh(1), h' = z * tanh(1)
    want = 1.0 / (1.0 + np.exp(-1.0)) * np.tanh(1.0)  # float64 route
    h = gru_step(T([[1.0]]), T([[0.0]]), T(np.ones((3, 1))),
                 T(np.ones((3, 1))), T(np.zeros(3)))
    assert abs(float(h.data[0, 0]) - want) < 1e-4


def test_gru_cell_zero_params_halves_state():
    rng = np.random.default_rng(7)
    hp = U(rng, (2, 4), -1, 1)
    h = gru_step(T(U(rng, (2, 3), -1, 1)), T(hp), T(np.zeros((12, 3))),
                 T(np.zeros((12, 4))), T(np.zeros(12)))
    np.testing.assert_allclose(h.data, 0.5 * hp, rtol=1e-6)


def _sigmoid64(a):
    return 1.0 / (1.0 + np.exp(-a.astype(np.float64)))


@pytest.mark.parametrize("seed", SEEDS)
def test_gru_cell_matches_gate_equations(seed):
    """Re-derive the update from the three gate equations in float64."""
    rng = np.random.default_rng(seed)
    d_in, d_h = 3, 5
    x, hp = U(rng, (2, d_in), -1, 1), U(rng, (2, d_h), -1, 1)
    wx, wh = U(rng, (3 * d_h, d_in), -0.5, 0.5), U(rng, (3 * d_h, d_h), -0.5, 0.5)
    b = U(rng, 3 * d_h, -0.2, 0.2)
    got = gru_step(T(x), T(hp), T(wx), T(wh), T(b)).data

    gx = x @ wx.T + b
    gh = hp @ wh.T
    z = _sigmoid64(gx[:, :d_h] + gh[:, :d_h])
    r = _sigmoid64(gx[:, d_h : 2 * d_h] + gh[:, d_h : 2 * d_h])
    # candidate gate sees the reset applied to the state *before* U_n
    n = np.tanh(gx[:, 2 * d_h :].astype(np.float64) + (r * hp) @ wh[2 * d_h :].T)
    want = (1.0 - z) * hp + z * n
    np.testing.assert_allclose(got, want, atol=1e-5)


def test_batch_norm_train_standardizes_and_updates_stats():
    x = T([[0.0], [2.0]])
    gamma, beta = T(np.ones(1)), T(np.zeros(1))
    rm, rv = np.zeros(1, dtype=F32), np.ones(1, dtype=F32)
    out = ops.batch_norm(x, gamma, beta, rm, rv, "train", eps=1e-5)
    want = (np.array([0.0, 2.0]) - 1.0) / np.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(out.data[:, 0], want, atol=1e-6)
    # momentum-0.1 blend of the batch statistics into the running buffers
    np.testing.assert_allclose(rm, [0.1], atol=1e-7)
    np.testing.assert_allclose(rv, [0.9 * 1.0 + 0.1 * 1.0], atol=1e-7)


def test_batch_norm_eval_uses_running_stats():
    rng = np.random.default_rng(8)
    x = U(rng, (3, 4), -2, 2)
    g, b = U(rng, 4, 0.5, 1.5), U(rng, 4, -0.5, 0.5)
    rm, rv = U(rng, 4, -1, 1), U(rng, 4, 0.5, 2.0)
    out = ops.batch_norm(T(x), T(g), T(b), rm.copy(), rv.copy(), "eval", eps=1e-5)
    want = g * (x - rm) / np.sqrt(rv + 1e-5) + b
    np.testing.assert_allclose(out.data, want, atol=1e-5)


def test_softmax_ce_brute_force_float64():
    rng = np.random.default_rng(9)
    z = U(rng, (6, 4), -2, 2)
    y = rng.integers(0, 4, size=6)
    w = U(rng, 4, 0.5, 2.0)
    got = float(ops.softmax_cross_entropy(T(z), y, w).data)
    acc = 0.0
    for i in range(6):
        zi = z[i].astype(np.float64)
        p = np.exp(zi) / np.exp(zi).sum()
        acc += -w[y[i]] * np.log(p[y[i]])
    assert abs(got - acc / 6) < 1e-5


def test_softmax_ce_shift_invariance():
    rng = np.random.default_rng(10)
    z = U(rng, (4, 5), -3, 3)
    y = rng.integers(0, 5, size=4)
    a = float(ops.softmax_cross_entropy(T(z), y).data)
    b = float(ops.softmax_cross_entropy(T(z + 7.5), y).data)
    assert abs(a - b) < 1e-4


def test_softmax_ce_rejects_bad_label():
    with pytest.raises(LabelError):
        ops.softmax_cross_entropy(T(np.zeros((2, 3))), np.array([0, 3]))


def test_dropout_eval_is_identity():
    rng = np.random.default_rng(11)
    x = U(rng, (5, 5), -1, 1)
    out = ops.dropout(T(x), 0.7, None, "eval")
    np.testing.assert_array_equal(out.data, x)


def test_dropout_train_mask_matches_rng_stream():
    x = np.ones((400, 10), dtype=F32)
    out = ops.dropout(T(x), 0.3, np.random.default_rng(12), "train").data
    keep = (np.random.default_rng(12).random((400, 10)) >= 0.3)
    np.testing.assert_allclose(out, keep / 0.7, rtol=1e-6)
    frac = (out == 0).mean()
    assert abs(frac - 0.3) < 0.03


def test_masked_mean_time_matches_manual():
    rng = np.random.default_rng(13)
    x = U(rng, (3, 6, 4), -1, 1)
    lengths = np.array([6, 2, 4])
    got = ops.masked_mean_time(T(x), lengths).data
    want = np.stack([x[b, : lengths[b]].mean(axis=0) for b in range(3)])
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_gather_rows_matches_indexing():
    rng = np.random.default_rng(14)
    x = U(rng, (7, 3), -1, 1)
    idx = np.array([0, 6, 2, 2, 5])
    np.testing.assert_array_equal(ops.gather_rows(T(x), idx).data, x[idx])


@pytest.mark.parametrize("op,x,args", [
    pytest.param(ops.conv2d, (2, 6, 6), [(3, 2, 3, 3), (3,)], id="conv2d"),
    pytest.param(ops.conv1d, (2, 6), [(3, 2, 3), (3,)], id="conv1d"),
    pytest.param(ops.maxpool2d, (2, 6, 6), [2], id="maxpool2d"),
    pytest.param(ops.maxpool1d, (2, 6), [2], id="maxpool1d"),
    pytest.param(ops.adaptive_maxpool1d, (2, 6), [2], id="adaptive_maxpool1d"),
    pytest.param(ops.linear, (4,), [(3, 4), (3,)], id="linear"),
])
def test_ops_reject_unbatched_input(op, x, args):
    """Each op takes only the batched rank; the unbatched one is refused."""
    args = [T(np.ones(a)) if isinstance(a, tuple) else a for a in args]
    with pytest.raises(ShapeError, match="input"):
        op(T(np.ones(x)), *args)


def test_maxpool_backward_routes_to_argmax():
    rng = np.random.default_rng(15)
    x = T((rng.permutation(24) * 0.1).reshape(2, 3, 4).astype(F32))
    out = ops.maxpool1d(x, 2)
    ops.tsum(out).backward()
    g = x.grad
    # each window contributes exactly one unit of gradient, on its argmax
    assert g.sum() == out.data.size
    assert set(np.unique(g)) == {0.0, 1.0}
    for n in range(2):
        for c in range(3):
            for j in range(2):
                win = x.data[n, c, 2 * j : 2 * j + 2]
                assert g[n, c, 2 * j + int(win.argmax())] == 1.0


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_is_signlike():
    rng = np.random.default_rng(16)
    p = T(U(rng, (4, 3), -1, 1))
    g = U(rng, (4, 3), -2, 2)
    start = p.data.copy()
    p.grad = g.copy()
    Adam({"p": p}, lr=1e-3).step()
    # t=1 bias correction makes mhat=g, sqrt(vhat)=|g|: step = lr*g/(|g|+eps)
    np.testing.assert_allclose(p.data, start - 1e-3 * np.sign(g), atol=1e-6)


def test_adam_three_steps_match_float64_reference():
    rng = np.random.default_rng(17)
    p = T(U(rng, 6, -1, 1))
    ref = p.data.astype(np.float64).copy()
    m = np.zeros(6)
    v = np.zeros(6)
    opt = Adam({"p": p}, lr=0.01)
    for t in range(1, 4):
        g = U(rng, 6, -1, 1)
        p.grad = g.copy()
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        ref -= 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
    np.testing.assert_allclose(p.data, ref, atol=1e-5)


def test_adam_rejects_nonfinite_gradient():
    p = T(np.ones(3))
    p.grad = np.array([1.0, np.nan, 0.0], dtype=F32)
    with pytest.raises(DivergenceError):
        Adam({"p": p}).step()


# ---------------------------------------------------------------------------
# finite-difference harnesses, one per op
#
# Common tricks: operands are positive wherever the gradient is linear in
# the input (cancellation would otherwise eat the quotient), nonlinearities
# are kept unsaturated, kinked ops get permutation-valued inputs so every
# pool window has a margin, and the scalar readout subtracts a constant near
# the typical output so |f| stays small (the subtraction has no gradient).


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_linear(seed):
    rng = np.random.default_rng(seed)
    x, w, b = T(U(rng, (3, 4), 0.2, 1.0)), T(U(rng, (5, 4), 0.05, 0.3)), T(U(rng, 5, -0.15, 0.15))
    r = U(rng, (3, 5), 0.5, 1.5)

    def f():
        return ops.tsum(ops.mul(ops.affine(ops.tanh(ops.linear(x, w, b)), 1.0, -0.4), T(r, False)))

    assert finite_diff_check(f, [x, w, b], n_coords=80, seed=seed) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_relu(seed):
    rng = np.random.default_rng(seed)
    # magnitudes >= 0.15 keep every coordinate a safe margin from the kink
    x = T(U(rng, (4, 6), 0.15, 1.0) * np.sign(U(rng, (4, 6), -1, 1)))
    r = U(rng, (4, 6), 0.5, 1.5)

    def f():
        return ops.tsum(ops.mul(ops.relu(x), T(r, False)))

    assert finite_diff_check(f, [x], n_coords=80, seed=seed) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_conv2d(seed):
    rng = np.random.default_rng(seed)
    x = T(U(rng, (1, 2, 4, 4), 0.2, 1.0))
    w = T(U(rng, (2, 2, 3, 3), 0.05, 0.15))
    b = T(U(rng, 2, -0.15, 0.15))
    r = U(rng, (1, 2, 2, 2), 1.0, 2.0)

    def f():
        return ops.tsum(ops.mul(ops.affine(ops.sigmoid(ops.conv2d(x, w, b)), 1.0, -0.65), T(r, False)))

    assert finite_diff_check(f, [x, w, b], n_coords=80, seed=seed) < TOL


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("out_len", [pytest.param(6, id="same-6")])
def test_fd_conv1d(seed, out_len):
    rng = np.random.default_rng(seed)
    x = T(U(rng, (2, 2, 6), 0.2, 1.0))
    w = T(U(rng, (3, 2, 3), 0.05, 0.18))
    b = T(U(rng, 3, -0.15, 0.15))
    r = U(rng, (2, 3, out_len), 1.0, 2.0)

    def f():
        return ops.tsum(ops.mul(ops.affine(ops.sigmoid(ops.conv1d(x, w, b)), 1.0, -0.6), T(r, False)))

    assert finite_diff_check(f, [x, w, b], n_coords=80, seed=seed) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_maxpool1d(seed):
    rng = np.random.default_rng(seed)
    # a scaled permutation gives every pool window a guaranteed margin
    x = T((rng.permutation(72) * 0.05).reshape(2, 3, 12).astype(F32))
    r = U(rng, (2, 3, 4), 0.5, 1.5)

    def f():
        return ops.tsum(ops.mul(ops.affine(ops.maxpool1d(x, 3), 1.0, -2.7), T(r, False)))

    assert finite_diff_check(f, [x], n_coords=80, seed=seed) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_maxpool2d(seed):
    rng = np.random.default_rng(seed)
    x = T((rng.permutation(32) * 0.08).reshape(1, 2, 4, 4).astype(F32))
    r = U(rng, (1, 2, 2, 2), 0.5, 1.5)

    def f():
        return ops.tsum(ops.mul(ops.affine(ops.maxpool2d(x, 2), 1.0, -1.9), T(r, False)))

    assert finite_diff_check(f, [x], n_coords=80, seed=seed) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_adaptive_maxpool1d(seed):
    rng = np.random.default_rng(seed)
    x = T((rng.permutation(42) * 0.06).reshape(2, 3, 7).astype(F32))
    r = U(rng, (2, 3, 2), 0.5, 1.5)

    def f():
        return ops.tsum(ops.mul(ops.affine(ops.adaptive_maxpool1d(x, 2), 1.0, -1.9), T(r, False)))

    assert finite_diff_check(f, [x], n_coords=80, seed=seed) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_gru_cell(seed):
    rng = np.random.default_rng(seed)
    x = T(U(rng, (1, 3), 0.4, 1.0))
    hp = T(U(rng, (1, 4), -0.95, -0.65))
    wx = T(U(rng, (12, 3), 0.15, 0.45))
    wh = T(U(rng, (12, 4), 0.05, 0.15))
    b = T(U(rng, 12, -0.1, 0.1))
    r = U(rng, (1, 4), 0.5, 1.5)

    def f():
        return ops.tsum(ops.mul(gru_step(x, hp, wx, wh, b), T(r, False)))

    assert finite_diff_check(f, [x, hp, wx, wh, b], n_coords=80, seed=seed) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_batch_norm_train(seed):
    # B=2 train-mode batch norm has 1/sigma^3 curvature when the rows nearly
    # coincide, so the harness forces the rows into disjoint bands and keeps
    # eps large; the readout bands differ per row to split symmetric terms.
    rng = np.random.default_rng(seed)
    x = T(np.concatenate([U(rng, (1, 3), -1.2, -0.6), U(rng, (1, 3), 0.6, 1.2)]))
    g = T(U(rng, 3, 0.8, 1.2))
    b = T(U(rng, 3, -0.2, 0.2))
    r = np.stack([U(rng, 3, 1.8, 2.2), U(rng, 3, 0.3, 0.5)])

    def f():
        rm = np.zeros(3, dtype=F32)
        rv = np.ones(3, dtype=F32)
        out = ops.batch_norm(x, g, b, rm, rv, "train", eps=0.5)
        return ops.tsum(ops.mul(ops.affine(ops.sigmoid(out), 1.0, -0.5), T(r, False)))

    assert finite_diff_check(f, [x, g, b], n_coords=80, seed=seed) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_batch_norm_eval(seed):
    rng = np.random.default_rng(seed)
    x = T(U(rng, (3, 4), 0.4, 1.2))
    g = T(U(rng, 4, 0.8, 1.2))
    b = T(U(rng, 4, -0.2, 0.2))
    rm = U(rng, 4, -0.3, 0.0)
    rv = U(rng, 4, 0.5, 1.5)
    r = U(rng, (3, 4), 0.5, 1.5)

    def f():
        out = ops.batch_norm(x, g, b, rm.copy(), rv.copy(), "eval")
        return ops.tsum(ops.mul(ops.affine(out, 1.0, -0.6), T(r, False)))

    assert finite_diff_check(f, [x, g, b], n_coords=80, seed=seed) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_dropout(seed):
    rng = np.random.default_rng(seed)
    x = T(U(rng, (4, 6), 0.3, 1.0))
    r = U(rng, (4, 6), 0.5, 1.5)
    mask_seed = int(rng.integers(1 << 30))

    def f():
        # fresh generator per evaluation: identical mask both probe sides
        out = ops.dropout(x, 0.4, np.random.default_rng(mask_seed), "train")
        return ops.tsum(ops.mul(out, T(r, False)))

    assert finite_diff_check(f, [x], n_coords=80, seed=seed) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_masked_mean_time(seed):
    rng = np.random.default_rng(seed)
    x = T(U(rng, (2, 5, 3), 0.2, 1.0))
    lengths = np.array([4, 2])
    r = U(rng, (2, 3), 0.5, 1.5)

    def f():
        return ops.tsum(ops.mul(ops.tanh(ops.masked_mean_time(x, lengths)), T(r, False)))

    assert finite_diff_check(f, [x], n_coords=80, seed=seed) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_gather_rows(seed):
    rng = np.random.default_rng(seed)
    x = T(U(rng, (6, 4), -1.0, 1.0))
    idx = np.array([0, 3, 3, 5, 1])  # row 3 gathered twice: grads accumulate
    r = U(rng, (5, 4), 0.5, 1.5)

    def f():
        return ops.tsum(ops.mul(ops.tanh(ops.gather_rows(x, idx)), T(r, False)))

    assert finite_diff_check(f, [x], n_coords=80, seed=seed) < TOL


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("weighted", [False, True])
def test_fd_softmax_ce(seed, weighted):
    rng = np.random.default_rng(seed)
    # narrow logits keep all class probabilities off the floor, where the
    # per-coordinate gradients would drop below the float32 noise
    z = T(U(rng, (3, 3), -0.6, 0.6))
    y = np.array([0, 2, 1]) if weighted else np.array([2, 0, 1])
    w = U(rng, 3, 0.6, 1.4) if weighted else None

    def f():
        return ops.softmax_cross_entropy(z, y, w)

    assert finite_diff_check(f, [z], n_coords=80, seed=seed) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_structural_ops(seed):
    """reshape/swap/narrow/concat/stack/select and the arithmetic glue."""
    rng = np.random.default_rng(seed)
    x = T(U(rng, (2, 3, 4), 0.2, 1.0))
    y = T(U(rng, (2, 4, 2), 0.2, 1.0))
    r = U(rng, (2, 4, 5), 0.5, 1.5)

    def f():
        a = ops.swap_axes(x, 1, 2)                      # (2,4,3)
        a = ops.concat_last(a, y)                       # (2,4,5)
        steps = [ops.select_time(a, t) for t in range(4)]
        s = ops.stack_time(steps)                       # (2,4,5) again
        s = ops.add(s, ops.mul(s, T(np.full(r.shape, 0.5, F32), False)))
        s = ops.narrow(ops.reshape(s, (2, 4, 5)), 2, 0, 5)
        return ops.tsum(ops.mul(ops.tanh(s), T(r, False)))

    assert finite_diff_check(f, [x, y], n_coords=80, seed=seed) < TOL


# ---------------------------------------------------------------------------
# the instrument itself


def test_gradcheck_flags_wrong_vjp():
    """A backward that claims 3x for a 2x forward must be caught."""
    rng = np.random.default_rng(42)
    x = T(U(rng, (4, 4), 0.2, 1.0))
    r = U(rng, (4, 4), 0.5, 1.5)

    def bad_double(t):
        def backward(g):
            t.accumulate(3.0 * g)  # wrong: forward is 2x
        return ops._node(2.0 * t.data, (t,), backward)

    def f():
        return ops.tsum(ops.mul(bad_double(x), T(r, False)))

    worst = finite_diff_check(f, [x], n_coords=40, seed=0)
    assert worst > 0.2  # true mismatch is |3-2|/3


def test_gradcheck_flags_wrong_vjp_with_kink_exclusion():
    """Kink exclusion reads only forward branch signatures, so it cannot
    mask a wrong gradient: the same bad op through a relu still fails."""
    rng = np.random.default_rng(43)
    x = T(U(rng, (4, 4), 0.3, 1.0) * np.sign(U(rng, (4, 4), -1, 1)))
    r = U(rng, (4, 4), 0.5, 1.5)

    def bad_double(t):
        def backward(g):
            t.accumulate(3.0 * g)
        return ops._node(2.0 * t.data, (t,), backward)

    def f():
        return ops.tsum(ops.mul(ops.relu(bad_double(x)), T(r, False)))

    worst = finite_diff_check(f, [x], n_coords=40, seed=0,
                              select="top", exclude_kinks=True)
    assert worst > 0.2


def test_gradcheck_rejects_disconnected_tensor():
    x = T(np.ones((2, 2)))
    unused = T(np.ones(3))

    def f():
        return ops.tsum(x)

    with pytest.raises(AssertionError):
        finite_diff_check(f, [x, unused], n_coords=8, seed=0)


# ---------------------------------------------------------------------------
# end-to-end composite


@pytest.mark.parametrize("seed", COMPOSITE_SEEDS)
def test_fd_end_to_end_composite(seed):
    """Loss gradients through encoder + BiGRU head + class-balanced CE."""
    f, params = build_composite(seed)
    assert finite_diff_check(f, params, seed=seed, **COMPOSITE_KW) < COMPOSITE_TOL
