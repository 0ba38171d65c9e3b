"""Class-balanced weighting against a high-precision mpmath oracle."""

from __future__ import annotations

import mpmath as mp
import numpy as np
import pytest

from glyphtext.balance import cb_weights, effective_number
from glyphtext.errors import ParameterError
from glyphtext.nn.ops import softmax_cross_entropy
from glyphtext.nn.tensor import Tensor

mp.mp.dps = 50

BETAS = (0.0, 0.9, 0.99, 0.999)
COUNTS = (1, 10, 100, 10_000)


def oracle_effective(n: int, beta: float) -> float:
    if beta == 0.0:
        return 1.0
    b = mp.mpf(repr(beta))
    return float((1 - b ** n) / (1 - b))


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("n", COUNTS)
def test_effective_number_matches_high_precision(beta, n):
    want = oracle_effective(n, beta)
    got = effective_number(n, beta)
    assert got == pytest.approx(want, rel=1e-9)


def test_effective_number_limits():
    # beta = 0 is the unweighted limit: every class counts as one sample.
    assert effective_number(12345, 0.0) == 1.0
    # n = 1: a single sample is always exactly one effective sample.
    for beta in (0.0, 0.5, 0.999):
        assert effective_number(1, beta) == pytest.approx(1.0, rel=1e-12)
    # beta -> 1 approaches inverse-frequency behavior: E_n -> n.
    counts = np.array([3, 50, 800])
    e = effective_number(counts, 1.0 - 1e-9)
    assert np.allclose(e, counts, rtol=1e-4)


def test_effective_number_monotone_in_n_and_beta():
    ns = np.arange(1, 200)
    e = effective_number(ns, 0.99)
    assert (np.diff(e) > 0).all()          # more samples, more effective samples
    assert (e <= ns).all() and (e >= 1).all()
    for n in (5, 500):
        vals = [effective_number(n, b) for b in (0.0, 0.5, 0.9, 0.99)]
        assert vals == sorted(vals)


def test_effective_number_validates_inputs():
    with pytest.raises(ParameterError):
        effective_number(10, 1.0)
    with pytest.raises(ParameterError):
        effective_number(10, -0.1)
    with pytest.raises(ParameterError):
        effective_number(0, 0.9)


def test_cb_weights_normalization_and_order():
    counts = np.array([1000, 50, 3])
    w = cb_weights(counts, 0.99)
    assert w.sum() == pytest.approx(len(counts), rel=1e-12)
    assert w[2] > w[1] > w[0]  # rarer class, larger weight
    # the weights are the oracle's 1 / E_n, rescaled to sum to the class count
    raw = np.array([1.0 / oracle_effective(int(n), 0.99) for n in counts])
    assert np.allclose(w, raw * (len(counts) / raw.sum()), rtol=1e-9)


def test_cb_weights_beta_zero_is_uniform():
    w = cb_weights(np.array([7, 900, 12]), 0.0)
    assert np.allclose(w, 1.0)


def test_cb_softmax_loss_equals_weighted_cross_entropy():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 4)).astype(np.float32)
    labels = np.array([0, 1, 2, 3, 1, 2])
    counts = np.array([500, 40, 7, 2])
    w = cb_weights(counts, 0.999)
    got = softmax_cross_entropy(Tensor(logits), labels, class_weights=w)

    # float64 brute force for the whole path
    z = logits.astype(np.float64)
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    ref = np.mean([w[y] * -np.log(p[i, y]) for i, y in enumerate(labels)])
    assert got.data == pytest.approx(ref, rel=1e-5)
