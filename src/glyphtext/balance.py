"""Class-balanced loss weighting.

Rare classes get up-weighted by the inverse *effective number* of their
training samples,

    E_n = (1 - beta^n) / (1 - beta),

which interpolates between plain unweighted loss (beta = 0, E_n = 1) and
inverse-frequency weighting (beta -> 1, E_n -> n). Weight arithmetic is
done in float64; `expm1` keeps 1 - beta^n accurate when beta is close
to 1.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

__all__ = ["effective_number", "cb_weights"]


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 <= beta < 1.0:
        raise ParameterError(f"beta must lie in [0, 1), got {beta}")
    return beta


def effective_number(n, beta: float):
    """E_n = (1 - beta^n) / (1 - beta) for sample count(s) n >= 1.

    Scalar in, scalar out; array in, float64 array out.
    """
    beta = _check_beta(beta)
    n_arr = np.asarray(n, dtype=np.float64)
    if (n_arr < 1).any():
        raise ParameterError(f"sample counts must be >= 1, got {n!r}")
    if beta == 0.0:
        e = np.ones_like(n_arr)
    else:
        # 1 - beta^n = -expm1(n * log(beta))
        e = -np.expm1(n_arr * np.log(beta)) / (1.0 - beta)
    return float(e) if np.isscalar(n) or np.ndim(n) == 0 else e


def cb_weights(counts, beta: float) -> np.ndarray:
    """Per-class weights 1 / E_{n_c}, rescaled to sum to C.

    The rescale keeps the loss on the same overall scale as unweighted
    cross-entropy, so one learning rate works with and without weighting.
    """
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.size == 0:
        raise ParameterError(f"counts must be a non-empty 1-D array, got shape {counts.shape}")
    raw = 1.0 / effective_number(counts, beta)
    return raw * (counts.size / raw.sum())

