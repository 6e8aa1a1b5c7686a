"""Closed forms the benchmark checks program outputs against.

Written from the formulas in the package README, not from the package code:
the Poisson mixture uses ``math.lgamma`` (no scipy), and the counting kernel
g(t) has its own Taylor branch near t = 0.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


def config_sha256(cfg: dict) -> str:
    """The trailer hash every CLI output carries: sha256 of the canonical
    (sorted keys, no whitespace) JSON of the config."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _g_core(x: float) -> float:
    """x - 3 + 4 e^{-x/2} - e^{-x}; Taylor sum for x < 1, where the direct
    form cancels to O(x^3)."""
    if x < 1.0:
        return math.fsum(
            (-1.0) ** j * (4.0 * 0.5**j - 1.0) * x**j / math.factorial(j) for j in range(3, 40)
        )
    return x - 3.0 + 4.0 * math.exp(-x / 2.0) - math.exp(-x)


def count_u(chi: float, gamma: float, t: float) -> float:
    """u = 2 g(t): the per-N^2 Poisson mean of continuous counting."""
    return 4.0 * chi**2 / gamma**2 * _g_core(gamma * t)


def anti_diagonal_sums(mat: np.ndarray) -> np.ndarray:
    """sum_{m+n=N} mat[m, n] for N = 0..d_a + d_b - 2 (real input)."""
    d_a, d_b = mat.shape
    totals = (np.arange(d_a)[:, None] + np.arange(d_b)[None, :]).ravel()
    return np.bincount(totals, weights=mat.ravel(), minlength=d_a + d_b - 1)


def number_weights(coeffs: np.ndarray) -> np.ndarray:
    """P_N = sum_{m+n=N} |C[m, n]|^2."""
    return anti_diagonal_sums(np.abs(coeffs) ** 2)


def component_pmf(means: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Poisson(k; mean) for every (k, mean) pair, shape (len(ks), len(means))."""
    ks = np.asarray(ks, dtype=float)
    means = np.asarray(means, dtype=float)
    log_fact = np.array([math.lgamma(k + 1.0) for k in ks])
    out = np.zeros((len(ks), len(means)))
    pos = means > 0
    if np.any(pos):
        out[:, pos] = np.exp(
            ks[:, None] * np.log(means[pos])[None, :] - means[pos][None, :] - log_fact[:, None]
        )
    out[ks == 0, ~pos] = 1.0
    return out


def poisson_mixture(weights: np.ndarray, means: np.ndarray, ks) -> np.ndarray:
    """P(k) = sum_N w_N Poisson(k; mean_N) for each k in ``ks``."""
    return component_pmf(means, np.atleast_1d(ks)) @ np.asarray(weights, dtype=float)


def count_probability(weights, chi: float, gamma: float, t: float, ks) -> np.ndarray:
    """Continuous-counting P(k, t): mixture with means u(t) N^2."""
    n = np.arange(len(weights), dtype=float)
    return poisson_mixture(weights, count_u(chi, gamma, t) * n**2, ks)


def projective_probability(weights, chi: float, t: float, ks) -> np.ndarray:
    """Projective-readout P(k, t): mixture with means (chi t N)^2."""
    n = np.arange(len(weights), dtype=float)
    return poisson_mixture(weights, (chi * t * n) ** 2, ks)


def count_moments(weights, chi: float, gamma: float, t: float) -> tuple[float, float]:
    """Mean and variance of the count at time t for normalized weights."""
    w = np.asarray(weights, dtype=float) / np.sum(weights)
    n2 = np.arange(len(w), dtype=float) ** 2
    u = count_u(chi, gamma, t)
    mean = u * float(w @ n2)
    return mean, mean + u**2 * float(w @ n2**2 - (w @ n2) ** 2)
