"""Instantaneous projective readout of the monitor photon number, and the
Poisson-mixture core that both readouts share.

When the monitor mode is found to hold exactly ``k`` photons at time ``t``,
the joint AB state reduces to a *pure* state: the evolved state reweighted by
``N^k exp(-(chi t)^2 N^2 / 2)`` in the total photon number N.  The count
statistics are a Poisson mixture with per-component mean ``(chi t N)^2``,
which makes every moment an explicit function of the moments of N^2.

Continuous counting (`photocount`) gives the same mixture with ``(chi t)^2``
replaced by ``u = 2 g(t)``, so the mixture functions below take the sector
means, or the scalar u, and each readout only works out its own u.  Both
condition through `postselect_pure`; counting then dephases its post-state
between total-photon sectors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import (
    ImpossibleOutcomeError,
    TwoModeState,
    _check_int,
    _check_size,
    _check_time,
    _totals,
    apply_beam_splitter,
    fix_global_phase,
    number_weights,
)

PROBABILITY_FLOOR = 1e-300
TAIL_MASS = 1e-12


class DegenerateEstimatorError(ValueError):
    """The intensity estimator's denominator vanished (4 k_mean = (chi t)^2)."""


class NonPhysicalInferenceWarning(UserWarning):
    """An inferred physical quantity came out negative."""


@dataclass(frozen=True)
class PmOutcome:
    """Result of post-selecting on a projective count of k photons."""

    k: int
    t: float
    probability: float
    post_state: TwoModeState


_log_factorials = np.zeros(0)  # math.lgamma(k + 1), k = 0, 1, ..., grown by rows


def _poisson_pmf(k, means):
    """Poisson(k; mean) = exp(k log mean - log k! - mean), broadcast over
    k >= 0 and the means; mean 0 gives 1 at k = 0, else 0.  log k! is
    math.lgamma, from a table when k is an array (a row)."""
    global _log_factorials
    if isinstance(k, np.ndarray) and np.max(k) >= len(_log_factorials):
        _log_factorials = np.array([math.lgamma(j + 1.0) for j in range(2 * int(np.max(k)) + 1)])
    log_k_factorial = _log_factorials[k] if isinstance(k, np.ndarray) else math.lgamma(k + 1.0)
    positive = means > 0
    log_pmf = k * np.log(np.where(positive, means, 1.0))
    log_pmf -= log_k_factorial
    log_pmf -= means
    # exp underflows to 0 below -745.14, where numpy's exp is slow: skip it there
    pmf = np.exp(log_pmf, out=np.zeros_like(log_pmf), where=~(log_pmf < -746.0))
    return pmf * (positive | (k == 0))


def mixture_pmf(weights: np.ndarray, means: np.ndarray, k: int) -> float:
    """P(k) of a mixture of Poisson distributions, the components on the last
    axis of ``means`` (a 2-d ``means`` gives one mixture per row)."""
    return np.add.reduce(weights * _poisson_pmf(k, means), axis=-1)


def mixture_pmf_row(weights: np.ndarray, means: np.ndarray, k_max: int) -> np.ndarray:
    """P(k) for all k = 0..k_max at once (same mixture as `mixture_pmf`)."""
    ks = np.arange(k_max + 1)
    return _poisson_pmf(ks[:, None], means[None, :]) @ weights


def mixture_table(state0: TwoModeState, us, k_max: int) -> np.ndarray:
    """`mixture_pmf_row` at each u of ``us``, one row per u, from one pass
    over the sector weights: the means u N^2 are u times those at u = 1,
    bit for bit."""
    _check_int("k_max", k_max, 0)
    weights, n_sq = sector_means(state0, 1.0)
    _check_size(f"the count table of k = 0..{k_max} over {len(weights)} sectors", (k_max + 1) * len(weights))
    _check_size(f"the count table of {len(us)} rows of k = 0..{k_max}", len(us) * (k_max + 1))
    return np.array([mixture_pmf_row(weights, u * n_sq, k_max) for u in us])


def k_cutoff(mean_max: float, tail: float = TAIL_MASS) -> int:
    """Count cutoff K with Poisson tail mass beyond K below ``tail`` for
    every mixture component (the largest mean dominates the tail).  K - 2 is
    the inverse CDF at 1 - tail, computed as scipy.stats.poisson.isf does.
    No library path calls it; it imports scipy when it runs."""
    from scipy.special import pdtr, pdtrik

    if mean_max <= 0:
        return 1
    q = 1.0 - tail
    v = math.ceil(pdtrik(q, mean_max))
    below = max(v - 1, 0)
    return (below if pdtr(below, mean_max) >= q else v) + 2


def _mixture_sf(k: int, weights: np.ndarray, means: np.ndarray, floor: float) -> float:
    """sum_N P_N P(Poisson(mean_N) > k), each component's pmf summed away
    from the cut, where the terms fall at least geometrically (upward from
    k + 1 if mean <= k, else one minus the sum downward from k); within
    10 sqrt(k + 1) + 40 terms they reach exp(-50) of the first, even at
    mean = k.  A component the geometric bound puts below ``floor`` is left
    out; one whose downward sum is below 1e-17 counts as 1."""
    above = means > k
    ratio = np.where(above, k / np.where(above, means, 1.0), means / (k + 2.0))
    lead = _poisson_pmf(k, means) * np.where(above, 1.0, means / (k + 1.0))
    whole = above & (lead < 1e-17 * (1.0 - ratio))
    keep = np.flatnonzero(~whole & (weights * np.where(above, 1.0, lead / (1.0 - ratio)) > floor))
    m, up, i = means[keep, None], ~above[keep], np.arange(int(10.0 * math.sqrt(k + 1.0)) + 40)
    ratios = np.where(up[:, None], m / (k + 2.0 + i), np.maximum(k - i, 0) / m)
    series = lead[keep] * (1.0 + np.cumprod(ratios, axis=1).sum(axis=1))
    return np.sum(weights[whole]) + weights[keep] @ np.where(up, series, 1.0 - series)


def mixture_cutoff(state0: TwoModeState, u: float, tail: float = TAIL_MASS) -> int:
    """Smallest count cutoff K whose omitted mixture mass (`_mixture_sf`) is
    at most ``tail``, by bisection below Bernstein's bound for the largest
    representable N: P(Poisson(M) >= M + s) <= exp(-s^2 / (2 (M + s / 3)))."""
    weights, means = sector_means(state0, u)
    log_tail, top = -math.log(tail), means[-1]
    lo, hi = -1, math.ceil(top + log_tail / 3.0 + math.sqrt(log_tail**2 / 9.0 + 2.0 * log_tail * top)) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _mixture_sf(mid, weights, means, 1e-17 * tail) <= tail:
            hi = mid
        else:
            lo = mid
    return hi


def sector_means(state0: TwoModeState, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights P_N and component means u N^2 of the count mixture."""
    weights = number_weights(state0)
    return weights, u * np.arange(len(weights), dtype=float) ** 2


def mixture_moments(state0: TwoModeState, u: float) -> tuple[float, float]:
    """Mean u <N^2> and full variance k_mean + u^2 Var(N^2) of the mixture
    (the shot-noise term k_mean included), <N^p> over the renormalized P_N:
    the count moments of either readout at its u, (chi t)^2 or 2 g(t).
    Raises ValueError when u or u^2 is not finite."""
    if not math.isfinite(u * u):
        raise ValueError(f"u and u^2 must be finite, got u={u!r}")
    weights = number_weights(state0)
    n_sq = np.arange(len(weights), dtype=float) ** 2
    n2, n4 = (float(np.sum(weights * n_sq**p) / np.sum(weights)) for p in (1, 2))
    k_mean = u * n2
    return k_mean, k_mean + u**2 * (n4 - n2**2)


def sample_mixture(state0: TwoModeState, u: float, n_samples: int, seed: int) -> np.ndarray:
    """Seeded exact sampling: draw N from the renormalized P_N, then
    k ~ Poisson(u N^2)."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    _check_size("n_samples", n_samples)
    rng = np.random.default_rng(seed)
    weights = number_weights(state0)
    probs = weights / np.sum(weights)
    n = rng.choice(len(weights), size=n_samples, p=probs)
    return rng.poisson(u * n.astype(float) ** 2)


def reweight_sectors(evolved: TwoModeState, k: int, h: float) -> TwoModeState:
    """The pure state with coefficients N^k e^(-h N^2) C[m, n], N = m + n,
    normalized and with its global phase fixed.  The weights are taken in
    log space; N = 0 keeps weight 1 only for k = 0."""
    totals = _totals(evolved.d_a, evolved.d_b).astype(float)
    with np.errstate(divide="ignore"):
        log_w = (k * np.log(totals) if k else 0.0) - h * totals**2
    support = np.isfinite(log_w) & (evolved.coeffs != 0)
    if not np.any(support):
        raise ImpossibleOutcomeError(f"no support for outcome k={k}")
    coeffs = np.exp(log_w - np.max(log_w[support])) * evolved.coeffs
    return TwoModeState(fix_global_phase(coeffs / np.linalg.norm(coeffs)))


def postselect_pure(state0: TwoModeState, lam: float, t: float, k: int, u: float) -> PmOutcome:
    """Probability of k counts in the mixture with means u N^2, and the pure
    post-state: the evolved input reweighted by N^k e^(-u N^2 / 2).  Both
    readouts condition through here (projective u = (chi t)^2, counting
    u = 2g)."""
    _check_time(t)
    _check_int("k", k, 0)
    probability = mixture_pmf(*sector_means(state0, u), k)
    if probability < PROBABILITY_FLOOR:
        raise ImpossibleOutcomeError(
            f"outcome k={k} at t={t} has probability below {PROBABILITY_FLOOR:g}"
        )
    post = reweight_sectors(apply_beam_splitter(state0, lam, t), k, u / 2)
    return PmOutcome(k=k, t=t, probability=probability, post_state=post)


def _pm_u(chi: float, t: float, power: int = 1) -> float:
    """Component scale u = (chi t)^2 of the projective readout, after
    checking chi (finite, > 0), t (finite, >= 0) and that u^power is finite."""
    if not (math.isfinite(chi) and chi > 0):
        raise ValueError(f"chi must be finite and > 0, got {chi!r}")
    _check_time(t)
    if not abs(chi * t) < 2.0 ** (512 // power):  # power 2 for the moments, which square u
        raise ValueError(f"(chi t)^{2 * power} must be finite, got chi={chi!r} and t={t!r}")
    return (chi * t) ** 2


def pm_probability(state0: TwoModeState, chi: float, t: float, k: int) -> float:
    """Probability of finding k photons in the monitor at time t,
    sum_N P_N Poisson(k; (chi t N)^2)."""
    _check_int("k", k, 0)
    return mixture_pmf(*sector_means(state0, _pm_u(chi, t)), k)


def pm_count_cutoff(state0: TwoModeState, chi: float, t: float, tail: float = TAIL_MASS) -> int:
    return mixture_cutoff(state0, _pm_u(chi, t), tail)


def pm_postselect(state0: TwoModeState, lam: float, chi: float, t: float, k: int) -> PmOutcome:
    """Pure post-measurement state after counting k monitor photons at t.

    The returned state is the beam-splitter-evolved input reweighted by
    ``N^k exp(-(chi t)^2 N^2 / 2)``, normalized, with its global phase fixed
    so the largest-modulus coefficient is real positive.  For number-state
    inputs the reweighting is a scalar, so the result is the freely evolved
    state, independent of k.
    """
    return postselect_pure(state0, lam, t, k, _pm_u(chi, t))


def infer_total_mean_photons(k_mean: float, excess_var: float, chi: float, t: float) -> float:
    """Invert the coherent-product count moments for F = |alpha|^2 + |beta|^2.

    ``excess_var`` is the variance of the count distribution in excess of its
    mean, Var(k) - k_mean = (chi t)^4 (4F^3 + 6F^2 + F); together with
    k_mean = (chi t)^2 F (F + 1) this gives

        F = [excess_var/(chi t)^4 - 2 k_mean/(chi t)^2] / [4 k_mean/(chi t)^2 - 1]

    The right-hand side is time-independent.  A negative result is returned
    but flagged with ``NonPhysicalInferenceWarning``; a vanishing denominator
    raises ``DegenerateEstimatorError``, non-finite moments a ValueError.
    """
    ct2 = _pm_u(chi, t, 2)
    if ct2 <= 0:
        raise ValueError("chi * t must be nonzero")
    if not (math.isfinite(k_mean) and math.isfinite(excess_var)):
        raise ValueError(f"k_mean and excess_var must be finite, got {k_mean!r}, {excess_var!r}")
    scaled_mean = k_mean / ct2
    denom = 4.0 * scaled_mean - 1.0
    if abs(denom) < 1e-12 * max(1.0, abs(4.0 * scaled_mean)):
        raise DegenerateEstimatorError(
            f"estimator degenerate: 4 k_mean = (chi t)^2 within tolerance (k_mean={k_mean})"
        )
    f = (excess_var / ct2**2 - 2.0 * scaled_mean) / denom
    if f < 0:
        warnings.warn(
            f"inferred total intensity is negative ({f:.6g}); moments are inconsistent "
            "with a coherent-product preparation",
            NonPhysicalInferenceWarning,
            stacklevel=2,
        )
    return f


def coherent_count_moments(f: float, chi: float, t: float) -> tuple[float, float]:
    """Closed-form (k_mean, excess_var) for a coherent product with total
    intensity F = |alpha|^2 + |beta|^2: k_mean = (chi t)^2 F(F+1) and
    excess_var = (chi t)^4 (4F^3 + 6F^2 + F)."""
    if not (math.isfinite(f) and f >= 0):
        raise ValueError(f"f must be finite and >= 0, got {f!r}")
    ct2 = _pm_u(chi, t, 2)
    return ct2 * f * (f + 1.0), ct2**2 * (4.0 * f**3 + 6.0 * f**2 + f)
