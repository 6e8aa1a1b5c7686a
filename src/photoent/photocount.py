"""Continuous photocounting of the monitor mode in closed form.

Counting k photons up to time t conditions the AB state through three time
kernels (rates chi, gamma):

    g(t)  = (2 chi^2/gamma^2) (gamma t - 3 + 4 e^{-gamma t/2} - e^{-gamma t})
    h(t)  = (2 chi^2/gamma^2) (gamma t - 2 (1 - e^{-gamma t/2}))
    mu(t) = (4 chi^2/gamma^2) (1 - e^{-gamma t/2})^2

The count distribution is the projective one with (chi t)^2 replaced by
u = 2g(t).  Conditioning on k counts weights the evolved pure-state density
by (N N')^k exp(-h (N^2 + N'^2) + mu N N'); the identity 2h - mu = 2g splits
that weight into w_N w_N' exp(-mu (N - N')^2 / 2) with w_N = N^k e^{-g N^2}.
The conditional state is therefore the projective post-state at u = 2g,
dephased between total-photon sectors by exp(-mu (N - N')^2 / 2).  The
dephasing is 1 within a sector, so the diagonal in N reproduces the count
distribution exactly.

Every count statistic and post-state here runs through the Poisson-mixture
core in `projective` with u = 2g.  The damping kernel h carries the exponent
e^{-gamma t/2}; the variant with e^{+gamma t/2} breaks the identity and with
it the normalization of the count distribution (the test suite rebuilds it as
a regression guard).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .fock import (
    ConvergenceError,
    DephasedState,
    ImpossibleOutcomeError,
    ModelParams,
    TwoModeState,
    apply_beam_splitter,
    density_from_pure,
    entanglement_report,
)
from .projective import (
    TAIL_MASS,
    _check_kt,
    mixture_cutoff,
    mixture_moments,
    mixture_pmf,
    mixture_pmf_row,
    postselect_pure,
    reweight_sectors,
    sample_mixture,
    sector_means,
)

_SERIES_CUT = 0.5
_TM_TIME_TOL = 1e-6  # |gamma * dt| tolerance for the peak-time inversion


@dataclass(frozen=True)
class SdKernels:
    """Counting kernels evaluated at one time.

    u = 2 g is the count-moment normalizer; z_factor is the coherent label of
    the monitor per unit total photon number, (-2i chi/gamma)(1 - e^{-gamma t/2}).
    """

    t: float
    g: float
    h: float
    mu: float
    u: float
    z_factor: complex


@dataclass(frozen=True)
class CountDistribution:
    """P(k, t) on a (time, k) grid with per-time normalization sums."""

    chi: float
    gamma: float
    time_grid: np.ndarray
    k_range: np.ndarray
    values: np.ndarray  # shape (len(time_grid), len(k_range))
    row_sums: np.ndarray


@dataclass(frozen=True)
class ScanRow:
    """One row of an entanglement scan: conditioning on k counts."""

    k: int
    t_m: float
    excess_short_time: float
    excess_at_tm: float
    s_ab_at_tm: float


def _g_core(x: float) -> float:
    """x - 3 + 4 e^{-x/2} - e^{-x}, series-evaluated near 0 where the direct
    form loses all significant digits (the value is O(x^3/12))."""
    if x < _SERIES_CUT:
        total = 0.0
        for j in range(14, 2, -1):
            c = (-1.0) ** j * (4.0 * 0.5**j - 1.0) / math.factorial(j)
            total = total * x + c
        return total * x**3
    return x - 3.0 + 4.0 * math.exp(-x / 2.0) - math.exp(-x)


def _h_core(x: float) -> float:
    """x - 2 (1 - e^{-x/2}), series near 0 (value is O(x^2/4))."""
    if x < _SERIES_CUT:
        total = 0.0
        for j in range(14, 1, -1):
            c = 2.0 * (-0.5) ** j / math.factorial(j)
            total = total * x + c
        return total * x**2
    return x - 2.0 + 2.0 * math.exp(-x / 2.0)


def eval_kernels(params: ModelParams, t: float) -> SdKernels:
    """Evaluate all counting kernels at time t.

    Raises ConvergenceError if the trace identity 2h - mu = 2g fails.
    """
    _check_kt(t, 0)
    x = params.gamma * t
    scale = 2.0 * params.chi**2 / params.gamma**2
    g = scale * _g_core(x)
    h = scale * _h_core(x)
    one_minus = -math.expm1(-x / 2.0)  # 1 - e^{-x/2}, stable for small x
    mu = 2.0 * scale * one_minus**2
    z_factor = -2j * params.chi / params.gamma * one_minus
    kern = SdKernels(t=t, g=g, h=h, mu=mu, u=2.0 * g, z_factor=z_factor)
    if not abs(2.0 * kern.h - kern.mu - kern.u) <= 1e-12 * max(1.0, abs(kern.u)):
        raise ConvergenceError(f"trace identity 2h - mu = 2g violated at t={t}")
    return kern


def count_probability(state0: TwoModeState, params: ModelParams, t: float, k: int) -> float:
    """P(k, t) = sum_N P_N Poisson(k; 2 g(t) N^2)."""
    _check_kt(t, k)
    return mixture_pmf(*sector_means(state0, eval_kernels(params, t).u), k)


def count_cutoff(state0: TwoModeState, params: ModelParams, t: float, tail: float = TAIL_MASS) -> int:
    return mixture_cutoff(state0, eval_kernels(params, t).u, tail)


def count_distribution_row(
    state0: TwoModeState, params: ModelParams, t: float, k_max: int
) -> np.ndarray:
    """P(k, t) for k = 0..k_max; row-vectorized version of `count_probability`."""
    _check_kt(t, k_max)
    return mixture_pmf_row(*sector_means(state0, eval_kernels(params, t).u), k_max)


def postselect_density(
    state0: TwoModeState, params: ModelParams, t: float, k: int
) -> DephasedState:
    """Conditional AB density after counting k monitor photons by time t.

    The pure post-state of the projective readout at u = 2g, psi, dephased
    between total-photon sectors: rho = exp(-mu (N - N')^2 / 2) psi psi^dag
    with N = m + n, N' = m' + n'.  The dephasing is 1 on the diagonal, so the
    trace is 1 by construction.  For number-state inputs the output is the
    freely evolved state for every k and gamma.
    """
    kern = eval_kernels(params, t)
    return DephasedState(postselect_pure(state0, params.lam, t, k, kern.u).post_state, kern.mu)


def short_time_state(state0: TwoModeState, lam: float, t: float, k: int) -> TwoModeState:
    """Pure short-time approximation of the k-count conditional state:
    N^k applied to the evolved input, normalized.  k = 0 returns the evolved
    state unchanged (up to the global-phase convention)."""
    _check_kt(t, k)
    evolved = apply_beam_splitter(state0, lam, t)
    if k == 0:
        return evolved
    return reweight_sectors(evolved, k, 0.0)


def most_probable_time(state0: TwoModeState, params: ModelParams, k: int) -> float:
    """Time t_m maximizing P(k, t).

    k = 0 has its maximum at the boundary t = 0.  For k >= 1 the probability
    depends on t only through the increasing reparametrization u = 2g(t), so
    the search maximizes over u (dense bracket scan plus golden-section, ties
    resolved toward smaller u) and then inverts g by bracketed root-finding
    to |gamma dt| <= 1e-6.
    """
    _check_kt(0.0, k)
    if k == 0:
        return 0.0
    weights, n_sq = sector_means(state0, 1.0)  # means per unit u: N^2
    positive = n_sq > 0
    if not np.any(weights[positive] > 0):
        raise ImpossibleOutcomeError(f"P(k={k}, t) vanishes identically for this state")
    mean_n2 = float(np.sum(weights * n_sq) / np.sum(weights))
    n_min_sq = float(np.min(n_sq[positive & (weights > 0)]))
    # bracket covers the Poisson component peaks u = k / N^2 of every
    # populated sector as well as the mixture-mean heuristic 10k / <N^2>
    u_hi = max(10.0 * k / mean_n2, 3.0 * k / n_min_sq)
    grid = np.linspace(u_hi / 2048.0, u_hi, 2048)
    vals = mixture_pmf(weights, np.multiply.outer(grid, n_sq), k)
    best = int(np.argmax(vals))
    if best == len(grid) - 1:
        raise ConvergenceError(
            f"no interior maximum of P(k={k}, t) found below u={u_hi:g}; "
            f"profile max at the bracket edge (P={vals[best]:g})"
        )
    lo = grid[best - 1] if best > 0 else 0.0
    hi = grid[best + 1]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = mixture_pmf(weights, c * n_sq, k)
    fd = mixture_pmf(weights, d * n_sq, k)
    while b - a > 1e-14 * u_hi:
        if fc > fd:  # strict: plateaus collapse toward smaller u
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = mixture_pmf(weights, c * n_sq, k)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = mixture_pmf(weights, d * n_sq, k)
    u_star = (a + b) / 2.0
    g_star = u_star / 2.0
    t_hi = 1.0 / params.gamma
    while eval_kernels(params, t_hi).g < g_star:
        t_hi *= 2.0
        if t_hi > 1e12 / params.gamma:
            raise ConvergenceError(f"failed to bracket g(t) = {g_star:g}")
    return float(
        brentq(
            lambda t: eval_kernels(params, t).g - g_star,
            0.0,
            t_hi,
            xtol=_TM_TIME_TOL / params.gamma / 2.0,
        )
    )


def count_mean_variance(
    state0: TwoModeState, params: ModelParams, t: float, asymptotic: bool = False
) -> tuple[float, float]:
    """Mean and (full) variance of the count distribution at time t.

    k_mean = u <N^2> and Var(k) = k_mean + u^2 Var(N^2) with u = 2 g(t).
    ``asymptotic=True`` replaces u by its late-time linearization
    (2 chi/gamma)^2 gamma t.
    """
    _check_kt(t, 0)
    if asymptotic:
        return mixture_moments(state0, (2.0 * params.chi / params.gamma) ** 2 * params.gamma * t)
    return mixture_moments(state0, eval_kernels(params, t).u)


def entanglement_scan(
    state0: TwoModeState, params: ModelParams, k_list: list[int]
) -> list[ScanRow]:
    """For each k: the most probable counting time, the excess entropy of the
    pure short-time state, and the excess entropy and joint linear entropy of
    the conditional density at t_m.  Rows follow the order of ``k_list``."""
    if not k_list:
        raise ValueError("k_list must be nonempty")
    rows = []
    for k in k_list:
        t_m = most_probable_time(state0, params, k)
        short = short_time_state(state0, params.lam, 0.0, k)
        report_short = entanglement_report(density_from_pure(short))
        report_tm = entanglement_report(postselect_density(state0, params, t_m, k))
        rows.append(
            ScanRow(
                k=k,
                t_m=t_m,
                excess_short_time=report_short.excess,
                excess_at_tm=report_tm.excess,
                s_ab_at_tm=report_tm.s_ab,
            )
        )
    return rows


def count_distribution(
    state0: TwoModeState,
    params: ModelParams,
    time_grid: np.ndarray,
    k_max: int | None = None,
) -> CountDistribution:
    """P(k, t) over a time grid; the k range is adaptive unless pinned."""
    times = np.asarray(time_grid, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("time_grid must be a nonempty 1-d array")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("time_grid must be ordered and nonnegative")
    if k_max is None:
        k_max = max(count_cutoff(state0, params, t) for t in times)
    ks = np.arange(k_max + 1)
    values = np.empty((len(times), len(ks)))
    for i, t in enumerate(times):
        values[i] = count_distribution_row(state0, params, t, k_max)
    return CountDistribution(
        chi=params.chi,
        gamma=params.gamma,
        time_grid=times,
        k_range=ks,
        values=values,
        row_sums=values.sum(axis=1),
    )


def sample_counts(
    state0: TwoModeState, params: ModelParams, t: float, n_samples: int, seed: int
) -> np.ndarray:
    """Seeded exact sampling of the count distribution at fixed t: draw the
    total photon number from its (renormalized) distribution, then
    k ~ Poisson(2 g(t) N^2)."""
    return sample_mixture(state0, eval_kernels(params, t).u, n_samples, seed)
