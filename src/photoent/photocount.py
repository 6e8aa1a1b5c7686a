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

from .fock import (
    ConvergenceError,
    DephasedState,
    ImpossibleOutcomeError,
    ModelParams,
    TwoModeState,
    _check_int,
    _check_time,
    _dephasing,
    _sector_entropies,
    apply_beam_splitter,
)
from .projective import (
    TAIL_MASS,
    mixture_cutoff,
    mixture_pmf,
    mixture_table,
    postselect_pure,
    reweight_sectors,
    sample_mixture,
    sector_means,
)

_SERIES_CUT = 0.5
_GRID_BLOCK = 1 << 15  # peak-search grid elements (points x sectors) evaluated at once


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

    Raises ValueError, naming the rates, if a kernel is not a finite float,
    and ConvergenceError if the trace identity 2h - mu = 2g fails.
    """
    _check_time(t)
    x = params.gamma * t
    scale = 2.0 * params.chi**2 / params.gamma**2
    g = scale * _g_core(x)
    h = scale * _h_core(x)
    one_minus = -math.expm1(-x / 2.0)  # 1 - e^{-x/2}, stable for small x
    mu = 2.0 * scale * one_minus**2
    if not all(map(math.isfinite, (g, h, mu))):
        raise ValueError(f"counting kernels overflow at t={t!r} (chi={params.chi!r}, gamma={params.gamma!r})")
    z_factor = -2j * params.chi / params.gamma * one_minus
    kern = SdKernels(t=t, g=g, h=h, mu=mu, u=2.0 * g, z_factor=z_factor)
    # 2h and mu carry rounding of their own size, which is up to 3/(gamma t)
    # times u; so the identity holds to the size of 2h = u + mu, not of u
    if not abs(2.0 * kern.h - kern.mu - kern.u) <= 1e-12 * max(1.0, 2.0 * kern.h):
        raise ConvergenceError(f"trace identity 2h - mu = 2g violated at t={t}")
    return kern


def count_probability(state0: TwoModeState, params: ModelParams, t: float, k: int) -> float:
    """P(k, t) = sum_N P_N Poisson(k; 2 g(t) N^2)."""
    _check_int("k", k, 0)
    return mixture_pmf(*sector_means(state0, eval_kernels(params, t).u), k)


def count_cutoff(state0: TwoModeState, params: ModelParams, t: float, tail: float = TAIL_MASS) -> int:
    return mixture_cutoff(state0, eval_kernels(params, t).u, tail)


def count_distribution_row(
    state0: TwoModeState, params: ModelParams, t: float, k_max: int
) -> np.ndarray:
    """P(k, t) for k = 0..k_max; row-vectorized version of `count_probability`."""
    return mixture_table(state0, [eval_kernels(params, t).u], k_max)[0]


def postselect_density(state0: TwoModeState, params: ModelParams, t: float, k: int) -> DephasedState:
    """Conditional AB density after counting k monitor photons by time t.

    The pure post-state of the projective readout at u = 2g, psi, dephased
    between total-photon sectors: rho = exp(-mu (N - N')^2 / 2) psi psi^dag
    with N = m + n, N' = m' + n'.  The dephasing is 1 on the diagonal, so the
    trace is 1 by construction.  For number-state inputs the output is the
    freely evolved state for every k and gamma.
    """
    kern = eval_kernels(params, t)
    post = postselect_pure(state0, params.lam, t, k, kern.u).post_state
    return DephasedState(post, _dephasing(post.n_max, kern.mu / 2.0))


def short_time_state(state0: TwoModeState, lam: float, t: float, k: int) -> TwoModeState:
    """Pure short-time approximation of the k-count conditional state:
    N^k applied to the evolved input, normalized.  k = 0 returns the evolved
    state unchanged (up to the global-phase convention)."""
    _check_time(t)
    _check_int("k", k, 0)
    evolved = apply_beam_splitter(state0, lam, t)
    if k == 0:
        return evolved
    return reweight_sectors(evolved, k, 0.0)


def _bisect(positive, lo, hi, group):
    """Bisect each row toward the point where ``positive`` turns false and
    return its lo.  Rows step in groups (``group`` ids, nondecreasing): a
    group keeps stepping all its rows until every one has lo and hi adjacent
    floats, as a search of that group alone would, because a converged row's
    lo can still move up one ulp.  ``positive(mid, live)`` gets the
    midpoints of the rows ``live`` of the groups still stepping."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    live = np.arange(len(lo))
    while True:
        mid = (lo[live] + hi[live]) / 2.0
        open_rows = (mid != lo[live]) & (mid != hi[live])
        stepping = np.bincount(group[live], open_rows, minlength=group[-1] + 1)[group[live]] > 0
        live, mid = live[stepping], mid[stepping]
        if live.size == 0:
            return lo
        up = positive(mid, live)
        lo[live], hi[live] = np.where(up, mid, lo[live]), np.where(up, hi[live], mid)


def _grid_peaks(weights, n_sq, ks):
    """Brackets (lo, hi) around each log-grid maximum of P(k) within 2% of
    the grid's best, for every k of the array ``ks``, with the index of its
    k; the grids are evaluated a block of k at a time to bound memory."""
    sizes = np.array([int(4.0 * math.sqrt(k) * math.log((k / n_sq[0]) / (k / n_sq[-1]))) + 3 for k in ks.tolist()])
    cum = np.cumsum(sizes)
    brackets = []
    first = 0
    while first < len(ks):
        last = max(first + 1, np.searchsorted(cum, cum[first] - sizes[first] + _GRID_BLOCK // len(n_sq), "right"))
        size = sizes[first:last]
        grid = np.concatenate([np.geomspace(k / n_sq[-1], k / n_sq[0], n) for k, n in zip(ks[first:last], size)])
        index = np.repeat(np.arange(first, last), size)
        vals = mixture_pmf(weights, np.multiply.outer(grid, n_sq), ks[index, None])
        starts = np.cumsum(size) - size
        ends = starts + size - 1
        before, after = np.roll(vals, 1), np.roll(vals, -1)
        before[starts], after[ends] = -np.inf, -np.inf
        top = (vals >= before) & (vals >= after) & (vals >= 0.98 * np.repeat(np.maximum.reduceat(vals, starts), size))
        # grid[i] lies in [grid[i - 1], grid[i + 1]]; a grid's ends are its bracket's
        lower, upper = np.roll(grid, 1), np.roll(grid, -1)
        lower[starts], upper[ends] = grid[starts], grid[ends]
        brackets.append((lower[top], upper[top], index[top]))
        first = last
    return (np.concatenate(parts) for parts in zip(*brackets))


def most_probable_times(state0: TwoModeState, params: ModelParams, ks) -> np.ndarray:
    """Times t_m(k) maximizing P(k, t), one for each k of ``ks``.

    k = 0 has its maximum at the boundary t = 0.  For k >= 1, P depends on t
    only through the increasing u = 2g(t).  Each populated component
    Poisson(k; u N^2) peaks at u = k / N^2, so every maximum of P lies in
    [k / N_max^2, k / N_min^2].  A log grid per k with about four samples
    per component width u / sqrt(k) lands within 1/8 width of every peak;
    each grid maximum within 2% of the best is refined by bisecting the
    slope sum_N P_N Poisson(k; u N^2)(k - u N^2), every k in one bisection,
    and the highest wins.  Peaks within a relative 1e-13 of the highest, the
    accuracy of the pmf, are ties and go to the smaller u, so rounding cannot
    pick the peak.  Then g_core(gamma t) = c := u gamma^2 / (4 chi^2) is
    solved by bisection in [0, c + 3] (g_core(x) >= x - 3) to float
    resolution.  Raises ValueError, naming the rates, when c or t_m is not a
    positive finite float.
    """
    ks = list(ks)
    for k in ks:
        _check_int("k", k, 0)
    counted = sorted({k for k in ks if k > 0})
    peak_u = {}
    if counted:
        weights, n_sq = sector_means(state0, 1.0)  # means per unit u: N^2
        populated = (n_sq > 0) & (weights > 0)
        if not np.any(populated):
            raise ImpossibleOutcomeError(f"P(k={counted[0]}, t) vanishes identically for this state")
        weights, n_sq = weights[populated], n_sq[populated]
        k_of = np.array(counted)[:, None]
        lo, hi, index = _grid_peaks(weights, n_sq, k_of[:, 0])

        def rising(u, rows):
            means = np.multiply.outer(u, n_sq)
            return mixture_pmf(weights * (k_of[index[rows]] - means), means, k_of[index[rows]]) > 0

        u = _bisect(rising, lo, hi, index)
        peaks = mixture_pmf(weights, np.multiply.outer(u, n_sq), k_of[index])
        starts = np.unique(index, return_index=True)[1]
        ties = peaks >= (1.0 - 1e-13) * np.maximum.reduceat(peaks, starts)[index]
        peak_u = dict(zip(counted, np.minimum.reduceat(np.where(ties, u, np.inf), starts).tolist()))
    times = {0: 0.0}
    for k, u_star in peak_u.items():
        target = u_star * params.gamma**2 / (4.0 * params.chi**2)
        lo = 0.0
        if 0.0 < target < math.inf:
            hi = target + 3.0  # the steps of `_bisect`, in plain floats
            while (mid := (lo + hi) / 2.0) not in (lo, hi):
                lo, hi = (mid, hi) if _g_core(mid) < target else (lo, mid)
        times[k] = lo / params.gamma
        if not 0.0 < times[k] < math.inf:
            raise ValueError(
                f"the peak time of k={k} is not a positive float at chi={params.chi!r}, gamma={params.gamma!r}"
            )
    return np.array([times[k] for k in ks])


def most_probable_time(state0: TwoModeState, params: ModelParams, k: int) -> float:
    """Time t_m maximizing P(k, t); see `most_probable_times`."""
    return float(most_probable_times(state0, params, [k])[0])


def entanglement_scan(
    state0: TwoModeState, params: ModelParams, k_list: list[int]
) -> list[ScanRow]:
    """For each k: the most probable counting time, the excess entropy of the
    pure short-time state, and the excess entropy and joint linear entropy of
    the conditional density at t_m.  Rows follow the order of ``k_list``.
    The entropies come from the sectors of the pure states, so no
    (d_a d_b)^2 density is built."""
    if not k_list:
        raise ValueError("k_list must be nonempty")
    rows = []
    for k, t_m in zip(k_list, most_probable_times(state0, params, k_list).tolist()):
        short = short_time_state(state0, params.lam, 0.0, k)
        short_a, short_b, short_ab = _sector_entropies(short, _dephasing(short.n_max, 0.0))
        kern = eval_kernels(params, t_m)
        post = postselect_pure(state0, params.lam, t_m, k, kern.u).post_state
        s_a, s_b, s_ab = _sector_entropies(post, _dephasing(post.n_max, kern.mu / 2.0))
        rows.append(
            ScanRow(
                k=k,
                t_m=t_m,
                excess_short_time=short_a + short_b - short_ab,
                excess_at_tm=s_a + s_b - s_ab,
                s_ab_at_tm=s_ab,
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
    if k_max is None:  # the omitted mass grows with u = 2g(t), so the last time needs the most
        k_max = count_cutoff(state0, params, times[-1])
    ks = np.arange(k_max + 1)
    values = mixture_table(state0, [eval_kernels(params, t).u for t in times], k_max)
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
