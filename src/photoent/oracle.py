"""Brute-force evaluation of the counting process, independent of every
closed-form kernel it validates.

The no-count evolution is the non-unitary semigroup generated by

    Y = -i lam (a†b + ab†) - i chi N (c + c†) - (gamma/2) c†c,

a count is the jump  rho -> gamma c rho c†, and the k-count operation is the
nested time-ordered integral over jump times of no-count segments separated
by jumps.  Probabilities and conditional densities for k <= 2 come from
deterministic nested Gauss-Legendre quadrature over the jump-time simplex,
higher k from Monte Carlo sampling of jump times from the exact
waiting-time distribution (the norm decay of the no-count semigroup).  The
sampler computes the no-count path shared by all trajectories once and
reads each first count off its norms; trajectories that have counted are
stepped together, and every count inside a step is located by one batched
bisection.

Y commutes with the total AB photon number N = m + n, and within a sector
of fixed N the exchange part and the monitor part act on different tensor
factors.  The exchange part is unitary and commutes with the counts, so
every jump record ends in sum_N psi~_N (x) phi_N: psi~ is the input evolved
by the exchange alone to time t, and phi_N is the monitor factor driven
from the vacuum by M_N = -i chi N (c + c†) - (gamma/2) c†c between counts
and by sqrt(gamma) c at each count.

The monitor factors are computed in real arithmetic.  The diagonal gauge
U = diag((-i)^p) gives U† c U = -i c, so M_N = U W_N U† with the real

    W_N = chi N (c† - c) - (gamma/2) c†c,

and after k counts phi_N is (-i)^k U times the real vector obtained from
the vacuum by expm(W_N dt) per segment and sqrt(gamma) c per count.  The
phases cancel in every overlap, so both oracles carry one real vector per
populated sector.  The quadrature sums the real Gram matrix

    G(N, N') = sum_records w phi_N . phi_N',

so that P(k) = sum_N P_N G(N, N) and the unnormalized conditional density
is G(N_i, N_j) psi~_i psi~_j^*.  Every propagator is computed where it is
used; nothing is cached.  The tests (`tests/crosschecks.py`) push the full
A (x) B (x) C tensor through the same records and integrate the full
generator by adaptive Runge-Kutta to cross-check this.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from .fock import (
    ConvergenceError,
    ModelParams,
    ResourceLimitError,
    TwoModeDensity,
    TwoModeState,
    _check_int,
    _check_time,
    _totals,
    apply_beam_splitter,
    number_weights,
)

MAX_MONITOR_DIM = 400
# Gauss-Legendre nodes per jump, doubled until two levels agree
_NODE_LADDER = (8, 16, 32, 64)
# Monte Carlo time grid: base steps of t / _BASE_STEPS, jump times located
# by bisection to t / _BASE_STEPS / 2^_DEPTH; counts beyond _MAX_TRACK share
# the overflow bin
_BASE_STEPS = 64
_DEPTH = 30
_MAX_TRACK = 64


def monitor_dim(params: ModelParams, n_total_max: int) -> int:
    """Monitor cutoff covering the largest coherent label
    |z|_max = (2 chi / gamma) n_total_max with sub-1e-8 Poisson tail."""
    z = 2.0 * params.chi / params.gamma * n_total_max
    dim = int(math.ceil(z * z + 8.0 * z + 10.0))
    if dim > MAX_MONITOR_DIM:
        raise ResourceLimitError(
            f"monitor cutoff {dim} exceeds the budget {MAX_MONITOR_DIM}; "
            f"reduce chi/gamma or the total photon number ({n_total_max})"
        )
    return dim


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def _monitor_generator(chi: float, gamma: float, n_total: int, d_c: int) -> np.ndarray:
    """Real W_N = chi N (c† - c) - (gamma/2) c†c, with M_N = U W_N U†."""
    c = annihilation(d_c)
    return chi * n_total * (c.T - c) - gamma / 2.0 * np.diag(np.arange(d_c, dtype=float))


def _sector_setup(state0: TwoModeState, params: ModelParams):
    """Populated total-N sectors, the raw weights P_N of every N, and the
    monitor cutoff of the largest populated N."""
    weights = number_weights(state0)
    sectors = np.nonzero(weights / np.sum(weights) > 1e-300)[0]
    return sectors, weights, monitor_dim(params, int(sectors.max()))


def _gram(params: ModelParams, sectors: np.ndarray, d_c: int, t: float, k: int, n_nodes: int) -> np.ndarray:
    """G(N, N') = sum_records w phi_N . phi_N' over the records of one
    Gauss-Legendre level (k <= 2, n_nodes per jump), phi_N real.

    The nodes are antisymmetric (x[n-1-j] = -x[j]), so a segment from a jump
    at node j to the end of its interval has the length of node n-1-j: a
    level takes n (k = 1) or n^2 + n (k = 2) propagators per sector.
    """
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    jump_op = math.sqrt(params.gamma) * annihilation(d_c)

    def one_count(gen, span):
        """Vectors at ``span`` after one count at each node of [0, span]."""
        props = expm((0.5 * span * (x + 1.0))[:, None, None] * gen)
        return props[::-1] @ (jump_op @ props[:, :, :1])

    s, ws = 0.5 * t * (x + 1.0), 0.5 * t * w
    weights = {0: np.ones(1), 1: ws, 2: np.outer(ws, 0.5 * w) * s[:, None]}[k]
    phis = []
    for n_tot in sectors:
        gen = _monitor_generator(params.chi, params.gamma, int(n_tot), d_c)
        if k == 0:
            phi = expm(gen * t)[:, :1]
        elif k == 1:
            phi = one_count(gen, t)
        else:  # first count at node j of [0, s_i], second at s_i
            last = expm(s[::-1, None, None] * gen)
            phi = last[:, None] @ (jump_op @ np.stack([one_count(gen, si) for si in s]))
        phis.append(phi.reshape(-1, d_c))
    rows = np.stack(phis) * np.sqrt(weights.ravel())[:, None]
    rows = rows.reshape(len(sectors), -1)
    return rows @ rows.T


def _quadrature_level(
    state0: TwoModeState, params: ModelParams, t: float, k: int, n_nodes: int, want_density: bool
) -> tuple[float, np.ndarray | None]:
    """P(k, t) and, if wanted, the unnormalized conditional AB density from
    one Gauss-Legendre level."""
    sectors, weights, d_c = _sector_setup(state0, params)
    gram = _gram(params, sectors, d_c, t, k, n_nodes)
    prob = float(weights[sectors] @ np.diag(gram))
    if not want_density:
        return prob, None
    by_sector = np.zeros((len(weights),) * 2)
    by_sector[np.ix_(sectors, sectors)] = gram
    totals = _totals(state0.d_a, state0.d_b).ravel()
    psi = apply_beam_splitter(state0, params.lam, t).coeffs.ravel()
    return prob, by_sector[np.ix_(totals, totals)] * np.outer(psi, psi.conj())


def _quadrature(
    state0: TwoModeState, params: ModelParams, t: float, k: int, rel_tol: float, want_density: bool
) -> tuple[float, np.ndarray | None]:
    """Double the node count until the probability (relative) and, if
    wanted, the normalized density (max element) are stable to rel_tol."""
    _check_time(t)
    _check_int("k", k, 0, 2)
    prev = None
    for n in (1,) if k == 0 else _NODE_LADDER:
        prob, rho = _quadrature_level(state0, params, t, k, n, want_density)
        if want_density:
            if prob <= 0:
                raise ConvergenceError(f"outcome k={k} has vanishing probability at t={t}")
            rho = rho / prob
        if k == 0 or (
            prev is not None
            and abs(prob - prev[0]) <= rel_tol * max(abs(prob), 1e-300)
            and (rho is None or np.max(np.abs(rho - prev[1])) <= rel_tol)
        ):
            return prob, rho
        prev = prob, rho
    raise ConvergenceError(
        f"jump-time quadrature for k={k} did not reach rel_tol={rel_tol:g}: "
        f"last two probabilities {prev[0]!r}, {prob!r}"
    )


def p_k_quadrature(
    state0: TwoModeState, params: ModelParams, t: float, k: int, rel_tol: float = 1e-6
) -> float:
    """P(k, t) by deterministic nested quadrature over jump times, k <= 2.

    The node count doubles until two successive levels agree to ``rel_tol``
    relative; failing that a ConvergenceError reports both estimates.
    """
    return _quadrature(state0, params, t, k, rel_tol, False)[0]


def nt_oracle_point(
    state0: TwoModeState, params: ModelParams, t: float, k: int, rel_tol: float = 1e-6
) -> tuple[float, TwoModeDensity]:
    """Probability and normalized conditional AB density from one converged
    quadrature ladder (k <= 2): the ladder stops when both the probability
    (relative) and the density (max element) are stable to ``rel_tol``."""
    prob, rho = _quadrature(state0, params, t, k, rel_tol, True)
    herm_defect = float(np.max(np.abs(rho - rho.conj().T)))
    trace_defect = abs(np.trace(rho).real - 1.0)
    if not (herm_defect <= 1e-8 and trace_defect <= 1e-8):
        raise ConvergenceError(
            f"conditional density for k={k} is off by {herm_defect:.3g} "
            f"(hermiticity) and {trace_defect:.3g} (trace)"
        )
    return prob, TwoModeDensity((rho + rho.conj().T) / 2.0, state0.d_a, state0.d_b)


def mc_count_histogram(
    state0: TwoModeState,
    params: ModelParams,
    t: float,
    n_samples: int,
    seed: int,
    batch_size: int = 4096,
) -> np.ndarray:
    """Histogram of counted photons over `n_samples` jump trajectories.

    Each trajectory carries the monitor factor of every populated total-N
    sector (the exchange part of the no-count generator is norm-preserving
    and cannot influence jump statistics, so it is not simulated).  Waiting
    times are found by threshold crossing of the squared norm, located by
    dyadic bisection to t / _BASE_STEPS / 2^_DEPTH and realigned to the step
    grid; the interval propagators are the real expm(W_N dt).

    Until its first count every trajectory carries the same vector, so the
    no-count path at the step boundaries and its norms are computed once
    per call; a trajectory's first count falls in the first step whose end
    norm is below its threshold.  Every count inside a step, first or later,
    is located by one batched routine (``jump_in_step``), whose walk to the
    step end after a count, largest chunk first, is exact in time; another
    grouping of the same propagator products can round a norm differently.

    Trajectories are carried in the gauge of U = diag((-i)^p), where the
    monitor factors stay real.  There a count is -i sqrt(gamma) c; the -i is
    one global phase shared by every sector and the jumped state is
    renormalized, so it is dropped: it changes no norm, hence no waiting
    time and no count.

    Trajectory j draws its thresholds from the dedicated substream
    ``default_rng([seed, j])``, and the histogram is an integer sum, so the
    result is reproducible for a fixed seed independent of batch size (up to
    a threshold within rounding of a norm: BLAS may round a row differently
    in a batch of another size).
    Counts beyond ``_MAX_TRACK`` land in the final overflow bin.  Truncated
    input states are renormalized, so estimates refer to the retained
    support (bias of order trunc_weight).
    """
    _check_time(t, positive=True)
    _check_int("n_samples", n_samples, 1)
    _check_int("batch_size", batch_size, 1)
    _check_int("seed", seed, 0)
    sectors, weights, d_c = _sector_setup(state0, params)
    amps = np.sqrt(weights[sectors] / np.sum(weights))
    n_sectors = len(sectors)
    # transposed propagators per level and sector, so batches advance by
    # stacked row-major matmul (BLAS) instead of einsum
    props_t = np.empty((_DEPTH + 1, n_sectors, d_c, d_c))
    taus = t / _BASE_STEPS / 2.0 ** np.arange(_DEPTH + 1)
    for si, n_tot in enumerate(sectors):
        gen = _monitor_generator(params.chi, params.gamma, int(n_tot), d_c)
        props_t[:, si] = expm(taus[:, None, None] * gen).transpose(0, 2, 1)
    c_t = annihilation(d_c).T.copy()
    sqrt_gamma = math.sqrt(params.gamma)
    hist = np.zeros(_MAX_TRACK + 2, dtype=np.int64)

    def advance(phi: np.ndarray, level: int) -> np.ndarray:
        # phi: (n_sectors, batch, d_c); stacked row-vector times E_s^T
        return np.matmul(phi, props_t[level])

    def norms(phi: np.ndarray) -> np.ndarray:
        return np.sum(phi * phi, axis=(0, -1))

    def do_jump(phi: np.ndarray) -> np.ndarray:
        out = sqrt_gamma * np.matmul(phi, c_t)
        nrm = np.sqrt(np.sum(out * out, axis=(0, -1)))
        return out / np.maximum(nrm, 1e-300)[..., None]

    def jump_in_step(low: np.ndarray, cur: np.ndarray) -> None:
        """Trajectories ``low`` cross their threshold inside the base step
        that starts at ``cur``; leave them at the end of the step.

        ``room``, the part of the step still ahead, counts finest chunks of
        t / _BASE_STEPS / 2^_DEPTH.  Each round bisects to the last finest
        grid point whose norm is at or above the threshold (taking only
        chunks that end before the step does), jumps there, draws the next
        threshold, and walks the rest of the step largest chunk first;
        trajectories whose step-end norm is below the new threshold go round
        again from just after their jump.  ``cur`` is overwritten."""
        room = np.full(low.size, 1 << _DEPTH, dtype=np.int64)
        while low.size:
            for level in range(1, _DEPTH + 1):
                chunk = 1 << (_DEPTH - level)
                cand = advance(cur, level)
                ok = (chunk < room) & (norms(cand) >= u[low])
                cur[:, ok, :] = cand[:, ok, :]
                room[ok] -= chunk
            cur = do_jump(cur)
            jumps[low] += 1
            for j in low:
                u[j] = rngs[j].random()
            after = cur.copy()
            for level in range(_DEPTH + 1):
                take = (room & (1 << (_DEPTH - level))) != 0
                if np.any(take):
                    cur[:, take, :] = advance(cur[:, take, :], level)
            phi[:, low, :] = cur
            again = (norms(cur) < u[low]) & (jumps[low] <= _MAX_TRACK)
            low, cur, room = low[again], after[:, again, :], room[again]

    # every trajectory carries the same vector until its first count: the
    # no-count path at the step boundaries, path[:, s] at time s t / _BASE_STEPS
    path = np.zeros((n_sectors, _BASE_STEPS + 1, d_c))
    path[:, 0, 0] = amps
    for step in range(_BASE_STEPS):
        path[:, step + 1 : step + 2] = advance(path[:, step : step + 1], 0)
    path_norms = norms(path)
    for start in range(0, n_samples, batch_size):
        n_batch = min(batch_size, n_samples - start)
        rngs = [np.random.default_rng([seed, start + j]) for j in range(n_batch)]
        u = np.array([r.random() for r in rngs])
        jumps = np.zeros(n_batch, dtype=np.int64)
        # the first count falls in the first step whose end norm is below u
        crossed = path_norms[1:, None] < u
        first = np.argmax(crossed, axis=0)
        counted = np.nonzero(crossed.any(axis=0))[0]
        phi = np.empty((n_sectors, n_batch, d_c))
        jump_in_step(counted, path[:, first[counted]])
        for step in range(1, _BASE_STEPS):
            idx = counted[(first[counted] < step) & (jumps[counted] <= _MAX_TRACK)]
            prev = phi[:, idx, :]
            phi[:, idx, :] = stepped = advance(prev, 0)
            crossed_now = norms(stepped) < u[idx]
            if np.any(crossed_now):
                jump_in_step(idx[crossed_now], prev[:, crossed_now, :])
        clipped = np.minimum(jumps, _MAX_TRACK + 1)
        hist += np.bincount(clipped, minlength=_MAX_TRACK + 2)
    return hist


def p_k_montecarlo(
    state0: TwoModeState,
    params: ModelParams,
    t: float,
    k: int,
    n_samples: int,
    seed: int,
) -> tuple[float, float]:
    """Unbiased Monte Carlo estimate of P(k, t) with its standard error.

    The estimate is the fraction of trajectories registering exactly k
    counts; the standard error is sqrt(p(1-p)/n).  When no trajectory hits k
    the estimate is 0 and the reported error is the one-sided 95% bound 3/n
    (rule of three).
    """
    return mc_estimates(state0, params, t, [k], n_samples, seed)[0]


def mc_estimates(
    state0: TwoModeState, params: ModelParams, t: float, ks: list[int], n_samples: int, seed: int
) -> list[tuple[float, float]]:
    """``p_k_montecarlo`` for every k in ``ks`` from one histogram."""
    _check_int("n_samples", n_samples, 1000)
    for k in ks:
        _check_int("k", k, 0, _MAX_TRACK)
    hist = mc_count_histogram(state0, params, t, n_samples, seed)
    fractions = [int(hist[k]) / n_samples for k in ks]
    return [(p, math.sqrt(p * (1.0 - p) / n_samples)) if p > 0 else (0.0, 3.0 / n_samples) for p in fractions]
