"""Brute-force evaluation of the counting process, independent of every
closed-form kernel it validates.

The no-count evolution is the non-unitary semigroup generated by

    Y = -i lam (a†b + ab†) - i chi N (c + c†) - (gamma/2) c†c,

a count is the jump  rho -> gamma c rho c†, and the k-count operation is the
nested time-ordered integral over jump times of no-count segments separated
by jumps.  Probabilities and conditional densities for k <= 2 come from
deterministic nested Gauss-Legendre quadrature over the jump-time simplex
(one level, checked by a null rule on its nodes), higher k from Monte Carlo
sampling of jump times from the exact waiting-time distribution (the norm
decay of the no-count semigroup).  A trajectory draws its sector N first
and carries that sector alone; the sampler locates each count by one
batched dyadic search over the rest of [0, t], all thresholds drawn from
one ``default_rng(seed)``.

Y commutes with the total AB photon number N = m + n, and within a sector
of fixed N the exchange part and the monitor part act on different tensor
factors.  The exchange part is unitary and commutes with the counts, so
every jump record ends in sum_N psi~_N (x) phi_N: psi~ is the input evolved
by the exchange alone to time t, and phi_N is the monitor factor driven
from the vacuum by M_N = -i chi N (c + c†) - (gamma/2) c†c between counts
and by sqrt(gamma) c at each count.  Both oracles cut each sector's
monitor at its own monitor_dim(params, N); the quadrature zero-pads it to
the largest, the Monte Carlo flushes its subnormals.

The monitor factors are computed in real arithmetic.  The diagonal gauge
U = diag((-i)^p) gives U† c U = -i c, so M_N = U W_N U† with the real

    W_N = chi N (c† - c) - (gamma/2) c†c,

and after k counts phi_N is (-i)^k U times the real vector obtained from
the vacuum by exp(W_N dt) per segment and sqrt(gamma) c per count.  The
phases cancel in every overlap, so both oracles carry one real vector per
populated sector.  The quadrature sums the real Gram matrix

    G(N, N') = sum_records w phi_N . phi_N',

so that P(k) = sum_N P_N G(N, N) and the conditional state is the
`DephasedState` of psi~ with sector matrix G(N, N') / P(k): the closed form's
format, with its Gram matrix in place of exp(-mu (N - N')^2 / 2).  No
(d_a d_b)^2 array is built here.  Every propagator is computed where it is
used, nothing is cached, and no scipy is loaded: exp(W_N dt) comes from a
numpy Taylor polynomial with scaling and squaring (`_exp_map`).  The
tests (`tests/crosschecks.py`) push the full A (x) B (x) C tensor through
the same records and integrate the full generator by adaptive Runge-Kutta
to cross-check this.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import (
    ConvergenceError,
    DephasedState,
    ModelParams,
    ResourceLimitError,
    TwoModeState,
    _check_int,
    _check_time,
    _totals,
    apply_beam_splitter,
    number_weights,
)

MAX_MONITOR_DIM = 400
# the quadrature's error bound, relative for the probability and max element
# for the normalized density; a null-rule estimate, below _REL_TOL / _NULL_MARGIN
_REL_TOL = 1e-6
_NULL_MARGIN = 10.0
# Gauss-Legendre nodes per jump, doubled until two levels agree; 16 tried first
_NODE_LADDER = (8, 16, 32, 64)
# Monte Carlo time grid: jump times located by a dyadic search over
# propagators of t / 2^level, level <= _DEPTH, to t / 2^_DEPTH; counts beyond
# _MAX_TRACK share the overflow bin
_DEPTH = 36
_MAX_TRACK = 64
# Monte Carlo trajectories advanced together
_BATCH = 4096
# 1/j!, j = 0..18: the Taylor coefficients of _exp_map
_TAYLOR = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, 19.0)])


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


def _exp_map(gen: np.ndarray):
    """The map taus -> exp(tau gen) for every tau in ``taus``, of shape
    taus.shape + gen.shape.

    Each is the degree-18 Taylor polynomial of tau gen / 2^s squared s times
    (Higham 2005), s the least with tau alpha / 2^s <= 1, where alpha =
    max(|gen^4|^(1/4), |gen^5|^(1/5)) in the 1-norm bounds the remainder by
    sum_{j > 18} 1/j! < 1e-17 (Al-Mohy & Higham 2009, Thm 4.2).  The powers
    of gen / 2^e, |gen / 2^e|_1 <= 1, are taken once, so the polynomial of
    each tau is one row of a single matrix product; only the matrices that
    still need it are squared."""
    e = np.frexp(np.linalg.norm(gen, 1))[1]
    powers = np.empty((19,) + gen.shape)
    powers[0], powers[1] = np.eye(len(gen)), np.ldexp(gen, -e)
    for j in range(2, 19):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    alpha = max(np.linalg.norm(powers[4], 1) ** 0.25, np.linalg.norm(powers[5], 1) ** 0.2)

    def exp(taus) -> np.ndarray:
        shape, taus = np.shape(taus), np.ravel(taus)
        s = np.maximum(np.frexp(np.ldexp(taus * alpha, e))[1], 0)
        out = np.tensordot(np.ldexp(taus, e - s)[:, None] ** np.arange(19) * _TAYLOR, powers, axes=1)
        for r in range(s.max(initial=0)):
            square = out[s > r]
            out[s > r] = square @ square
        return out.reshape(shape + gen.shape)

    return exp


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def _monitor_generator(chi: float, gamma: float, n_total: int, d_c: int) -> np.ndarray:
    """Real W_N = chi N (c† - c) - (gamma/2) c†c, with M_N = U W_N U†."""
    c = annihilation(d_c)
    return chi * n_total * (c.T - c) - gamma / 2.0 * np.diag(np.arange(d_c, dtype=float))


def _sector_setup(state0: TwoModeState, params: ModelParams):
    """Populated total-N sectors, the raw weights P_N of every N, and the
    monitor cutoff of the largest populated N (the quadrature's padded
    width; over budget it raises here, before any oracle work)."""
    weights = number_weights(state0)
    sectors = np.nonzero(weights / np.sum(weights) > 1e-300)[0]
    return sectors, weights, monitor_dim(params, int(sectors.max()))


def _gram(params: ModelParams, sectors: np.ndarray, d_c: int, t: float, k: int, n_nodes: int):
    """G(N, N') = sum_records w phi_N . phi_N' over the records of one
    Gauss-Legendre level (k <= 2, n_nodes per jump), phi_N real, and its
    error estimate, the sum over jump dimensions of |null-rule Gram|.

    Sector N is propagated at its own cutoff monitor_dim(params, N), its
    rows zero-padded to d_c (exact).  The nodes are antisymmetric
    (x[n-1-j] = -x[j]), so a segment from a jump at node j to the end of its
    interval has the length of node n-1-j.  At k = 2 the first count of a
    record falls at tau_ij = s_i (x_j + 1) / 2 = tau_ji, so one propagator
    per unordered node pair starts records (i, j) and (j, i) and carries the
    middle segment of records (i, n-1-j) and (j, n-1-i): a level takes n
    (k = 1) or n(n+1)/2 + n (k = 2) propagators per sector, all from one
    `_exp_map` of the sector's generator, at most 2n of them held at once.
    """
    x, w = np.polynomial.legendre.leggauss(n_nodes)

    def one_count(exp, jump_op, span):
        """Vectors at ``span`` after one count at each node of [0, span]."""
        props = exp(0.5 * span * (x + 1.0))
        return props[::-1] @ (jump_op @ props[:, :, :1])

    s, ws = 0.5 * t * (x + 1.0), 0.5 * t * w
    if k == 2 and not math.isfinite(t * t):
        raise ValueError(f"the k = 2 quadrature weights grow as t^2, which overflows at t={t!r}")
    weights = np.ones(1) if k == 0 else ws if k == 1 else np.outer(ws, 0.5 * w) * s[:, None]
    phis = []
    for n_tot in sectors:
        d = monitor_dim(params, int(n_tot))
        exp = _exp_map(_monitor_generator(params.chi, params.gamma, int(n_tot), d))
        jump_op = math.sqrt(params.gamma) * annihilation(d)
        if k == 0:
            phi = exp(t)[:, :1]
        elif k == 1:
            phi = one_count(exp, jump_op, t)
        else:  # first count at node j of [0, s_i], second at s_i
            last = exp(s[::-1])
            # record (i, j) just after its first count, and at its second
            first, second = np.empty((2, n_nodes, n_nodes, d))
            for f in range((n_nodes + 1) // 2):
                # the pairs {i, j}, i in {f, n-1-f}, j in [f, n-1-f]: every
                # record started here has its middle segment here too
                i = np.repeat([f, n_nodes - 1 - f], [n_nodes - 2 * f, n_nodes - 2 * f - 1])
                j = np.r_[f : n_nodes - f, f + 1 : n_nodes - f]
                props = exp(0.5 * s[i] * (x[j] + 1.0))
                first[i, j] = first[j, i] = props[:, :, 0] @ jump_op.T
                mi, mj = n_nodes - 1 - i, n_nodes - 1 - j
                out = props @ np.stack([first[i, mj], first[j, mi]], axis=-1)
                second[i, mj], second[j, mi] = out[..., 0], out[..., 1]
            phi = last[:, None] @ (jump_op @ second[..., None])
        phis.append(np.pad(phi.reshape(-1, d), ((0, 0), (0, d_c - d))))
    rows = np.stack(phis) * np.sqrt(weights.ravel())[:, None]
    flat = rows.reshape(len(sectors), -1)
    # null rule w P_{n-1}(x) |w| / |w P_{n-1}(x)| (Berntsen & Espelid 1991) per jump, as ratios to w
    p_last = np.polynomial.legendre.legval(x, np.eye(n_nodes)[-1])
    ratio = p_last * np.linalg.norm(w) / np.linalg.norm(w * p_last)
    ratios = np.reshape(np.meshgrid(*[ratio] * k, indexing="ij"), (k, 1, weights.size, 1))
    nulls = (rows * ratios).reshape(k * len(sectors), flat.shape[1]) @ flat.T
    return flat @ flat.T, np.abs(nulls.reshape(k, len(sectors), len(sectors))).sum(axis=0)


def _quadrature_level(setup, params: ModelParams, t: float, k: int, n_nodes: int, evolved: TwoModeState | None):
    """P(k, t) from one Gauss-Legendre level, given the exchange-evolved
    input the normalized conditional AB state (``evolved`` weighted by the
    Gram matrix over the probability), and the Gram matrix's error estimate."""
    sectors, weights, d_c = setup
    gram, null = _gram(params, sectors, d_c, t, k, n_nodes)
    prob = float(weights[sectors] @ np.diag(gram))
    by_sector = np.zeros((2,) + (len(weights),) * 2)
    by_sector[np.ix_([0, 1], sectors, sectors)] = gram, null
    if evolved is None:
        return prob, None, by_sector[1]
    if prob <= 0:
        raise ConvergenceError(f"outcome k={k} has vanishing probability at t={t}")
    return prob, DephasedState(evolved, by_sector[0] / prob), by_sector[1]


def _quadrature(
    state0: TwoModeState, params: ModelParams, t: float, k: int, want_density: bool
) -> tuple[float, DephasedState | None]:
    """The 16-node level if its null-rule error estimates, of the probability
    (relative) and if wanted of the normalized density (max element), are
    within _REL_TOL / _NULL_MARGIN; else the node ladder from 8 nodes."""
    _check_time(t)
    _check_int("k", k, 0, 2)
    setup = _sector_setup(state0, params)
    e = apply_beam_splitter(state0, params.lam, t) if want_density else None
    if want_density:  # a_N = max_{m+n=N} |e_mn|
        on_n = _totals(e.d_a, e.d_b)[..., None] == np.arange(e.n_max + 1)
        a = np.max(np.abs(e.coeffs)[..., None] * on_n, axis=(0, 1))

    def error(prob, d_prob, d_w):
        """max(|d_prob| / prob, max a_N a_N' |d_w()|): the latter is exactly the largest element of d_w() e e†"""
        rel = abs(d_prob) / max(abs(prob), 1e-300)
        return rel if e is None else max(rel, float(np.max(np.outer(a, a) * np.abs(d_w()))))

    first = prob, rho, null = _quadrature_level(setup, params, t, k, 1 if k == 0 else _NODE_LADDER[1], e)
    d_prob = float(setup[1] @ np.diag(null))
    if _NULL_MARGIN * error(prob, d_prob, lambda: (null + np.abs(rho.w) * d_prob) / prob) <= _REL_TOL:
        return prob, rho
    prev = None
    for n in _NODE_LADDER:
        prob, rho, _ = first if n == _NODE_LADDER[1] else _quadrature_level(setup, params, t, k, n, e)
        if prev is not None and error(prob, prob - prev[0], lambda: rho.w - prev[1].w) <= _REL_TOL:
            return prob, rho
        prev = prob, rho
    raise ConvergenceError(
        f"jump-time quadrature for k={k} did not converge to {_REL_TOL:g}: "
        f"last two probabilities {prev[0]!r}, {prob!r}"
    )


def p_k_quadrature(state0: TwoModeState, params: ModelParams, t: float, k: int) -> float:
    """P(k, t) by deterministic nested quadrature over jump times, k <= 2.

    The 16-node level if its null-rule error estimate is within 1e-7, else
    the node count doubles from 8 until two levels agree to 1e-6 relative;
    failing that a ConvergenceError reports the last two estimates.
    """
    return _quadrature(state0, params, t, k, False)[0]


def nt_oracle_point(state0: TwoModeState, params: ModelParams, t: float, k: int) -> tuple[float, DephasedState]:
    """Probability and normalized conditional AB state from one converged
    quadrature level (k <= 2), chosen as in `p_k_quadrature` but with the
    density's largest element held to the same bounds.

    The state is the exchange-evolved input weighted by the sector matrix
    G(N, N') / P(k), the form of the closed-form conditional state.  G is a
    symmetric rank-k product, exactly symmetric as `DephasedState` requires;
    a ConvergenceError reports a trace off 1 by more than 1e-8."""
    prob, rho = _quadrature(state0, params, t, k, True)
    if not abs(rho.trace - 1.0) <= 1e-8:
        raise ConvergenceError(f"conditional state for k={k} has trace {rho.trace!r}")
    return prob, rho


def _mc_sector(params: ModelParams, n_tot: int, t: float, n_traj: int, rng: np.random.Generator) -> np.ndarray:
    """Count histogram of ``n_traj`` trajectories of sector ``n_tot`` at its
    cutoff monitor_dim(params, n_tot), the monitor starting in the vacuum."""
    d_c = monitor_dim(params, n_tot)
    # transposed propagators per level: batches advance by row-vector matmul
    gen = _monitor_generator(params.chi, params.gamma, n_tot, d_c)
    props_t = _exp_map(gen)(t / 2.0 ** np.arange(_DEPTH + 1)).transpose(0, 2, 1)
    props_t[np.abs(props_t) < np.finfo(float).tiny] = 0.0
    c_t = annihilation(d_c).T.copy()
    hist = np.zeros(_MAX_TRACK + 2, dtype=np.int64)
    end = 1 << _DEPTH

    def norms(phi: np.ndarray) -> np.ndarray:
        return np.add.reduce(phi * phi, axis=-1)

    for start in range(0, n_traj, _BATCH):
        n_batch = min(_BATCH, n_traj - start)
        thresholds = rng.random((n_batch, _MAX_TRACK + 2))
        jumps = np.zeros(n_batch, dtype=np.int64)
        # live trajectories, their vectors and their times in finest chunks
        live = np.arange(n_batch)
        cur = np.zeros((n_batch, d_c))
        cur[:, 0] = 1.0
        pos = np.zeros(n_batch, dtype=np.int64)
        while live.size:
            # to the last finest grid point whose norm is at or above the threshold
            u = thresholds[live, jumps[live]]
            for level in range(_DEPTH + 1):
                chunk = 1 << (_DEPTH - level)
                cand = cur @ props_t[level]
                ok = (pos + chunk <= end) & (norms(cand) >= u)
                np.copyto(cur, cand, where=ok[:, None])
                pos += chunk * ok
            jumps[live[pos < end]] += 1
            keep = (pos < end) & (jumps[live] <= _MAX_TRACK)
            live, pos, cur = live[keep], pos[keep], cur[keep] @ c_t
            cur /= np.maximum(np.sqrt(norms(cur)), 1e-300)[:, None]
        hist += np.bincount(np.minimum(jumps, _MAX_TRACK + 1), minlength=_MAX_TRACK + 2)
    return hist


def mc_count_histogram(
    state0: TwoModeState,
    params: ModelParams,
    t: float,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Histogram of counted photons over `n_samples` jump trajectories.

    N is conserved and the sectors are orthogonal, so a count record has the
    law sum_N P_N p(record | N).  One ``np.random.default_rng(seed)`` splits
    the samples over the populated sectors by a multinomial draw with
    probabilities P_N, so each bin is binomial as if every trajectory drew
    its own N.  Then, in increasing N, each sector's trajectories carry its
    monitor factor alone at its own cutoff d_c(N) = monitor_dim(params, N),
    and each takes one row of _MAX_TRACK + 2 uniform thresholds from the
    same stream, entry k the threshold of its (k+1)-th count.  The exchange
    part of the generator is norm-preserving and is not simulated.

    Waiting times are found by threshold crossing of the squared norm, which
    never grows (W_N + W_N^T = -gamma c^T c), located on the grid
    delta = t / 2^_DEPTH (1.5e-11 t); the propagators are the real
    exp(W_N t / 2^level), level <= _DEPTH, subnormal entries set to 0 (below
    the rounding of any norm, and slow).  A jump lands at the last grid
    point whose norm is at or above its threshold, early by less than delta,
    so the bias of P(k | N) is of order (k + 1) delta gamma (d_c(N) - 1),
    d_c(N) - 1 bounding the monitor photon number: about 1e-7 on the
    criterion-3 gate (t = 2, gamma = 1, d_c(4) = 58), whose 3 sigma is
    2.5e-3.

    Each trajectory keeps its time as an integer count of delta.  In every
    generation of counts, all live trajectories run one greedy search from
    their last count: level by level, a chunk of t / 2^level is taken where
    it stays within [0, t] and the norm after it stays at or above the
    threshold.  The norm is monotone, so this finds the last grid point of
    the crossing; trajectories that reach t count no more, the others jump.
    In the gauge U = diag((-i)^p) the monitor factor is real and a count is
    -i sqrt(gamma) c; the jumped vector is renormalized, so that factor
    changes no norm and is dropped.

    The thresholds come from one stream in row-major order, so a
    trajectory's row, and the integer histogram, do not depend on ``_BATCH``
    (up to a threshold within rounding of a norm: BLAS may round a row
    differently in a batch of another size).  Counts beyond ``_MAX_TRACK``
    land in the final overflow bin.  Truncated input states are
    renormalized, so estimates refer to the retained support (bias of order
    trunc_weight).
    """
    _check_time(t, positive=True)
    _check_int("n_samples", n_samples, 1, 2**32)
    _check_int("seed", seed, 0)
    sectors, weights, _ = _sector_setup(state0, params)
    rng = np.random.default_rng(seed)
    split = rng.multinomial(n_samples, weights[sectors] / np.sum(weights[sectors]))
    hist = np.zeros(_MAX_TRACK + 2, dtype=np.int64)
    for n_tot, n_traj in zip(sectors, split):
        if n_traj:
            hist += _mc_sector(params, int(n_tot), t, int(n_traj), rng)
    return hist


def mc_estimates(
    state0: TwoModeState, params: ModelParams, t: float, ks: list[int], n_samples: int, seed: int
) -> list[tuple[float, float]]:
    """Unbiased Monte Carlo estimates of P(k, t) with their standard errors,
    for every k in ``ks`` from one histogram.

    Each estimate is the fraction of trajectories registering exactly k
    counts; its standard error is sqrt(p(1-p)/n).  When no trajectory hits k
    the estimate is 0 and the reported error is the one-sided 95% bound 3/n
    (rule of three).
    """
    _check_int("n_samples", n_samples, 1000)
    for k in ks:
        _check_int("k", k, 0, _MAX_TRACK)
    hist = mc_count_histogram(state0, params, t, n_samples, seed)
    fractions = [int(hist[k]) / n_samples for k in ks]
    return [(p, math.sqrt(p * (1.0 - p) / n_samples)) if p > 0 else (0.0, 3.0 / n_samples) for p in fractions]
