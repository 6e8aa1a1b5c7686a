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
bisection.  The threshold streams ``default_rng([seed, j])`` of all
trajectories in a batch are computed in bulk, bitwise equal to numpy's.

Y commutes with the total AB photon number N = m + n, and within a sector
of fixed N the exchange part and the monitor part act on different tensor
factors.  The exchange part is unitary and commutes with the counts, so
every jump record ends in sum_N psi~_N (x) phi_N: psi~ is the input evolved
by the exchange alone to time t, and phi_N is the monitor factor driven
from the vacuum by M_N = -i chi N (c + c†) - (gamma/2) c†c between counts
and by sqrt(gamma) c at each count.  The quadrature cuts each sector's
monitor at its own monitor_dim(params, N) and zero-pads it to the largest;
the Monte Carlo carries all sectors at the largest, subnormals flushed.

The monitor factors are computed in real arithmetic.  The diagonal gauge
U = diag((-i)^p) gives U† c U = -i c, so M_N = U W_N U† with the real

    W_N = chi N (c† - c) - (gamma/2) c†c,

and after k counts phi_N is (-i)^k U times the real vector obtained from
the vacuum by expm(W_N dt) per segment and sqrt(gamma) c per count.  The
phases cancel in every overlap, so both oracles carry one real vector per
populated sector.  The quadrature sums the real Gram matrix

    G(N, N') = sum_records w phi_N . phi_N',

so that P(k) = sum_N P_N G(N, N) and the conditional state is the
`DephasedState` of psi~ with sector matrix G(N, N') / P(k): the closed form's
format, with its Gram matrix in place of exp(-mu (N - N')^2 / 2).  No
(d_a d_b)^2 array is built here.  Every propagator is computed where it is
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
    DephasedState,
    ModelParams,
    ResourceLimitError,
    TwoModeState,
    _check_int,
    _check_time,
    apply_beam_splitter,
    number_weights,
)

MAX_MONITOR_DIM = 400
# the quadrature ladder stops when two levels agree to this (relative for
# the probability, max element for the normalized density)
_REL_TOL = 1e-6
# Gauss-Legendre nodes per jump, doubled until two levels agree
_NODE_LADDER = (8, 16, 32, 64)
# Monte Carlo time grid: base steps of t / _BASE_STEPS, jump times located
# by bisection to t / _BASE_STEPS / 2^_DEPTH; counts beyond _MAX_TRACK share
# the overflow bin
_BASE_STEPS = 64
_DEPTH = 30
_MAX_TRACK = 64
# Monte Carlo trajectories advanced together
_BATCH = 4096
# numpy's SeedSequence hash constants and PCG64 multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_PCG_HI, _PCG_LO = 2549297995355413924, 4865540595714422341


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One step of numpy's SeedSequence hash on 32-bit words held in uint64;
    returns the hashed words and the next hash constant."""
    nxt = (const * mult) & _M32
    value = ((value ^ const) * nxt) & _M32
    return value ^ (value >> 16), nxt


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's state * multiplier + increment modulo 2^128 on uint64 (hi, lo)
    halves; the high half of lo * _PCG_LO is summed from 32-bit limbs."""
    a0, a1, b0, b1 = lo & _M32, lo >> 32, _PCG_LO & _M32, _PCG_LO >> 32
    mid = a1 * b0 + ((a0 * b0) >> 32)
    lo_hi = a1 * b1 + (mid >> 32) + ((a0 * b1 + (mid & _M32)) >> 32)
    return _add128(lo_hi + hi * _PCG_LO + lo * _PCG_HI, lo * _PCG_LO, inc_hi, inc_lo)


def _streams(seed: int, start: int, n: int) -> np.ndarray:
    """PCG64 states (hi, lo, inc_hi, inc_lo) as uint64 rows, one column per
    trajectory j = start .. start + n - 1, equal to ``default_rng([seed, j])``:
    a SeedSequence over the 32-bit little-endian words of ``seed`` and then
    j (one word, j < 2^32), expanded to the 128-bit state and increment."""
    seed = int(seed)
    words = [np.full(n, (seed >> s) & _M32, np.uint64) for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [np.arange(start, start + n, dtype=np.uint64)] + [np.zeros(n, np.uint64)] * (3 - len(words))
    const, pool = _INIT_A, []
    for word in words[:4]:
        value, const = _hashmix(word, const, _MULT_A)
        pool.append(value)
    pool += words[4:]  # entropy beyond the pool of 4 is mixed in last
    for src in range(len(pool)):
        for dst in range(4):
            if dst != src:
                value, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = (_MIX_L * pool[dst] - _MIX_R * value) & _M32
                pool[dst] ^= pool[dst] >> 16
    const, out = _INIT_B, []
    for i in range(8):  # generate_state(4, uint64): state hi, lo, sequence hi, lo
        value, const = _hashmix(pool[i % 4], const, _MULT_B)
        out.append(value)
    init_hi, init_lo, seq_hi, seq_lo = (out[2 * i] | (out[2 * i + 1] << 32) for i in range(4))
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    # from state 0: one step (state = inc), add the initial state, one step
    hi, lo = _pcg_step(*_add128(inc_hi, inc_lo, init_hi, init_lo), inc_hi, inc_lo)
    return np.stack([hi, lo, inc_hi, inc_lo])


def _draw(streams: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The next ``random()`` of the streams ``idx`` (no repeats): one step,
    the XSL-RR output, its top 53 bits."""
    hi, lo = streams[:2, idx] = _pcg_step(*streams[:, idx])
    x, rot = hi ^ lo, hi >> 58
    return (((x >> rot) | (x << ((64 - rot) & 63))) >> 11) * 2.0**-53


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
    monitor cutoff of the largest populated N (the quadrature's padded
    width, the Monte Carlo's array width; over budget it raises here)."""
    weights = number_weights(state0)
    sectors = np.nonzero(weights / np.sum(weights) > 1e-300)[0]
    return sectors, weights, monitor_dim(params, int(sectors.max()))


def _gram(params: ModelParams, sectors: np.ndarray, d_c: int, t: float, k: int, n_nodes: int) -> np.ndarray:
    """G(N, N') = sum_records w phi_N . phi_N' over the records of one
    Gauss-Legendre level (k <= 2, n_nodes per jump), phi_N real.

    Sector N is propagated at its own cutoff monitor_dim(params, N), its
    rows zero-padded to d_c (exact).  The nodes are antisymmetric
    (x[n-1-j] = -x[j]), so a segment from a jump at node j to the end of its
    interval has the length of node n-1-j.  At k = 2 the first count of a
    record falls at tau_ij = s_i (x_j + 1) / 2 = tau_ji, so one propagator
    per unordered node pair starts records (i, j) and (j, i) and carries the
    middle segment of records (i, n-1-j) and (j, n-1-i): a level takes n
    (k = 1) or n(n+1)/2 + n (k = 2) propagators per sector, at most 2n of
    them held at once.
    """
    x, w = np.polynomial.legendre.leggauss(n_nodes)

    def one_count(gen, jump_op, span):
        """Vectors at ``span`` after one count at each node of [0, span]."""
        props = expm((0.5 * span * (x + 1.0))[:, None, None] * gen)
        return props[::-1] @ (jump_op @ props[:, :, :1])

    s, ws = 0.5 * t * (x + 1.0), 0.5 * t * w
    weights = {0: np.ones(1), 1: ws, 2: np.outer(ws, 0.5 * w) * s[:, None]}[k]
    phis = []
    for n_tot in sectors:
        d = monitor_dim(params, int(n_tot))
        gen = _monitor_generator(params.chi, params.gamma, int(n_tot), d)
        jump_op = math.sqrt(params.gamma) * annihilation(d)
        if k == 0:
            phi = expm(gen * t)[:, :1]
        elif k == 1:
            phi = one_count(gen, jump_op, t)
        else:  # first count at node j of [0, s_i], second at s_i
            last = expm(s[::-1, None, None] * gen)
            # record (i, j) just after its first count, and at its second
            first, second = np.empty((2, n_nodes, n_nodes, d))
            for f in range((n_nodes + 1) // 2):
                # the pairs {i, j}, i in {f, n-1-f}, j in [f, n-1-f]: every
                # record started here has its middle segment here too
                i = np.repeat([f, n_nodes - 1 - f], [n_nodes - 2 * f, n_nodes - 2 * f - 1])
                j = np.r_[f : n_nodes - f, f + 1 : n_nodes - f]
                props = expm((0.5 * s[i] * (x[j] + 1.0))[:, None, None] * gen)
                first[i, j] = first[j, i] = props[:, :, 0] @ jump_op.T
                mi, mj = n_nodes - 1 - i, n_nodes - 1 - j
                out = props @ np.stack([first[i, mj], first[j, mi]], axis=-1)
                second[i, mj], second[j, mi] = out[..., 0], out[..., 1]
            phi = last[:, None] @ (jump_op @ second[..., None])
        phis.append(np.pad(phi.reshape(-1, d), ((0, 0), (0, d_c - d))))
    rows = np.stack(phis) * np.sqrt(weights.ravel())[:, None]
    rows = rows.reshape(len(sectors), -1)
    return rows @ rows.T


def _quadrature_level(setup, params: ModelParams, t: float, k: int, n_nodes: int, evolved: TwoModeState | None):
    """P(k, t) from one Gauss-Legendre level and, given the exchange-evolved
    input, the normalized conditional AB state: ``evolved`` weighted by the
    Gram matrix over the probability."""
    sectors, weights, d_c = setup
    gram = _gram(params, sectors, d_c, t, k, n_nodes)
    prob = float(weights[sectors] @ np.diag(gram))
    if evolved is None:
        return prob, None
    if prob <= 0:
        raise ConvergenceError(f"outcome k={k} has vanishing probability at t={t}")
    by_sector = np.zeros((len(weights),) * 2)
    by_sector[np.ix_(sectors, sectors)] = gram
    return prob, DephasedState(evolved, by_sector / prob)


def _quadrature(
    state0: TwoModeState, params: ModelParams, t: float, k: int, want_density: bool
) -> tuple[float, DephasedState | None]:
    """Double the node count until the probability and, if wanted, the
    normalized density are stable to _REL_TOL."""
    _check_time(t)
    _check_int("k", k, 0, 2)
    setup = _sector_setup(state0, params)
    evolved = apply_beam_splitter(state0, params.lam, t) if want_density else None
    prev = None
    for n in (1,) if k == 0 else _NODE_LADDER:
        prob, rho = _quadrature_level(setup, params, t, k, n, evolved)
        if k == 0 or (
            prev is not None
            and abs(prob - prev[0]) <= _REL_TOL * max(abs(prob), 1e-300)
            and (rho is None or np.max(np.abs(rho.rho - prev[1].rho)) <= _REL_TOL)
        ):
            return prob, rho
        prev = prob, rho
    raise ConvergenceError(
        f"jump-time quadrature for k={k} did not converge to {_REL_TOL:g}: "
        f"last two probabilities {prev[0]!r}, {prob!r}"
    )


def p_k_quadrature(state0: TwoModeState, params: ModelParams, t: float, k: int) -> float:
    """P(k, t) by deterministic nested quadrature over jump times, k <= 2.

    The node count doubles until two successive levels agree to 1e-6
    relative; failing that a ConvergenceError reports both estimates.
    """
    return _quadrature(state0, params, t, k, False)[0]


def nt_oracle_point(state0: TwoModeState, params: ModelParams, t: float, k: int) -> tuple[float, DephasedState]:
    """Probability and normalized conditional AB state from one converged
    quadrature ladder (k <= 2): the ladder stops when both the probability
    (relative) and the density (max element) are stable to 1e-6.

    The state is the exchange-evolved input weighted by the sector matrix
    G(N, N') / P(k), the form of the closed-form conditional state.  G is a
    symmetric rank-k product, exactly symmetric as `DephasedState` requires;
    a ConvergenceError reports a trace off 1 by more than 1e-8."""
    prob, rho = _quadrature(state0, params, t, k, True)
    if not abs(rho.trace - 1.0) <= 1e-8:
        raise ConvergenceError(f"conditional state for k={k} has trace {rho.trace!r}")
    return prob, rho


def mc_count_histogram(
    state0: TwoModeState,
    params: ModelParams,
    t: float,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Histogram of counted photons over `n_samples` jump trajectories.

    Each trajectory carries the monitor factor of every populated total-N
    sector (the exchange part of the no-count generator is norm-preserving
    and cannot influence jump statistics, so it is not simulated).  Waiting
    times are found by threshold crossing of the squared norm, located by
    dyadic bisection to t / _BASE_STEPS / 2^_DEPTH and realigned to the step
    grid; the interval propagators are the real expm(W_N dt), their
    subnormal entries set to 0 (below the rounding of any norm, and slow).

    A jump lands at the last finest grid point before its threshold
    crossing, early by less than delta = t / _BASE_STEPS / 2^_DEPTH
    (1.5e-11 t), so the bias of P(k) is of order (k + 1) delta gamma (d_c - 1),
    d_c - 1 bounding the monitor photon number: about 1e-7 on the
    criterion-3 gate (t = 2, gamma = 1, d_c = 58), whose 3 sigma is 2.5e-3.

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
    ``default_rng([seed, j])`` (j < n_samples <= 2^32); the streams of a
    batch are seeded and drawn in bulk (``_streams``, ``_draw``), bit for
    bit as numpy draws them.  The histogram is an integer sum, so the
    result is reproducible for a fixed seed independent of ``_BATCH`` (up to
    a threshold within rounding of a norm: BLAS may round a row differently
    in a batch of another size).
    Counts beyond ``_MAX_TRACK`` land in the final overflow bin.  Truncated
    input states are renormalized, so estimates refer to the retained
    support (bias of order trunc_weight).
    """
    _check_time(t, positive=True)
    _check_int("n_samples", n_samples, 1, 2**32)
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
    props_t[np.abs(props_t) < np.finfo(float).tiny] = 0.0
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
            u[low] = _draw(streams, low)
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
    for start in range(0, n_samples, _BATCH):
        n_batch = min(_BATCH, n_samples - start)
        streams = _streams(seed, start, n_batch)
        u = _draw(streams, np.arange(n_batch))
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
