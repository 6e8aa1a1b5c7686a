"""Brute-force evaluation of the counting process on the full A (x) B (x) C
space, independent of every closed-form kernel it validates.

The no-count evolution is the non-unitary semigroup generated by

    Y = -i lam (a†b + ab†) - i chi N (c + c†) - (gamma/2) c†c,

a count is the jump  rho -> gamma c rho c†, and the k-count operation is the
nested time-ordered integral over jump times of no-count segments separated
by jumps.  Everything here is evaluated numerically on the truncated tensor:
probabilities for k <= 2 by deterministic nested Gauss-Legendre quadrature
over the jump-time simplex, higher k by Monte Carlo sampling of jump times
from the exact waiting-time distribution (the norm decay of the no-count
semigroup).

Y commutes with the total AB photon number, so the generator is block
diagonal over sectors of fixed N = m + n, and within a sector the exchange
part and the monitor part act on different tensor factors.  Propagation is
therefore done per sector as (exchange block unitary) (x) expm(M_N dt) with
M_N = -i chi N (c + c†) - (gamma/2) c†c, which is exact (the test suite
cross-checks it against an adaptive Runge-Kutta integration of the full
generator).

The monitor factor is computed in real arithmetic.  The diagonal gauge
U = diag((-i)^p) gives U† c U = -i c, so M_N = U W_N U† with the real

    W_N = chi N (c† - c) - (gamma/2) c†c,

and every monitor propagator is U expm(W_N dt) U†.  Only the real
expm(W_N dt) is computed and cached; the phases of U are applied where a
complex state is needed.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .fock import (
    ConvergenceError,
    ModelParams,
    ResourceLimitError,
    TwoModeDensity,
    TwoModeState,
    number_weights,
)
from .fock import _bs_block_eig

MAX_MONITOR_DIM = 400


@dataclass(frozen=True)
class ThreeModeState:
    """Joint state of modes A, B and the monitor C as a coefficient tensor
    over (m, n, p).  Conditional branches are left unnormalized; the squared
    norm is the branch weight."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex, copy=True)
        if arr.ndim != 3:
            raise ValueError(f"coeffs must be a 3-d tensor, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def d_a(self) -> int:
        return self.coeffs.shape[0]

    @property
    def d_b(self) -> int:
        return self.coeffs.shape[1]

    @property
    def d_c(self) -> int:
        return self.coeffs.shape[2]

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


@dataclass(frozen=True)
class JumpRecord:
    """One jump-time configuration: counts at ``jump_times`` (strictly
    increasing, within [0, final_time]) carrying a quadrature weight."""

    jump_times: tuple[float, ...]
    final_time: float
    weight: float

    def __post_init__(self):
        ts = self.jump_times
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("jump times must be strictly increasing")
        if ts and (ts[0] < 0 or ts[-1] > self.final_time):
            raise ValueError("jump times must lie in [0, final_time]")


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


def embed_with_monitor(state: TwoModeState, params: ModelParams, d_c: int | None = None) -> ThreeModeState:
    """Tensor the AB state with the monitor vacuum."""
    if d_c is None:
        d_c = monitor_dim(params, state.n_max)
    coeffs = np.zeros((state.d_a, state.d_b, d_c), dtype=complex)
    coeffs[:, :, 0] = state.coeffs
    return ThreeModeState(coeffs)


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


@lru_cache(maxsize=64)
def _monitor_generator(chi: float, gamma: float, n_total: int, d_c: int) -> np.ndarray:
    """Real W_N = chi N (c† - c) - (gamma/2) c†c, with M_N = U W_N U†."""
    c = annihilation(d_c)
    mat = chi * n_total * (c.T - c) - gamma / 2.0 * np.diag(np.arange(d_c, dtype=float))
    mat.setflags(write=False)
    return mat


class _ByteBoundedCache:
    """Least-recently-used map to read-only arrays that evicts the oldest
    entries once their total size exceeds ``budget`` bytes."""

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._items: OrderedDict[tuple, np.ndarray] = OrderedDict()

    def get(self, key: tuple, make) -> np.ndarray:
        arr = self._items.get(key)
        if arr is not None:
            self._items.move_to_end(key)
            return arr
        arr = make()
        arr.setflags(write=False)
        self._items[key] = arr
        self.nbytes += arr.nbytes
        while self.nbytes > self.budget:
            self.nbytes -= self._items.popitem(last=False)[1].nbytes
        return arr


# Bounded by bytes, not entries: one oracle-check item (N <= 4, d_c = 38)
# fills ~18 MB, but 2,048 propagators take 0.3 GB at d_c = 132 and 2.6 GB at
# MAX_MONITOR_DIM.
_PROPAGATORS = _ByteBoundedCache(32 * 2**20)


def _monitor_propagator(chi: float, gamma: float, n_total: int, d_c: int, tau: float) -> np.ndarray:
    """Real expm(W_N tau); the monitor propagator is U expm(W_N tau) U†."""
    return _PROPAGATORS.get(
        (chi, gamma, n_total, d_c, tau), lambda: expm(_monitor_generator(chi, gamma, n_total, d_c) * tau)
    )


def no_count_evolution(state: ThreeModeState, params: ModelParams, dt: float) -> ThreeModeState:
    """Propagate by the no-count semigroup exp(Y dt).  Norm nonincreasing."""
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    if dt == 0.0:
        return state
    out = np.array(state.coeffs, copy=True)
    d_a, d_b, d_c = out.shape
    theta = params.lam * dt
    phase = np.array([1.0, -1j, -1.0, 1j])[np.arange(d_c) % 4]  # U = diag((-i)^p), exact
    for total in range(d_a + d_b - 1):
        ms, w, v = _bs_block_eig(d_a, d_b, total)
        block = out[ms, total - ms, :]
        if not np.any(block):
            continue
        if theta != 0.0 and len(ms) > 1:
            block = v @ ((np.exp(-1j * theta * w)[:, None]) * (v.T @ block))
        prop = _monitor_propagator(params.chi, params.gamma, total, d_c, dt)
        out[ms, total - ms, :] = ((block * phase.conj()) @ prop.T) * phase
    return ThreeModeState(out)


def jump(state: ThreeModeState, gamma: float) -> ThreeModeState:
    """One counted photon: apply sqrt(gamma) c on the monitor index.
    The result is unnormalized."""
    out = np.zeros_like(state.coeffs)
    d_c = state.d_c
    out[:, :, : d_c - 1] = np.sqrt(gamma) * np.sqrt(np.arange(1.0, d_c)) * state.coeffs[:, :, 1:]
    return ThreeModeState(out)


def trace_monitor(state: ThreeModeState) -> np.ndarray:
    """Unnormalized Tr_C |state><state| as a (d_a d_b, d_a d_b) matrix."""
    flat = state.coeffs.reshape(state.d_a * state.d_b, state.d_c)
    return flat @ flat.conj().T


def _jump_records(t: float, k: int, n_nodes: int) -> list[JumpRecord]:
    """Gauss-Legendre discretization of the ordered jump-time simplex."""
    if k == 0:
        return [JumpRecord((), t, 1.0)]
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    if k == 1:
        s = 0.5 * t * (x + 1.0)
        return [JumpRecord((float(si),), t, float(0.5 * t * wi)) for si, wi in zip(s, w)]
    if k == 2:
        records = []
        s2 = 0.5 * t * (x + 1.0)
        w2 = 0.5 * t * w
        for s2i, w2i in zip(s2, w2):
            s1 = 0.5 * s2i * (x + 1.0)
            w1 = 0.5 * s2i * w
            for s1j, w1j in zip(s1, w1):
                if s1j < s2i:
                    records.append(JumpRecord((float(s1j), float(s2i)), t, float(w1j * w2i)))
        return records
    raise ValueError(f"quadrature is limited to k <= 2, got k={k}")


def _apply_record(psi0: ThreeModeState, params: ModelParams, record: JumpRecord) -> ThreeModeState:
    cur = psi0
    prev = 0.0
    for s in record.jump_times:
        cur = no_count_evolution(cur, params, s - prev)
        cur = jump(cur, params.gamma)
        prev = s
    return no_count_evolution(cur, params, record.final_time - prev)


def _nt_engine(
    state0: TwoModeState, params: ModelParams, t: float, k: int, n_nodes: int, want_density: bool
) -> tuple[float, np.ndarray | None]:
    psi0 = embed_with_monitor(state0, params)
    prob = 0.0
    rho = np.zeros((state0.d_a * state0.d_b,) * 2, dtype=complex) if want_density else None
    for record in _jump_records(t, k, n_nodes):
        final = _apply_record(psi0, params, record)
        prob += record.weight * final.norm_sq
        if want_density:
            rho += record.weight * trace_monitor(final)
    return prob, rho


_NODE_LADDER = (8, 16, 32, 64)


def p_k_quadrature(
    state0: TwoModeState,
    params: ModelParams,
    t: float,
    k: int,
    rel_tol: float = 1e-6,
    node_ladder: tuple[int, ...] = _NODE_LADDER,
) -> float:
    """P(k, t) by deterministic nested quadrature over jump times, k <= 2.

    The node count doubles until two successive levels agree to ``rel_tol``
    relative; failing that a ConvergenceError reports both estimates.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if k == 0:
        return _nt_engine(state0, params, t, 0, 1, False)[0]
    prev = None
    prob = None
    for n in node_ladder:
        prob = _nt_engine(state0, params, t, k, n, False)[0]
        if prev is not None and abs(prob - prev) <= rel_tol * max(abs(prob), 1e-300):
            return prob
        prev = prob
    raise ConvergenceError(
        f"jump-time quadrature for k={k} did not reach rel_tol={rel_tol:g}: "
        f"last two estimates {prev!r}, {prob!r}"
    )


def nt_oracle_point(
    state0: TwoModeState,
    params: ModelParams,
    t: float,
    k: int,
    rel_tol: float = 1e-6,
    node_ladder: tuple[int, ...] = _NODE_LADDER,
) -> tuple[float, TwoModeDensity]:
    """Probability and normalized conditional AB density from one converged
    quadrature ladder (k <= 2): the ladder stops when both the probability
    (relative) and the density (max element) are stable to ``rel_tol``."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    ladder = (1,) if k == 0 else node_ladder
    prev_rho = None
    prev_prob = None
    for n in ladder:
        prob, rho = _nt_engine(state0, params, t, k, n, True)
        if prob <= 0:
            raise ConvergenceError(f"outcome k={k} has vanishing probability at t={t}")
        rho = rho / prob
        converged = k == 0 or (
            prev_rho is not None
            and np.max(np.abs(rho - prev_rho)) <= rel_tol
            and abs(prob - prev_prob) <= rel_tol * max(prob, 1e-300)
        )
        if converged:
            herm_defect = float(np.max(np.abs(rho - rho.conj().T)))
            trace_defect = abs(np.trace(rho).real - 1.0)
            if not (herm_defect <= 1e-8 and trace_defect <= 1e-8):
                raise ConvergenceError(
                    f"conditional density for k={k} is off by {herm_defect:.3g} "
                    f"(hermiticity) and {trace_defect:.3g} (trace)"
                )
            rho = (rho + rho.conj().T) / 2.0
            return prob, TwoModeDensity(rho, state0.d_a, state0.d_b)
        prev_rho = rho
        prev_prob = prob
    raise ConvergenceError(
        f"conditional-density quadrature for k={k} did not reach {rel_tol:g} per element"
    )


def _sector_setup(state0: TwoModeState, params: ModelParams):
    """Populated total-N sectors with amplitudes sqrt(P_N), renormalized."""
    weights = number_weights(state0)
    weights = weights / np.sum(weights)
    populated = np.nonzero(weights > 1e-300)[0]
    d_c = monitor_dim(params, int(populated.max()))
    return populated, np.sqrt(weights[populated]), d_c


def mc_count_histogram(
    state0: TwoModeState,
    params: ModelParams,
    t: float,
    n_samples: int,
    seed: int,
    base_steps: int = 64,
    depth: int = 30,
    max_track: int = 64,
    batch_size: int = 4096,
) -> np.ndarray:
    """Histogram of counted photons over `n_samples` jump trajectories.

    Each trajectory carries the monitor factor of every populated total-N
    sector (the exchange part of the no-count generator is norm-preserving
    and cannot influence jump statistics, so it is not simulated).  Waiting
    times are found by threshold crossing of the squared norm, located by
    dyadic bisection to t / base_steps / 2^depth and realigned to the step
    grid; all interval propagators are the cached real expm(W_N dt) that
    `no_count_evolution` uses.

    Trajectories are carried in the gauge of U = diag((-i)^p), where the
    monitor factors stay real.  There a count is -i sqrt(gamma) c; the -i is
    one global phase shared by every sector and the jumped state is
    renormalized, so it is dropped: it changes no norm, hence no waiting
    time and no count.

    Trajectory j draws its thresholds from the dedicated substream
    ``default_rng([seed, j])``, and the histogram is an integer sum, so the
    result is reproducible for a fixed seed independent of batch size.
    Counts beyond ``max_track`` land in the final overflow bin.  Truncated
    input states are renormalized, so estimates refer to the retained
    support (bias of order trunc_weight).
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    sectors, amps, d_c = _sector_setup(state0, params)
    n_sectors = len(sectors)
    delta = t / base_steps
    # transposed propagators per level and sector, so batches advance by
    # stacked row-major matmul (BLAS) instead of einsum
    props_t = np.empty((depth + 1, n_sectors, d_c, d_c))
    for level in range(depth + 1):
        for si, n_tot in enumerate(sectors):
            props_t[level, si] = _monitor_propagator(
                params.chi, params.gamma, int(n_tot), d_c, delta / 2.0**level
            ).T
    c_t = annihilation(d_c).T.copy()
    sqrt_gamma = math.sqrt(params.gamma)
    hist = np.zeros(max_track + 2, dtype=np.int64)

    def advance(phi: np.ndarray, level: int) -> np.ndarray:
        # phi: (n_sectors, ..., d_c); stacked row-vector times E_s^T
        if phi.ndim == 2:  # single trajectory: per-sector gemv beats matmul here
            return np.stack([phi[s] @ props_t[level, s] for s in range(n_sectors)])
        return np.matmul(phi, props_t[level])

    def norms(phi: np.ndarray) -> np.ndarray:
        return np.sum(phi * phi, axis=(0, -1))

    def do_jump(phi: np.ndarray) -> np.ndarray:
        out = sqrt_gamma * np.matmul(phi, c_t)
        nrm = np.sqrt(np.sum(out * out, axis=(0, -1)))
        return out / np.maximum(nrm, 1e-300)[..., None]

    def walk_tail(phi, u, rng, levels, jumps):
        """Sequentially traverse dyadic chunks (sizes delta/2^l for l in
        `levels`), splitting on threshold crossings; exact continuation for
        the rare second jump inside one coarse step."""
        stack = list(levels)
        while stack and jumps <= max_track:
            level = stack[0]
            cand = advance(phi, level)
            if norms(cand) >= u:
                phi = cand
                stack.pop(0)
            elif level >= depth:
                phi = do_jump(phi)
                jumps += 1
                u = rng.random()
            else:
                stack[0:1] = [level + 1, level + 1]
        return phi, u, jumps

    for start in range(0, n_samples, batch_size):
        n_batch = min(batch_size, n_samples - start)
        rngs = [np.random.default_rng([seed, start + j]) for j in range(n_batch)]
        u = np.array([r.random() for r in rngs])
        phi = np.zeros((n_sectors, n_batch, d_c))
        phi[:, :, 0] = amps[:, None]
        jumps = np.zeros(n_batch, dtype=np.int64)
        active = np.ones(n_batch, dtype=bool)
        for _step in range(base_steps):
            if not np.any(active):
                break
            idx_active = np.nonzero(active)[0]
            prev = phi[:, idx_active, :]
            stepped = advance(prev, 0)
            phi[:, idx_active, :] = stepped
            crossed = norms(stepped) < u[idx_active]
            low = idx_active[crossed]
            if low.size:
                # batched dyadic bisection for the first jump in this step
                cur = prev[:, crossed, :].copy()
                accepted = np.zeros((depth, low.size), dtype=bool)
                for level in range(1, depth + 1):
                    cand = advance(cur, level)
                    ok = norms(cand) >= u[low]
                    cur[:, ok, :] = cand[:, ok, :]
                    accepted[level - 1] = ok
                pre_jump = cur.copy()
                cur = do_jump(cur)
                jumps[low] += 1
                for j in low:
                    u[j] = rngs[j].random()
                # realign to the step boundary through the complementary chunks
                for level in range(1, depth + 1):
                    rej = ~accepted[level - 1]
                    if np.any(rej):
                        cur[:, rej, :] = advance(cur[:, rej, :], level)
                cur = advance(cur, depth)
                phi[:, low, :] = cur
                # rare second crossing inside the same step: exact per-trajectory
                # continuation from the first-jump state through the remaining chunks
                again = norms(cur) < u[low]
                for pos in np.nonzero(again)[0]:
                    j = int(low[pos])
                    redo = do_jump(pre_jump[:, pos, :])
                    rem_levels = [lv for lv in range(1, depth + 1) if not accepted[lv - 1][pos]]
                    rem_levels.append(depth)
                    out, u_j, nj = walk_tail(redo, u[j], rngs[j], rem_levels, int(jumps[j]))
                    phi[:, j, :] = out
                    u[j] = u_j
                    jumps[j] = nj
                active[jumps > max_track] = False
        clipped = np.minimum(jumps, max_track + 1)
        hist += np.bincount(clipped, minlength=max_track + 2)
    return hist


def p_k_montecarlo(
    state0: TwoModeState,
    params: ModelParams,
    t: float,
    k: int,
    n_samples: int,
    seed: int,
    **mc_options,
) -> tuple[float, float]:
    """Unbiased Monte Carlo estimate of P(k, t) with its standard error.

    The estimate is the fraction of trajectories registering exactly k
    counts; the standard error is sqrt(p(1-p)/n).  When no trajectory hits k
    the estimate is 0 and the reported error is the one-sided 95% bound 3/n
    (rule of three).
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    max_track = mc_options.get("max_track", 64)
    if k > max_track:
        raise ValueError(f"k={k} beyond the tracked range {max_track}")
    hist = mc_count_histogram(state0, params, t, n_samples, seed, **mc_options)
    hits = int(hist[k])
    p = hits / n_samples
    if hits == 0:
        return 0.0, 3.0 / n_samples
    return p, math.sqrt(p * (1.0 - p) / n_samples)
