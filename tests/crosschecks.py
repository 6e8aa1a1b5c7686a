"""Independent routes and deliberately wrong variants that only the tests use.

Each function is either a second way to compute something the library
computes (compared against it to tight bounds), or a printed variant of a
formula the library corrects (shown to be machine-detectably wrong).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from photoent import (
    DephasedState,
    ModelParams,
    TwoModeState,
    eval_kernels,
    linear_entropy,
    number_weights,
    partial_trace,
)
from photoent.fock import ConvergenceError
from photoent.oracle import _monitor_generator, monitor_dim


def flipped_damping_kernel(params: ModelParams, t: float) -> float:
    """h(t) with the exponent e^{+gamma t/2} in place of e^{-gamma t/2}."""
    x = params.gamma * t
    return 2.0 * params.chi**2 / params.gamma**2 * (x - 2.0 + 2.0 * math.exp(x / 2.0))


def conditioned_trace(
    state0: TwoModeState, params: ModelParams, t: float, k: int, exponent_sign: float = -1.0
) -> float:
    """Trace of the unnormalized conditional density, computed from the
    damping kernels h and mu rather than from g:

        (2g)^k / k! * sum_N P_N N^{2k} exp(-(2h - mu) N^2)

    With the corrected kernel sign this equals ``count_probability`` exactly
    (identity 2h - mu = 2g); with ``exponent_sign=+1`` h is the flipped
    kernel and summing over k no longer yields 1.
    """
    kern = eval_kernels(params, t)
    h = kern.h if exponent_sign < 0 else flipped_damping_kernel(params, t)
    weights = number_weights(state0)
    if kern.u == 0.0:  # t = 0: nothing counted yet
        return float(np.sum(weights)) if k == 0 else 0.0
    n = np.arange(len(weights), dtype=float)
    damping = 2.0 * h - kern.mu
    terms = np.zeros_like(weights)
    positive = n > 0
    log_n = np.log(n[positive])
    terms[positive] = np.exp(
        k * math.log(kern.u) + 2 * k * log_n - damping * n[positive] ** 2 - math.lgamma(k + 1)
    )
    if k == 0:
        terms[~positive] = 1.0
    return float(np.sum(weights * terms))


def single_factorial_series(moments, x_grid: np.ndarray) -> np.ndarray:
    """H(x) series sum_r (-1)^r x^{2r} kappa_r / r!, i.e. with r! in place of
    (2r)!; for a sharp N it sums to exp(-x^2 N^2), not cos(x N)."""
    kappa = moments.kappa_moments
    series = []
    for xi in np.asarray(x_grid, dtype=float):
        terms = [(-1.0) ** r * xi ** (2 * r) * kappa[r] / math.factorial(r) for r in range(len(kappa))]
        series.append(math.fsum(terms))
    return np.array(series)


def dense_entropies(rho: DephasedState) -> dict[str, float]:
    """S_A, S_B, S_AB and the excess from the dense ``(d_a d_b)^2`` matrix:
    the linear entropies of both partial traces and of ``rho.rho`` itself,
    where `entanglement_report` sums over the sectors of ``w``."""
    s_a = linear_entropy(partial_trace(rho, "A"))
    s_b = linear_entropy(partial_trace(rho, "B"))
    s_ab = linear_entropy(rho.rho)
    return {"s_a": s_a, "s_b": s_b, "s_ab": s_ab, "excess": s_a + s_b - s_ab}


def apply_mixing_series(sigma: np.ndarray, totals: np.ndarray, mu: float, l_max: int) -> np.ndarray:
    """Truncated series sum_l (mu^l / l!) N^l sigma N'^l.

    This is the superoperator form of the mixing factor exp(mu N . N');
    ``postselect_density`` resums it exactly, combined with the sector
    weights e^(-h (N^2 + N'^2)), as exp(-mu (N - N')^2 / 2) e^(-g (N^2 + N'^2)).
    """
    out = np.zeros_like(sigma)
    factor = np.ones_like(sigma, dtype=float)
    nn = np.outer(totals, totals)
    coeff = 1.0
    for el in range(l_max + 1):
        if el > 0:
            coeff *= mu / el
            factor = factor * nn
        out = out + coeff * factor * sigma
    return out


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


def embed_with_monitor(state: TwoModeState, params: ModelParams, d_c: int | None = None) -> ThreeModeState:
    """Tensor the AB state with the monitor vacuum."""
    if d_c is None:
        d_c = monitor_dim(params, state.n_max)
    coeffs = np.zeros((state.d_a, state.d_b, d_c), dtype=complex)
    coeffs[:, :, 0] = state.coeffs
    return ThreeModeState(coeffs)


def exchange_block_eig(d_a: int, d_b: int, total: int):
    """Eigendecomposition of the exchange generator a†b + ab† restricted to
    the block of fixed total photon number within the cutoffs: the block's
    m values, eigenvalues and eigenvectors."""
    ms = np.arange(max(0, total - (d_b - 1)), min(d_a - 1, total) + 1)
    off = np.sqrt((ms[:-1] + 1.0) * (total - ms[:-1]))
    w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return ms, w, v


def no_count_evolution(state: ThreeModeState, params: ModelParams, dt: float) -> ThreeModeState:
    """Propagate by the no-count semigroup exp(Y dt), sector by sector as
    (exchange block unitary) (x) U expm(W_N dt) U†.  Norm nonincreasing."""
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    if dt == 0.0:
        return state
    out = np.array(state.coeffs, copy=True)
    d_a, d_b, d_c = out.shape
    theta = params.lam * dt
    phase = np.array([1.0, -1j, -1.0, 1j])[np.arange(d_c) % 4]  # U = diag((-i)^p), exact
    for total in range(d_a + d_b - 1):
        ms, w, v = exchange_block_eig(d_a, d_b, total)
        block = out[ms, total - ms, :]
        if not np.any(block):
            continue
        if theta != 0.0 and len(ms) > 1:
            block = v @ ((np.exp(-1j * theta * w)[:, None]) * (v.T @ block))
        prop = expm(_monitor_generator(params.chi, params.gamma, total, d_c) * dt)
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


def full_tensor_level(
    state0: TwoModeState, params: ModelParams, t: float, k: int, n_nodes: int, d_c: int
) -> tuple[float, np.ndarray]:
    """P(k, t) and the unnormalized Tr_C density of one Gauss-Legendre level
    (k <= 2), pushing the complex A (x) B (x) C tensor through every jump
    record: the route the sector Gram engine of `photoent.oracle` replaces."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    s, ws = 0.5 * t * (x + 1.0), 0.5 * t * w
    if k == 0:
        records = [((), 1.0)]
    elif k == 1:
        records = [((si,), wi) for si, wi in zip(s, ws)]
    else:
        records = [
            ((0.5 * s2 * (x1 + 1.0), s2), 0.5 * s2 * w1 * w2)
            for s2, w2 in zip(s, ws)
            for x1, w1 in zip(x, w)
        ]
    psi0 = embed_with_monitor(state0, params, d_c)
    prob, rho = 0.0, 0.0
    for times, weight in records:
        cur, prev = psi0, 0.0
        for si in times:
            cur = jump(no_count_evolution(cur, params, si - prev), params.gamma)
            prev = si
        final = no_count_evolution(cur, params, t - prev)
        prob += weight * final.norm_sq
        rho = rho + weight * trace_monitor(final)
    return prob, rho


def no_count_evolution_ode(
    state: ThreeModeState, params: ModelParams, dt: float, rtol: float = 1e-10
) -> ThreeModeState:
    """Same semigroup as `no_count_evolution`, integrated by adaptive
    Runge-Kutta on the flattened tensor."""
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    if dt == 0.0:
        return state
    d_a, d_b, d_c = state.coeffs.shape
    a = sparse.diags(np.sqrt(np.arange(1.0, d_a)), 1)
    b = sparse.diags(np.sqrt(np.arange(1.0, d_b)), 1)
    c = sparse.diags(np.sqrt(np.arange(1.0, d_c)), 1)
    ia, ib, ic = (sparse.identity(d, format="csr") for d in (d_a, d_b, d_c))
    exchange = sparse.kron(sparse.kron(a.conj().T, b) + sparse.kron(a, b.conj().T), ic)
    n_ab = sparse.kron(a.conj().T @ a, sparse.kron(ib, ic)) + sparse.kron(
        ia, sparse.kron(b.conj().T @ b, ic)
    )
    drive = sparse.kron(ia, sparse.kron(ib, c + c.conj().T))
    damp = sparse.kron(ia, sparse.kron(ib, c.conj().T @ c))
    gen = (-1j * params.lam) * exchange - 1j * params.chi * (n_ab @ drive) - params.gamma / 2.0 * damp
    gen = gen.tocsr()

    def rhs(_t, y):
        return gen @ y

    sol = solve_ivp(
        rhs,
        (0.0, dt),
        state.coeffs.reshape(-1),
        method="DOP853",
        rtol=rtol,
        atol=1e-13,
        dense_output=False,
    )
    if not sol.success:
        raise ConvergenceError(f"ODE integration failed: {sol.message}")
    return ThreeModeState(sol.y[:, -1].reshape(d_a, d_b, d_c))


def per_trajectory_histogram(state0: TwoModeState, params: ModelParams, t: float, n_samples: int, seed: int):
    """The Monte Carlo count histogram one trajectory at a time, in complex
    arithmetic with M_N = -i chi N (c + c†) - (gamma/2) c†c and no base-step
    grid, from the same random numbers as `oracle.mc_count_histogram` (a
    multinomial sector split, then one row of thresholds per trajectory).
    A count lands at the last point of the grid t / 2^36 whose norm is at or
    above the threshold, as in the library; both can differ only where a
    threshold lies within rounding of a norm."""
    from photoent.oracle import _MAX_TRACK

    weights = number_weights(state0)
    sectors = np.nonzero(weights / np.sum(weights) > 1e-300)[0]
    rng = np.random.default_rng(seed)
    split = rng.multinomial(n_samples, weights[sectors] / np.sum(weights[sectors]))
    bits, hist = 36, np.zeros(_MAX_TRACK + 2, dtype=np.int64)
    end = 1 << bits
    for n_tot, n_traj in zip(sectors, split):
        if not n_traj:
            continue
        d = monitor_dim(params, int(n_tot))
        c = np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)
        gen = -1j * params.chi * n_tot * (c + c.T) - params.gamma / 2 * (c.T @ c)
        powers = [expm(gen * t * 2.0 ** (level - bits)) for level in range(bits + 1)]
        for row in rng.random((n_traj, _MAX_TRACK + 2)):
            pos, phi, jumps = 0, np.eye(d, 1, dtype=complex)[:, 0], 0
            while jumps <= _MAX_TRACK:
                vec = phi
                for level in range(bits, -1, -1):
                    if (end - pos) >> level & 1:
                        vec = powers[level] @ vec
                if np.vdot(vec, vec).real >= row[jumps]:
                    break
                vec = phi
                for level in range(bits - 1, -1, -1):
                    cand = powers[level] @ vec
                    if pos + (1 << level) < end and np.vdot(cand, cand).real >= row[jumps]:
                        pos, vec = pos + (1 << level), cand
                vec = c @ vec
                phi, jumps = vec / np.linalg.norm(vec), jumps + 1
            hist[min(jumps, _MAX_TRACK + 1)] += 1
    return hist
