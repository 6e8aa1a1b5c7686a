"""Independent routes and deliberately wrong variants that only the tests use.

Each function is either a second way to compute something the library
computes (compared against it to tight bounds), or a printed variant of a
formula the library corrects (shown to be machine-detectably wrong).
"""

import math

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from photoent import ModelParams, TwoModeState, eval_kernels, number_weights
from photoent.fock import ConvergenceError
from photoent.oracle import ThreeModeState


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
