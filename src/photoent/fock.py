"""Truncated two-mode Fock space: states, beam-splitter evolution, partial
traces and linear-entropy correlation diagnostics.

Conventions used throughout the package:

* a two-mode pure state is a coefficient matrix ``C[m, n]`` over photon
  numbers ``m < d_a`` (mode A) and ``n < d_b`` (mode B),
* a two-mode density matrix is indexed by the row-major flattening
  ``(m, n) -> m * d_b + n``,
* the total photon number ``N = m + n`` is conserved by every evolution in
  this package, so many quantities reduce to the anti-diagonal weights
  ``P_N = sum_{m+n=N} |C[m, n]|^2``.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral

import numpy as np
from scipy.linalg import eigh_tridiagonal

log = logging.getLogger(__name__)

DEFAULT_EPS_TRUNC = 1e-8
DEFAULT_MAX_DIM = 1024


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the configured dimension budget."""


class ImpossibleOutcomeError(ValueError):
    """Conditioning on a measurement record of (numerically) zero probability."""


class ConvergenceError(RuntimeError):
    """An iterative scheme did not reach its target tolerance."""


def _check_time(t: float, positive: bool = False) -> None:
    if not (math.isfinite(t) and (t > 0 if positive else t >= 0)):
        raise ValueError(f"t must be finite and {'> 0' if positive else '>= 0'}, got {t!r}")


def _check_int(name: str, value: int, low: int, high: float = math.inf) -> None:
    if isinstance(value, bool) or not (isinstance(value, Integral) and low <= value <= high):
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Coupling rates of the model.

    lam    -- A-B exchange rate (the beam-splitter term), >= 0
    chi    -- rate coupling the total photon number of A,B to the monitor, > 0
    gamma  -- photodetector counting rate on the monitor, > 0
    """

    lam: float
    chi: float
    gamma: float

    def __post_init__(self):
        for name, value in (("lam", self.lam), ("chi", self.chi), ("gamma", self.gamma)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.chi <= 0:
            raise ValueError(f"chi must be > 0, got {self.chi}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")


@dataclass(frozen=True)
class TwoModeState:
    """Pure state of modes A and B as a truncated coefficient matrix.

    ``trunc_weight`` is the probability mass lost to truncation; the stored
    coefficients satisfy ``sum |C|^2 = 1 - trunc_weight``.
    """

    coeffs: np.ndarray
    trunc_weight: float = 0.0

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex, copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"coeffs must be a 2-d matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coeffs must be finite (NaN or infinite entries found)")
        if not (0.0 <= self.trunc_weight <= 0.02):
            raise ValueError(f"trunc_weight out of range: {self.trunc_weight}")
        norm_sq = float(np.sum(np.abs(arr) ** 2))
        if abs(norm_sq - (1.0 - self.trunc_weight)) > 1e-6:
            raise ValueError(
                f"coefficient norm {norm_sq:.9f} inconsistent with "
                f"trunc_weight {self.trunc_weight:.3e}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def d_a(self) -> int:
        return self.coeffs.shape[0]

    @property
    def d_b(self) -> int:
        return self.coeffs.shape[1]

    @property
    def n_max(self) -> int:
        """Largest representable total photon number."""
        return self.d_a + self.d_b - 2


@dataclass(frozen=True)
class TwoModeDensity:
    """Mixed state of modes A and B, indexed by ``(m, n) -> m * d_b + n``."""

    rho: np.ndarray
    d_a: int
    d_b: int

    def __post_init__(self):
        arr = np.array(self.rho, dtype=complex, copy=True)
        dim = self.d_a * self.d_b
        if arr.shape != (dim, dim):
            raise ValueError(f"rho has shape {arr.shape}, expected {(dim, dim)}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("rho must be finite (NaN or infinite entries found)")
        arr.setflags(write=False)
        object.__setattr__(self, "rho", arr)

    @property
    def trace(self) -> float:
        return float(np.trace(self.rho).real)

    @property
    def n_max(self) -> int:
        return self.d_a + self.d_b - 2


def _totals(d_a: int, d_b: int) -> np.ndarray:
    """Total photon number N = m + n on the (d_a, d_b) grid."""
    return np.arange(d_a)[:, None] + np.arange(d_b)[None, :]


def _dephasing(n_max: int, rate: float) -> np.ndarray:
    """exp(-rate (N - N')^2) for N, N' = 0..n_max."""
    n = np.arange(n_max + 1, dtype=float)
    return np.exp(-rate * np.subtract.outer(n, n) ** 2)


@dataclass(frozen=True)
class DephasedState:
    """Pure state dephased between total-photon sectors:
    ``rho = exp(-mu (N - N')^2 / 2) psi psi^dag`` with N = m + n, N' = m' + n'.

    Behaves like `TwoModeDensity`; ``rho`` is built once, and
    `entanglement_report` takes the entropies from ``state`` and ``mu``.
    """

    state: TwoModeState
    mu: float
    rho: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ValueError(f"mu must be finite and >= 0, got {self.mu!r}")
        psi = self.state.coeffs.reshape(-1)
        tot = _totals(self.d_a, self.d_b).reshape(-1)
        # one dephasing row per total N: rows[N, j] = exp(-mu/2 (N - N_j)^2) psi_j^*
        rows = psi.conj() * _dephasing(self.n_max, self.mu / 2.0)[:, tot]
        rho = np.take(rows, tot, axis=0)
        rho *= psi[:, None]
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @property
    def d_a(self) -> int:
        return self.state.d_a

    @property
    def d_b(self) -> int:
        return self.state.d_b

    @property
    def n_max(self) -> int:
        return self.state.n_max

    @property
    def trace(self) -> float:
        return float(np.sum(np.abs(self.state.coeffs) ** 2))


@dataclass(frozen=True)
class EntanglementReport:
    """Linear entropies of the marginals and of the joint state.

    ``excess`` is S_A + S_B - S_AB; for pure joint states it is twice the
    marginal entropy and any positive value witnesses entanglement.
    ``araki_lieb_ok`` records whether 0 <= excess <= 2 min(S_A, S_B) held.
    """

    s_a: float
    s_b: float
    s_ab: float
    excess: float
    araki_lieb_ok: bool


def make_number_state(m: int, n: int, d_a: int, d_b: int) -> TwoModeState:
    """State |m, n> in a (d_a, d_b)-truncated space."""
    if d_a < 1 or d_b < 1:
        raise ValueError("cutoffs must be >= 1")
    if not (0 <= m < d_a) or not (0 <= n < d_b):
        raise ValueError(f"occupation ({m}, {n}) outside cutoffs ({d_a}, {d_b})")
    coeffs = np.zeros((d_a, d_b), dtype=complex)
    coeffs[m, n] = 1.0
    return TwoModeState(coeffs, trunc_weight=0.0)


def _poisson_cutoff(mean: float, tail: float, max_dim: int) -> int:
    """Smallest dimension d with Poisson(mean) mass beyond level d-1 at most
    ``tail``, via the geometric bound sum_{j>k} p_j <= p_k r/(1-r), r = mean/(k+1)
    (valid once r < 1); accurate far below machine epsilon of the cumulative."""
    if mean == 0.0:
        return 1
    term = math.exp(-mean)
    d = 1
    while True:
        ratio = mean / d
        if ratio < 1.0 and term * ratio / (1.0 - ratio) <= tail:
            return d
        if d >= max_dim:
            raise ResourceLimitError(
                f"coherent amplitude |alpha|^2 = {mean:g} needs more than "
                f"{max_dim} Fock levels for tail {tail:g}"
            )
        term *= ratio
        d += 1


def _coherent_column(alpha: complex, dim: int) -> np.ndarray:
    """Coefficients e^{-|a|^2/2} a^m / sqrt(m!) for m < dim."""
    if alpha == 0:
        out = np.zeros(dim, dtype=complex)
        out[0] = 1.0
        return out
    m = np.arange(dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    mag = np.exp(-abs(alpha) ** 2 / 2 + m * np.log(abs(alpha)) - log_fact / 2)
    return mag * np.exp(1j * np.angle(alpha) * m)


def make_coherent_product(
    alpha: complex,
    beta: complex,
    eps_trunc: float = DEFAULT_EPS_TRUNC,
    max_dim: int = DEFAULT_MAX_DIM,
) -> TwoModeState:
    """Product of coherent states |alpha> (x) |beta>, truncated so the total
    lost probability mass is at most ``eps_trunc``.

    Cutoffs are the smallest per-mode dimensions whose Poisson tails sum to
    at most eps_trunc (the budget is split evenly over the non-vacuum modes).
    """
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not (0.0 < eps_trunc <= 0.01):
        raise ValueError(f"eps_trunc must lie in (0, 0.01], got {eps_trunc}")
    means = (abs(alpha) ** 2, abs(beta) ** 2)
    n_active = sum(1 for v in means if v > 0)
    share = eps_trunc / n_active if n_active else eps_trunc
    d_a = _poisson_cutoff(means[0], share, max_dim)
    d_b = _poisson_cutoff(means[1], share, max_dim)
    coeffs = np.outer(_coherent_column(alpha, d_a), _coherent_column(beta, d_b))
    trunc = 1.0 - float(np.sum(np.abs(coeffs) ** 2))
    return TwoModeState(coeffs, trunc_weight=max(trunc, 0.0))


def make_superposition(entries: list[tuple[int, int, complex]]) -> TwoModeState:
    """Normalized state with exactly the listed (m, n, coefficient) support."""
    if not entries:
        raise ValueError("entries must be nonempty")
    seen = set()
    for m, n, c in entries:
        if m < 0 or n < 0:
            raise ValueError(f"negative occupation ({m}, {n})")
        if (m, n) in seen:
            raise ValueError(f"duplicate entry for ({m}, {n})")
        if not cmath.isfinite(c):
            raise ValueError(f"entries: coefficient of ({m}, {n}) must be finite, got {c!r}")
        seen.add((m, n))
    d_a = max(m for m, _, _ in entries) + 1
    d_b = max(n for _, n, _ in entries) + 1
    coeffs = np.zeros((d_a, d_b), dtype=complex)
    for m, n, c in entries:
        coeffs[m, n] = c
    norm = np.linalg.norm(coeffs)
    if norm == 0.0:
        raise ValueError("coefficients are all zero")
    return TwoModeState(coeffs / norm, trunc_weight=0.0)


def pad_state(state: TwoModeState, d_a: int, d_b: int) -> TwoModeState:
    """Embed into larger cutoffs by zero padding.

    Blocks of total photon number cut by the corner of a rectangular
    truncation evolve within their restriction under `apply_beam_splitter`;
    padding to d_a + d_b square makes every populated block complete.
    """
    if d_a < state.d_a or d_b < state.d_b:
        raise ValueError("padding cannot shrink the cutoffs")
    coeffs = np.zeros((d_a, d_b), dtype=complex)
    coeffs[: state.d_a, : state.d_b] = state.coeffs
    return TwoModeState(coeffs, trunc_weight=state.trunc_weight)


def make_two_mode_squeezed(r: float, n_max: int) -> TwoModeState:
    """Truncated two-mode squeezed state, C[n, n] = tanh(r)^n / cosh(r),
    renormalized on the retained support n <= n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    entries = [(n, n, math.tanh(r) ** n / math.cosh(r)) for n in range(n_max + 1)]
    return make_superposition(entries)


@lru_cache(maxsize=None)
def _bs_block_eig(d_a: int, d_b: int, total: int):
    """Eigen-decomposition of the exchange generator a†b + ab† restricted to
    the block of fixed total photon number, within the given cutoffs."""
    m_lo = max(0, total - (d_b - 1))
    m_hi = min(d_a - 1, total)
    ms = np.arange(m_lo, m_hi + 1)
    if len(ms) == 1:
        return ms, np.zeros(1), np.ones((1, 1))
    off = np.sqrt((ms[:-1] + 1.0) * (total - ms[:-1]))
    w, v = eigh_tridiagonal(np.zeros(len(ms)), off)
    return ms, w, v


def apply_beam_splitter(state: TwoModeState, lam: float, t: float) -> TwoModeState:
    """Evolve by exp(-i lam t (a†b + ab†)), block by block in total photon
    number.  The distribution of N = m + n is left exactly unchanged.

    Blocks truncated by the corner of the rectangular grid (N > min cutoff)
    evolve unitarily within their restriction; use `pad_state` first when the
    corner mass matters.
    """
    theta = lam * t
    if theta == 0.0:
        return state
    out = np.array(state.coeffs, copy=True)
    for total in range(state.n_max + 1):
        ms, w, v = _bs_block_eig(state.d_a, state.d_b, total)
        vec = out[ms, total - ms]
        if len(ms) == 1:
            continue  # single-element block: generator vanishes
        out[ms, total - ms] = v @ (np.exp(-1j * theta * w) * (v.T @ vec))
    return TwoModeState(out, trunc_weight=state.trunc_weight)


def number_weights(source: TwoModeState | TwoModeDensity) -> np.ndarray:
    """Anti-diagonal weights P_N = P(total photon number = N), N = 0..n_max.

    For a state these are sums of |C|^2; for a density, sums of diagonal
    elements.  The weights sum to 1 - trunc_weight (states) or to the trace.
    """
    if isinstance(source, TwoModeState):
        mags = np.abs(source.coeffs) ** 2
        d_a, d_b = source.d_a, source.d_b
    else:
        diag = np.diag(source.rho).real
        d_a, d_b = source.d_a, source.d_b
        mags = diag.reshape(d_a, d_b)
    weights = np.zeros(d_a + d_b - 1)
    np.add.at(weights, _totals(d_a, d_b).ravel(), mags.ravel())
    return weights


def number_moment(source: TwoModeState | TwoModeDensity, power: int) -> float:
    """<N^power> of the (renormalized) truncated state."""
    weights = number_weights(source)
    total = float(np.sum(weights))
    n = np.arange(len(weights), dtype=float)
    return float(np.sum(weights * n**power) / total)


def density_from_pure(state: TwoModeState) -> DephasedState:
    return DephasedState(state, 0.0)


def partial_trace(rho: TwoModeDensity, keep: str) -> np.ndarray:
    """Reduce to one mode; ``keep`` is "A" or "B".  Trace is preserved."""
    r = rho.rho.reshape(rho.d_a, rho.d_b, rho.d_a, rho.d_b)
    if keep == "A":
        return np.einsum("mnpn->mp", r)
    if keep == "B":
        return np.einsum("mnmq->nq", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def purity(mat: np.ndarray) -> float:
    """Tr rho^2 for a Hermitian matrix (Frobenius norm squared)."""
    return float(np.sum(np.abs(mat) ** 2))


def linear_entropy(mat: np.ndarray) -> float:
    return 1.0 - purity(mat)


def _sector_entropies(state: TwoModeState, mu: float) -> tuple[float, float, float]:
    """S_A, S_B, S_AB of the state dephased by mu, from its coefficients C
    in O(d^3) without the dense density:
    rho_A = exp(-mu (m - p)^2 / 2) * C C^dag, rho_B = exp(-mu (n - q)^2 / 2) * C^T C^*
    and Tr rho^2 = sum_NN' exp(-mu (N - N')^2) P_N P_N'."""
    c, rate = state.coeffs, mu / 2.0
    s_a = linear_entropy(_dephasing(state.d_a - 1, rate) * (c @ c.conj().T))
    s_b = linear_entropy(_dephasing(state.d_b - 1, rate) * (c.T @ c.conj()))
    weights = number_weights(state)
    s_ab = 1.0 - float(weights @ _dephasing(state.n_max, mu) @ weights)
    return s_a, s_b, s_ab


def entanglement_report(rho: TwoModeDensity | DephasedState) -> EntanglementReport:
    """Linear entropies S = 1 - Tr rho^2 of both marginals and of the joint
    state, the excess S_A + S_B - S_AB, and the two-sided bound check
    0 <= excess <= 2 min(S_A, S_B).  A `DephasedState` is Hermitian by
    construction and reports from its sectors; a dense density is
    symmetrized first if needed."""
    tr = rho.trace
    if abs(tr - 1.0) > 1e-6:
        raise ValueError(f"density trace {tr:.9f} deviates from 1 beyond 1e-6")
    if isinstance(rho, DephasedState):
        s_a, s_b, s_ab = _sector_entropies(rho.state, rho.mu)
    else:
        mat = rho.rho
        herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_defect > 1e-12:
            log.debug("symmetrizing density, hermiticity defect %.3e", herm_defect)
            mat = (mat + mat.conj().T) / 2
            rho = TwoModeDensity(mat, rho.d_a, rho.d_b)
        s_a = linear_entropy(partial_trace(rho, "A"))
        s_b = linear_entropy(partial_trace(rho, "B"))
        s_ab = linear_entropy(mat)
    excess = s_a + s_b - s_ab
    ok = (-1e-10 <= excess) and (excess <= 2.0 * min(s_a, s_b) + 1e-10)
    return EntanglementReport(s_a, s_b, s_ab, excess, ok)


def separable_benchmark(dim_a: int, dim_b: int) -> tuple[float, float]:
    """(excess, S_AB) of the equiprobable fully mixed product ensemble on
    dimensions (dim_a, dim_b): excess = 1 - (1/d_a + 1/d_b - 1/(d_a d_b)),
    S_AB = 1 - 1/(d_a d_b).  Both approach 1 for large dimensions."""
    if dim_a < 1 or dim_b < 1:
        raise ValueError("dimensions must be >= 1")
    excess = 1.0 - (1.0 / dim_a + 1.0 / dim_b - 1.0 / (dim_a * dim_b))
    s_ab = 1.0 - 1.0 / (dim_a * dim_b)
    return excess, s_ab


def pure_state_fidelity(rho: TwoModeDensity, state: TwoModeState) -> float:
    """<psi| rho |psi> for a pure reference state."""
    if (rho.d_a, rho.d_b) != (state.d_a, state.d_b):
        raise ValueError("dimension mismatch between density and state")
    psi = state.coeffs.reshape(-1)
    return float(np.real(psi.conj() @ rho.rho @ psi))


def fix_global_phase(coeffs: np.ndarray) -> np.ndarray:
    """Rotate a coefficient array so its largest-modulus entry is real positive.

    Ties are broken by row-major order, making the output deterministic.
    """
    flat = coeffs.reshape(-1)
    idx = int(np.argmax(np.abs(flat)))
    pivot = flat[idx]
    if pivot == 0:
        return coeffs
    return coeffs * (abs(pivot) / pivot)
