"""Truncated two-mode Fock space: states, beam-splitter evolution, the
sector-dephased density and linear-entropy correlation diagnostics.

Conventions used throughout the package:

* a two-mode pure state is a coefficient matrix ``C[m, n]`` over photon
  numbers ``m < d_a`` (mode A) and ``n < d_b`` (mode B),
* the one density type is `DephasedState`, a pure state times a sector
  matrix ``w(N, N')``; its dense form is indexed by the row-major
  flattening ``(m, n) -> m * d_b + n``,
* the total photon number ``N = m + n`` is conserved by every evolution in
  this package, so many quantities reduce to the anti-diagonal weights
  ``P_N = sum_{m+n=N} |C[m, n]|^2``.

The beam splitter exp(-i lam t (a†b + ab†)) is a two-term stencil on the
coefficient grid that keeps N; `apply_beam_splitter` sums its Chebyshev
series (Tal-Ezer & Kosloff 1984) by Clenshaw's recurrence over the whole
grid, with no eigendecomposition and nothing cached, at a cost linear in
lam t n_max up to `SERIES_WORK_BUDGET`.  The sizes a request sets (a count
range, a count table, a sample, a probe grid) are checked against
`MAX_ENTRIES` before anything is allocated; past either budget
`ResourceLimitError` is raised.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

DEFAULT_EPS_TRUNC = 1e-8
DEFAULT_MAX_DIM = 1024
# grid cells times Chebyshev terms allowed in one `apply_beam_splitter` call
SERIES_WORK_BUDGET = 1e9
# entries of one array whose size a request sets: a k range, a (k x sector)
# count table, a sample
MAX_ENTRIES = 10**7


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


def _check_size(field: str, size: int) -> None:
    """Raise ResourceLimitError when ``field`` asks for more than MAX_ENTRIES
    entries; called before the array is allocated."""
    if size > MAX_ENTRIES:
        raise ResourceLimitError(f"{field} asks for {size:,} entries, beyond the budget of {MAX_ENTRIES:,}")


@dataclass(frozen=True)
class ModelParams:
    """Coupling rates of the model.

    lam    -- A-B exchange rate (the beam-splitter term), >= 0
    chi    -- rate coupling the total photon number of A,B to the monitor, > 0
    gamma  -- photodetector counting rate on the monitor, > 0, with chi^2,
              gamma^2 and chi^2/gamma^2 positive normal floats (the kernels square both)
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
        chi2, gamma2 = self.chi * self.chi, self.gamma * self.gamma
        for name, value in (("chi^2", chi2), ("gamma^2", gamma2), ("chi^2/gamma^2", chi2 / gamma2 if gamma2 else 0.0)):
            if not np.finfo(float).tiny <= value < math.inf:
                raise ValueError(
                    f"{name} must be a positive normal float, got {value!r} (chi={self.chi!r}, gamma={self.gamma!r})"
                )


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


def _totals(d_a: int, d_b: int) -> np.ndarray:
    """Total photon number N = m + n on the (d_a, d_b) grid."""
    return np.arange(d_a)[:, None] + np.arange(d_b)[None, :]


def _dephasing(n_max: int, rate: float) -> np.ndarray:
    """exp(-rate (N - N')^2) for N, N' = 0..n_max."""
    n = np.arange(n_max + 1, dtype=float)
    return np.exp(-rate * np.subtract.outer(n, n) ** 2)


@dataclass(frozen=True)
class DephasedState:
    """``rho = w(N, N') psi psi^dag`` with N = m + n, N' = m' + n' and ``w`` a
    real symmetric sector matrix over N, N' = 0..n_max: every state
    conditioned on a count record, since N is never disturbed.  The closed
    form's w is exp(-mu (N - N')^2 / 2), the oracle's its Gram matrix over
    P(k).  The dense ``(d_a d_b)^2`` matrix ``rho`` is built once for the
    readers that want it; `number_weights` and `entanglement_report` work
    from ``state`` and ``w`` alone."""

    state: TwoModeState
    w: np.ndarray
    rho: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        if w.shape != (self.n_max + 1,) * 2 or not np.all(np.isfinite(w)) or not np.array_equal(w, w.T):
            raise ValueError(f"w must be a finite symmetric {(self.n_max + 1,) * 2} matrix")
        w.setflags(write=False)
        psi = self.state.coeffs.reshape(-1)
        tot = _totals(self.d_a, self.d_b).reshape(-1)
        # one row per total N: rows[N, j] = w(N, N_j) psi_j^*
        rows = psi.conj() * w[:, tot]
        rho = np.take(rows, tot, axis=0)
        rho *= psi[:, None]
        rho.setflags(write=False)
        object.__setattr__(self, "w", w)
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
        return float(number_weights(self.state) @ np.diagonal(self.w))


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
    for name, value, low in (("m", m, 0), ("n", n, 0), ("d_a", d_a, 1), ("d_b", d_b, 1)):
        _check_int(name, value, low)
    if m >= d_a or n >= d_b:
        raise ValueError(f"occupation ({m}, {n}) outside cutoffs ({d_a}, {d_b})")
    coeffs = np.zeros((d_a, d_b), dtype=complex)
    coeffs[m, n] = 1.0
    return TwoModeState(coeffs, trunc_weight=0.0)


def _poisson_cutoff(mean: float, tail: float) -> int:
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
        if d >= DEFAULT_MAX_DIM:
            raise ResourceLimitError(
                f"coherent amplitude |alpha|^2 = {mean:g} needs more than "
                f"{DEFAULT_MAX_DIM} Fock levels for tail {tail:g}"
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


def make_coherent_product(alpha: complex, beta: complex, eps_trunc: float = DEFAULT_EPS_TRUNC) -> TwoModeState:
    """Product of coherent states |alpha> (x) |beta>, truncated so the total
    lost probability mass is at most ``eps_trunc``.

    Cutoffs are the smallest per-mode dimensions whose Poisson tails sum to
    at most eps_trunc (the budget is split evenly over the non-vacuum modes),
    each at most DEFAULT_MAX_DIM.
    """
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not (0.0 < eps_trunc <= 0.01):
        raise ValueError(f"eps_trunc must lie in (0, 0.01], got {eps_trunc}")
    means = (abs(alpha) ** 2, abs(beta) ** 2)
    n_active = sum(1 for v in means if v > 0)
    share = eps_trunc / n_active if n_active else eps_trunc
    d_a = _poisson_cutoff(means[0], share)
    d_b = _poisson_cutoff(means[1], share)
    coeffs = np.outer(_coherent_column(alpha, d_a), _coherent_column(beta, d_b))
    trunc = 1.0 - float(np.sum(np.abs(coeffs) ** 2))
    return TwoModeState(coeffs, trunc_weight=max(trunc, 0.0))


def make_superposition(entries: list[tuple[int, int, complex]]) -> TwoModeState:
    """Normalized state with exactly the listed (m, n, coefficient) support."""
    if not entries:
        raise ValueError("entries must be nonempty")
    seen = set()
    for m, n, c in entries:
        _check_int("entries: m", m, 0)
        _check_int("entries: n", n, 0)
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
    _check_int("n_max", n_max, 0)
    entries = [(n, n, math.tanh(r) ** n / math.cosh(r)) for n in range(n_max + 1)]
    return make_superposition(entries)


def _bessel_j(z: float, top: int) -> np.ndarray:
    """J_k(z) for k = 0..K, K the last k with |J_k| >= 1e-17, by Miller's
    backward recurrence from k = top, normalized by J_0 + 2 sum_k J_2k = 1.
    It runs on the ratios J_k / J_(k-1) = z / (2k - z J_(k+1) / J_k), which
    neither overflow nor divide by z: a tiny z gives [1.0]."""
    ratios = np.empty(top)
    ratio = 0.0
    for k in range(top, 0, -1):
        ratio = z / (2.0 * k - z * ratio)
        ratios[k - 1] = ratio
    j = np.concatenate(([1.0], np.cumprod(ratios)))
    j /= j[0] + 2.0 * np.sum(j[2::2])
    return j[: np.flatnonzero(np.abs(j) >= 1e-17)[-1] + 1]


def apply_beam_splitter(state: TwoModeState, lam: float, t: float) -> TwoModeState:
    """Evolve by exp(-i theta G), theta = lam t, G = a†b + ab†, through the
    Chebyshev series sum_k (2 - delta_k0) (-i)^k J_k(theta r) T_k(G / r),
    r = n_max, summed by Clenshaw's recurrence over the whole grid at once.

    On the grid G is the stencil (G C)[m, n] = sqrt(m (n+1)) C[m-1, n+1]
    + sqrt((m+1) n) C[m+1, n-1]: it never mixes N = m + n, so the
    distribution of N changes only by rounding, and every block's spectrum
    lies in [-N, N].  Blocks cut by the corner of the grid (N > min cutoff)
    evolve within their restriction; use `pad_state` first when the corner
    mass matters.  The series stops where |J_k| < 1e-17, after about
    theta n_max + 16 (theta n_max)^(1/3) terms, each a pass over three
    grid-sized buffers; a call whose terms times grid cells would exceed
    `SERIES_WORK_BUDGET` raises `ResourceLimitError` before any of them.
    """
    theta = lam * t
    if theta == 0.0:
        return state
    d_a, d_b, radius = state.d_a, state.d_b, max(state.n_max, 1)
    z = theta * radius
    # rows of d_b + 1 cells (the last one zero) between d_b zero cells at
    # either end, so that C[m -+ 1, n +- 1] is a flat shift by -+d_b
    size, shift = d_a * (d_b + 1), d_b
    # Miller's start: |J_k(z)| < 1e-17 beyond |z| + 16 max(|z|, 1)^(1/3), ten to spare
    terms = abs(z) + 16.0 * max(abs(z), 1.0) ** (1 / 3) + 10.0
    if not terms * (size + 2 * shift) <= SERIES_WORK_BUDGET:
        raise ResourceLimitError(
            f"the beam splitter at lambda t = {theta!r} on n_max = {state.n_max} needs about "
            f"{terms:.3g} series terms over {size + 2 * shift} grid cells, beyond the budget "
            f"of {SERIES_WORK_BUDGET:.3g} cell terms"
        )
    # a_k v = (-i)^k J_k v is +-J_k v for even k and +-J_k (-i v) for odd k, the
    # sign + where k mod 4 < 2; rows 0-1 of `source` are v = (Re C, Im C), rows 1-2 -i v
    signed = _bessel_j(z, math.ceil(terms))
    signed[2::4] *= -1.0
    signed[3::4] *= -1.0
    source = np.zeros((3, size))
    grid = source.reshape(3, d_a, d_b + 1)[:, :, :d_b]
    grid[0], grid[1], grid[2] = state.coeffs.real, state.coeffs.imag, -state.coeffs.real
    m, n = np.arange(d_a)[:, None], np.arange(d_b + 1)[None, :]
    inside = (2.0 / radius) * (n < d_b)  # 2 G / r, zero on the padding column
    lower = (inside * np.sqrt(m * (n + 1.0))).ravel()
    upper = (inside * np.sqrt((m + 1.0) * n)).ravel()
    # b_k = a_k v + (2 G / r) b_(k+1) - b_(k+2); the sum is b_0 - b_2, so the
    # last step subtracts b_2 twice
    def views(buf):  # C[m - 1, n + 1], C[m + 1, n - 1] and C[m, n] of a buffer
        return buf[:, :size], buf[:, 2 * shift :], buf[:, shift : shift + size]

    b1, b2 = views(np.zeros((2, size + 2 * shift))), views(np.zeros((2, size + 2 * shift)))
    sources, tmp = (source[0:2], source[1:3]), np.empty((2, size))
    for k in range(len(signed) - 1, -1, -1):
        inner = b2[2]
        if k == 0:
            inner *= 2.0
        np.multiply(b1[0], lower, out=tmp)
        np.subtract(tmp, inner, out=inner)
        np.multiply(b1[1], upper, out=tmp)
        inner += tmp
        np.multiply(sources[k & 1], signed[k], out=tmp)
        inner += tmp
        b1, b2 = b2, b1
    out = inner.reshape(2, d_a, d_b + 1)[:, :, :d_b]
    return TwoModeState(out[0] + 1j * out[1], trunc_weight=state.trunc_weight)


def number_weights(source: TwoModeState | DephasedState) -> np.ndarray:
    """Anti-diagonal weights P_N = P(total photon number = N), N = 0..n_max.

    For a state these are sums of |C|^2, summing to 1 - trunc_weight; a
    `DephasedState` scales them by the diagonal of ``w``, summing to its
    trace.
    """
    if isinstance(source, DephasedState):
        return number_weights(source.state) * np.diagonal(source.w)
    weights = np.zeros(source.n_max + 1)
    np.add.at(weights, _totals(source.d_a, source.d_b).ravel(), (np.abs(source.coeffs) ** 2).ravel())
    return weights


def density_from_pure(state: TwoModeState) -> DephasedState:
    return DephasedState(state, np.ones((state.n_max + 1,) * 2))


def partial_trace(rho: DephasedState, keep: str) -> np.ndarray:
    """Reduce to one mode; ``keep`` is "A" or "B".  Trace is preserved.
    The entropy report's marginal, from the sectors of ``rho``."""
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    c = rho.state.coeffs
    return _marginal(rho.w, c if keep == "A" else c.T)


def purity(mat: np.ndarray) -> float:
    """Tr rho^2 for a Hermitian matrix (Frobenius norm squared)."""
    return float(np.sum(np.abs(mat) ** 2))


def linear_entropy(mat: np.ndarray) -> float:
    return 1.0 - purity(mat)


def _marginal(w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """rho_A[m, p] = sum_n w(m + n, p + n) C[m, n] C*[p, n], reading the
    shifted diagonals of w through a view."""
    d = c.shape[0]
    shifted = np.diagonal(np.lib.stride_tricks.sliding_window_view(w, (d, d)))  # [m, p, n]
    return np.einsum("mpn,mn,pn->mp", shifted, c, c.conj())


def _sector_entropies(state: TwoModeState, w: np.ndarray) -> tuple[float, float, float]:
    """S_A, S_B, S_AB of ``w(N, N') psi psi^dag`` from the coefficients C
    in O(d^3) without the dense density: rho_A from `_marginal`, rho_B the
    same on C^T, and Tr rho^2 = sum_NN' w(N, N')^2 P_N P_N'."""
    c, weights = state.coeffs, number_weights(state)
    s_ab = 1.0 - float(weights @ (w * w) @ weights)
    return linear_entropy(_marginal(w, c)), linear_entropy(_marginal(w, c.T)), s_ab


def entanglement_report(rho: DephasedState) -> EntanglementReport:
    """Linear entropies S = 1 - Tr rho^2 of both marginals and of the joint
    state, the excess S_A + S_B - S_AB, and the two-sided bound check
    0 <= excess <= 2 min(S_A, S_B), all from the sectors of ``rho``."""
    tr = rho.trace
    if abs(tr - 1.0) > 1e-6:
        raise ValueError(f"density trace {tr:.9f} deviates from 1 beyond 1e-6")
    s_a, s_b, s_ab = _sector_entropies(rho.state, rho.w)
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
