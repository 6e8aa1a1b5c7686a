"""Probing the AB state through the monitor count record.

The count distribution at fixed time is a Poisson mixture over the total
photon number N with component mean u(t) N^2, u = 2 g(t).  Its factorial
moments are therefore exactly u^r <N^{2r}> at every t, so the normalized
moments kappa_r = E[k(k-1)...(k-r+1)] / u^r estimate <N^{2r}> without any
late-time approximation.

From the moments one builds the bounded transform

    H(x) = sum_r (-1)^r x^{2r} kappa_r / (2r)!  =  sum_N P_N cos(x N),

whose cosine coefficients C(j) = (1/pi) int_0^{2pi} cos(jx) H(x) dx recover
the anti-diagonal sums sum_m |C_{m,j-m}|^2 -- the maximal state information
available from counting the monitor.  Note the (2r)! denominator: it is
forced by the cosine closed form (the single-factorial variant turns the
series into exp(-x^2 N^2); the test suite rebuilds it as a regression guard),
and C(0) carries a 1/(2 pi) normalization since the constant mode integrates
to 2 pi over a full period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DephasedState, ModelParams, TwoModeState, _check_int, _check_time, number_weights
from .photocount import eval_kernels

DEFAULT_R_MAX = 12
CANCELLATION_TRUST = 1e-4
NEGATIVE_COEFF_TOL = 1e-4
# classify_special_state: relative tolerance of kappa_r = kappa_1^r, and the
# smallest C(j) counted as support
SHARP_REL_TOL = 1e-9
SUPPORT_FLOOR = 1e-10


@dataclass(frozen=True)
class ProbeMoments:
    """Count moments at one time, normalized for state inference.

    raw_moments[r] = E[k^r]; factorial_moments[r] = E[k(k-1)...(k-r+1)];
    kappa_moments[r] estimates <N^{2r}> (exactly factorial/u^r in analytic
    mode).  ``n_weights`` carries the total-photon-number distribution when
    the moments were derived from a known state (analytic mode), enabling
    exact H evaluation downstream.
    """

    t: float
    u: float
    raw_moments: np.ndarray
    factorial_moments: np.ndarray
    kappa_moments: np.ndarray
    mode: str
    degenerate: bool = False
    n_weights: np.ndarray | None = None
    std_errors: np.ndarray | None = None

    @property
    def r_max(self) -> int:
        return len(self.kappa_moments) - 1


@dataclass(frozen=True)
class HFunctionSamples:
    """H(x) on a grid: moment-series evaluation with numerical diagnostics,
    plus the exact cosine sum when the state weights are known."""

    x: np.ndarray
    series: np.ndarray
    exact: np.ndarray | None
    remainder_bound: np.ndarray
    cancellation: np.ndarray
    trusted: np.ndarray

    @property
    def values(self) -> np.ndarray:
        """Best available samples: exact when present, else the series."""
        return self.series if self.exact is None else self.exact


@dataclass(frozen=True)
class CosineCoefficients:
    """C(j) for j = 0..j_max; raw values are stored, clamping is a view."""

    values: np.ndarray
    flagged_inconsistent: bool

    @property
    def j_max(self) -> int:
        return len(self.values) - 1

    @property
    def clamped(self) -> np.ndarray:
        return np.maximum(self.values, 0.0)

    @property
    def total(self) -> float:
        return float(np.sum(self.values))


@dataclass(frozen=True)
class MarginalRecovery:
    """Squared moduli of one mode's coefficients, from C(j) offsets."""

    moduli_sq: np.ndarray
    total: float
    flagged: bool


@dataclass(frozen=True)
class SpecialStateReport:
    kind: str  # "anti-correlated" | "correlated-support" | "indeterminate"
    moment_sharp: bool
    kappa1: float
    coefficients_recoverable: bool
    recovered_diagonal: dict[int, float] | None
    squeeze_r: float | None
    squeeze_residual: float | None
    message: str


@dataclass(frozen=True)
class ProbeReport:
    """``aliased`` is set when the source state is known to carry support on
    anti-diagonals beyond j_max, which folds into lower coefficients; it is
    detectable only in analytic mode and reported, not resolved."""

    moments: ProbeMoments
    h_samples: HFunctionSamples
    fourier: CosineCoefficients
    classification: SpecialStateReport
    reconstruction: MarginalRecovery | None = None
    aliased: bool = False


def _stirling2(r_max: int) -> np.ndarray:
    s = np.zeros((r_max + 1, r_max + 1))
    s[0, 0] = 1.0
    for r in range(1, r_max + 1):
        for j in range(1, r + 1):
            s[r, j] = j * s[r - 1, j] + s[r - 1, j - 1]
    return s


def analytic_moments(
    source: TwoModeState | DephasedState,
    params: ModelParams,
    t: float,
    r_max: int = DEFAULT_R_MAX,
) -> ProbeMoments:
    """Exact count moments of a known state (or density) at time t.

    factorial_moments[r] = u^r <N^{2r}> exactly at every t; raw moments
    follow from the Stirling-number expansion of k^r in falling factorials.
    At t = 0 the count moments all vanish; kappa is then reported directly
    from the state with the ``degenerate`` flag set.
    """
    _check_int("r_max", r_max, 0, DEFAULT_R_MAX)
    _check_time(t)
    weights = number_weights(source)
    weights = weights / np.sum(weights)
    n = np.arange(len(weights), dtype=float)
    n2r = np.array([float(np.sum(weights * n ** (2 * r))) for r in range(r_max + 1)])
    u = eval_kernels(params, t).u
    factorial = u ** np.arange(r_max + 1) * n2r
    degenerate = u == 0.0
    return ProbeMoments(
        t=t,
        u=u,
        raw_moments=_stirling2(r_max) @ factorial,
        factorial_moments=factorial,
        kappa_moments=n2r.copy() if degenerate else factorial / u ** np.arange(r_max + 1),
        mode="analytic-exact",
        degenerate=degenerate,
        n_weights=weights,
    )


def empirical_moments(
    records: np.ndarray,
    params: ModelParams,
    r_max: int = DEFAULT_R_MAX,
) -> ProbeMoments:
    """Moment estimators from count records.

    ``records`` has columns (k, t) or (k, t, weight); every record must share
    the same t, since the kappa normalization u(t)^r is per-time.  Standard
    errors of the factorial moments are delete-one jackknife values (for a
    weighted mean this reduces to the weighted standard error).
    """
    _check_int("r_max", r_max, 0, DEFAULT_R_MAX)
    arr = np.asarray(records, dtype=float)
    if arr.ndim != 2 or arr.shape[1] not in (2, 3) or arr.shape[0] < 1:
        raise ValueError("records must be a nonempty array of (k, t[, weight]) rows")
    ks = arr[:, 0]
    ts = arr[:, 1]
    w = arr[:, 2] if arr.shape[1] == 3 else np.ones(len(arr))
    if np.any(ts != ts[0]):
        raise ValueError("records mix measurement times; the protocol is per-time")
    if not np.all(np.isfinite(ks) & (ks >= 0) & (ks == np.round(ks))):
        raise ValueError("counts k must be nonnegative integers")
    if not (np.all(np.isfinite(w) & (w >= 0)) and np.sum(w) > 0):
        raise ValueError("weights must be finite and nonnegative with positive sum")
    t = float(ts[0])
    u = eval_kernels(params, t).u
    wsum = float(np.sum(w))
    factorial = np.ones(r_max + 1)
    raw = np.ones(r_max + 1)
    errs = np.zeros(r_max + 1)
    ff = np.ones_like(ks)
    for r in range(1, r_max + 1):
        ff = ff * (ks - (r - 1))
        mean = float(np.sum(w * ff) / wsum)
        factorial[r] = mean
        raw[r] = float(np.sum(w * ks**r) / wsum)
        errs[r] = math.sqrt(float(np.sum(w**2 * (ff - mean) ** 2)) / wsum**2)
    kappa = np.ones(r_max + 1)
    for r in range(1, r_max + 1):
        if factorial[r] == 0.0:
            kappa[r] = 0.0
        elif u == 0.0:
            raise ValueError("u(t) = 0 but records contain nonzero counts")
        else:
            kappa[r] = factorial[r] / u**r
    return ProbeMoments(
        t=t,
        u=u,
        raw_moments=raw,
        factorial_moments=factorial,
        kappa_moments=kappa,
        mode="empirical",
        std_errors=errs,
    )


def h_function(moments: ProbeMoments, x_grid: np.ndarray) -> HFunctionSamples:
    """Evaluate H(x) = sum_r (-1)^r x^{2r} kappa_r / (2r)! on a grid.

    Terms are accumulated with compensated summation (math.fsum); each sample
    carries a remainder estimate for the truncated series and a cancellation
    estimate (largest term x machine epsilon / result).  A sample is marked
    untrusted when either exceeds 1e-4 (relative) -- for large x N_max the
    alternating series runs out of double-precision trust, or out of terms,
    before it converges.
    """
    x = np.asarray(x_grid, dtype=float)
    if np.any(x < 0) or np.any(x >= 2 * math.pi):
        raise ValueError("x grid must lie in [0, 2 pi)")
    kappa = moments.kappa_moments
    r_max = moments.r_max
    series = np.empty(len(x))
    remainder = np.empty(len(x))
    cancellation = np.empty(len(x))
    # crude growth factor kappa_{r+1} <= kappa_r * n_eff^2 for the remainder
    if r_max >= 1 and kappa[r_max] > 0 and kappa[r_max - 1] > 0:
        n_eff_sq = kappa[r_max] / kappa[r_max - 1]
    else:
        n_eff_sq = 0.0
    for i, xi in enumerate(x):
        terms = []
        for r in range(r_max + 1):
            terms.append((-1.0) ** r * xi ** (2 * r) * kappa[r] / math.factorial(2 * r))
        total = math.fsum(terms)
        series[i] = total
        largest = max(abs(tr) for tr in terms)
        cancellation[i] = largest * np.finfo(float).eps / max(abs(total), 1e-300)
        next_denom = math.factorial(2 * r_max + 2)
        remainder[i] = xi ** (2 * r_max + 2) * kappa[r_max] * n_eff_sq / next_denom
    exact = None
    if moments.n_weights is not None:
        n = np.arange(len(moments.n_weights), dtype=float)
        total_w = float(np.sum(moments.n_weights))
        exact = np.array([float(np.sum(moments.n_weights * np.cos(xi * n))) / total_w for xi in x])
    trusted = (cancellation <= CANCELLATION_TRUST) & (
        remainder <= CANCELLATION_TRUST * np.maximum(1.0, np.abs(series))
    )
    return HFunctionSamples(
        x=x,
        series=series,
        exact=exact,
        remainder_bound=remainder,
        cancellation=cancellation,
        trusted=trusted,
    )


def fourier_coefficients(x: np.ndarray, h: np.ndarray, j_max: int) -> CosineCoefficients:
    """C(j) by quadrature of cos(jx) H(x) over one period.

    Requires a uniform grid x_i = 2 pi i / M covering [0, 2 pi) with at least
    8 points per period of the fastest cosine (M >= 8 j_max); on such a grid
    the rectangle rule is exact for trigonometric content up to M - j_max.
    C(0) uses the 1/(2 pi) normalization, C(j >= 1) the 1/pi one.  Values
    below -1e-4 flag an inconsistent input (bad moments or truncation).
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    m = len(x)
    if m < 2 or len(h) != m:
        raise ValueError("x and h must be equal-length grids")
    dx = 2 * math.pi / m
    if abs(x[0]) > 1e-12 or np.max(np.abs(np.diff(x) - dx)) > 1e-9:
        raise ValueError("x must be the uniform grid 2 pi i / M over [0, 2 pi)")
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    if j_max > 0 and m < 8 * j_max:
        raise ValueError(f"grid too coarse: {m} points for j_max={j_max} (need >= {8 * j_max})")
    values = np.empty(j_max + 1)
    values[0] = float(np.sum(h) * dx / (2 * math.pi))
    for j in range(1, j_max + 1):
        values[j] = float(np.sum(np.cos(j * x) * h) * dx / math.pi)
    flagged = bool(np.any(values < -NEGATIVE_COEFF_TOL))
    return CosineCoefficients(values=values, flagged_inconsistent=flagged)


def reconstruct_marginal(coeffs: CosineCoefficients, n_other: int = 0) -> MarginalRecovery:
    """Recover |A_m|^2 for mode A when mode B was prepared in the number
    state |n_other> (vacuum by default): |A_m|^2 = C(m + n_other)."""
    if n_other < 0 or n_other > coeffs.j_max:
        raise ValueError(f"n_other={n_other} outside the coefficient range")
    moduli = coeffs.values[n_other:].copy()
    total = float(np.sum(moduli))
    return MarginalRecovery(moduli_sq=moduli, total=total, flagged=abs(total - 1.0) > 1e-3)


def classify_special_state(
    moments: ProbeMoments,
    fourier: CosineCoefficients | None = None,
) -> SpecialStateReport:
    """Signature tests on the count statistics.

    * Sharp total photon number (kappa_r = kappa_1^r for all r): the count
      distribution is a single Poissonian, all higher moments carry no new
      information and the individual coefficients are unrecoverable.  This
      covers anti-correlated superpositions on one anti-diagonal.
    * Support on even anti-diagonals only (C(j) = 0 for odd j): consistent
      with a correlated |n, n> superposition; under that preparation class
      |C_{n,n}|^2 = C(2n) is extracted and a two-mode-squeezed ratio fit
      C(2n+2)/C(2n) = tanh^2 r is reported with its residual.
    """
    kappa = moments.kappa_moments
    if moments.r_max < 3:
        raise ValueError("need moments up to r_max >= 3 to classify")
    kappa1 = float(kappa[1])
    sharp = all(
        abs(kappa[r] - kappa1**r) <= SHARP_REL_TOL * max(abs(kappa1) ** r, 1.0)
        for r in range(2, moments.r_max + 1)
    )
    if sharp:
        return SpecialStateReport(
            kind="anti-correlated",
            moment_sharp=True,
            kappa1=kappa1,
            coefficients_recoverable=False,
            recovered_diagonal=None,
            squeeze_r=None,
            squeeze_residual=None,
            message=(
                "total photon number is sharp (N^2 = kappa_1); the individual "
                "coefficients are unrecoverable from the count record"
            ),
        )
    if fourier is None:
        return SpecialStateReport(
            kind="indeterminate",
            moment_sharp=False,
            kappa1=kappa1,
            coefficients_recoverable=False,
            recovered_diagonal=None,
            squeeze_r=None,
            squeeze_residual=None,
            message="moments are not sharp; cosine coefficients needed to probe support",
        )
    c = fourier.values
    scale = float(np.max(np.abs(c))) or 1.0
    odd_mass = float(np.max(np.abs(c[1::2]))) if len(c) > 1 else 0.0
    if odd_mass > 1e-6 * scale:
        return SpecialStateReport(
            kind="indeterminate",
            moment_sharp=False,
            kappa1=kappa1,
            coefficients_recoverable=False,
            recovered_diagonal=None,
            squeeze_r=None,
            squeeze_residual=None,
            message="support on odd anti-diagonals; no special-state signature matched",
        )
    recovered = {j // 2: float(c[j]) for j in range(0, len(c), 2) if c[j] > SUPPORT_FLOOR}
    pairs = [
        (c[2 * n], c[2 * n + 2])
        for n in range(0, (len(c) - 3) // 2 + 1)
        if c[2 * n] > SUPPORT_FLOOR and c[2 * n + 2] > SUPPORT_FLOOR
    ]
    squeeze_r = None
    residual = None
    if len(pairs) >= 1:
        lo = np.array([p[0] for p in pairs])
        hi = np.array([p[1] for p in pairs])
        tanh_sq = float(np.sum(hi * lo) / np.sum(lo**2))  # regression through origin
        if 0.0 < tanh_sq < 1.0:
            squeeze_r = math.atanh(math.sqrt(tanh_sq))
            residual = float(np.max(np.abs(hi - tanh_sq * lo)))
    return SpecialStateReport(
        kind="correlated-support",
        moment_sharp=False,
        kappa1=kappa1,
        coefficients_recoverable=True,
        recovered_diagonal=recovered,
        squeeze_r=squeeze_r,
        squeeze_residual=residual,
        message="support on even anti-diagonals; diagonal moduli extracted as C(2n)",
    )


def probe_report(
    moments: ProbeMoments,
    x_points: int = 512,
    j_max: int | None = None,
    marginal_n_other: int | None = None,
) -> ProbeReport:
    """Full pipeline: H samples, cosine coefficients, classification and
    (optionally) a marginal reconstruction assuming mode B held a known
    number state."""
    if j_max is None:
        if moments.n_weights is None:
            raise ValueError("j_max is required for empirical moments")
        j_max = len(moments.n_weights) - 1
    aliased = False
    if moments.n_weights is not None and j_max < len(moments.n_weights) - 1:
        aliased = bool(np.any(moments.n_weights[j_max + 1 :] > 1e-12))
    m = max(x_points, 8 * j_max, 2)
    x = np.arange(m) * (2 * math.pi / m)
    h = h_function(moments, x)
    fourier = fourier_coefficients(x, h.values, j_max)
    classification = classify_special_state(moments, fourier)
    reconstruction = None
    if marginal_n_other is not None:
        reconstruction = reconstruct_marginal(fourier, marginal_n_other)
    return ProbeReport(
        moments=moments,
        h_samples=h,
        fourier=fourier,
        classification=classification,
        reconstruction=reconstruction,
        aliased=aliased,
    )
