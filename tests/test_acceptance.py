"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Criterion 5 is split in two: the monotonicity/purity clauses, and the
high-count excess-entropy threshold.  The threshold clause is implemented
exactly as stated and is expected RED: with the coupling ratio fitted from
the peak-time sequence (criterion 1), the conditioned state's excess entropy
at k = 10 is 0.69679.  That value is converged in the cutoff (0.6967948 at
eps_trunc 1e-14, d = 31, and at 1e-16, d = 34); the fitted model reproduces
the peak times for k = 2..10 (criterion 1) and the closed-form density
matches the three-mode oracle for k <= 2 (criterion 3).  The threshold is
first crossed at k = 24 (0.9083; k = 23 gives 0.8978).
"""

import math

import numpy as np
from scipy.optimize import brentq

from photoent import (
    ModelParams,
    entanglement_report,
    entanglement_scan,
    make_coherent_product,
    make_number_state,
    make_superposition,
    make_two_mode_squeezed,
    most_probable_time,
    number_weights,
    pm_mean_variance,
    postselect_density,
    separable_benchmark,
)
from photoent.oracle import mc_count_histogram, nt_oracle_point
from photoent.photocount import count_cutoff, count_distribution_row, count_probability
from photoent.probe import (
    analytic_moments,
    classify_special_state,
    fourier_coefficients,
    h_function,
    probe_report,
    reconstruct_marginal,
)
from photoent.projective import (
    coherent_count_moments,
    infer_total_mean_photons,
    pm_count_cutoff,
    pm_distribution_row,
)
from photoent.fock import TwoModeDensity

from conftest import random_state
from crosschecks import conditioned_trace, single_factorial_series

CAPTION_PEAKS = {
    1: 0.32,
    2: 0.4,
    3: 0.46,
    4: 0.51,
    5: 0.55,
    6: 0.59,
    7: 0.62,
    8: 0.65,
    9: 0.68,
    10: 0.71,
}

_FIT_CACHE = {}


def reference_state():
    return make_coherent_product(math.sqrt(5.0), math.sqrt(5.0), eps_trunc=1e-14)


def fitted_coupling_ratio() -> float:
    """chi/gamma such that the k = 1 count peak sits at gamma t = 0.32."""
    if "ratio" not in _FIT_CACHE:
        state = reference_state()

        def peak_error(ratio):
            params = ModelParams(lam=0.0, chi=ratio, gamma=1.0)
            return most_probable_time(state, params, 1) - CAPTION_PEAKS[1]

        _FIT_CACHE["ratio"] = brentq(peak_error, 0.3, 3.0, xtol=1e-10)
    return _FIT_CACHE["ratio"]


def test_criterion_1_peak_time_sequence():
    state = reference_state()
    ratio = fitted_coupling_ratio()
    params = ModelParams(lam=0.0, chi=ratio, gamma=1.0)
    worst = 0.0
    for k in range(2, 11):
        t_m = most_probable_time(state, params, k)
        worst = max(worst, abs(t_m - CAPTION_PEAKS[k]))
        assert abs(t_m - CAPTION_PEAKS[k]) <= 0.02, (k, t_m)
    print(
        f"criterion 1 (peak-time sequence, fitted chi/gamma={ratio:.4f}, "
        f"max |d(gamma t)|={worst:.4f}): PASS"
    )


def test_criterion_2_normalization():
    params = ModelParams(lam=0.0, chi=0.5, gamma=1.0)
    states = [
        make_number_state(2, 1, 4, 4),
        make_coherent_product(math.sqrt(5.0), math.sqrt(5.0), eps_trunc=1e-12),
        make_superposition([(0, 0, 1), (1, 1, 1)]),
    ]
    for state in states:
        for gamma_t in np.linspace(0.0, 5.0, 50):
            t = gamma_t / params.gamma
            row_pm = pm_distribution_row(state, params.chi, t, pm_count_cutoff(state, params.chi, t))
            assert abs(math.fsum(row_pm) - 1.0) <= 1e-9
            row_ct = count_distribution_row(state, params, t, count_cutoff(state, params, t))
            assert abs(math.fsum(row_ct) - 1.0) <= 1e-9
    print("criterion 2 (count-distribution normalization, both measurement models): PASS")


def test_criterion_3_oracle_equivalence():
    params = ModelParams(lam=0.3, chi=0.5, gamma=1.0)
    state = make_superposition([(1, 0, 1.0), (0, 2, 1.0), (2, 2, 1.0)])  # N in {1, 2, 4}
    t = 2.0
    for k in (0, 1, 2):
        p_closed = count_probability(state, params, t, k)
        p_oracle, rho_oracle = nt_oracle_point(state, params, t, k)
        assert abs(p_closed - p_oracle) <= 1e-6, (k, p_closed, p_oracle)
        rho_closed = postselect_density(state, params, t, k)
        assert np.max(np.abs(rho_closed.rho - rho_oracle.rho)) <= 1e-6, k
        got, want = entanglement_report(rho_oracle), entanglement_report(rho_closed)
        assert abs(got.excess - want.excess) <= 1e-6, (k, got, want)
        assert abs(got.s_ab - want.s_ab) <= 1e-6, (k, got, want)
    hist = mc_count_histogram(state, params, t, 100_000, seed=42)
    n = int(hist.sum())
    for k in (3, 4, 5):
        p_closed = count_probability(state, params, t, k)
        est = hist[k] / n
        se = math.sqrt(max(est * (1.0 - est), 1e-12) / n)
        assert abs(est - p_closed) <= 3.0 * se, (k, est, p_closed, se)
    print("criterion 3 (closed forms vs direct counting oracle, quadrature + MC): PASS")


def test_criterion_4_projective_identities(rng):
    chi = 0.8
    # variance-mean gap identity on random states
    for _ in range(10):
        state = random_state(rng, 5, 5)
        t = float(rng.uniform(0.1, 2.0))
        k_mean, k_var = pm_mean_variance(state, chi, t)
        weights = number_weights(state)
        n = np.arange(len(weights), dtype=float)
        var_n2 = float(np.sum(weights * n**4) - np.sum(weights * n**2) ** 2)
        assert abs((k_var - k_mean) - (chi * t) ** 4 * var_n2) <= 1e-9
    # number states: exactly Poissonian counts
    for m, n_b in [(0, 1), (2, 2), (3, 1)]:
        state = make_number_state(m, n_b, 5, 5)
        k_mean, k_var = pm_mean_variance(state, chi, 1.3)
        assert abs(k_var - k_mean) <= 1e-10
    # intensity inference round trip, time independent
    for f in range(1, 21):
        estimates = []
        for t in (0.05, 0.3, 1.7):
            k_mean, excess = coherent_count_moments(float(f), chi, t)
            estimates.append(infer_total_mean_photons(k_mean, excess, chi, t))
        for est in estimates:
            assert abs(est - f) <= 1e-9
    print("criterion 4 (projective moment identities and intensity inference): PASS")


def test_criterion_5_entanglement_behavior():
    state = reference_state()
    ratio = fitted_coupling_ratio()
    params = ModelParams(lam=0.0, chi=ratio, gamma=1.0)
    rows = entanglement_scan(state, params, list(range(11)))
    excess_tm = [r.excess_at_tm for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(excess_tm, excess_tm[1:])), excess_tm
    shorts = [r.excess_short_time for r in rows]
    assert abs(shorts[0]) <= 1e-10
    assert all(b > a for a, b in zip(shorts, shorts[1:]))
    for r in rows[1:]:
        assert 0.0 < r.s_ab_at_tm < 1.0
    for k in (0, 1, 2):
        rho = postselect_density(state, params, 1e-4 / params.gamma, k)
        assert entanglement_report(rho).s_ab <= 1e-6
    assert separable_benchmark(2, 2) == (0.25, 0.75)
    print("criterion 5a (conditioned-entanglement monotonicity and purity): PASS")


def test_criterion_5_high_count_excess_threshold():
    # Stated threshold: the excess entropy at the most probable time should
    # exceed 0.9 by k = 10.  The cutoff-converged computation gives ~0.697 at
    # the fitted coupling ratio, so this is RED (see the module docstring).
    state = reference_state()
    ratio = fitted_coupling_ratio()
    params = ModelParams(lam=0.0, chi=ratio, gamma=1.0)
    t_m = most_probable_time(state, params, 10)
    excess = entanglement_report(postselect_density(state, params, t_m, 10)).excess
    outcome = "PASS" if excess > 0.9 else "FAIL"
    print(f"criterion 5b (excess entropy > 0.9 by k = 10): measured {excess:.4f} -> {outcome}")
    assert excess > 0.9, (
        f"excess entropy at k=10 is {excess:.4f} <= 0.9 at the fitted coupling "
        f"ratio {ratio:.4f}; see notes in the README/acceptance docstring"
    )


def test_criterion_6_probe_round_trip(rng):
    params = ModelParams(lam=0.0, chi=0.5, gamma=1.0)
    t = 1.0

    def coefficients(source, j_max):
        moments = analytic_moments(source, params, t)
        m = max(256, 8 * j_max)
        x = np.arange(m) * (2 * math.pi / m)
        return fourier_coefficients(x, h_function(moments, x).exact, j_max)

    # anti-diagonal sums for 20 random states with N_max <= 8
    for _ in range(20):
        state = random_state(rng, 5, 5)
        weights = number_weights(state)
        c = coefficients(state, len(weights) - 1)
        assert np.max(np.abs(c.values - weights)) <= 1e-6
    # coherent (x) vacuum marginal recovery
    coh = make_coherent_product(1.0, 0.0, eps_trunc=1e-12)
    rec = reconstruct_marginal(coefficients(coh, coh.d_a + coh.d_b - 2))
    for m_i in range(coh.d_a):
        assert abs(rec.moduli_sq[m_i] - math.exp(-1.0) / math.factorial(m_i)) <= 1e-8
    # two-mode squeezed ratio fit
    tms = make_two_mode_squeezed(0.5, 8)
    rep = probe_report(analytic_moments(tms, params, t)).classification
    assert abs(rep.squeeze_r - 0.5) <= 1e-6
    # anti-correlated state: sharp moments, unrecoverable verdict
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    anti = make_superposition([(4 - n, n, coeffs[n]) for n in range(5)])
    moments = analytic_moments(anti, params, t)
    kappa1 = moments.kappa_moments[1]
    for r in range(1, moments.r_max + 1):
        assert abs(moments.kappa_moments[r] - kappa1**r) <= 1e-9 * kappa1**r
    verdict = classify_special_state(moments)
    assert not verdict.coefficients_recoverable
    assert "unrecoverable" in verdict.message
    # information ceiling: pure correlated state vs its diagonal mixture
    pure = make_two_mode_squeezed(0.4, 6)
    diag = np.zeros(pure.d_a * pure.d_b)
    for n in range(7):
        diag[n * pure.d_b + n] = np.abs(pure.coeffs[n, n]) ** 2
    mixed = TwoModeDensity(np.diag(diag.astype(complex)), pure.d_a, pure.d_b)
    rep_pure = probe_report(analytic_moments(pure, params, t))
    rep_mixed = probe_report(analytic_moments(mixed, params, t))
    assert np.array_equal(rep_pure.h_samples.values, rep_mixed.h_samples.values)
    assert np.array_equal(rep_pure.fourier.values, rep_mixed.fourier.values)
    assert rep_pure.classification == rep_mixed.classification
    print("criterion 6 (probe round trip, reconstruction, information ceiling): PASS")


def test_criterion_7_typo_regression_guards():
    params = ModelParams(lam=0.0, chi=0.5, gamma=1.0)
    # damping-kernel sign: the positive-exponent variant breaks normalization
    state = make_superposition([(0, 0, 1), (1, 1, 1)])
    for gamma_t in (0.5, 1.0, 2.0):
        t = gamma_t / params.gamma
        k_max = count_cutoff(state, params, t)
        good = math.fsum(conditioned_trace(state, params, t, k) for k in range(k_max + 1))
        bad = math.fsum(
            conditioned_trace(state, params, t, k, exponent_sign=+1.0) for k in range(k_max + 1)
        )
        assert abs(good - 1.0) <= 1e-9
        assert abs(bad - 1.0) > 1e-3, (gamma_t, bad)
    # factorial denominator: r! instead of (2r)! breaks the cosine round trip
    single = make_number_state(1, 0, 2, 2)
    moments = analytic_moments(single, params, 1.0, r_max=12)
    m = 64
    x = np.arange(m) * (2 * math.pi / m)
    good_c = fourier_coefficients(x, h_function(moments, x).series, j_max=2)
    bad_c = fourier_coefficients(x, single_factorial_series(moments, x), j_max=2)
    assert abs(good_c.values[1] - 1.0) <= 1e-4
    assert abs(bad_c.values[1] - 1.0) > 0.5
    print("criterion 7 (typo regression guards: damping sign, factorial denominator): PASS")
