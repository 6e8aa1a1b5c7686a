import math
import re

import numpy as np
import pytest

from photoent import (
    apply_beam_splitter,
    density_from_pure,
    entanglement_report,
    make_coherent_product,
    make_number_state,
    make_superposition,
    number_weights,
    pm_postselect,
    pm_probability,
)
from photoent.fock import MAX_ENTRIES, ImpossibleOutcomeError, ResourceLimitError, fix_global_phase
from photoent.projective import (
    DegenerateEstimatorError,
    NonPhysicalInferenceWarning,
    _pm_u,
    coherent_count_moments,
    infer_total_mean_photons,
    mixture_moments,
    mixture_pmf_row,
    mixture_table,
    pm_count_cutoff,
    sample_mixture,
    sector_means,
)

from conftest import random_state


class TestProbability:
    def test_no_interaction_yet(self, rng):
        s = random_state(rng, 4, 4)
        assert abs(pm_probability(s, 1.0, 0.0, 0) - 1.0) < 1e-12
        assert pm_probability(s, 1.0, 0.0, 3) == 0.0

    def test_single_excitation_zero_counts(self):
        s = make_number_state(1, 0, 3, 3)
        assert abs(pm_probability(s, 1.0, 1.0, 0) - 0.36787944117144233) < 1e-15

    @pytest.mark.parametrize("m,n", [(0, 0), (1, 2), (3, 1)])
    def test_number_states_are_poissonian(self, m, n):
        s = make_number_state(m, n, 5, 5)
        chi, t = 0.8, 0.9
        mu = (chi * t) ** 2 * (m + n) ** 2
        for k in range(6):
            expected = mu**k * math.exp(-mu) / math.factorial(k) if mu > 0 else float(k == 0)
            assert abs(pm_probability(s, chi, t, k) - expected) < 1e-12

    def test_normalization_with_adaptive_cutoff(self, rng):
        states = [
            make_number_state(2, 1, 4, 4),
            make_coherent_product(math.sqrt(5), math.sqrt(5), eps_trunc=1e-10),
            random_state(rng, 6, 6),
        ]
        for s in states:
            for t in (0.0, 0.3, 1.0, 2.5):
                kmax = pm_count_cutoff(s, 1.0, t)
                total = math.fsum(pm_probability(s, 1.0, t, k) for k in range(kmax + 1))
                assert abs(total - (1.0 - s.trunc_weight)) < 1e-9

    def test_invariant_under_prior_exchange_evolution(self, rng):
        # counting statistics depend only on the total photon number
        for _ in range(5):
            s = random_state(rng, 5, 5)
            rotated = apply_beam_splitter(s, 1.7, 0.6)
            for k in (0, 1, 3):
                assert abs(
                    pm_probability(s, 0.9, 0.8, k) - pm_probability(rotated, 0.9, 0.8, k)
                ) < 1e-10


class TestPostselect:
    def test_number_state_input_is_k_independent(self):
        s = make_number_state(1, 2, 5, 5)
        lam, chi, t = 0.8, 0.7, 0.9
        expected = fix_global_phase(apply_beam_splitter(s, lam, t).coeffs)
        for k in (0, 1, 4):
            out = pm_postselect(s, lam, chi, t, k)
            assert np.max(np.abs(out.post_state.coeffs - expected)) < 1e-12
            assert abs(np.linalg.norm(out.post_state.coeffs) - 1.0) < 1e-10

    def test_zero_counts_weak_coupling_stays_product(self):
        s = make_coherent_product(1.0, 0.8, eps_trunc=1e-12)
        out = pm_postselect(s, 0.5, 1.0, 1e-5, 0)
        rep = entanglement_report(density_from_pure(out.post_state))
        assert abs(rep.excess) < 1e-8

    def test_paper_scale_coherent_matches_direct_construction(self):
        s = make_coherent_product(math.sqrt(5), math.sqrt(5), eps_trunc=1e-12)
        chi, t, k = 1.0, 0.1, 3
        out = pm_postselect(s, 0.0, chi, t, k)
        totals = (np.arange(s.d_a)[:, None] + np.arange(s.d_b)[None, :]).astype(float)
        direct = (chi * t * totals) ** k * np.exp(-((chi * t) ** 2) * totals**2 / 2) * s.coeffs
        direct = fix_global_phase(direct / np.linalg.norm(direct))
        assert np.max(np.abs(out.post_state.coeffs - direct)) < 1e-12
        rep = entanglement_report(density_from_pure(out.post_state))
        assert rep.excess > 0.01
        assert rep.s_ab < 1e-10  # projective conditioning keeps the state pure

    def test_probability_matches_pm_probability(self, rng):
        s = random_state(rng, 5, 4)
        out = pm_postselect(s, 0.3, 0.9, 0.7, 2)
        assert out.probability == pm_probability(s, 0.9, 0.7, 2)

    def test_impossible_outcome_raises(self):
        vac = make_number_state(0, 0, 2, 2)
        with pytest.raises(ImpossibleOutcomeError):
            pm_postselect(vac, 0.0, 1.0, 1.0, 1)


class TestMoments:
    def test_number_state_variance_equals_mean(self):
        for m, n in [(0, 1), (2, 2), (3, 0)]:
            s = make_number_state(m, n, 5, 5)
            k_mean, k_var = mixture_moments(s, (0.7 * 1.1) ** 2)
            assert abs(k_mean - 0.7**2 * 1.1**2 * (m + n) ** 2) < 1e-12
            assert abs(k_var - k_mean) < 1e-10

    def test_paper_scale_coherent_moments(self):
        # F = 10, chi t = 0.1: mean 1.1, variance 1.1 + 0.461
        s = make_coherent_product(math.sqrt(5), math.sqrt(5), eps_trunc=1e-14)
        k_mean, k_var = mixture_moments(s, 0.1**2)
        assert abs(k_mean - 1.1) < 1e-9
        assert abs((k_var - k_mean) - 0.461) < 1e-9

    def test_variance_identity_against_direct_summation(self, rng):
        for _ in range(5):
            s = random_state(rng, 5, 5)
            chi, t = 0.6, 0.9
            k_mean, k_var = mixture_moments(s, (chi * t) ** 2)
            kmax = pm_count_cutoff(s, chi, t, tail=1e-14)
            ks = np.arange(kmax + 1)
            probs = np.array([pm_probability(s, chi, t, int(k)) for k in ks])
            mean_direct = float(np.sum(ks * probs))
            var_direct = float(np.sum(ks**2 * probs)) - mean_direct**2
            assert abs(k_mean - mean_direct) < 1e-9
            assert abs(k_var - var_direct) < 1e-9

    def test_variance_mean_gap_is_number_moment_spread(self, rng):
        # Var(k) - k_mean = (chi t)^4 Var(N^2) for every state
        for _ in range(5):
            s = random_state(rng, 6, 4)
            chi, t = 0.5, 1.3
            k_mean, k_var = mixture_moments(s, (chi * t) ** 2)
            weights = number_weights(s)
            n = np.arange(len(weights), dtype=float)
            var_n2 = float(np.sum(weights * n**4) - np.sum(weights * n**2) ** 2)
            assert abs((k_var - k_mean) - (chi * t) ** 4 * var_n2) < 1e-9

    def test_mixed_states_overdispersed(self):
        s = make_superposition([(0, 1, 1.0), (2, 2, 1.0)])  # Var(N^2) > 0
        k_mean, k_var = mixture_moments(s, (0.7 * 0.8) ** 2)
        assert k_var > k_mean


class TestInferTotalMeanPhotons:
    def test_worked_example(self):
        assert abs(infer_total_mean_photons(1.1, 0.461, 1.0, 0.1) - 10.0) < 1e-12

    def test_vacuum_limit_is_zero_not_error(self):
        # k_mean = 0: denominator -1, numerator 0
        assert infer_total_mean_photons(0.0, 0.0, 1.0, 0.5) == 0.0

    def test_degenerate_denominator_raises(self):
        chi, t = 1.0, 1.0
        k_mean = (chi * t) ** 2 / 4.0
        with pytest.raises(DegenerateEstimatorError):
            infer_total_mean_photons(k_mean, 0.3, chi, t)

    def test_negative_result_warns(self):
        with pytest.warns(NonPhysicalInferenceWarning):
            f = infer_total_mean_photons(1.0, 0.0, 1.0, 1.0)
        assert f < 0

    def test_algebraic_round_trip(self):
        chi = 1.0
        for f in range(1, 21):
            for t in (0.05, 0.3, 1.7):
                k_mean, excess = coherent_count_moments(float(f), chi, t)
                assert abs(infer_total_mean_photons(k_mean, excess, chi, t) - f) < 1e-9

    def test_composition_with_measured_moments(self):
        # time independence of the estimate from actual state moments
        f = 4.0
        s = make_coherent_product(math.sqrt(2), math.sqrt(2), eps_trunc=1e-16)
        for t in (0.05, 0.2, 0.8):
            k_mean, k_var = mixture_moments(s, t**2)
            assert abs(infer_total_mean_photons(k_mean, k_var - k_mean, 1.0, t) - f) < 1e-9


def test_distribution_row_matches_scalar_form(rng):
    s = random_state(rng, 4, 5)
    row = mixture_table(s, [(0.8 * 0.9) ** 2], 12)[0]
    for k in range(13):
        assert abs(row[k] - pm_probability(s, 0.8, 0.9, k)) < 1e-15


def test_table_is_bitwise_the_rows():
    # one pass over the sector weights for every row, the same numbers
    s = make_coherent_product(2.0, 1.5 + 0.5j, eps_trunc=1e-12)
    times = [0.0, 0.3, 1.0, 2.5]
    table = mixture_table(s, [_pm_u(0.9, t) for t in times], 40)
    assert np.array_equal(table, [mixture_pmf_row(*sector_means(s, _pm_u(0.9, t)), 40) for t in times])


def test_sizes_beyond_the_budget_raise_before_allocating():
    s = make_coherent_product(2.0, 1.5, eps_trunc=1e-12)
    sectors = s.n_max + 1
    k_max = MAX_ENTRIES // sectors  # one row more than the budget allows
    with pytest.raises(ResourceLimitError, match=rf"the count table of k = 0..{k_max} over {sectors} sectors"):
        mixture_table(s, [1.0], k_max)
    assert mixture_table(s, [1.0], k_max - 1).shape == (1, k_max)
    with pytest.raises(ResourceLimitError, match=r"n_samples asks for 10,000,001 entries, beyond the budget of 10,000,000"):
        sample_mixture(s, 1.0, MAX_ENTRIES + 1, seed=1)


def test_count_cutoff_follows_the_populated_sectors():
    # README state at eps_trunc 1e-14 (d = 31), chi t = 0.967 * 2
    from photoent.projective import k_cutoff

    s = make_coherent_product(math.sqrt(5), math.sqrt(5), eps_trunc=1e-14)
    chi, t = 0.967, 2.0
    kmax = pm_count_cutoff(s, chi, t)
    assert kmax == 5778
    assert k_cutoff((chi * t * s.n_max) ** 2) == 14292
    row = mixture_table(s, [(chi * t) ** 2], kmax)[0]
    assert abs(math.fsum(row) - (1.0 - s.trunc_weight)) <= 2e-12  # tail + rounding


def test_sampling_is_seed_reproducible():
    s = make_coherent_product(1.0, 1.0, eps_trunc=1e-10)
    a = sample_mixture(s, 0.5**2, 200, seed=11)
    b = sample_mixture(s, 0.5**2, 200, seed=11)
    assert np.array_equal(a, b)
    c = sample_mixture(s, 0.5**2, 200, seed=12)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("chi", [math.nan, math.inf, 0.0, -0.5])
@pytest.mark.parametrize(
    "call",
    [
        lambda s, chi: pm_probability(s, chi, 1.0, 1),
        lambda s, chi: mixture_table(s, [_pm_u(chi, 1.0)], 4),
        lambda s, chi: pm_count_cutoff(s, chi, 1.0),
        lambda s, chi: mixture_moments(s, _pm_u(chi, 1.0)),
        lambda s, chi: pm_postselect(s, 0.1, chi, 1.0, 1),
        lambda s, chi: sample_mixture(s, _pm_u(chi, 1.0), 10, seed=1),
    ],
    ids=["probability", "distribution_row", "count_cutoff", "mean_variance", "postselect", "sample"],
)
def test_bad_chi_rejected(call, chi):
    # ModelParams rejects these; the readout functions take a bare chi, and
    # the projective readout's rows, moments and samples take the mixture
    # core at `_pm_u(chi, t)`, as `pm-dist` builds its table
    with pytest.raises(ValueError, match="chi must be finite and > 0"):
        call(make_superposition([(1, 0, 1.0), (1, 1, 1.0)]), chi)


@pytest.mark.parametrize(
    ("chi", "t", "match"),
    [(chi, 1.0, "chi must be finite and > 0") for chi in (math.nan, math.inf, 0.0, -0.5)]
    + [(1.0, t, "t must be finite and >= 0") for t in (math.nan, math.inf, -1.0)],
)
@pytest.mark.parametrize(
    "call",
    [lambda chi, t: infer_total_mean_photons(1.0, 1.0, chi, t), lambda chi, t: coherent_count_moments(2.0, chi, t)],
    ids=["infer", "moments"],
)
def test_coherent_product_estimator_checks_chi_and_t(call, chi, t, match):
    # before the check, chi = inf gave F = -0.0 and chi = -1 a finite pair
    with pytest.raises(ValueError, match=match):
        call(chi, t)


# name: (call, whether it squares u = (chi t)^2 as the moment formulas do);
# `mixture_moments` takes u itself, formed as a product since ** would raise
# OverflowError
OVERFLOW_CALLS = {
    "probability": (lambda s, chi, t: pm_probability(s, chi, t, 1), False),
    "count_cutoff": (lambda s, chi, t: pm_count_cutoff(s, chi, t), False),
    "postselect": (lambda s, chi, t: pm_postselect(s, 0.1, chi, t, 1), False),
    "infer": (lambda s, chi, t: infer_total_mean_photons(1.0, 1.0, chi, t), True),
    "moments": (lambda s, chi, t: coherent_count_moments(2.0, chi, t), True),
    "mean_variance": (lambda s, chi, t: mixture_moments(s, chi * t * (chi * t)), True),
}


@pytest.mark.parametrize(
    ("call", "chi", "t"),
    [
        (name, chi, t)
        for name, (_, squares_u) in OVERFLOW_CALLS.items()
        for chi, t in [(1e200, 1.0), (1.0, 1e200), (1e155, 1e155)]
        + ([(1e100, 1.0), (1.0, 1e100), (2.0**256, 1.0)] if squares_u else [])
    ],
)
def test_overflowing_chi_t_rejected(call, chi, t):
    # finite chi and t whose (chi t)^2 overflows: 1e200 used to raise
    # OverflowError, and 1e155 * 1e155 gave NaN with RuntimeWarnings only;
    # the moment formulas square (chi t)^2 once more, so from chi t = 2^256
    # on they raised OverflowError
    name, (call, squares_u) = call, OVERFLOW_CALLS[call]
    message = f"(chi t)^{4 if squares_u else 2} must be finite, got chi={chi!r} and t={t!r}"
    if name == "mean_variance":  # the mixture core names u
        message = f"u and u^2 must be finite, got u={chi * t * (chi * t)!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(make_superposition([(1, 0, 1.0), (1, 1, 1.0)]), chi, t)


def test_moments_just_below_the_overflow():
    s = make_superposition([(1, 0, 1.0), (1, 1, 1.0)])
    assert all(math.isfinite(v) for v in coherent_count_moments(0.5, 2.0**255, 1.0))
    assert all(math.isfinite(v) for v in mixture_moments(s, 2.0**500))


@pytest.mark.parametrize("u", [1e200, math.inf, math.nan])
def test_moments_reject_u_whose_square_is_not_finite(u):
    # one check for both readouts: u = (chi t)^2 or 2 g(t)
    with pytest.raises(ValueError, match=re.escape(f"u and u^2 must be finite, got u={u!r}")):
        mixture_moments(make_superposition([(1, 0, 1.0), (1, 1, 1.0)]), u)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_coherent_product_estimator_checks_its_moments(bad):
    with pytest.raises(ValueError, match="must be finite"):
        infer_total_mean_photons(bad, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="must be finite"):
        infer_total_mean_photons(1.0, bad, 1.0, 1.0)
    with pytest.raises(ValueError, match="f must be finite"):
        coherent_count_moments(bad, 1.0, 1.0)
    with pytest.raises(ValueError, match="f must be finite and >= 0"):
        coherent_count_moments(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="chi \\* t must be nonzero"):
        infer_total_mean_photons(1.0, 1.0, 1.0, 0.0)
