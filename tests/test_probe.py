import dataclasses
import math

import numpy as np
import pytest

from photoent import (
    DephasedState,
    ModelParams,
    density_from_pure,
    make_coherent_product,
    make_number_state,
    make_superposition,
    make_two_mode_squeezed,
    number_weights,
    sample_counts,
)
from photoent.photocount import eval_kernels
from photoent.probe import (
    analytic_moments,
    classify_special_state,
    empirical_moments,
    fourier_coefficients,
    h_function,
    probe_report,
    reconstruct_marginal,
)
from photoent.projective import mixture_moments

from conftest import random_state
from crosschecks import single_factorial_series

P = ModelParams(lam=0.0, chi=0.5, gamma=1.0)


def uniform_grid(m):
    return np.arange(m) * (2 * math.pi / m)


class TestAnalyticMoments:
    def test_vacuum_all_zero(self):
        mom = analytic_moments(make_number_state(0, 0, 2, 2), P, 1.0, r_max=5)
        assert np.all(mom.raw_moments[1:] == 0)
        assert np.all(mom.kappa_moments[1:] == 0)
        assert mom.kappa_moments[0] == 1.0

    def test_number_state_powers(self):
        s = make_number_state(1, 2, 4, 4)
        mom = analytic_moments(s, P, 0.8, r_max=6)
        for r in range(7):
            assert abs(mom.kappa_moments[r] - 9.0**r) < 1e-9 * 9.0**r + 1e-12

    def test_coherent_first_moment_matches_projective_route(self):
        s = make_coherent_product(math.sqrt(5), math.sqrt(5), eps_trunc=1e-14)
        mom = analytic_moments(s, P, 0.9, r_max=3)
        assert abs(mom.kappa_moments[1] - 110.0) < 1e-8
        chi_t = 0.37
        k_mean, _ = mixture_moments(s, chi_t**2)
        assert abs(mom.kappa_moments[1] - k_mean / chi_t**2) < 1e-8

    def test_factorial_exactness_at_all_times(self, rng):
        for t in (1e-3, 0.3, 2.0, 14.0):
            s = random_state(rng, 5, 5)
            mom = analytic_moments(s, P, t, r_max=8)
            u = eval_kernels(P, t).u
            weights = number_weights(s)
            n = np.arange(len(weights), dtype=float)
            for r in range(9):
                direct = float(np.sum(weights * n ** (2 * r)))
                assert abs(mom.factorial_moments[r] - u**r * direct) <= 1e-9 * max(
                    u**r * direct, 1e-12
                )
                assert abs(mom.kappa_moments[r] - direct) <= 1e-9 * max(direct, 1.0)

    def test_raw_moments_against_direct_summation(self):
        from scipy.stats import poisson

        s = make_superposition([(0, 0, 1), (1, 1, 1)])
        t = 1.1
        mom = analytic_moments(s, P, t, r_max=4)
        u = eval_kernels(P, t).u
        ks = np.arange(200)
        pmf = 0.5 * (ks == 0) + 0.5 * poisson.pmf(ks, 4 * u)
        for r in range(5):
            direct = float(np.sum(ks.astype(float) ** r * pmf))
            assert abs(mom.raw_moments[r] - direct) < 1e-9 * max(direct, 1.0)

    def test_zero_time_is_degenerate_but_exact(self):
        s = make_number_state(2, 1, 4, 4)
        mom = analytic_moments(s, P, 0.0, r_max=4)
        assert mom.degenerate
        assert np.all(mom.factorial_moments[1:] == 0)
        for r in range(5):
            assert mom.kappa_moments[r] == 9.0**r

    def test_r_max_bound(self):
        state = make_number_state(0, 0, 2, 2)
        records = np.array([[1.0, 1.0], [2.0, 1.0]])
        for r_max in (13, -1, 2.5, True):
            with pytest.raises(ValueError, match="r_max"):
                analytic_moments(state, P, 1.0, r_max=r_max)
            with pytest.raises(ValueError, match="r_max"):
                empirical_moments(records, P, r_max=r_max)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -0.5])
    def test_bad_time_rejected(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            analytic_moments(make_number_state(1, 0, 2, 2), P, t)

    def test_pure_density_gives_the_moments_of_its_state(self, rng):
        s = random_state(rng, 4, 5)
        pure, dense = analytic_moments(s, P, 0.7), analytic_moments(density_from_pure(s), P, 0.7)
        for field in dataclasses.fields(pure):
            a, b = getattr(pure, field.name), getattr(dense, field.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name


class TestEmpiricalMoments:
    def test_all_zero_records(self):
        records = np.column_stack([np.zeros(50), np.full(50, 1.0)])
        mom = empirical_moments(records, P, r_max=4)
        assert np.all(mom.kappa_moments[1:] == 0)

    def test_seeded_samples_recover_sharp_moment(self):
        s = make_number_state(1, 1, 3, 3)
        t = 1.0
        n = 100_000
        ks = sample_counts(s, P, t, n, seed=31)
        records = np.column_stack([ks, np.full(n, t)])
        mom = empirical_moments(records, P, r_max=3)
        se = mom.std_errors[1] / mom.u
        assert abs(mom.kappa_moments[1] - 4.0) <= 3.0 * se

    def test_anti_correlated_counts_have_poisson_dispersion(self):
        s = make_superposition([(2, 0, 0.6), (1, 1, 1.0), (0, 2, 0.8)])
        t = 1.2
        n = 100_000
        ks = sample_counts(s, P, t, n, seed=77)
        records = np.column_stack([ks, np.full(n, t)])
        mom = empirical_moments(records, P, r_max=2)
        mean = mom.raw_moments[1]
        var = mom.raw_moments[2] - mean**2
        # Poissonian: Var(k) = mean(k); allow 5 sigma of the dispersion estimator
        se = math.sqrt(2.0 * mean**2 / n + mean / n)
        assert abs(var - mean) <= 5.0 * se

    def test_mixed_times_rejected(self):
        records = np.array([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="per-time"):
            empirical_moments(records, P)

    @pytest.mark.parametrize(
        "records, match",
        [
            ([[1.5, 1.0], [1.0, 1.0], [3.0, 1.0]], "counts"),
            ([[1.0, 1.0], [-2.0, 1.0], [3.0, 1.0]], "counts"),
            ([[1.0, 1.0], [math.nan, 1.0]], "counts"),
            ([[1.0, 1.0], [math.inf, 1.0]], "counts"),
            ([[1.0, 1.0, 1.0], [2.0, 1.0, math.nan]], "weights"),
            ([[1.0, 1.0, 1.0], [2.0, 1.0, math.inf]], "weights"),
        ],
    )
    def test_bad_counts_and_weights_rejected(self, records, match):
        # [[1.5, 1], [-2, 1], [3, 1]] gave a factorial moment of -6.125 at r = 3
        with pytest.raises(ValueError, match=match):
            empirical_moments(np.array(records), P)

    def test_weight_column_accepted(self):
        records = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 1.0]])
        mom = empirical_moments(records, P, r_max=2)
        assert abs(mom.raw_moments[1] - 2.0 / 3.0) < 1e-12


class TestHFunction:
    def test_unit_value_at_origin(self, rng):
        s = random_state(rng, 4, 4)
        mom = analytic_moments(s, P, 1.0, r_max=8)
        h = h_function(mom, np.array([0.0]))
        assert abs(h.series[0] - 1.0) < 1e-12
        assert abs(h.exact[0] - 1.0) < 1e-12

    def test_number_state_is_pure_cosine(self):
        s = make_number_state(1, 0, 3, 3)
        mom = analytic_moments(s, P, 1.0, r_max=12)
        x = uniform_grid(64)
        h = h_function(mom, x)
        assert np.max(np.abs(h.exact - np.cos(x))) < 1e-12
        assert np.all(np.abs(h.series - np.cos(x)) <= h.remainder_bound + 1e-10)

    def test_correlated_pair_two_term_cosine(self):
        s = make_superposition([(0, 0, 1), (1, 1, 1)])
        mom = analytic_moments(s, P, 1.0, r_max=12)
        x = uniform_grid(256)
        h = h_function(mom, x)
        expected = 0.5 * (1.0 + np.cos(2 * x))
        assert np.max(np.abs(h.exact - expected)) < 1e-12
        small = x <= 1.0
        assert np.max(np.abs(h.series[small] - expected[small])) < 1e-10

    def test_boundedness_of_exact_samples(self, rng):
        s = random_state(rng, 5, 5)
        mom = analytic_moments(s, P, 0.7, r_max=8)
        h = h_function(mom, uniform_grid(128))
        assert np.all(np.abs(h.exact) <= 1.0 + 1e-9)

    def test_untrusted_flag_for_large_arguments(self):
        s = make_number_state(9, 9, 10, 10)  # N = 18
        mom = analytic_moments(s, P, 1.0, r_max=12)
        h = h_function(mom, np.array([0.05, 3.0]))
        assert h.trusted[0]
        assert not h.trusted[1]
        assert h.remainder_bound[1] > 1e-4 * abs(h.series[1])


class TestFourierCoefficients:
    def test_vacuum(self):
        mom = analytic_moments(make_number_state(0, 0, 2, 2), P, 1.0)
        x = uniform_grid(64)
        c = fourier_coefficients(x, h_function(mom, x).exact, j_max=4)
        assert abs(c.values[0] - 1.0) < 1e-12
        assert np.max(np.abs(c.values[1:])) < 1e-12

    def test_single_excitation(self):
        mom = analytic_moments(make_number_state(1, 0, 2, 2), P, 1.0)
        x = uniform_grid(64)
        c = fourier_coefficients(x, h_function(mom, x).exact, j_max=4)
        assert abs(c.values[1] - 1.0) < 1e-9
        assert max(abs(c.values[0]), np.max(np.abs(c.values[2:]))) < 1e-9

    def test_correlated_pair(self):
        s = make_superposition([(0, 0, 1), (1, 1, 1)])
        mom = analytic_moments(s, P, 1.0)
        x = uniform_grid(64)
        c = fourier_coefficients(x, h_function(mom, x).exact, j_max=4)
        assert abs(c.values[0] - 0.5) < 1e-12
        assert abs(c.values[2] - 0.5) < 1e-12
        assert abs(c.values[1]) + abs(c.values[3]) < 1e-12

    def test_round_trip_recovers_antidiagonal_sums(self, rng):
        for _ in range(5):
            s = random_state(rng, 5, 5)  # N_max = 8
            weights = number_weights(s)
            mom = analytic_moments(s, P, 1.0)
            x = uniform_grid(max(256, 8 * (len(weights) - 1)))
            c = fourier_coefficients(x, h_function(mom, x).exact, j_max=len(weights) - 1)
            assert np.max(np.abs(c.values - weights)) < 1e-6
            assert abs(c.total - 1.0) < 1e-6

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="uniform"):
            fourier_coefficients(np.linspace(0.0, math.pi, 64), np.ones(64), j_max=2)
        with pytest.raises(ValueError, match="coarse"):
            fourier_coefficients(uniform_grid(32), np.ones(32), j_max=10)

    def test_negative_values_flagged(self):
        x = uniform_grid(64)
        c = fourier_coefficients(x, -0.5 * np.cos(x), j_max=2)
        assert c.flagged_inconsistent
        assert c.values[1] < -1e-4
        assert np.all(c.clamped >= 0.0)


class TestMarginalReconstruction:
    def _coefficients(self, state, j_max=None):
        weights = number_weights(state)
        mom = analytic_moments(state, P, 1.0)
        jm = len(weights) - 1 if j_max is None else j_max
        x = uniform_grid(max(256, 8 * jm))
        return fourier_coefficients(x, h_function(mom, x).exact, j_max=jm)

    def test_coherent_times_vacuum_gives_poisson(self):
        s = make_coherent_product(1.0, 0.0, eps_trunc=1e-12)
        rec = reconstruct_marginal(self._coefficients(s))
        for m_i in range(min(8, len(rec.moduli_sq))):
            assert abs(rec.moduli_sq[m_i] - math.exp(-1.0) / math.factorial(m_i)) < 1e-8
        assert not rec.flagged

    def test_number_state_delta(self):
        s = make_number_state(2, 0, 4, 4)
        rec = reconstruct_marginal(self._coefficients(s))
        assert abs(rec.moduli_sq[2] - 1.0) < 1e-9
        assert rec.moduli_sq[0] < 1e-9 and rec.moduli_sq[1] < 1e-9

    def test_sparse_superposition(self):
        s = make_superposition([(0, 0, 1), (3, 0, 1)])
        rec = reconstruct_marginal(self._coefficients(s))
        assert abs(rec.moduli_sq[0] - 0.5) < 1e-9
        assert abs(rec.moduli_sq[3] - 0.5) < 1e-9

    def test_partner_mode_in_excited_number_state(self):
        # B in |1>: coefficients shift by one anti-diagonal
        s = make_superposition([(0, 1, 1), (2, 1, 1)])
        rec = reconstruct_marginal(self._coefficients(s), n_other=1)
        assert abs(rec.moduli_sq[0] - 0.5) < 1e-9
        assert abs(rec.moduli_sq[2] - 0.5) < 1e-9


class TestClassification:
    def test_anti_correlated_sharp_and_unrecoverable(self, rng):
        coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
        entries = [(4 - n, n, coeffs[n]) for n in range(5)]
        s = make_superposition(entries)
        mom = analytic_moments(s, P, 1.0)
        for r in range(1, mom.r_max + 1):
            assert abs(mom.kappa_moments[r] - 16.0**r) <= 1e-9 * 16.0**r
        report = classify_special_state(mom)
        assert report.kind == "anti-correlated"
        assert not report.coefficients_recoverable
        assert "unrecoverable" in report.message

    def test_two_mode_squeezed_ratio_fit(self):
        s = make_two_mode_squeezed(0.5, 8)
        rep = probe_report(analytic_moments(s, P, 1.0)).classification
        assert rep.kind == "correlated-support"
        assert rep.coefficients_recoverable
        assert abs(rep.squeeze_r - 0.5) < 1e-6
        assert rep.squeeze_residual < 1e-9

    def test_correlated_pair_diagonal_recovery(self):
        s = make_superposition([(0, 0, 1.0), (1, 1, 2.0), (2, 2, 0.5)])
        weights = number_weights(s)
        rep = probe_report(analytic_moments(s, P, 1.0)).classification
        assert rep.kind == "correlated-support"
        for n, value in rep.recovered_diagonal.items():
            assert abs(value - weights[2 * n]) < 1e-9

    def test_odd_support_is_indeterminate(self):
        s = make_superposition([(1, 0, 1.0), (2, 1, 1.0), (0, 0, 0.3)])
        rep = probe_report(analytic_moments(s, P, 1.0)).classification
        assert rep.kind == "indeterminate"

    def test_pure_and_mixed_diagonal_states_indistinguishable(self):
        # identical anti-diagonal sums produce bit-identical reports; the state
        # has one basis state |n, n> per sector N = 2n, so w = I is its diagonal mixture
        s = make_two_mode_squeezed(0.4, 6)
        mixture = DephasedState(s, np.eye(s.n_max + 1))
        mom_pure = analytic_moments(s, P, 1.0)
        mom_mixed = analytic_moments(mixture, P, 1.0)
        assert np.array_equal(mom_pure.kappa_moments, mom_mixed.kappa_moments)
        rep_pure = probe_report(mom_pure)
        rep_mixed = probe_report(mom_mixed)
        assert np.array_equal(rep_pure.h_samples.values, rep_mixed.h_samples.values)
        assert np.array_equal(rep_pure.fourier.values, rep_mixed.fourier.values)
        assert rep_pure.classification == rep_mixed.classification


class TestFactorialDenominatorGuard:
    def test_single_factorial_variant_breaks_cosine_form(self):
        s = make_number_state(1, 0, 2, 2)
        mom = analytic_moments(s, P, 1.0, r_max=12)
        x = uniform_grid(64)
        good = h_function(mom, x)
        bad = single_factorial_series(mom, x)
        assert np.max(np.abs(good.series - np.cos(x))) < 2e-6
        # r! turns the series into exp(-x^2 N^2), nowhere near cos(x N)
        assert np.max(np.abs(bad - np.cos(x))) > 0.5
        c_bad = fourier_coefficients(x, bad, j_max=2)
        assert abs(c_bad.values[1] - 1.0) > 0.5
