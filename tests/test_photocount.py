import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import photoent
from photoent import (
    ModelParams,
    apply_beam_splitter,
    count_probability,
    density_from_pure,
    entanglement_report,
    entanglement_scan,
    eval_kernels,
    make_coherent_product,
    make_number_state,
    make_superposition,
    most_probable_time,
    postselect_density,
    sample_counts,
    short_time_state,
)
from photoent.fock import ImpossibleOutcomeError
from photoent.photocount import count_cutoff, count_distribution, most_probable_times
from photoent.projective import mixture_moments, mixture_pmf, mixture_pmf_row, sector_means

from conftest import random_state
from crosschecks import apply_mixing_series, conditioned_trace

P = ModelParams(lam=0.0, chi=0.5, gamma=1.0)
PEAK_TIMES = Path(__file__).parent / "data" / "peak_times.json"


class TestKernels:
    def test_all_zero_at_t0(self):
        k = eval_kernels(P, 0.0)
        assert (k.g, k.h, k.mu, k.u) == (0.0, 0.0, 0.0, 0.0)
        assert k.z_factor == 0.0

    def test_small_time_asymptotics(self):
        chi, gamma = P.chi, P.gamma
        for t in (1e-4, 1e-3):
            k = eval_kernels(P, t)
            assert abs(k.g - chi**2 * (gamma * t) ** 3 / (6 * gamma**2)) < 1e-3 * k.g
            assert abs(k.h - (chi * t) ** 2 / 2) < 1e-3 * k.h
            assert abs(k.mu - (chi * t) ** 2) < 1e-3 * k.mu

    def test_printed_formula_value(self):
        # 4 (-3 + 10 + 4 e^{-5} - e^{-10}) evaluated by hand
        params = ModelParams(lam=0.0, chi=1.0, gamma=1.0)
        assert abs(eval_kernels(params, 10.0).u - 28.107625552266317) < 1e-12

    def test_trace_identity_across_scales(self):
        params = ModelParams(lam=0.0, chi=0.7, gamma=2.3)
        for t in (1e-8, 1e-4, 0.05, 0.49, 0.51, 1.0, 7.0, 120.0):
            k = eval_kernels(params, t)
            assert abs(2 * k.h - k.mu - k.u) <= 1e-12 * max(1.0, k.u)

    def test_kernels_monotone_in_time(self):
        ts = np.linspace(0.0, 8.0, 200)
        gs = [eval_kernels(P, t).g for t in ts]
        hs = [eval_kernels(P, t).h for t in ts]
        assert np.all(np.diff(gs) >= 0)
        assert np.all(np.diff(hs) >= 0)

    def test_late_time_linear_growth(self):
        params = ModelParams(lam=0.0, chi=1.0, gamma=1.0)
        for t in (50.0, 500.0):
            ratio = eval_kernels(params, t).u / ((2 * params.chi / params.gamma) ** 2 * t)
            assert abs(ratio - 1.0) < 3.5 / t

    def test_trace_identity_check_survives_optimize_flag(self):
        # python -O strips asserts; the identity check must still raise
        code = (
            "from photoent import ConvergenceError, ModelParams\n"
            "import photoent.photocount as pc\n"
            "pc._h_core = lambda x: 1.0 + x\n"
            "try:\n"
            "    pc.eval_kernels(ModelParams(lam=0.0, chi=0.5, gamma=1.0), 1.0)\n"
            "except ConvergenceError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        env = dict(os.environ)
        package_root = str(Path(photoent.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    def test_trace_identity_at_strong_coupling(self):
        # at chi/gamma = 1e8 the peak of k = 1 on |1,0> + |0,2> + |2,2> sits at
        # gamma t = 3.3e-6, where 2h and mu are 1e6 times u and their rounding
        # alone (2.9e-12) exceeded the old bound 1e-12 max(1, u)
        params = ModelParams(lam=0.0, chi=1e8, gamma=1.0)
        kern = eval_kernels(params, 3.2626246899696194e-06)
        assert abs(kern.u - 0.11576561122199602) < 1e-12  # the peak's u at chi = gamma = 1

    def test_kernels_that_overflow_raise_value_error(self):
        # chi^2/gamma^2 = 1e308 is accepted, but mu = 4 chi^2/gamma^2 (...)^2 overflows
        params = ModelParams(lam=0.0, chi=1e150, gamma=1e-4)
        with pytest.raises(ValueError, match=r"chi=1e\+150, gamma=0.0001"):
            eval_kernels(params, 1e-99)

    def test_monitor_label_factor(self):
        t = 0.8
        k = eval_kernels(P, t)
        expected = -2j * P.chi / P.gamma * (1 - math.exp(-P.gamma * t / 2))
        assert abs(k.z_factor - expected) < 1e-15


class TestCountProbability:
    def test_nothing_counted_at_t0(self, rng):
        s = random_state(rng, 4, 4)
        assert abs(count_probability(s, P, 0.0, 0) - 1.0) < 1e-12
        assert count_probability(s, P, 0.0, 2) == 0.0

    def test_number_state_poisson(self):
        s = make_number_state(2, 1, 4, 4)
        t = 1.4
        mu = eval_kernels(P, t).u * 9.0
        for k in range(6):
            expected = mu**k * math.exp(-mu) / math.factorial(k)
            assert abs(count_probability(s, P, t, k) - expected) < 1e-12

    def test_normalization_three_states(self, rng):
        states = [
            make_number_state(1, 2, 4, 4),
            make_coherent_product(math.sqrt(5), math.sqrt(5), eps_trunc=1e-10),
            make_superposition([(0, 0, 1), (1, 1, 1)]),
        ]
        for s in states:
            for gt in np.linspace(0.0, 5.0, 8):
                t = gt / P.gamma
                kmax = count_cutoff(s, P, t)
                total = math.fsum(count_probability(s, P, t, k) for k in range(kmax + 1))
                assert abs(total - (1.0 - s.trunc_weight)) < 1e-9

    def test_invariant_under_prior_exchange_evolution(self, rng):
        s = random_state(rng, 5, 4)
        rotated = apply_beam_splitter(s, 2.2, 0.4)
        for k in (0, 1, 2):
            assert abs(
                count_probability(s, P, 0.9, k) - count_probability(rotated, P, 0.9, k)
            ) < 1e-10

    def test_depends_on_time_only_through_g(self):
        # different rate pairs, times matched to equal u = 2g
        s = make_superposition([(1, 0, 1), (0, 2, 1)])
        pa = ModelParams(lam=0.0, chi=1.0, gamma=1.0)
        pb = ModelParams(lam=0.0, chi=0.5, gamma=2.0)
        t1 = 0.9
        target = eval_kernels(pa, t1).u
        t2 = brentq(lambda t: eval_kernels(pb, t).u - target, 1e-9, 100.0, xtol=1e-14)
        for k in range(4):
            assert abs(count_probability(s, pa, t1, k) - count_probability(s, pb, t2, k)) < 1e-10

    def test_fast_detector_limit_counts_nothing(self):
        # gamma -> infinity at fixed chi, t: u -> 0 and P(0) -> 1
        s = make_superposition([(1, 1, 1.0)])
        t = 1.0
        p0 = [
            count_probability(s, ModelParams(lam=0.0, chi=1.0, gamma=g), t, 0)
            for g in (1e2, 1e4, 1e6)
        ]
        assert np.all(np.diff(p0) > 0)
        assert p0[-1] > 1.0 - 1e-4

    def test_distribution_family_shapes(self):
        # k = 0 column decreases in t; k >= 1 columns are unimodal
        s = make_coherent_product(math.sqrt(5), math.sqrt(5), eps_trunc=1e-10)
        params = ModelParams(lam=0.0, chi=1.0, gamma=1.0)
        times = np.linspace(1e-3, 2.0, 120)
        dist = count_distribution(s, params, times, k_max=5)
        col0 = dist.values[:, 0]
        assert np.all(np.diff(col0) < 0)
        for k in (1, 2, 5):
            col = dist.values[:, k]
            peak = int(np.argmax(col))
            assert 0 < peak < len(col) - 1
            assert np.all(np.diff(col[: peak + 1]) > 0)
            assert np.all(np.diff(col[peak:]) < 0)
        assert np.all(dist.row_sums <= 1.0 + 1e-12)


class TestTraceConsistency:
    def test_damping_diagonal_reproduces_count_distribution(self, rng):
        s = random_state(rng, 4, 5)
        for k in (0, 1, 3):
            for t in (0.2, 1.3):
                assert abs(
                    conditioned_trace(s, P, t, k) - count_probability(s, P, t, k)
                ) < 1e-12

    def test_flipped_damping_sign_breaks_normalization(self):
        s = make_superposition([(0, 0, 1), (1, 1, 1)])
        t = 1.0
        kmax = count_cutoff(s, P, t)
        good = math.fsum(conditioned_trace(s, P, t, k) for k in range(kmax + 1))
        bad = math.fsum(
            conditioned_trace(s, P, t, k, exponent_sign=+1.0) for k in range(kmax + 1)
        )
        assert abs(good - 1.0) < 1e-9
        assert abs(bad - 1.0) > 0.1


class TestPostselectDensity:
    def test_number_state_unaffected_by_counting(self):
        s = make_number_state(2, 1, 4, 4)
        lam_params = ModelParams(lam=0.9, chi=0.5, gamma=1.0)
        free = density_from_pure(apply_beam_splitter(s, lam_params.lam, 0.7))
        for k in (0, 1, 3):
            for gamma in (0.5, 2.0):
                params = ModelParams(lam=0.9, chi=0.5, gamma=gamma)
                rho = postselect_density(s, params, 0.7, k)
                assert np.max(np.abs(rho.rho - free.rho)) < 1e-12

    def test_density_is_physical(self, rng):
        s = random_state(rng, 5, 4)
        rho = postselect_density(s, P, 0.8, 2)
        assert abs(rho.trace - 1.0) < 1e-12
        assert np.max(np.abs(rho.rho - rho.rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho.rho).min() > -1e-10

    def test_zero_counts_short_time_stays_nearly_pure(self):
        s = make_coherent_product(math.sqrt(5), math.sqrt(5), eps_trunc=1e-14)
        params = ModelParams(lam=0.0, chi=1.0, gamma=1.0)
        rho = postselect_density(s, params, 1e-3, 0)
        assert entanglement_report(rho).s_ab < 1e-3

    def test_short_time_limit_matches_pure_approximation(self):
        s = make_coherent_product(1.2, 1.0, eps_trunc=1e-12)
        params = ModelParams(lam=0.4, chi=1.0, gamma=1.0)
        t = 1e-3
        for k in (1, 2):
            rho = postselect_density(s, params, t, k)
            pure = short_time_state(s, params.lam, t, k)
            psi = pure.coeffs.reshape(-1)
            assert np.real(psi.conj() @ rho.rho @ psi) >= 1.0 - 1e-4

    def test_report_on_a_large_state_allocates_little(self):
        # d_a = d_b = 51: the dense matrix is 108 MB, the sector report works on 51 x 51
        s = make_coherent_product(math.sqrt(20.0), math.sqrt(20.0))
        assert (s.d_a, s.d_b) == (51, 51)
        rho = postselect_density(s, ModelParams(lam=0.3, chi=0.9, gamma=1.0), 0.3, 10)
        tracemalloc.start()
        try:
            entanglement_report(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6, peak

    def test_impossible_outcome(self):
        vac = make_number_state(0, 0, 2, 2)
        with pytest.raises(ImpossibleOutcomeError):
            postselect_density(vac, P, 1.0, 2)

    def test_excess_entropy_bound_across_conditioning_sweep(self, rng):
        # 0 <= excess <= 2 min(S_A, S_B) for every conditioned density
        states = [
            make_coherent_product(1.2, 0.9, eps_trunc=1e-12),
            make_superposition([(0, 0, 1), (1, 1, 1), (2, 0, 0.5)]),
            random_state(rng, 4, 4),
        ]
        params = ModelParams(lam=0.6, chi=0.8, gamma=1.0)
        for s in states:
            for t in (0.05, 0.6, 2.0):
                for k in (0, 1, 3):
                    rep = entanglement_report(postselect_density(s, params, t, k))
                    assert rep.araki_lieb_ok, (t, k, rep)

    def test_mixing_superoperator_series_cross_check(self):
        s = make_superposition([(0, 0, 1), (1, 0, 0.5), (1, 1, 1)])
        t, k = 0.9, 1
        kern = eval_kernels(P, t)
        psi = s.coeffs.reshape(-1)
        sigma = np.outer(psi, psi.conj())
        totals = (np.arange(s.d_a)[:, None] + np.arange(s.d_b)[None, :]).astype(float).reshape(-1)
        damped = (
            totals[:, None] ** k
            * totals[None, :] ** k
            * np.exp(-kern.h * (totals[:, None] ** 2 + totals[None, :] ** 2))
            * apply_mixing_series(sigma, totals, kern.mu, l_max=40)
        )
        damped /= np.trace(damped).real
        direct = postselect_density(s, P, t, k)
        assert np.max(np.abs(damped - direct.rho)) < 1e-12


class TestShortTimeState:
    def test_zero_counts_returns_evolved_state(self):
        s = make_coherent_product(1.0, 0.5, eps_trunc=1e-10)
        out = short_time_state(s, 0.7, 0.3, 0)
        expected = apply_beam_splitter(s, 0.7, 0.3)
        assert np.array_equal(out.coeffs, expected.coeffs)

    def test_counting_entangles_coherent_input(self):
        s = make_coherent_product(math.sqrt(5), math.sqrt(5), eps_trunc=1e-14)
        excesses = []
        for k in (0, 1, 2, 3):
            rep = entanglement_report(density_from_pure(short_time_state(s, 0.0, 0.0, k)))
            assert rep.s_ab < 1e-10
            excesses.append(rep.excess)
        assert abs(excesses[0]) < 1e-12
        assert np.all(np.diff(excesses) > 0)


class TestMostProbableTime:
    def test_zero_counts_peak_at_zero(self, rng):
        s = random_state(rng, 4, 4)
        assert most_probable_time(s, P, 0) == 0.0

    def test_number_state_poisson_mode(self):
        s = make_number_state(1, 1, 3, 3)
        for k in (1, 2, 5):
            t_m = most_probable_time(s, P, k)
            # stationarity of mu^k e^{-mu}: maximum at 2 g N^2 = k
            assert abs(eval_kernels(P, t_m).u * 4.0 - k) < 1e-4

    def test_interior_maximum_for_coherent_input(self):
        s = make_coherent_product(1.0, 1.0, eps_trunc=1e-10)
        for k in (1, 3):
            t_m = most_probable_time(s, P, k)
            p_star = count_probability(s, P, t_m, k)
            assert p_star >= count_probability(s, P, t_m * 0.98, k)
            assert p_star >= count_probability(s, P, t_m * 1.02, k)

    def test_inversion_tolerance(self):
        s = make_number_state(1, 0, 2, 2)
        t_m = most_probable_time(s, P, 2)
        exact = brentq(lambda t: eval_kernels(P, t).u - 2.0, 1e-9, 100.0, xtol=1e-14)
        assert abs(P.gamma * (t_m - exact)) <= 1e-12

    @pytest.mark.parametrize("k", [93, 100, 1500])
    def test_global_peak_on_the_readme_state(self, k):
        # narrow sector peaks: a coarse grid once settled on a lower local
        # maximum here (1.1% low at k = 100, 39% low at k = 1500)
        s = make_coherent_product(math.sqrt(5), math.sqrt(5))
        params = ModelParams(lam=0.0, chi=0.967, gamma=1.0)
        t_m = most_probable_time(s, params, k)
        assert count_probability(s, params, t_m, k) >= (1.0 - 1e-9) * fine_grid_peak(s, k)

    def test_times_follow_the_order_of_ks(self):
        s = make_coherent_product(1.0, 1.5, eps_trunc=1e-10)
        ks = [3, 0, 7, 3, 1]
        assert most_probable_times(s, P, ks).tolist() == [most_probable_time(s, P, k) for k in ks]

    @pytest.mark.parametrize("case", ["readme", "three_sectors", "vacuum_and_pairs", "even_sectors"])
    def test_all_k_search_reproduces_the_per_k_search(self, case):
        # recorded by the search that ran once per k; the README state's
        # k = 1..1925 are the peak times `count-dist` writes without grids.k
        c = json.loads(PEAK_TIMES.read_text())["cases"][case]
        if "coherent" in c:
            a, b = c["coherent"]
            s = make_coherent_product(complex(a), complex(b), eps_trunc=c["eps_trunc"])
        else:
            s = make_superposition([(m, n, complex(re, im)) for m, n, re, im in c["entries"]])
        times = most_probable_times(s, ModelParams(*c["params"]), range(1, c["k_max"] + 1))
        assert times.tolist() == c["t_m"]

    def test_near_tied_sector_peaks_go_to_the_smaller_u(self):
        # the N = 2 and N = 4 peaks (u = k/4, k/16) agree to < 1e-14 here, so
        # a bitwise argmax picked N = 2 at k = 20, 21, 23 and N = 4 at 22, 24
        s = make_superposition([(1, 0, 1), (0, 2, 1), (2, 2, 1)])
        params = ModelParams(lam=0.0, chi=0.967, gamma=1.0)
        for k in range(20, 25):
            u = eval_kernels(params, most_probable_time(s, params, k)).u
            assert abs(u - k / 16) < 0.05 * k / 16, (k, u)


def fine_grid_peak(state, k: int) -> float:
    """max of P(k) over 10^5 log-spaced u in [k / N_max^2, k / N_min^2], the
    populated sectors' component peaks, which bracket every maximum."""
    weights, n_sq = sector_means(state, 1.0)
    populated = (n_sq > 0) & (weights > 0)
    weights, n_sq = weights[populated], n_sq[populated]
    grid = np.geomspace(k / n_sq[-1], k / n_sq[0], 100_000)
    return max(
        float(np.max(mixture_pmf(weights, np.multiply.outer(chunk, n_sq), k)))
        for chunk in np.array_split(grid, 10)
    )


@st.composite
def superpositions(draw):
    """Superpositions of |m, n> with m + n <= 8, at least one with N >= 1."""
    pairs = [(m, n) for m in range(9) for n in range(9 - m)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6, unique=True))
    assume(any(m + n > 0 for m, n in chosen))
    amps = draw(st.lists(st.floats(0.05, 1.0), min_size=len(chosen), max_size=len(chosen)))
    phases = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=len(chosen), max_size=len(chosen)))
    return make_superposition(
        [(m, n, a * complex(math.cos(p), math.sin(p))) for (m, n), a, p in zip(chosen, amps, phases)]
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(superpositions(), st.integers(min_value=1, max_value=80))
def test_peak_time_is_the_global_peak(state, k):
    t_m = most_probable_time(state, P, k)
    assert count_probability(state, P, t_m, k) >= (1.0 - 1e-9) * fine_grid_peak(state, k)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(-155.0, 155.0), st.floats(-155.0, 155.0), st.integers(min_value=1, max_value=100))
def test_peak_time_at_any_accepted_rates(log_chi, log_gamma, k):
    # a peak time where P(k) is positive, or a ValueError naming the rates, and
    # no warning; at chi = 1, gamma = 6e153, k = 100 the inversion of g
    # overflowed to t_m = 0
    try:
        params = ModelParams(lam=0.0, chi=10.0**log_chi, gamma=10.0**log_gamma)
    except ValueError:
        assume(False)
    state = make_superposition([(1, 0, 1), (0, 2, 1), (2, 2, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            t_m = most_probable_time(state, params, k)
            p = count_probability(state, params, t_m, k)
        except ValueError as exc:
            assert f"chi={params.chi!r}, gamma={params.gamma!r}" in str(exc)
            return
    assert 0.0 < t_m < math.inf and p > 0.0


class TestCountMeanVariance:
    def test_zero_time(self, rng):
        assert mixture_moments(random_state(rng, 3, 3), eval_kernels(P, 0.0).u) == (0.0, 0.0)

    def test_number_state(self):
        s = make_number_state(2, 0, 3, 3)
        t = 1.1
        mu = eval_kernels(P, t).u * 4.0
        k_mean, k_var = mixture_moments(s, eval_kernels(P, t).u)
        assert abs(k_mean - mu) < 1e-12
        assert abs(k_var - mu) < 1e-12

    def test_coherent_matches_projective_algebra_at_matched_kernel(self):
        # at the time where 2g = 0.01 the moments equal the chi t = 0.1 ones
        s = make_coherent_product(math.sqrt(5), math.sqrt(5), eps_trunc=1e-14)
        t = brentq(lambda t: eval_kernels(P, t).u - 0.01, 1e-9, 100.0, xtol=1e-15)
        k_mean, k_var = mixture_moments(s, eval_kernels(P, t).u)
        assert abs(k_mean - 1.1) < 1e-9
        assert abs((k_var - k_mean) - 0.461) < 1e-9

    def test_against_direct_summation(self, rng):
        s = random_state(rng, 5, 4)
        t = 0.9
        k_mean, k_var = mixture_moments(s, eval_kernels(P, t).u)
        kmax = count_cutoff(s, P, t, tail=1e-14)
        ks = np.arange(kmax + 1)
        probs = np.array([count_probability(s, P, t, int(k)) for k in ks])
        mean_direct = float(np.sum(ks * probs))
        var_direct = float(np.sum(ks**2 * probs)) - mean_direct**2
        assert abs(k_mean - mean_direct) < 1e-9
        assert abs(k_var - var_direct) < 1e-9


class TestEntanglementScan:
    def test_zero_count_row(self):
        s = make_coherent_product(1.0, 1.0, eps_trunc=1e-14)
        row = entanglement_scan(s, P, [0])[0]
        assert row.t_m == 0.0
        assert abs(row.excess_short_time) < 1e-12
        assert abs(row.excess_at_tm) < 1e-10
        assert abs(row.s_ab_at_tm) < 1e-10

    def test_small_scan_monotone(self):
        s = make_coherent_product(1.0, 1.0, eps_trunc=1e-10)
        rows = entanglement_scan(s, P, [0, 1, 2, 3])
        excess_tm = [r.excess_at_tm for r in rows]
        assert np.all(np.diff(excess_tm) > 0)
        for r in rows[1:]:
            assert 0.0 < r.s_ab_at_tm < 1.0
            assert r.excess_at_tm > r.excess_short_time

    def test_rows_are_the_density_reports(self):
        s = make_superposition([(0, 0, 1), (1, 1, 0.7), (2, 0, 0.5j), (0, 3, 0.4)])
        params = ModelParams(lam=0.4, chi=0.8, gamma=1.0)
        for r in entanglement_scan(s, params, [0, 1, 4]):
            short = entanglement_report(density_from_pure(short_time_state(s, params.lam, 0.0, r.k)))
            at_tm = entanglement_report(postselect_density(s, params, r.t_m, r.k))
            assert r.excess_short_time == short.excess
            assert (r.excess_at_tm, r.s_ab_at_tm) == (at_tm.excess, at_tm.s_ab)

    def test_scan_on_a_large_state_allocates_little(self):
        # d = 60: one dense (d_a d_b)^2 density would be 0.21 GB
        s = make_coherent_product(5.0, 5.0)
        params = ModelParams(lam=0.3, chi=0.967, gamma=1.0)
        tracemalloc.start()
        try:
            entanglement_scan(s, params, [10])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, peak


def test_distribution_row_matches_scalar_form(rng):
    from photoent.photocount import count_distribution_row

    s = random_state(rng, 4, 4)
    row = count_distribution_row(s, P, 1.1, 10)
    for k in range(11):
        assert abs(row[k] - count_probability(s, P, 1.1, k)) < 1e-15


def test_count_cutoff_follows_the_populated_sectors():
    # README state at eps_trunc 1e-14 (d = 31): the bound from the largest
    # representable N = 60 gives 5010 at gamma t = 2, though N >= 45 holds < 1e-15
    from photoent.photocount import count_distribution_row
    from photoent.projective import k_cutoff

    s = make_coherent_product(math.sqrt(5), math.sqrt(5), eps_trunc=1e-14)
    params = ModelParams(lam=0.0, chi=0.967, gamma=1.0)
    for gamma_t, expected, bound in ((2.0, 1958, 5010), (0.08, 6, 14)):
        kmax = count_cutoff(s, params, gamma_t)
        assert kmax == expected
        assert k_cutoff(eval_kernels(params, gamma_t).u * s.n_max**2) == bound
        row = count_distribution_row(s, params, gamma_t, kmax)
        assert abs(math.fsum(row) - (1.0 - s.trunc_weight)) <= 2e-12  # tail + rounding


@pytest.mark.parametrize("k_max", [None, 12])
def test_count_table_is_bitwise_the_rows(k_max):
    # count_distribution takes the sector weights once for all its rows
    s = make_coherent_product(2.0, 1.5 + 0.5j, eps_trunc=1e-12)
    params = ModelParams(lam=0.2, chi=0.967, gamma=1.0)
    times = np.linspace(0.0, 2.0, 9)
    dist = count_distribution(s, params, times, k_max=k_max)
    rows = [mixture_pmf_row(*sector_means(s, eval_kernels(params, t).u), int(dist.k_range[-1])) for t in times]
    assert np.array_equal(dist.values, rows)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(superpositions(), st.floats(0.05, 3.0), st.lists(st.floats(0.0, 20.0), min_size=2, max_size=6))
def test_count_cutoff_does_not_decrease_in_time(state, ratio, times):
    # count_distribution takes its adaptive k range from the last grid time
    params = ModelParams(lam=0.0, chi=ratio, gamma=1.0)
    cutoffs = [count_cutoff(state, params, t) for t in sorted(times)]
    assert cutoffs == sorted(cutoffs)


def test_sample_counts_reproducible_and_t0_all_zero():
    s = make_coherent_product(1.0, 1.0, eps_trunc=1e-10)
    a = sample_counts(s, P, 1.0, 300, seed=5)
    b = sample_counts(s, P, 1.0, 300, seed=5)
    assert np.array_equal(a, b)
    z = sample_counts(s, P, 0.0, 50, seed=5)
    assert np.all(z == 0)
