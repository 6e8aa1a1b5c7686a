import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from photoent import (
    ModelParams,
    count_probability,
    entanglement_report,
    make_number_state,
    make_superposition,
    postselect_density,
)
from photoent import oracle
from photoent.fock import ResourceLimitError
from photoent.oracle import (
    annihilation,
    mc_count_histogram,
    monitor_dim,
    nt_oracle_point,
    p_k_montecarlo,
    p_k_quadrature,
)
from photoent.photocount import eval_kernels

from crosschecks import (
    ThreeModeState,
    embed_with_monitor,
    full_tensor_level,
    jump,
    no_count_evolution,
    no_count_evolution_ode,
    trace_monitor,
)

P = ModelParams(lam=0.3, chi=0.5, gamma=1.0)
# nt_oracle_point on criterion 3's state from a complex-arithmetic
# implementation of the oracle; "support" lists the flattened (m, n) indices
# of the nonzero rows and columns of each density
CRITERION_3_POINTS = Path(__file__).parent / "data" / "criterion3_oracle_points.json"


def random_three_mode(rng, d_a, d_b, d_c):
    coeffs = rng.normal(size=(d_a, d_b, d_c)) + 1j * rng.normal(size=(d_a, d_b, d_c))
    return ThreeModeState(coeffs / np.linalg.norm(coeffs))


class TestNoCountEvolution:
    def test_zero_step_is_identity(self, rng):
        s = random_three_mode(rng, 3, 3, 8)
        assert np.array_equal(no_count_evolution(s, P, 0.0).coeffs, s.coeffs)

    def test_vacuum_is_stationary(self):
        vac = embed_with_monitor(make_number_state(0, 0, 2, 2), P)
        out = no_count_evolution(vac, P, 1.7)
        assert np.max(np.abs(out.coeffs - vac.coeffs)) < 1e-12
        assert abs(out.norm_sq - 1.0) < 1e-12

    def test_norm_nonincreasing(self, rng):
        s = random_three_mode(rng, 3, 4, 10)
        norms = [s.norm_sq]
        cur = s
        for _ in range(4):
            cur = no_count_evolution(cur, P, 0.4)
            norms.append(cur.norm_sq)
        assert np.all(np.diff(norms) <= 1e-12)

    def test_negative_step_rejected(self, rng):
        with pytest.raises(ValueError):
            no_count_evolution(random_three_mode(rng, 2, 2, 4), P, -0.1)

    def test_matches_adaptive_runge_kutta(self, rng):
        s = random_three_mode(rng, 3, 3, 12)
        params = ModelParams(lam=0.8, chi=0.6, gamma=1.3)
        fast = no_count_evolution(s, params, 0.7)
        slow = no_count_evolution_ode(s, params, 0.7)
        assert np.max(np.abs(fast.coeffs - slow.coeffs)) < 1e-8

    def test_matches_expm_of_the_complex_monitor_generator(self, rng):
        # lam = 0: sector N's monitor factor evolves by expm(M_N dt) with
        # M_N = -i chi N (c + c†) - (gamma/2) c†c, built here from scratch
        params = ModelParams(lam=0.0, chi=0.5, gamma=1.3)
        d_c = 24
        s = random_three_mode(rng, 3, 3, d_c)
        c = annihilation(d_c)
        for dt in (0.05, 0.7, 2.0):
            out = no_count_evolution(s, params, dt)
            for m, n in [(0, 0), (1, 0), (1, 2), (2, 2)]:
                gen = -1j * params.chi * (m + n) * (c + c.T) - params.gamma / 2 * (c.T @ c)
                expected = expm(gen * dt) @ s.coeffs[m, n]
                assert np.max(np.abs(out.coeffs[m, n] - expected)) < 1e-13, (dt, m, n)

    def test_monitor_reaches_damped_driven_coherent_label(self):
        # lam = 0: the monitor factor of the N = 1 sector is the coherent
        # state with label (-2i chi/gamma)(1 - e^{-gamma t/2})
        params = ModelParams(lam=0.0, chi=0.5, gamma=1.0)
        s = embed_with_monitor(make_number_state(1, 0, 2, 2), params)
        t = 1.3
        out = no_count_evolution(s, params, t)
        phi = out.coeffs[1, 0, :]
        z = eval_kernels(params, t).z_factor * 1.0
        d_c = len(phi)
        m = np.arange(d_c)
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, d_c)))))
        coh = np.exp(-abs(z) ** 2 / 2) * np.exp(m * np.log(abs(z) + 0j) - log_fact / 2)
        coh = coh * np.exp(1j * np.angle(z) * m)
        overlap = abs(np.vdot(coh, phi)) / np.linalg.norm(phi)
        assert abs(overlap - 1.0) < 1e-8


class TestJump:
    def test_monitor_vacuum_annihilated(self):
        s = embed_with_monitor(make_number_state(1, 1, 2, 2), P)
        assert jump(s, P.gamma).norm_sq == 0.0

    def test_coherent_branch_eigenaction(self):
        d_c = 40
        z = 0.7 - 0.4j
        m = np.arange(d_c)
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, d_c)))))
        coh = np.exp(-abs(z) ** 2 / 2) * np.exp(m * np.log(abs(z)) - log_fact / 2)
        coh = coh * np.exp(1j * np.angle(z) * m)
        coeffs = np.zeros((1, 1, d_c), dtype=complex)
        coeffs[0, 0, :] = coh
        gamma = 1.7
        jumped = jump(ThreeModeState(coeffs), gamma)
        expected = math.sqrt(gamma) * z * coeffs
        assert np.max(np.abs(jumped.coeffs - expected)[0, 0, :-1]) < 1e-12

    def test_double_jump_kills_single_photon(self):
        coeffs = np.zeros((1, 1, 3), dtype=complex)
        coeffs[0, 0, 1] = 1.0
        once = jump(ThreeModeState(coeffs), 1.0)
        assert abs(once.norm_sq - 1.0) < 1e-12
        assert jump(once, 1.0).norm_sq == 0.0


class TestQuadrature:
    def test_no_count_probability_matches_closed_form(self):
        s = make_superposition([(1, 0, 1), (0, 2, 1)])
        for t in (0.4, 1.0, 2.0):
            assert abs(p_k_quadrature(s, P, t, 0) - count_probability(s, P, t, 0)) < 1e-6

    def test_single_count_single_excitation(self):
        # chi = gamma: z_max = 2, modest monitor space
        params = ModelParams(lam=0.0, chi=1.0, gamma=1.0)
        s = make_number_state(1, 0, 2, 2)
        t = 1.0
        p_oracle = p_k_quadrature(s, params, t, 1)
        u = eval_kernels(params, t).u
        assert abs(p_oracle - u * math.exp(-u)) < 1e-6

    def test_single_count_superposition_mixture(self):
        s = make_superposition([(1, 0, 1), (0, 2, 1)])
        t = 1.2
        assert abs(p_k_quadrature(s, P, t, 1) - count_probability(s, P, t, 1)) < 1e-6

    def test_double_count(self):
        s = make_superposition([(0, 0, 1), (1, 1, 1)])
        t = 1.5
        assert abs(p_k_quadrature(s, P, t, 2) - count_probability(s, P, t, 2)) < 1e-6

    def test_rejects_high_k(self):
        s = make_number_state(1, 0, 2, 2)
        with pytest.raises(ValueError):
            p_k_quadrature(s, P, 1.0, 3)

    def test_small_time_completeness(self):
        # at u N_max^2 ~ 2e-3 the mass beyond k = 2 is ~1e-9
        s = make_superposition([(1, 0, 1), (0, 2, 1)])
        t = 0.3
        total = math.fsum(p_k_quadrature(s, P, t, k) for k in (0, 1, 2))
        assert abs(total - 1.0) < 2e-6


class TestConditionalDensity:
    def test_number_state_free_evolution(self):
        params = ModelParams(lam=0.7, chi=0.5, gamma=1.0)
        s = make_number_state(1, 1, 3, 3)
        for k in (0, 1):
            rho_or = nt_oracle_point(s, params, 0.9, k)[1]
            rho_cf = postselect_density(s, params, 0.9, k)
            assert np.max(np.abs(rho_or.rho - rho_cf.rho)) < 1e-6

    def test_zero_count_coherent_like(self):
        s = make_superposition([(0, 0, 2.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 0.5)])
        rho_or = nt_oracle_point(s, P, 0.8, 0)[1]
        rho_cf = postselect_density(s, P, 0.8, 0)
        assert np.max(np.abs(rho_or.rho - rho_cf.rho)) < 1e-6

    def test_single_count_correlated_pair(self):
        s = make_superposition([(0, 0, 1), (1, 1, 1)])
        rho_or = nt_oracle_point(s, P, 1.0, 1)[1]
        rho_cf = postselect_density(s, P, 1.0, 1)
        assert np.max(np.abs(rho_or.rho - rho_cf.rho)) < 1e-6

    def test_criterion_3_points_are_pinned(self):
        # real-arithmetic propagation moves these by rounding only
        ref = json.loads(CRITERION_3_POINTS.read_text())
        s = make_superposition([tuple(entry) for entry in ref["state"]])
        params = ModelParams(**ref["params"])
        support = np.ix_(ref["support"], ref["support"])
        for point in ref["points"]:
            prob, rho = nt_oracle_point(s, params, ref["t"], point["k"])
            assert abs(prob - point["probability"]) <= 1e-13 * point["probability"]
            expected = np.zeros_like(rho.rho)
            expected[support] = np.array(point["rho_re"]) + 1j * np.array(point["rho_im"])
            assert np.max(np.abs(rho.rho - expected)) <= 1e-13, point["k"]

    def test_monitor_trace_is_physical(self, rng):
        s = random_three_mode(rng, 3, 3, 10)
        mat = trace_monitor(s)
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
        assert abs(np.trace(mat).real - s.norm_sq) < 1e-12


LOW_COUNT_STATE = make_superposition([(1, 0, 1), (0, 2, 1), (1, 1, 0.5 + 0.3j), (2, 2, 1), (0, 3, 1)])
LOW_COUNT_PARAMS = ModelParams(lam=0.25, chi=0.325, gamma=1.0)


class TestMonteCarlo:
    def test_seed_reproducibility(self):
        s = make_superposition([(1, 0, 1), (0, 2, 1)])
        h1 = mc_count_histogram(s, P, 1.5, 2000, seed=9)
        h2 = mc_count_histogram(s, P, 1.5, 2000, seed=9)
        assert np.array_equal(h1, h2)
        # exact counts of a complex-arithmetic implementation of the sampler
        assert h1[:7].tolist() == [1325, 518, 126, 24, 6, 1, 0] and h1.sum() == 2000

    def test_batch_size_invariance(self):
        s = make_superposition([(1, 0, 1), (0, 2, 1)])
        h1 = mc_count_histogram(s, P, 1.5, 1500, seed=3, batch_size=1500)
        h2 = mc_count_histogram(s, P, 1.5, 1500, seed=3, batch_size=256)
        assert np.array_equal(h1, h2)

    def test_low_count_item_is_pinned(self):
        # most trajectories never count; exact counts of the sampler that
        # stepped every trajectory through every base step
        hist = mc_count_histogram(LOW_COUNT_STATE, LOW_COUNT_PARAMS, 0.9, 2000, seed=123)
        assert hist[:3].tolist() == [1750, 228, 22] and hist.sum() == 2000

    def test_no_trajectory_counts_at_short_times(self):
        hist = mc_count_histogram(LOW_COUNT_STATE, LOW_COUNT_PARAMS, 0.05, 2000, seed=123)
        assert hist[0] == 2000 and hist.sum() == 2000

    def test_low_count_batch_size_invariance(self):
        h1 = mc_count_histogram(LOW_COUNT_STATE, LOW_COUNT_PARAMS, 0.9, 2000, seed=123)
        h2 = mc_count_histogram(LOW_COUNT_STATE, LOW_COUNT_PARAMS, 0.9, 2000, seed=123, batch_size=256)
        assert np.array_equal(h1, h2)

    def test_overflow_bin_keeps_every_trajectory(self):
        s = make_superposition([(1, 0, 1), (2, 1, 1)])
        hist = mc_count_histogram(s, ModelParams(lam=0.3, chi=1.0, gamma=1.0), 6.0, 20, seed=5)
        counted = {k: int(n) for k, n in enumerate(hist) if n}
        assert counted == {9: 2, 10: 2, 12: 1, 13: 1, 15: 1, oracle._MAX_TRACK + 1: 13}
        assert hist.sum() == 20

    def test_two_seeds_agree_within_six_sigma(self):
        s = make_superposition([(1, 0, 1), (0, 2, 1)])
        n = 4000
        t = 1.5
        for k in (0, 1, 2):
            e1, s1 = p_k_montecarlo(s, P, t, k, n, seed=1)
            e2, s2 = p_k_montecarlo(s, P, t, k, n, seed=2)
            assert abs(e1 - e2) <= 6.0 * math.hypot(s1, s2)

    def test_three_sigma_against_closed_form(self):
        s = make_superposition([(1, 0, 1), (0, 2, 1)])
        t = 2.0
        hist = mc_count_histogram(s, P, t, 20000, seed=7)
        n = hist.sum()
        # exact counts of a complex-arithmetic implementation of the sampler
        assert hist[:9].tolist() == [9749, 5859, 2747, 1166, 340, 108, 26, 5, 0] and n == 20000
        for k in range(6):
            p_cf = count_probability(s, P, t, k)
            est = hist[k] / n
            se = math.sqrt(max(est * (1 - est), 1e-12) / n)
            assert abs(est - p_cf) <= 3.0 * se

    def test_many_counts_per_base_step_match_the_closed_form(self):
        # |2, 0> at chi = gamma = 1 counts about 24 photons by gamma t = 4,
        # so most trajectories count more than once inside some base step
        s = make_number_state(2, 0, 3, 1)
        params = ModelParams(lam=0.0, chi=1.0, gamma=1.0)
        n = 1000
        hist = mc_count_histogram(s, params, 4.0, n, seed=11)
        p_cf = np.array([count_probability(s, params, 4.0, k) for k in range(len(hist) - 1)])
        ks = np.nonzero(n * p_cf >= 20)[0]
        z = (hist[ks] / n - p_cf[ks]) / np.sqrt(p_cf[ks] * (1.0 - p_cf[ks]) / n)
        assert ks.size >= 10 and np.max(np.abs(z)) <= 4.0
        assert hist.sum() == n

    def test_far_tail_reports_one_sided_bound(self):
        s = make_number_state(1, 0, 2, 2)
        est, err = p_k_montecarlo(s, P, 0.5, 40, 1000, seed=4)
        assert est == 0.0
        assert err == 3.0 / 1000

    def test_estimator_variance_scales_inversely_with_samples(self):
        s = make_superposition([(1, 0, 1), (0, 2, 1)])
        t = 1.5
        k = 1
        small = [p_k_montecarlo(s, P, t, k, 1000, seed=100 + i)[0] for i in range(8)]
        big = [p_k_montecarlo(s, P, t, k, 4000, seed=200 + i)[0] for i in range(8)]
        ratio = np.var(small) / np.var(big)
        assert 1.5 < ratio < 11.0  # ~4 expected, wide band for 8 replicas


def test_monitor_dim_resource_guard():
    with pytest.raises(ResourceLimitError):
        monitor_dim(ModelParams(lam=0.0, chi=20.0, gamma=1.0), 6)


def test_quadrature_retains_no_memory():
    # N = 4 at chi/gamma = 0.967 needs d_c = 132 (139 kB per propagator);
    # these two calls make several hundred propagators and keep none
    params = ModelParams(lam=0.0, chi=0.967, gamma=1.0)
    s = make_number_state(2, 2, 3, 3)
    assert monitor_dim(params, s.n_max) == 132
    tracemalloc.start()
    try:
        for t in (0.5, 0.6):
            p_k_quadrature(s, params, t, 2)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 2**20


@pytest.mark.parametrize("n_nodes", [8, 16])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_sector_engine_matches_the_full_tensor(k, n_nodes):
    # lam != 0 and three populated sectors (N = 1, 2, 3): the exchange
    # evolution to t and the Gram form against the record-by-record tensor
    params = ModelParams(lam=0.7, chi=0.4, gamma=1.0)
    s = make_superposition([(1, 0, 1.0), (0, 2, 0.6j), (2, 1, -0.5 + 0.3j)])
    t = 1.1
    prob, rho = oracle._quadrature_level(s, params, t, k, n_nodes, True)
    ref_prob, ref_rho = full_tensor_level(s, params, t, k, n_nodes, monitor_dim(params, 3))
    assert abs(prob - ref_prob) <= 1e-12 * ref_prob
    assert np.max(np.abs(rho - ref_rho)) <= 1e-12


class TestInputValidation:
    s = make_superposition([(1, 0, 1), (0, 2, 1), (2, 2, 1)])
    params = ModelParams(lam=0.3, chi=0.967, gamma=1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -0.5])
    def test_bad_time_rejected_everywhere(self, t):
        s, params = self.s, self.params
        with pytest.raises(ValueError):
            p_k_quadrature(s, params, t, 0)
        with pytest.raises(ValueError):
            nt_oracle_point(s, params, t, 1)
        with pytest.raises(ValueError):
            mc_count_histogram(s, params, t, 10, seed=1)
        with pytest.raises(ValueError):
            p_k_montecarlo(s, params, t, 0, 1000, seed=1)

    def test_monte_carlo_needs_positive_time(self):
        with pytest.raises(ValueError):
            mc_count_histogram(self.s, self.params, 0.0, 10, seed=1)

    @pytest.mark.parametrize("k", [-1, 1.0, 3, True, 2.0, "a"])
    def test_bad_quadrature_count_rejected(self, k):
        with pytest.raises(ValueError):
            p_k_quadrature(self.s, self.params, 1.0, k)
        with pytest.raises(ValueError):
            nt_oracle_point(self.s, self.params, 1.0, k)
        if k != 3:  # the closed forms take any count >= 0 under the same rule
            with pytest.raises(ValueError):
                count_probability(self.s, self.params, 1.0, k)

    @pytest.mark.parametrize("k", [-1, 1.0, 65])
    def test_bad_monte_carlo_count_rejected(self, k):
        # hist[-1] is the overflow bin, so k = -1 must not index it
        with pytest.raises(ValueError):
            p_k_montecarlo(self.s, self.params, 5.0, k, 1000, seed=1)

    @pytest.mark.parametrize("n_samples", [0, -3, True, 2.0, None])
    def test_bad_sample_count_rejected(self, n_samples):
        with pytest.raises(ValueError):
            mc_count_histogram(self.s, self.params, 1.0, n_samples, seed=1)
        with pytest.raises(ValueError):
            p_k_montecarlo(self.s, self.params, 1.0, 0, n_samples, seed=1)

    @pytest.mark.parametrize("batch_size", [-5, 0, True, 1.5])
    def test_bad_batch_size_rejected(self, batch_size):
        # batch_size = -5 returned an all-zero histogram
        with pytest.raises(ValueError):
            mc_count_histogram(self.s, self.params, 1.5, 100, 1, batch_size=batch_size)

    @pytest.mark.parametrize("seed", [None, -1, True, 1.5])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError):
            mc_count_histogram(self.s, self.params, 1.0, 10, seed=seed)
        with pytest.raises(ValueError):
            p_k_montecarlo(self.s, self.params, 1.0, 0, 1000, seed=seed)


superposition_entries = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda mn: sum(mn) <= 4),
    min_size=1,
    max_size=3,
    unique=True,
)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(
    support=superposition_entries,
    amps=st.lists(st.complex_numbers(min_magnitude=0.2, max_magnitude=1.0), min_size=3, max_size=3),
    lam=st.floats(0.0, 1.0),
    ratio=st.floats(0.1, 0.6),
    gamma_t=st.floats(0.2, 3.0),
    k=st.sampled_from([0, 1]),
)
def test_oracle_point_matches_the_closed_forms(support, amps, lam, ratio, gamma_t, k):
    assume(any(m + n > 0 for m, n in support))
    s = make_superposition([(m, n, c) for (m, n), c in zip(support, amps)])
    params = ModelParams(lam=lam, chi=ratio, gamma=1.0)
    prob, rho = nt_oracle_point(s, params, gamma_t, k)
    assert abs(prob - count_probability(s, params, gamma_t, k)) <= 1e-6
    closed = postselect_density(s, params, gamma_t, k)
    assert np.max(np.abs(rho.rho - closed.rho)) <= 1e-6
    got, want = entanglement_report(rho), entanglement_report(closed)
    assert abs(got.excess - want.excess) <= 1e-6
    assert abs(got.s_ab - want.s_ab) <= 1e-6


def test_annihilation_matrix():
    c = annihilation(4)
    assert np.allclose(c, np.diag(np.sqrt([1.0, 2.0, 3.0]), 1))
