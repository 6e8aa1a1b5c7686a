import cmath
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
    DephasedState,
    ModelParams,
    apply_beam_splitter,
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
    mc_estimates,
    monitor_dim,
    nt_oracle_point,
    p_k_quadrature,
)
from photoent.photocount import eval_kernels

from crosschecks import (
    ThreeModeState,
    dense_entropies,
    embed_with_monitor,
    full_tensor_level,
    jump,
    no_count_evolution,
    no_count_evolution_ode,
    per_trajectory_histogram,
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


class TestExpm:
    """The oracles' numpy matrix exponential against scipy's."""

    @pytest.mark.parametrize("ratio", [0.05, 0.325, 0.9])
    @pytest.mark.parametrize("n_tot", [1, 3, 6])
    def test_matches_scipy_on_the_oracle_stacks(self, ratio, n_tot):
        params = ModelParams(lam=0.0, chi=ratio, gamma=1.0)
        d_c = monitor_dim(params, n_tot)
        gen = oracle._monitor_generator(params.chi, params.gamma, n_tot, d_c)
        exp = oracle._exp_map(gen)
        x = np.polynomial.legendre.leggauss(16)[0]
        for t in (0.5, 2.0, 16.0):
            # the Monte Carlo levels t / 2^36 .. t, and a quadrature batch
            for taus in (t / 2.0 ** np.arange(37), 0.25 * t * (x + 1.0)):
                ref = expm(taus[:, None, None] * gen)
                worst = np.max(np.abs(exp(taus) - ref))
                assert worst <= 1e-13 * np.max(np.abs(ref)), (t, d_c, worst)

    def test_shapes_and_trivial_generators(self, rng):
        one = oracle._exp_map(np.array([[-0.5]]))(2.0)
        assert one.shape == (1, 1) and one[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-15)
        taus = np.array([[0.0, 0.3], [1.0, 40.0]])
        assert np.array_equal(oracle._exp_map(np.zeros((3, 3)))(taus), np.broadcast_to(np.eye(3), (2, 2, 3, 3)))
        gen = rng.normal(size=(5, 5))
        taus = np.array([[0.0, 0.3], [1.0, 3.0]])
        batch = oracle._exp_map(gen)(taus)
        assert batch.shape == (2, 2, 5, 5)
        assert np.array_equal(batch[0, 0], np.eye(5))
        for tau, got in zip(taus.ravel(), batch.reshape(-1, 5, 5)):
            assert np.max(np.abs(got - expm(tau * gen))) <= 1e-13 * np.max(np.abs(got))


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

    def test_oracle_state_reports_like_its_dense_density(self):
        s = make_superposition([(1, 0, 1.0), (0, 2, 0.6j), (2, 1, -0.5 + 0.3j), (1, 1, 0.4)])
        for k in (0, 1, 2):
            rho = nt_oracle_point(s, P, 1.1, k)[1]
            assert isinstance(rho, DephasedState)
            sector = entanglement_report(rho)
            dense = dense_entropies(rho)
            for name in ("s_a", "s_b", "s_ab", "excess"):
                assert abs(getattr(sector, name) - dense[name]) <= 1e-13, (k, name)

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


# oracle-check-shaped Monte Carlo items (one entry per N = 1..4, chi/gamma
# about 1/3, 2,000 trajectories) and one single-sector item of two batches:
# (entries (m, n, phase), lam, chi, t, n_samples, seed, nonzero bins)
PINNED_MC_ITEMS = [
    ([(0, 1, 4.576), (2, 0, 1.258), (3, 0, 4.758), (3, 1, 3.35)], 0.191, 0.3347, 0.825, 2000, 539, {0: 1779, 1: 210, 2: 11}),
    ([(1, 0, 1.945), (2, 0, 3.263), (3, 0, 4.331), (4, 0, 5.81)], 0.249, 0.3331, 1.038, 2000, 888, {0: 1652, 1: 289, 2: 51, 3: 8}),
    ([(0, 1, 4.842), (2, 0, 2.927), (2, 1, 4.793), (3, 1, 2.079)], 0.238, 0.3265, 0.897, 2000, 581, {0: 1741, 1: 232, 2: 25, 3: 2}),
    ([(1, 0, 1.439), (0, 2, 4.712), (0, 3, 6.101), (1, 3, 5.303)], 0.096, 0.3392, 1.365, 2000, 431, {0: 1356, 1: 444, 2: 150, 3: 42, 4: 7, 5: 1}),
    ([(1, 0, 2.081), (2, 0, 1.483), (3, 0, 2.298), (4, 0, 2.317)], 0.179, 0.3326, 0.714, 2000, 638, {0: 1855, 1: 140, 2: 5}),
    ([(1, 0, 5.907), (2, 0, 2.921), (1, 2, 4.298), (2, 2, 2.085)], 0.062, 0.3337, 0.518, 2000, 863, {0: 1936, 1: 63, 2: 1}),
    ([(0, 1, 5.654), (1, 1, 4.422), (1, 2, 1.436), (1, 3, 5.045)], 0.072, 0.3292, 0.716, 2000, 536, {0: 1861, 1: 128, 2: 11}),
    ([(1, 0, 1.263), (1, 1, 1.894), (3, 0, 0.853), (3, 1, 3.313)], 0.149, 0.3378, 1.341, 2000, 180, {0: 1386, 1: 429, 2: 147, 3: 36, 5: 2}),
    ([(1, 0, 2.01), (2, 0, 3.637), (3, 0, 5.882), (4, 0, 0.745)], 0.017, 0.3225, 1.395, 2000, 928, {0: 1348, 1: 458, 2: 144, 3: 44, 4: 6}),
    ([(1, 0, 5.947), (2, 0, 1.484), (3, 0, 1.018), (4, 0, 3.882)], 0.243, 0.3319, 1.375, 2000, 618, {0: 1347, 1: 462, 2: 139, 3: 42, 4: 9, 5: 1}),
    ([(0, 1, 3.519), (0, 2, 0.003), (0, 3, 0.182), (0, 4, 0.652)], 0.257, 0.3335, 1.281, 2000, 593, {0: 1441, 1: 414, 2: 116, 3: 25, 4: 1, 5: 2, 6: 1}),
    ([(1, 3, 0.0)], 0.26, 0.3373, 0.6, 5000, 136, {0: 4520, 1: 457, 2: 22, 3: 1}),
]


class TestMonteCarlo:
    def test_seed_reproducibility(self):
        s = make_superposition([(1, 0, 1), (0, 2, 1)])
        h1 = mc_count_histogram(s, P, 1.5, 2000, seed=9)
        h2 = mc_count_histogram(s, P, 1.5, 2000, seed=9)
        assert np.array_equal(h1, h2)
        # exact counts of `per_trajectory_histogram` too
        assert h1[:7].tolist() == [1370, 483, 118, 22, 4, 2, 1] and h1.sum() == 2000

    @pytest.mark.parametrize(
        ("state", "params", "t", "n", "seed"),
        [
            (make_superposition([(1, 0, 1), (0, 2, 1)]), P, 1.5, 2000, 9),
            (make_superposition([(1, 0, 1), (2, 1, 1)]), ModelParams(lam=0.3, chi=1.0, gamma=1.0), 6.0, 20, 5),
            (make_superposition([(0, 0, 1), (1, 1, 1)]), P, 2.0, 2000, 17),
            (LOW_COUNT_STATE, LOW_COUNT_PARAMS, 0.9, 2000, 123),
        ],
        ids=["two_sectors", "overflow", "vacuum", "low_count"],
    )
    def test_matches_the_per_trajectory_sampler(self, state, params, t, n, seed):
        hist = mc_count_histogram(state, params, t, n, seed)
        assert np.array_equal(hist, per_trajectory_histogram(state, params, t, n, seed))

    def test_workload_items_are_pinned(self):
        # exact histograms, so a change to the sampler's bookkeeping that
        # moves any trajectory shows here
        assert PINNED_MC_ITEMS[-1][4] > oracle._BATCH
        for entries, lam, chi, t, n, seed, bins in PINNED_MC_ITEMS:
            s = make_superposition([(m, k, cmath.rect(1.0, phase)) for m, k, phase in entries])
            hist = mc_count_histogram(s, ModelParams(lam=lam, chi=chi, gamma=1.0), t, n, seed)
            assert {k: int(v) for k, v in enumerate(hist) if v} == bins, seed

    def test_batch_size_invariance(self, monkeypatch):
        s = make_superposition([(1, 0, 1), (0, 2, 1)])
        h1 = mc_count_histogram(s, P, 1.5, 1500, seed=3)
        monkeypatch.setattr(oracle, "_BATCH", 256)
        h2 = mc_count_histogram(s, P, 1.5, 1500, seed=3)
        assert np.array_equal(h1, h2)

    def test_low_count_item_is_pinned(self):
        # most trajectories never count; exact counts of
        # `per_trajectory_histogram` too
        hist = mc_count_histogram(LOW_COUNT_STATE, LOW_COUNT_PARAMS, 0.9, 2000, seed=123)
        assert hist[:3].tolist() == [1773, 206, 21] and hist.sum() == 2000

    def test_no_trajectory_counts_at_short_times(self):
        hist = mc_count_histogram(LOW_COUNT_STATE, LOW_COUNT_PARAMS, 0.05, 2000, seed=123)
        assert hist[0] == 2000 and hist.sum() == 2000

    def test_low_count_batch_size_invariance(self, monkeypatch):
        h1 = mc_count_histogram(LOW_COUNT_STATE, LOW_COUNT_PARAMS, 0.9, 2000, seed=123)
        monkeypatch.setattr(oracle, "_BATCH", 256)
        h2 = mc_count_histogram(LOW_COUNT_STATE, LOW_COUNT_PARAMS, 0.9, 2000, seed=123)
        assert np.array_equal(h1, h2)

    def test_overflow_bin_keeps_every_trajectory(self):
        s = make_superposition([(1, 0, 1), (2, 1, 1)])
        hist = mc_count_histogram(s, ModelParams(lam=0.3, chi=1.0, gamma=1.0), 6.0, 20, seed=5)
        counted = {k: int(n) for k, n in enumerate(hist) if n}
        expected = {5: 1, 7: 1, 8: 1, 10: 4, 12: 1, 14: 1, 16: 2, 20: 1, oracle._MAX_TRACK + 1: 8}
        assert counted == expected
        assert hist.sum() == 20

    def test_two_seeds_agree_within_six_sigma(self):
        s = make_superposition([(1, 0, 1), (0, 2, 1)])
        n = 4000
        t = 1.5
        for k in (0, 1, 2):
            e1, s1 = mc_estimates(s, P, t, [k], n, seed=1)[0]
            e2, s2 = mc_estimates(s, P, t, [k], n, seed=2)[0]
            assert abs(e1 - e2) <= 6.0 * math.hypot(s1, s2)

    def test_three_sigma_against_closed_form(self):
        s = make_superposition([(1, 0, 1), (0, 2, 1)])
        t = 2.0
        hist = mc_count_histogram(s, P, t, 20000, seed=7)
        n = hist.sum()
        # exact counts of `per_trajectory_histogram` too
        assert hist[:9].tolist() == [9745, 5912, 2761, 1068, 390, 97, 21, 6, 0] and n == 20000
        for k in range(6):
            p_cf = count_probability(s, P, t, k)
            est = hist[k] / n
            se = math.sqrt(max(est * (1 - est), 1e-12) / n)
            assert abs(est - p_cf) <= 3.0 * se

    def test_vacuum_sector_within_four_sigma(self):
        # N = 0 never counts (zero jump rate, norms exactly 1), next to N = 2
        s = make_superposition([(0, 0, 1), (1, 1, 1)])
        n = 20000
        hist = mc_count_histogram(s, P, 2.0, n, seed=17)
        for k in range(5):
            p_cf = count_probability(s, P, 2.0, k)
            assert abs(hist[k] / n - p_cf) <= 4.0 * math.sqrt(p_cf * (1.0 - p_cf) / n), k
        assert hist.sum() == n

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
        est, err = mc_estimates(s, P, 0.5, [40], 1000, seed=4)[0]
        assert est == 0.0
        assert err == 3.0 / 1000

    def test_estimator_variance_scales_inversely_with_samples(self):
        s = make_superposition([(1, 0, 1), (0, 2, 1)])
        t = 1.5
        k = 1
        small = [mc_estimates(s, P, t, [k], 1000, seed=100 + i)[0][0] for i in range(8)]
        big = [mc_estimates(s, P, t, [k], 4000, seed=200 + i)[0][0] for i in range(8)]
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


@pytest.mark.parametrize("n_nodes", [5, 8, 16])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_sector_engine_matches_the_full_tensor(k, n_nodes):
    # lam != 0 and three populated sectors (N = 1, 2, 3): the exchange
    # evolution to t and the Gram form against the record-by-record tensor;
    # at an odd node count the middle node is its own mirror
    params = ModelParams(lam=0.7, chi=0.4, gamma=1.0)
    s = make_superposition([(1, 0, 1.0), (0, 2, 0.6j), (2, 1, -0.5 + 0.3j)])
    t = 1.1
    evolved = apply_beam_splitter(s, params.lam, t)
    prob, rho, _ = oracle._quadrature_level(oracle._sector_setup(s, params), params, t, k, n_nodes, evolved)
    ref_prob, ref_rho = full_tensor_level(s, params, t, k, n_nodes, monitor_dim(params, 3))
    assert abs(prob - ref_prob) <= 1e-12 * ref_prob
    assert np.max(np.abs(prob * rho.rho - ref_rho)) <= 1e-12


def _levels_called(monkeypatch):
    """Record the node count of every quadrature level the oracle builds."""
    calls = []
    level = oracle._quadrature_level

    def spy(setup, params, t, k, n_nodes, evolved):
        calls.append(n_nodes)
        return level(setup, params, t, k, n_nodes, evolved)

    monkeypatch.setattr(oracle, "_quadrature_level", spy)
    return calls


def _two_level_ladder(s, params, t, k):
    """The node ladder alone: the first level that agrees with the one
    before it, probability relative and dense density by max element."""
    setup, evolved = oracle._sector_setup(s, params), apply_beam_splitter(s, params.lam, t)
    prev = None
    for n in oracle._NODE_LADDER:
        prob, rho, _ = oracle._quadrature_level(setup, params, t, k, n, evolved)
        if prev is not None and abs(prob - prev[0]) <= 1e-6 * prob and np.max(np.abs(rho.rho - prev[1].rho)) <= 1e-6:
            return n, prob, rho
        prev = prob, rho


def test_rejected_estimate_falls_back_to_the_ladder(monkeypatch):
    # |1, 0>, k = 2 at gamma t = 13: the 16-node null-rule estimate (2.4e-6
    # relative) rejects, 8 and 16 nodes differ by 1.7e-6 and 16 and 32 agree
    # to 3e-15, so the ladder returns 32 nodes; bitwise the ladder alone
    s, params, t = make_number_state(1, 0, 2, 1), ModelParams(lam=0.3, chi=0.7, gamma=1.0), 13.0
    n, ladder_prob, ladder_rho = _two_level_ladder(s, params, t, 2)
    calls = _levels_called(monkeypatch)
    prob, rho = nt_oracle_point(s, params, t, 2)
    assert calls == [16, 8, 32] and n == 32
    assert prob == ladder_prob and np.array_equal(rho.w, ladder_rho.w)


def test_density_estimate_can_decide(monkeypatch):
    # gamma t = 6.4: the probability's estimate (7.2e-8 relative) is within
    # 1e-6 / _NULL_MARGIN, the density's (1.4e-7) is not, so p_k_quadrature
    # takes the 16-node level alone and nt_oracle_point checks it against
    # 8 nodes (2e-8 apart) first
    s, params, t = make_number_state(1, 0, 2, 1), ModelParams(lam=0.3, chi=0.7, gamma=1.0), 6.4
    calls = _levels_called(monkeypatch)
    prob_only = p_k_quadrature(s, params, t, 2)
    assert calls == [16]
    calls.clear()
    prob, rho = nt_oracle_point(s, params, t, 2)
    assert calls == [16, 8]
    monkeypatch.undo()
    n, ladder_prob, ladder_rho = _two_level_ladder(s, params, t, 2)
    assert n == 16 and prob == prob_only == ladder_prob and np.array_equal(rho.w, ladder_rho.w)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_per_sector_cutoffs_at_the_edges(k):
    # the vacuum (N = 0, cutoff 10) next to N = 1 (19) and N = 5 (75): each
    # sector at its own cutoff, zero-padded to 75, against the tensor at 75
    params = ModelParams(lam=0.7, chi=0.5, gamma=1.0)
    s = make_superposition([(0, 0, 0.5), (1, 0, 1.0), (2, 3, 0.8j)])
    assert [monitor_dim(params, n) for n in (0, 1, 5)] == [10, 19, 75]
    t = 1.1
    evolved = apply_beam_splitter(s, params.lam, t)
    prob, rho, _ = oracle._quadrature_level(oracle._sector_setup(s, params), params, t, k, 8, evolved)
    ref_prob, ref_rho = full_tensor_level(s, params, t, k, 8, 75)
    assert abs(prob - ref_prob) <= 1e-12 * ref_prob
    assert np.max(np.abs(prob * rho.rho - ref_rho)) <= 1e-12
    assert abs(p_k_quadrature(s, params, t, k) - count_probability(s, params, t, k)) <= 1e-6
    assert abs(nt_oracle_point(s, params, t, k)[1].trace - 1.0) <= 1e-8


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
            mc_estimates(s, params, t, [0], 1000, seed=1)

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
            mc_estimates(self.s, self.params, 5.0, [k], 1000, seed=1)

    @pytest.mark.parametrize("n_samples", [0, -3, True, 2.0, None, 2**32 + 1])
    def test_bad_sample_count_rejected(self, n_samples):
        with pytest.raises(ValueError):
            mc_count_histogram(self.s, self.params, 1.0, n_samples, seed=1)
        with pytest.raises(ValueError):
            mc_estimates(self.s, self.params, 1.0, [0], n_samples, seed=1)

    @pytest.mark.parametrize("seed", [None, -1, True, 1.5])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError):
            mc_count_histogram(self.s, self.params, 1.0, 10, seed=seed)
        with pytest.raises(ValueError):
            mc_estimates(self.s, self.params, 1.0, [0], 1000, seed=seed)


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
