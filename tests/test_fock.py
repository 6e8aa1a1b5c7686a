import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photoent import (
    DephasedState,
    TwoModeState,
    apply_beam_splitter,
    density_from_pure,
    entanglement_report,
    make_coherent_product,
    make_number_state,
    make_superposition,
    make_two_mode_squeezed,
    number_weights,
    partial_trace,
    separable_benchmark,
)
from photoent.fock import ModelParams, ResourceLimitError, pad_state

from conftest import random_gram_w, random_state
from crosschecks import dense_partial_trace


class TestConstructors:
    def test_number_state_vacuum(self):
        s = make_number_state(0, 0, 4, 4)
        assert s.coeffs[0, 0] == 1.0
        assert np.sum(np.abs(s.coeffs) ** 2) == 1.0
        assert s.trunc_weight == 0.0

    def test_number_state_single_excitation(self):
        s = make_number_state(1, 0, 4, 4)
        assert s.coeffs[1, 0] == 1.0

    def test_number_state_generic(self):
        s = make_number_state(2, 3, 4, 4)
        assert s.coeffs[2, 3] == 1.0
        assert abs(np.linalg.norm(s.coeffs) - 1.0) == 0.0

    def test_number_state_beyond_cutoff(self):
        with pytest.raises(ValueError, match="outside"):
            make_number_state(4, 0, 4, 4)

    @pytest.mark.parametrize("bad", [True, 1.0, 1.5, -1])
    @pytest.mark.parametrize(
        "build",
        [
            lambda bad: make_number_state(bad, 0, 2, 1),
            lambda bad: make_number_state(0, 0, 2, bad),
            lambda bad: make_superposition([(bad, 0, 1.0)]),
            lambda bad: make_superposition([(0, bad, 1.0)]),
            lambda bad: make_two_mode_squeezed(0.5, bad),
        ],
        ids=["number-m", "number-d_b", "superposition-m", "superposition-n", "squeezed-n_max"],
    )
    def test_non_integer_occupation_rejected(self, build, bad):
        # a bool would pass for 1, and a float would fail deep inside numpy
        with pytest.raises(ValueError, match="must be an integer"):
            build(bad)

    def test_coherent_vacuum(self):
        s = make_coherent_product(0, 0, eps_trunc=1e-10)
        assert (s.d_a, s.d_b) == (1, 1)
        assert s.coeffs[0, 0] == 1.0

    def test_coherent_paper_scale_mean(self):
        s = make_coherent_product(math.sqrt(5), math.sqrt(5), eps_trunc=1e-8)
        weights = number_weights(s)
        n = np.arange(len(weights))
        mean = np.sum(weights * n) / np.sum(weights)
        assert abs(mean - 10.0) <= 1e-6
        assert s.trunc_weight <= 1e-8

    def test_coherent_single_mode_poisson(self):
        s = make_coherent_product(1.0, 0.0, eps_trunc=1e-10)
        assert s.d_b == 1
        for m in range(s.d_a):
            assert abs(abs(s.coeffs[m, 0]) ** 2 - math.exp(-1) / math.factorial(m)) < 1e-12

    def test_coherent_resource_error(self):
        with pytest.raises(ResourceLimitError):
            make_coherent_product(100.0, 0.0, eps_trunc=1e-8)

    def test_superposition_bell_like(self):
        s = make_superposition([(1, 0, 1), (0, 1, 1)])
        assert abs(s.coeffs[1, 0] - 1 / math.sqrt(2)) < 1e-15
        assert abs(s.coeffs[0, 1] - 1 / math.sqrt(2)) < 1e-15

    def test_superposition_correlated_pair(self):
        s = make_superposition([(0, 0, 1), (1, 1, 1)])
        assert abs(s.coeffs[0, 0] - 1 / math.sqrt(2)) < 1e-15
        assert abs(s.coeffs[1, 1] - 1 / math.sqrt(2)) < 1e-15

    def test_superposition_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_superposition([(0, 0, 1), (0, 0, 1)])

    def test_superposition_rejects_empty_and_zero(self):
        with pytest.raises(ValueError):
            make_superposition([])
        with pytest.raises(ValueError, match="zero"):
            make_superposition([(0, 0, 0.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TwoModeState(np.array([[1.0, bad]]))
        with pytest.raises(ValueError, match="alpha"):
            make_coherent_product(bad, 1.0)
        with pytest.raises(ValueError, match="beta"):
            make_coherent_product(1.0, complex(0.0, bad))
        with pytest.raises(ValueError, match="entries"):
            make_superposition([(0, 0, 1.0), (1, 0, bad)])

    def test_two_mode_squeezed_coefficients(self):
        r, n_max = 0.5, 6
        s = make_two_mode_squeezed(r, n_max)
        raw = np.array([math.tanh(r) ** n / math.cosh(r) for n in range(n_max + 1)])
        expected = raw / np.linalg.norm(raw)
        for n in range(n_max + 1):
            assert abs(s.coeffs[n, n] - expected[n]) < 1e-15

    def test_model_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(lam=-1.0, chi=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            ModelParams(lam=0.0, chi=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            ModelParams(lam=0.0, chi=1.0, gamma=-2.0)
        with pytest.raises(ValueError):
            ModelParams(lam=float("inf"), chi=1.0, gamma=1.0)

    @pytest.mark.parametrize(
        ("chi", "gamma", "field"),
        [(1.0, 1e-200, "gamma^2"), (1e200, 1.0, "chi^2"), (1e-300, 1.0, "chi^2"), (1e150, 1e-150, "chi^2/gamma^2")],
    )
    def test_rates_whose_squares_leave_the_normal_floats_rejected(self, chi, gamma, field):
        # gamma^2 used to underflow to 0 (ZeroDivisionError in the kernels),
        # chi^2 to overflow (OverflowError) or underflow (peak times of 0.0)
        with pytest.raises(ValueError, match=re.escape(f"{field} must be a positive normal float")):
            ModelParams(lam=0.0, chi=chi, gamma=gamma)

    def test_rates_with_normal_squares_accepted(self):
        for chi, gamma in [(1e-150, 1.0), (1e150, 1.0), (1.0, 1e-150), (1e75, 1e-75)]:
            ModelParams(lam=0.0, chi=chi, gamma=gamma)


class TestBeamSplitter:
    def test_identity_at_zero_time(self, rng):
        s = random_state(rng, 5, 4)
        out = apply_beam_splitter(s, 1.3, 0.0)
        assert np.array_equal(out.coeffs, s.coeffs)

    def test_single_photon_swap(self):
        # 2x2 block generator [[0,1],[1,0]]: exp(-i pi/2 G)|1,0> = -i|0,1>
        s = make_number_state(1, 0, 4, 4)
        out = apply_beam_splitter(s, 1.0, math.pi / 2)
        assert abs(out.coeffs[0, 1] - (-1j)) < 1e-12
        assert abs(out.coeffs[1, 0]) < 1e-12

    def test_coherent_stays_coherent(self):
        alpha, beta = 0.9, 0.4 + 0.3j
        lam_t = 0.7
        s = make_coherent_product(alpha, beta, eps_trunc=1e-20)
        dim = s.d_a + s.d_b
        evolved = apply_beam_splitter(pad_state(s, dim, dim), 1.0, lam_t)
        a_t = alpha * math.cos(lam_t) - 1j * beta * math.sin(lam_t)
        b_t = beta * math.cos(lam_t) - 1j * alpha * math.sin(lam_t)
        m = np.arange(dim)
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
        col = lambda z: np.exp(-abs(z) ** 2 / 2 + m * np.log(abs(z)) - log_fact / 2) * np.exp(
            1j * np.angle(z) * m
        )
        expected = np.outer(col(a_t), col(b_t))
        assert np.linalg.norm(evolved.coeffs - expected) < 1e-9

    def test_matches_expm_of_the_full_generator(self, rng):
        # exp(-i theta (a^dag b + a b^dag)) on the whole truncated 6 x 7 space,
        # where the truncated generator is block diagonal in N
        from scipy.linalg import expm

        d_a, d_b = 6, 7
        a = np.kron(np.diag(np.sqrt(np.arange(1.0, d_a)), 1), np.eye(d_b))
        b = np.kron(np.eye(d_a), np.diag(np.sqrt(np.arange(1.0, d_b)), 1))
        for lam, t in ((0.3, 0.5), (1.0, math.pi / 3), (0.9, 2.7), (1.7, 4.1)):
            s = random_state(rng, d_a, d_b)
            expected = expm(-1j * lam * t * (a.T @ b + a @ b.T)) @ s.coeffs.ravel()
            got = apply_beam_splitter(s, lam, t).coeffs.ravel()
            assert np.max(np.abs(got - expected)) < 1e-13

    def test_total_number_distribution_preserved(self, rng):
        for _ in range(5):
            s = random_state(rng, 6, 5)
            evolved = apply_beam_splitter(s, 0.9, 1.7)
            assert np.max(np.abs(number_weights(evolved) - number_weights(s))) < 1e-12

    def test_semigroup_property(self, rng):
        s = random_state(rng, 5, 5)
        one = apply_beam_splitter(apply_beam_splitter(s, 1.1, 0.4), 1.1, 0.9)
        two = apply_beam_splitter(s, 1.1, 1.3)
        assert np.max(np.abs(one.coeffs - two.coeffs)) < 1e-10


def _full_generator(d_a: int, d_b: int) -> np.ndarray:
    a = np.kron(np.diag(np.sqrt(np.arange(1.0, d_a)), 1), np.eye(d_b))
    b = np.kron(np.eye(d_a), np.diag(np.sqrt(np.arange(1.0, d_b)), 1))
    return a.T @ b + a @ b.T


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 9),
    st.integers(1, 11),
    st.booleans(),
    st.one_of(st.just(0.0), st.floats(-300.0, -8.0).map(lambda e: 10.0**e), st.floats(0.0, 10.0)),
    st.integers(0, 2**32 - 1),
)
@example(1, 11, False, 3.0, 0)
@example(1, 11, True, 3.0, 0)
@example(1, 1, False, 2.0, 0)
@example(9, 11, False, 5e-324, 0)
def test_series_matches_expm_of_the_full_generator(d_a, d_b, transpose, theta, seed):
    # every shape up to 9 x 11 either way round, 1 x d and d x 1 included,
    # at theta = 0, at tiny theta and up to theta = 10, without a RuntimeWarning
    from scipy.linalg import expm

    if transpose:
        d_a, d_b = d_b, d_a
    s = random_state(np.random.default_rng(seed), d_a, d_b)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = apply_beam_splitter(s, theta, 1.0).coeffs.ravel()
    expected = expm(-1j * theta * _full_generator(d_a, d_b)) @ s.coeffs.ravel()
    assert np.max(np.abs(got - expected)) < 1e-13


class TestBeamSplitterResources:
    def test_nothing_stays_allocated_but_the_result(self):
        # d = 116 x 99: no per-shape table or cache outlives the call
        apply_beam_splitter(make_coherent_product(2.0, 1.5), 0.3, 0.5)  # first-call set-up elsewhere
        s = make_coherent_product(8.0, math.sqrt(52.0))
        assert (s.d_a, s.d_b) == (116, 99)
        tracemalloc.start()
        try:
            out = apply_beam_splitter(s, 0.3, 0.8)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.coeffs.nbytes <= held < out.coeffs.nbytes + 16_384, held

    @pytest.mark.parametrize("lam, t", [(1e12, 1.0), (1e300, 1e300)])
    def test_huge_lambda_t_raises_before_any_work(self, lam, t):
        s = make_coherent_product(2.0, 1.5)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=rf"lambda t = .* on n_max = {s.n_max} .* beyond the budget"):
            apply_beam_splitter(s, lam, t)
        assert time.perf_counter() - start < 0.1


class TestDensities:
    def test_density_from_vacuum(self):
        rho = density_from_pure(make_number_state(0, 0, 2, 2))
        assert rho.rho[0, 0] == 1.0
        assert np.count_nonzero(rho.rho) == 1

    def test_density_from_bell_like(self):
        rho = density_from_pure(make_superposition([(0, 0, 1), (1, 1, 1)]))
        nonzero = np.abs(rho.rho[np.abs(rho.rho) > 0])
        assert len(nonzero) == 4
        assert np.allclose(nonzero, 0.5)

    def test_unit_trace(self, rng):
        rho = density_from_pure(random_state(rng, 4, 6))
        assert abs(rho.trace - 1.0) < 1e-12

    @staticmethod
    def _partial_trace(rho, keep):
        # `partial_trace`, checked against the einsum over the dense matrix
        reduced = partial_trace(rho, keep)
        assert np.max(np.abs(reduced - dense_partial_trace(rho, keep))) <= 1e-14
        return reduced

    def test_partial_trace_product_state(self, rng):
        sa = rng.normal(size=3) + 1j * rng.normal(size=3)
        sb = rng.normal(size=4) + 1j * rng.normal(size=4)
        coeffs = np.outer(sa, sb)
        s = TwoModeState(coeffs / np.linalg.norm(coeffs))
        rho = density_from_pure(s)
        a = sa / np.linalg.norm(sa)
        assert np.max(np.abs(self._partial_trace(rho, "A") - np.outer(a, a.conj()))) < 1e-12

    def test_partial_trace_bell_like(self):
        rho = density_from_pure(make_superposition([(0, 0, 1), (1, 1, 1)]))
        reduced = self._partial_trace(rho, "A")
        assert np.max(np.abs(reduced - np.diag([0.5, 0.5]))) < 1e-14

    def test_partial_trace_vacuum(self):
        rho = density_from_pure(make_number_state(0, 0, 3, 3))
        assert np.max(np.abs(self._partial_trace(rho, "B") - np.diag([1.0, 0.0, 0.0]))) < 1e-15

    def test_partial_trace_preserves_trace(self, rng):
        rho = density_from_pure(random_state(rng, 5, 4))
        for keep in ("A", "B"):
            assert abs(np.trace(self._partial_trace(rho, keep)).real - 1.0) < 1e-12

    def test_partial_trace_is_linear_under_mixing(self, rng):
        s = random_state(rng, 4, 4)
        w1, w2 = random_gram_w(rng, s.n_max + 1), random_gram_w(rng, s.n_max + 1)
        p = 0.3
        direct = self._partial_trace(DephasedState(s, p * w1 + (1 - p) * w2), "B")
        combo = p * self._partial_trace(DephasedState(s, w1), "B") + (1 - p) * self._partial_trace(
            DephasedState(s, w2), "B"
        )
        assert np.max(np.abs(direct - combo)) < 1e-12

    def test_number_weights_of_a_dephased_state(self, rng):
        s = random_state(rng, 4, 5)
        rho = DephasedState(s, random_gram_w(rng, s.n_max + 1) * 0.9)
        weights = number_weights(rho)
        assert np.array_equal(weights, number_weights(s) * np.diagonal(rho.w))
        assert abs(np.sum(weights) - rho.trace) <= 1e-15
        assert np.array_equal(number_weights(density_from_pure(s)), number_weights(s))


class TestEntanglementReport:
    def test_pure_product_state(self):
        rho = density_from_pure(make_coherent_product(0.7, 0.3, eps_trunc=1e-12))
        rep = entanglement_report(rho)
        assert abs(rep.excess) < 1e-10
        assert abs(rep.s_ab) < 1e-10
        assert rep.araki_lieb_ok

    def test_bell_like_state(self):
        rho = density_from_pure(make_superposition([(0, 0, 1), (1, 1, 1)]))
        rep = entanglement_report(rho)
        assert abs(rep.s_a - 0.5) < 1e-12
        assert abs(rep.s_b - 0.5) < 1e-12
        assert abs(rep.s_ab) < 1e-12
        assert abs(rep.excess - 1.0) < 1e-12
        assert rep.araki_lieb_ok

    def test_pure_states_have_equal_marginals(self, rng):
        for _ in range(10):
            rep = entanglement_report(density_from_pure(random_state(rng, 5, 4)))
            assert rep.s_ab <= 1e-10
            assert abs(rep.s_a - rep.s_b) <= 1e-10
            assert rep.araki_lieb_ok

    def test_bound_on_random_mixtures(self, rng):
        for _ in range(10):
            s = random_state(rng, 4, 4)
            rep = entanglement_report(DephasedState(s, random_gram_w(rng, s.n_max + 1)))
            assert rep.araki_lieb_ok

    def test_rejects_badly_normalized_input(self):
        with pytest.raises(ValueError, match="trace"):
            entanglement_report(DephasedState(make_number_state(0, 0, 2, 2), np.full((3, 3), 4 / 3.9)))


class TestSeparableBenchmark:
    def test_trivial(self):
        assert separable_benchmark(1, 1) == (0.0, 0.0)

    def test_two_by_two(self):
        assert separable_benchmark(2, 2) == (0.25, 0.75)

    def test_large_dimension_limit(self):
        excess, s_ab = separable_benchmark(10**6, 10**6)
        assert abs(excess - 1.0) <= 2e-6
        assert abs(s_ab - 1.0) <= 2e-6
