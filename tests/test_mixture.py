"""Property tests of the Poisson-mixture core shared by both readouts,
against scipy.stats.poisson and mpmath as the references."""

import math

import mpmath
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from photoent import TwoModeState, number_weights
from photoent.projective import _poisson_pmf, k_cutoff, mixture_cutoff, mixture_pmf, mixture_pmf_row

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# zero, sub-1e-6 and up to 5e3: the regimes of the cutoff and the pmf formula
mean_value = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-6, exclude_min=True),
    st.floats(min_value=1e-6, max_value=5e3),
)


@st.composite
def mixtures(draw):
    size = draw(st.integers(min_value=1, max_value=12))
    means = np.array(draw(st.lists(mean_value, min_size=size, max_size=size)))
    raw = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=size, max_size=size))
    weights = np.array(raw) + 1e-3
    return weights / np.sum(weights), means


def pmf_draws(rng, n):
    """(k, mean) pairs over k = 0..2e5: means spread log-uniformly over
    [1e-8, 1e5], and means within a few sqrt(k) of k, where the pmf is
    largest; the exact zero mean is included."""
    ks = np.floor(np.exp(rng.uniform(0.0, math.log(2e5), n))).astype(int) - 1
    spread = 10.0 ** rng.uniform(-8.0, 5.0, n)
    near = np.maximum(ks + rng.normal(0.0, 3.0, n) * np.sqrt(ks + 1.0), 1e-3)
    means = np.where(rng.random(n) < 0.5, spread, near)
    means[:20] = 0.0
    return ks, means


def test_pmf_is_accurate_against_mpmath():
    """exp(k log m - log k! - m) is accurate to a few ulp of its exponent's
    terms, the same bound scipy.stats.poisson.pmf meets.  (Its last bits
    are not scipy's: math.lgamma and gammaln differ by an ulp for about
    half of k <= 2e5.)"""
    mpmath.mp.dps = 40
    ks, means = pmf_draws(np.random.default_rng(7), 3000)
    exact = np.array(
        [float(mpmath.exp(k * mpmath.log(m) - mpmath.loggamma(k + 1) - m)) if m > 0 else float(k == 0)
         for k, m in zip(ks.tolist(), means.tolist())]
    )
    scale = np.finfo(float).eps * (np.abs(ks * np.log(np.where(means > 0, means, 1.0)))
                                   + np.array([math.lgamma(k + 1.0) for k in ks]) + means + 1.0)
    rows = _poisson_pmf(ks, means)
    scalars = np.array([mixture_pmf(np.ones(1), np.array([m]), k) for k, m in zip(ks.tolist(), means)])
    assert np.array_equal(rows, scalars)
    assert np.array_equal(rows[means == 0], (ks[means == 0] == 0).astype(float))
    normal = exact > 1e-290  # relative errors of subnormal results say nothing
    assert np.count_nonzero(normal) > 1500
    for values in (rows, poisson.pmf(ks, means)):
        rel = np.abs(values[normal] - exact[normal]) / exact[normal]
        assert np.all(rel <= 4.0 * scale[normal])


@PROPERTY
@given(mixtures(), st.integers(min_value=0, max_value=300))
def test_scalar_form_agrees_with_row(mix, k_max):
    weights, means = mix
    row = mixture_pmf_row(weights, means, k_max)
    for k in range(0, k_max + 1, max(1, k_max // 20)):
        assert abs(mixture_pmf(weights, means, k) - row[k]) <= 1e-15


@PROPERTY
@given(mixtures(), st.lists(mean_value, min_size=1, max_size=8), st.integers(min_value=0, max_value=60))
def test_mixture_rows_are_bitwise_the_scalar_form(mix, us, k):
    # the peak search evaluates a whole grid of u at once: means u_i N^2 per row
    weights, n_sq = mix
    us = np.array(us)
    grid = mixture_pmf(weights, np.multiply.outer(us, n_sq), k)
    assert np.array_equal(grid, [mixture_pmf(weights, u * n_sq, k) for u in us])


@PROPERTY
@given(mean_value, st.sampled_from([1e-12, 1e-14, 1e-16]))
def test_cutoff_matches_scipy_isf(mean_max, tail):
    expected = 1 if mean_max == 0.0 else int(poisson.isf(tail, mean_max)) + 2
    assert k_cutoff(mean_max, tail) == expected


@st.composite
def sector_states(draw):
    """States on grids up to 12 x 12 with a random subset of populated
    entries, so the largest populated N is often below the largest
    representable one."""
    d_a = draw(st.integers(min_value=1, max_value=12))
    d_b = draw(st.integers(min_value=1, max_value=12))
    size = d_a * d_b
    mags = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    keep = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    coeffs = (mags * keep).reshape(d_a, d_b)
    norm = np.linalg.norm(coeffs)
    assume(norm > 1e-3)
    return TwoModeState(coeffs / norm)


def omitted_mass(state: TwoModeState, u: float, k_max: int) -> float:
    weights = number_weights(state)
    return float(weights @ poisson.sf(k_max, u * np.arange(len(weights)) ** 2))


@PROPERTY
@given(
    sector_states(),
    st.one_of(st.floats(min_value=-16.0, max_value=-10.0), st.floats(min_value=-10.0, max_value=2.0)),
    st.sampled_from([1e-10, 1e-12, 1e-14]),
)
def test_mixture_cutoff_is_the_smallest_within_the_tail(state, log_u, tail):
    u = 10.0**log_u
    cut = mixture_cutoff(state, u, tail)
    assert omitted_mass(state, u, cut) <= tail
    if cut > 0:
        assert omitted_mass(state, u, cut - 1) > tail
    assert cut <= k_cutoff(u * state.n_max**2, tail)
