"""Property tests of the Poisson-mixture core shared by both readouts,
against scipy.stats.poisson as the reference."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from photoent import TwoModeState, number_weights
from photoent.projective import k_cutoff, mixture_cutoff, mixture_pmf, mixture_pmf_row

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


@PROPERTY
@given(mixtures(), st.integers(min_value=0, max_value=300))
def test_row_is_bitwise_the_scipy_mixture(mix, k_max):
    weights, means = mix
    ks = np.arange(k_max + 1)
    expected = poisson.pmf(ks[:, None], means) @ weights
    assert np.array_equal(mixture_pmf_row(weights, means, k_max), expected)


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
