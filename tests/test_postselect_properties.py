"""Property tests of the counting-conditioned density `postselect_density`
over the parameter space: the series branch gamma t < 0.5 up to gamma t = 20,
chi/gamma up to 3 and k up to 200, on states with cutoffs d <= 8."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from photoent import (
    DephasedState,
    ModelParams,
    TwoModeState,
    entanglement_report,
    postselect_density,
)
from photoent.fock import _dephasing
from photoent.photocount import eval_kernels

from crosschecks import dense_entropies

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

amplitude = st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False)


@st.composite
def states(draw):
    d_a = draw(st.integers(min_value=1, max_value=8))
    d_b = draw(st.integers(min_value=2, max_value=8))
    size = d_a * d_b
    re = draw(st.lists(amplitude, min_size=size, max_size=size))
    im = draw(st.lists(amplitude, min_size=size, max_size=size))
    coeffs = (np.array(re) + 1j * np.array(im)).reshape(d_a, d_b)
    norm = np.linalg.norm(coeffs)
    assume(norm > 1e-3)
    return TwoModeState(coeffs / norm)


def sector_weights(coeffs: np.ndarray) -> np.ndarray:
    """P_N from the coefficient matrix, summed along anti-diagonals."""
    d_a, d_b = coeffs.shape
    totals = (np.arange(d_a)[:, None] + np.arange(d_b)[None, :]).ravel()
    return np.bincount(totals, weights=np.abs(coeffs.ravel()) ** 2)


@st.composite
def conditioning(draw):
    """(state, params, t, k) with k drawn near the count of a populated sector,
    so the outcome stays representable."""
    state = draw(states())
    gamma_t = 10.0 ** draw(st.floats(-3.0, np.log10(20.0)))  # series branch below 0.5
    params = ModelParams(
        lam=draw(st.floats(0.0, 2.0)), chi=draw(st.floats(0.05, 3.0)), gamma=1.0
    )
    weights = sector_weights(state.coeffs)
    populated = np.flatnonzero(weights > 1e-12)
    n0 = draw(st.sampled_from(populated[::-1].tolist()))  # largest N first
    u = eval_kernels(params, gamma_t).u
    q = draw(st.floats(0.01, 0.99))
    k = draw(st.one_of(st.just(int(min(200, poisson.ppf(q, u * n0**2)))), st.integers(0, 200)))
    p_k = float(np.sum(weights * poisson.pmf(k, u * np.arange(len(weights)) ** 2)))
    assume(p_k > 1e-280)
    return state, params, gamma_t, k


@PROPERTY
@given(conditioning())
def test_density_is_a_normalized_positive_state(case):
    rho = postselect_density(*case).rho
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-14
    assert np.linalg.eigvalsh(rho).min() > -1e-12


@PROPERTY
@given(conditioning())
def test_sector_diagonal_is_the_count_posterior(case):
    # weight of sector N after k counts: P_N Poisson(k; u N^2) / P(k)
    state, params, t, k = case
    rho = postselect_density(state, params, t, k)
    weights = sector_weights(state.coeffs)
    n = np.arange(len(weights))
    joint = weights * poisson.pmf(k, eval_kernels(params, t).u * n**2)
    totals = (np.arange(rho.d_a)[:, None] + np.arange(rho.d_b)[None, :]).ravel()
    diagonal = np.bincount(totals, weights=np.diag(rho.rho).real, minlength=len(n))
    assert np.max(np.abs(diagonal - joint / np.sum(joint))) <= 1e-10


@PROPERTY
@given(conditioning())
def test_araki_lieb_and_mode_swap_symmetry(case):
    state, params, t, k = case
    report = entanglement_report(postselect_density(state, params, t, k))
    assert report.araki_lieb_ok, report
    swapped = entanglement_report(
        postselect_density(TwoModeState(state.coeffs.T), params, t, k)
    )
    assert abs(swapped.s_a - report.s_b) <= 1e-12
    assert abs(swapped.s_b - report.s_a) <= 1e-12
    assert abs(swapped.s_ab - report.s_ab) <= 1e-12


@PROPERTY
@given(conditioning())
def test_sector_report_matches_the_dense_report(case):
    # the dense reference traces out the (d_a d_b)^2 matrix itself
    rho = postselect_density(*case)
    assert isinstance(rho, DephasedState)
    sector = entanglement_report(rho)
    dense = dense_entropies(rho)
    assert abs(sector.s_a - dense["s_a"]) <= 1e-13
    assert abs(sector.s_b - dense["s_b"]) <= 1e-13
    assert abs(sector.s_ab - dense["s_ab"]) <= 1e-13


@PROPERTY
@given(conditioning())
def test_density_is_the_dephased_post_state(case):
    rho = postselect_density(*case)
    mu = eval_kernels(case[1], case[2]).mu
    psi = rho.state.coeffs.reshape(-1)
    totals = (np.arange(rho.d_a)[:, None] + np.arange(rho.d_b)[None, :]).ravel()
    gap = np.subtract.outer(totals, totals).astype(float)
    expected = np.exp(-mu * gap**2 / 2.0) * np.outer(psi, psi.conj())
    assert np.max(np.abs(rho.rho - expected)) <= 1e-15
    assert np.array_equal(rho.w, _dephasing(rho.n_max, mu / 2.0))


@pytest.mark.parametrize("d_a, d_b", [(1, 4), (3, 5), (6, 2), (7, 7)])
def test_general_sector_matrix_report_matches_the_dense_report(rng, d_a, d_b):
    # a Gram-built w is symmetric positive semidefinite and far from Toeplitz
    coeffs = rng.normal(size=(d_a, d_b)) + 1j * rng.normal(size=(d_a, d_b))
    state = TwoModeState(coeffs / np.linalg.norm(coeffs))
    rows = rng.normal(size=(state.n_max + 1, 3))
    w = rows @ rows.T
    rho = DephasedState(state, w / DephasedState(state, w).trace)
    sector = entanglement_report(rho)
    dense = dense_entropies(rho)
    for name in ("s_a", "s_b", "s_ab", "excess"):
        assert abs(getattr(sector, name) - dense[name]) <= 1e-13, name


def _bad_w(kind):
    w = np.ones((3, 3))
    if kind in ("nan", "inf", "-inf"):
        w[0, 2] = w[2, 0] = float(kind)
    elif kind == "asymmetric":
        w[0, 2] = 0.5
    else:
        w = np.ones((4, 4))
    return w


@pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "asymmetric", "shape"])
def test_dephased_state_rejects_bad_w(kind):
    with pytest.raises(ValueError, match="w must be"):
        DephasedState(TwoModeState(np.eye(2) / math.sqrt(2.0)), _bad_w(kind))


def test_dephased_state_is_read_only_and_keeps_the_trace_check():
    rho = DephasedState(TwoModeState(np.eye(3) / math.sqrt(3.0)), _dephasing(4, 0.2))
    assert not rho.rho.flags.writeable and not rho.w.flags.writeable
    with pytest.raises(ValueError):
        rho.rho[0, 0] = 0.0
    lossy = TwoModeState(np.eye(3) * math.sqrt(0.99 / 3.0), trunc_weight=0.01)
    with pytest.raises(ValueError, match="trace"):
        entanglement_report(DephasedState(lossy, _dephasing(4, 0.2)))
