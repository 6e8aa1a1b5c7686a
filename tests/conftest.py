import numpy as np
import pytest

from photoent import TwoModeState


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_state(rng, d_a: int, d_b: int) -> TwoModeState:
    """Haar-ish random pure state on the truncated grid."""
    coeffs = rng.normal(size=(d_a, d_b)) + 1j * rng.normal(size=(d_a, d_b))
    return TwoModeState(coeffs / np.linalg.norm(coeffs))


def random_gram_w(rng, size: int, rank: int = 3) -> np.ndarray:
    """Sector matrix w(N, N') = <v_N, v_N'> of random real unit vectors:
    symmetric, positive semidefinite and with unit diagonal, so that
    w(N, N') psi psi^dag is a normalized state for every normalized psi."""
    rows = rng.normal(size=(size, rank))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    gram = rows @ rows.T
    return (gram + gram.T) / 2.0
