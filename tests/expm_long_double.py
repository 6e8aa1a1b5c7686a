"""The oracles' matrix exponential and scipy's against a long-double one at
the edge of the monitor budget (d_c = 398: chi/gamma = 1.34, N = 6, gamma t
= 2).  Not part of the test suite: the long-double reference takes about
20 s.  Run from the repository root:

    PYTHONPATH=src python tests/expm_long_double.py

It prints the largest element error of each, relative to the largest
element of the reference.
"""

import math

import numpy as np
from scipy.linalg import expm

from photoent import ModelParams
from photoent.oracle import _exp_map, _monitor_generator, monitor_dim


def expm_long_double(a: np.ndarray) -> np.ndarray:
    """Taylor series to degree 30 of a / 2^s in long double, |a / 2^s|_1 <=
    1/64, then s squarings."""
    a = a.astype(np.longdouble)
    s = max(0, math.frexp(float(np.max(np.sum(np.abs(a), axis=0))))[1]) + 6
    a = a / np.longdouble(2.0) ** s
    out = term = np.eye(len(a), dtype=np.longdouble)
    for j in range(1, 31):
        term = term @ a / j
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


if __name__ == "__main__":
    params = ModelParams(lam=0.0, chi=1.34, gamma=1.0)
    d_c = monitor_dim(params, 6)
    gen = _monitor_generator(params.chi, params.gamma, 6, d_c)
    ref = expm_long_double(2.0 * gen)
    scale = float(np.max(np.abs(ref)))
    print(f"d_c = {d_c}")
    for name, got in (("_exp_map", _exp_map(gen)(2.0)), ("scipy", expm(2.0 * gen))):
        print(f"{name}: {float(np.max(np.abs(got - ref))) / scale:.2e}")
