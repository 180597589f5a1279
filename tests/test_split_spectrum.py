"""discretize diagonalizes the symmetric Toeplitz Nystrom matrix as its even
and odd halves about a/2.  The dense matrix h F(x_i - x_j) is the oracle; for
the triangle the two halves are the paper's two root families."""

import math
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from pdext import bspline_x_kernel
from pdext.kernels import kernel_from_name, tabulated_kernel
from pdext.mercer import NystromConfig, discretize


def _gaussian_table():
    x = np.linspace(0.0, 1.0, 33)
    return tabulated_kernel(x, np.exp(-2.0 * x * x), -4.0 * x * np.exp(-2.0 * x * x))


MAKERS = {"exp": lambda: kernel_from_name("exp"),
          "triangle": lambda: kernel_from_name("triangle"),
          "bspline:4": lambda: kernel_from_name("bspline:4"),
          "bsplinex:4@1.5": lambda: bspline_x_kernel(4, half_width=1.5),
          "table": _gaussian_table}
_KERNELS = {}


def kernel_by_name(name):
    if name not in _KERNELS:
        _KERNELS[name] = MAKERS[name]()
    return _KERNELS[name]


@given(name=st.sampled_from(sorted(MAKERS)), n=st.integers(16, 300))
@example(name="triangle", n=16)
@example(name="table", n=17)
@example(name="bsplinex:4@1.5", n=299)
@example(name="exp", n=300)
@settings(max_examples=60, deadline=None)
def test_split_matches_the_dense_matrix(name, n):
    kernel = kernel_by_name(name)
    dec = discretize(kernel, NystromConfig(n))
    x, h = dec.nodes, dec.weights[0]
    A = h * kernel(x[:, None] - x[None, :]).real
    lam, xi = dec.eigenvalues, dec.eigenfunctions
    assert np.max(np.abs(lam - np.linalg.eigvalsh(A)[::-1])) <= 1e-14 * lam[0]
    assert np.all(np.diff(lam) <= 0)
    assert np.max(np.abs(xi.T @ (dec.weights[:, None] * xi) - np.eye(n))) <= 1e-12
    v = xi * np.sqrt(h)                     # unit 2-norm eigenvectors of A
    assert np.max(np.abs(A @ v - v * lam)) <= 1e-13 * lam[0]
    mirrored = xi[::-1]
    assert np.all(np.all(mirrored == xi, axis=0) | np.all(mirrored == -xi, axis=0))


def test_triangle_halves_are_the_two_root_families(ktri):
    # 4(1 + cos(k/2)) - 3k sin(k/2) = 2 cos(k/4) (4 cos(k/4) - 3k sin(k/4)):
    # the odd eigenfunctions take the roots of the first factor, the even
    # ones those of the second, one in each [4 pi j, 4 pi j + 2 pi]
    dec = discretize(ktri, NystromConfig(2000))
    xi, lam = dec.eigenfunctions[:, :20], dec.eigenvalues[:20]
    even = np.all(xi[::-1] == xi, axis=0)
    odd = np.all(xi[::-1] == -xi, axis=0)
    assert np.all(even ^ odd)
    k_odd = 2.0 * math.pi * (2 * np.arange(5) + 1)
    second = lambda k: 4.0 * math.cos(k / 4.0) - 3.0 * k * math.sin(k / 4.0)
    k_even = np.array([brentq(second, 4 * math.pi * j, 4 * math.pi * j + 2 * math.pi, xtol=1e-14)
                       for j in range(5)])
    for got, k in ((lam[odd][:5], k_odd), (lam[even][:5], k_even)):
        mapped = 2.0 / k ** 2
        assert np.max(np.abs(got - mapped) / mapped) < 1e-4


def test_peak_memory_of_the_split():
    # the two half-size blocks, their eigenvectors and the n x n output; a
    # kernel without the boundary-equation capability, so the split is measured
    kernel = kernel_by_name("bspline:4")
    n = 1000
    discretize(kernel, NystromConfig(16))
    tracemalloc.start()
    try:
        discretize(kernel, NystromConfig(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * n * n * 8
