"""discretize takes the Nystrom eigenvalues of a kernel whose poly_exp has a
second-order ODE (c0 e^{-r|t|}, or c0 + c1 |t| with |c1| a < 2 c0) from the
discrete boundary equation, and every other kernel's from eigvalsh.  The
closed-form inverse M of the Nystrom matrix A is checked against A, and its
own eigvalsh gives the small eigenvalues to a few ulps."""

import math
import tracemalloc

import numpy as np
import pytest

from pdext import bspline_x_kernel
from pdext.kernels import DomainError, PdKernel, kernel_from_name
from pdext.mercer import NystromConfig, _boundary_spectrum, discretize


def poly_exp_kernel(coeffs, rate, half_width=1.0):
    """F(t) = e^{-rate t} sum_j coeffs[j] t^j on [0, half_width]."""
    coeffs = tuple(coeffs)

    def evaluate(t):
        return np.exp(-rate * t) * np.polynomial.polynomial.polyval(t, coeffs)

    def derivative(t):
        d = np.polynomial.polynomial.polyder(coeffs) if len(coeffs) > 1 else (0.0,)
        return np.exp(-rate * t) * (np.polynomial.polynomial.polyval(t, d)
                                    - rate * np.polynomial.polynomial.polyval(t, coeffs))

    return PdKernel(family="poly_exp", half_width=half_width, evaluate=evaluate,
                    derivative=derivative, poly_exp=(coeffs, rate))


MAKERS = {"exp": lambda: kernel_from_name("exp"),
          "triangle": lambda: kernel_from_name("triangle"),
          "bsplinex:2@0.3": lambda: bspline_x_kernel(2, half_width=0.3),
          "bsplinex:2@1": lambda: bspline_x_kernel(2, half_width=1.0),
          "2e^{-3|t|}": lambda: poly_exp_kernel((2.0,), 3.0)}


def nystrom_matrix(kernel, n):
    h = kernel.half_width / n
    x = (np.arange(n) + 0.5) * h
    return h * kernel(x[:, None] - x[None, :]).real


def closed_form_inverse(kernel, n):
    """M = A^{-1}: KMS tridiagonal for c0 e^{-r|t|}; for c0 + c1 |t|, the
    second difference with end diagonal entries 1 + gamma and corners gamma."""
    (c0, *c1), rate = kernel.poly_exp
    h = kernel.half_width / n
    if rate > 0:
        rho = math.exp(-rate * h)
        M = (1.0 + rho * rho) * np.eye(n) - rho * (np.eye(n, k=1) + np.eye(n, k=-1))
        M[0, 0] = M[-1, -1] = 1.0
        return M / (h * c0 * -math.expm1(-2.0 * rate * h))
    beta = -c1[0] * h
    gamma = beta / (2.0 * c0 - beta * (n - 1))
    M = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    M[0, 0] = M[-1, -1] = 1.0 + gamma
    M[0, -1] = M[-1, 0] = gamma
    return M / (2.0 * beta * h)


@pytest.mark.parametrize("n", [64, 65, 400])
@pytest.mark.parametrize("name", sorted(MAKERS))
def test_eigenvalues_match_the_closed_form_inverse(name, n):
    kernel = MAKERS[name]()
    A = nystrom_matrix(kernel, n)
    M = closed_form_inverse(kernel, n)
    assert np.max(np.abs(M @ A - np.eye(n))) <= 1e-12
    # dense eigvalsh is accurate to eps lam_0 / lam_k relative, 1 / eigvalsh(M)
    # to eps lam_k / lam_min: each serves the half of the spectrum where it
    # is the better one
    dense = np.linalg.eigvalsh(A)[::-1]
    inverse = np.sort(1.0 / np.linalg.eigvalsh(M))[::-1]
    reference = np.where(dense >= math.sqrt(dense[0] * inverse[-1]), dense, inverse)
    lam = discretize(kernel, NystromConfig(n)).eigenvalues
    assert np.max(np.abs(lam - reference) / reference) <= 1e-13


@pytest.mark.parametrize("n", [64, 65, 400, 401, 4000])
def test_triangle_odd_block_in_closed_form(ktri, n):
    dec = discretize(ktri, NystromConfig(n))
    p, q = n // 2, n - n // 2
    odd = dec.eigenvalues[dec._column[q:]]           # the odd block, ascending
    h = ktri.half_width / n
    beta = h                                         # -c1 h with c1 = -1
    k = np.arange(p, 0, -1)
    expected = beta * h / (2.0 * np.sin((2 * k - 1) * np.pi / (2 * n)) ** 2)
    assert np.max(np.abs(odd - expected) / expected) <= 1e-15


@pytest.mark.parametrize("name", ["exp", "triangle"])
def test_peak_memory_is_linear(name):
    kernel = MAKERS[name]()
    n = 4000
    discretize(kernel, NystromConfig(16))
    tracemalloc.start()
    try:
        discretize(kernel, NystromConfig(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * n * 8


def test_linear_kernel_past_the_bound_is_still_refused():
    # 1 - 3|t| on a = 1: |c1| a >= 2 c0, so eigvalsh decides, and refuses it
    kernel = poly_exp_kernel((1.0, -3.0), 0.0)
    assert _boundary_spectrum(kernel, 64) is None
    with pytest.raises(DomainError, match="rejected"):
        discretize(kernel, NystromConfig(64))


@pytest.mark.parametrize("name, n", [("exp", 26), ("exp", 37), ("triangle", 37),
                                     ("bsplinex:2@0.3", 31)])
def test_top_bracket_where_omega_h_over_2_rounds_past_pi_over_2(name, n):
    # at these n, (a/n)/2 times the top bracket end n pi/a rounds above the
    # double nearest pi/2, where tan turns negative
    kernel = MAKERS[name]()
    assert 0.5 * (kernel.half_width / n) * (math.pi * n / kernel.half_width) > math.pi / 2
    lam = discretize(kernel, NystromConfig(n)).eigenvalues
    dense = np.linalg.eigvalsh(nystrom_matrix(kernel, n))[::-1]
    inverse = np.sort(1.0 / np.linalg.eigvalsh(closed_form_inverse(kernel, n)))[::-1]
    reference = np.where(dense >= math.sqrt(dense[0] * inverse[-1]), dense, inverse)
    assert np.max(np.abs(lam - reference) / reference) <= 1e-13
