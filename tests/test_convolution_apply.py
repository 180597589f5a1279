"""The FFT convolution apply of T_F against its oracles: the dense kink-split
quadrature (kernel_apply_on_grid), the same sums taken directly in long
double, and adaptive quadrature (mercer.apply_operator)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdext import (DomainError, MeasureOnInterval, bspline_kernel, bspline_x_kernel,
                   kernel_from_name, tabulated_kernel)
from pdext.elliptic import mollifier
from pdext.mercer import MercerDecomposition, apply_operator, hf_inner_via_inverse
from pdext.quadrature import (GL_POINTS, cell_gl_layout, convolution_apply, gl_rule,
                              kernel_apply_on_grid, simpson)
from pdext.rkhs import element_from_measure, inner_product_smoothed, smooth

KERNELS = ["bspline:4", "table", "bsplinex:4@1.5", "triangle", "exp"]


def kernel_by_name(name):
    if name == "table":
        x = np.linspace(0.0, 0.5, 21)
        return tabulated_kernel(x, np.exp(-x ** 2), -2.0 * x * np.exp(-x ** 2))
    if name == "bsplinex:4@1.5":
        return bspline_x_kernel(4, half_width=1.5)
    return kernel_from_name(name)


def smooth_g(y):
    return np.cos(7.0 * y + 0.3) * np.exp(y) + 0.5


def term_scale(F, grid, g, m):
    """max|F| times sum |w g| over the rule: a bound on every |sum of terms|,
    and the scale of the dense oracle's own float64 rounding."""
    nodes, weights = cell_gl_layout(grid, m)
    span = grid[-1] - grid[0]
    return np.max(np.abs(F(np.linspace(-span, span, 4001)))) * np.sum(np.abs(weights * g(nodes)))


@given(name=st.sampled_from(KERNELS), n=st.integers(2, 600), m=st.integers(2, 8),
       freq=st.floats(0.0, 20.0), phase=st.floats(0.0, 2 * np.pi),
       rate=st.floats(-2.0, 2.0), spin=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)))
@settings(max_examples=40, deadline=None)
def test_fft_apply_matches_the_dense_apply(name, n, m, freq, phase, rate, spin):
    # spin = 0 keeps g real (the real transforms); otherwise g is complex
    kernel = kernel_by_name(name)
    grid = np.linspace(0.0, kernel.half_width, n + 1)
    g = lambda y: np.cos(freq * y + phase) * np.exp(rate * y) * (np.exp(1j * spin * y) if spin else 1.0)
    values, dvalues = convolution_apply(kernel, kernel.deriv, grid, g, m)
    assert values.dtype == dvalues.dtype == (complex if spin else float)
    for F, got in ((kernel, values), (kernel.deriv, dvalues)):
        dense = kernel_apply_on_grid(F, grid, g, m)
        assert np.max(np.abs(got - dense)) <= 1e-15 * term_scale(F, grid, g, m)


@pytest.mark.parametrize("name", ["bspline:4", "table", "bsplinex:4@1.5"])
@pytest.mark.parametrize("n", [100, 2000])
def test_fft_apply_keeps_long_double_precision(name, n):
    # against the same sums taken one by one in long double, the error is the
    # rounding of the float64 result; a float64 transform adds about 1e-16 of
    # the term scale on top
    kernel = kernel_by_name(name)
    grid = np.linspace(0.0, kernel.half_width, n + 1)
    h = (grid[-1] - grid[0]) / n
    t, _ = gl_rule(GL_POINTS)
    nodes, weights = cell_gl_layout(grid, GL_POINTS)
    b = (weights * smooth_g(nodes)).T.astype(np.longdouble)
    offsets = (np.arange(1 - n, n + 1)[None, :] - 0.5 * (1.0 + t)[:, None]) * h
    cells = np.arange(n)
    for F, got in zip((kernel, kernel.deriv),
                      convolution_apply(kernel, kernel.deriv, grid, smooth_g, GL_POINTS)):
        A = F(offsets).astype(np.longdouble)
        exact = np.array([np.sum(A[:, i - cells + n - 1] * b) for i in range(n + 1)])
        scale = term_scale(F, grid, smooth_g, GL_POINTS)
        assert np.all(np.abs(got - exact) <= 2.0 ** -53 * np.abs(exact) + 2e-17 * scale)


def test_derivative_is_left_out_when_not_asked_for():
    kernel = kernel_by_name("table")
    grid = np.linspace(0.0, 0.5, 41)
    values, dvalues = convolution_apply(kernel, None, grid, smooth_g)
    assert dvalues is None
    np.testing.assert_array_equal(values, convolution_apply(kernel, kernel.deriv, grid, smooth_g)[0])


@pytest.mark.parametrize("grid", [np.array([0.0, 0.1, 0.3, 0.5]), np.array([0.0, 0.25, 0.2, 0.5]),
                                  np.array([0.0, np.nan, 0.5])])
def test_non_uniform_grid_is_refused(grid):
    with pytest.raises(DomainError):
        convolution_apply(kernel_by_name("table"), None, grid, smooth_g)


def test_smooth_without_poly_exp_matches_adaptive_quadrature():
    kernel = bspline_kernel(4)
    assert kernel.poly_exp is None
    phi = lambda y: y * (1.0 - y) * np.cos(3.0 * y + 0.2)
    el = smooth(phi, kernel, n=2000)
    idx = [0, 1, 417, 1000, 1733, 2000]
    assert np.max(np.abs(el.values[idx] - apply_operator(kernel, phi, el.grid[idx]))) < 1e-13


def test_smoothing_calls_go_through_the_fft_apply():
    kernel = kernel_by_name("table")
    phi, _, _ = mollifier(0.25, 0.15)
    grid = np.linspace(0.0, 0.5, 401)
    values, dvalues = convolution_apply(kernel, kernel.deriv, grid, phi, GL_POINTS)
    el = smooth(phi, kernel, n=400)
    np.testing.assert_array_equal(el.values, values)
    np.testing.assert_array_equal(el.dvalues, dvalues)
    tphi, _ = convolution_apply(kernel, None, grid, phi, GL_POINTS)
    assert inner_product_smoothed(phi, phi, kernel, n=400) == complex(simpson(phi(grid) * tphi, grid))


def test_element_from_measure_density_matches_the_dense_apply():
    kernel = kernel_by_name("table")
    density = lambda y: 1.0 + 0.5 * y + 0.2 * np.sin(9.0 * y)
    grid = np.linspace(0.0, 0.5, 2001)
    mu = MeasureOnInterval.from_density((0.0, 0.5), grid, density(grid), density_fn=density)
    el = element_from_measure(mu, kernel, n=600)
    for F, got in ((kernel, el.values), (kernel.deriv, el.dvalues)):
        ref = kernel_apply_on_grid(F, el.grid, density, GL_POINTS)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("same", [True, False])
def test_hf_inner_via_inverse_computes_each_coefficient_vector_once(monkeypatch, dec_exp_400, same):
    calls = []
    coefficients = MercerDecomposition.coefficients
    monkeypatch.setattr(MercerDecomposition, "coefficients",
                        lambda self, v, m: calls.append(m) or coefficients(self, v, m))
    hv = np.exp(-dec_exp_400.nodes)
    kv = hv if same else hv.copy()
    value = hf_inner_via_inverse(hv, kv, dec_exp_400, 32)
    assert len(calls) == (1 if same else 2)
    assert value == hf_inner_via_inverse(hv, hv.copy(), dec_exp_400, 32)
