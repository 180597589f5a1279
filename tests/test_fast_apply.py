"""The O(n) operator applies against their oracles: adaptive quadrature
(mercer.apply_operator) and the dense kink-split quadrature, which runs in
row blocks and must equal the one-shot broadcast bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pdext import (DomainError, MeasureOnInterval, SpectralMeasure, bspline_kernel,
                   bspline_x_kernel, concentration, kernel_from_name, tabulated_kernel)
from pdext import extensions, quadrature, rkhs
from pdext.elliptic import mollifier
from pdext.kernels import TRIANGLE_DESCRIPTOR, bspline_x_poly_coeffs
from pdext.mercer import apply_operator
from pdext.quadrature import (cell_gl_layout, exp_kernel_apply, kernel_apply_on_grid,
                              poly_exp_kernel_apply)
from pdext.rkhs import smooth

POLY_KERNELS = ["triangle", "bsplinex:2", "bsplinex:4", "bsplinex:6"]


def smooth_g(y):
    return np.cos(7.0 * y + 0.3) * np.exp(y) + 0.5


def one_shot(F, grid, g, m):
    """The dense apply as a single (n, n m) broadcast."""
    nodes, weights = cell_gl_layout(grid, m)
    y = nodes.ravel()
    gy = g(y) * weights.ravel()
    return (F(grid[:, None] - y[None, :]) * gy[None, :]).sum(axis=1)


def kernel_by_case(case):
    name, a = case
    if name == "table":
        x = np.linspace(0.0, 0.5, 21)
        return tabulated_kernel(x, np.exp(-x ** 2), -2.0 * x * np.exp(-x ** 2))
    return kernel_from_name(name) if a is None else bspline_x_kernel(int(name[-1]), a)


@pytest.mark.parametrize("name", POLY_KERNELS)
def test_fast_apply_matches_adaptive_quadrature(name):
    kernel = kernel_from_name(name)
    grid = np.linspace(0.0, kernel.half_width, 2001)
    values, _ = poly_exp_kernel_apply(*kernel.poly_exp, grid, smooth_g, m=6)
    idx = [0, 1, 333, 1000, 1700, 2000]
    assert np.max(np.abs(values[idx] - apply_operator(kernel, smooth_g, grid[idx]))) < 1e-13


@pytest.mark.parametrize("name", POLY_KERNELS)
def test_fast_derivative_matches_dense(name):
    kernel = kernel_from_name(name)
    grid = np.linspace(0.0, kernel.half_width, 401)
    _, dvalues = poly_exp_kernel_apply(*kernel.poly_exp, grid, smooth_g, m=6)
    assert np.max(np.abs(dvalues - kernel_apply_on_grid(kernel.deriv, grid, smooth_g, m=6))) < 1e-12


def test_bsplinex_fast_apply_holds_up_to_the_first_knot():
    # the knots of B^{*k} (k even) are the integers, so a = 0.6 is still one
    # polynomial in |t|; complex g goes through the same moments
    kernel = bspline_x_kernel(4, half_width=0.6)
    grid = np.linspace(0.0, 0.6, 301)
    g = lambda y: smooth_g(y) * np.exp(2j * y)
    values, dvalues = poly_exp_kernel_apply(*kernel.poly_exp, grid, g, m=6)
    assert np.max(np.abs(values - kernel_apply_on_grid(kernel, grid, g, m=6))) < 1e-13
    assert np.max(np.abs(dvalues - kernel_apply_on_grid(kernel.deriv, grid, g, m=6))) < 1e-12


@given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
       a=st.floats(0.1, 1.0), n=st.integers(2, 120),
       freq=st.floats(0.0, 10.0), phase=st.floats(0.0, 2 * np.pi), rate=st.floats(-2.0, 2.0),
       decay=st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
@settings(max_examples=60, deadline=None)
def test_poly_abs_apply_matches_dense_apply(coeffs, a, n, freq, phase, rate, decay):
    # F(t) = e^{-decay |t|} sum_j c_j |t|^j; decay = 0 is the polynomial case
    grid = np.linspace(0.0, a, n + 1)
    g = lambda y: np.cos(freq * y + phase) * np.exp(rate * y)
    P = lambda t, cs: sum(c * np.abs(t) ** j for j, c in enumerate(cs))
    F = lambda t: np.exp(-decay * np.abs(t)) * P(t, coeffs)
    dF = lambda t: np.sign(t) * np.exp(-decay * np.abs(t)) * (
        sum(j * c * np.abs(t) ** (j - 1) for j, c in enumerate(coeffs) if j) - decay * P(t, coeffs))
    values, dvalues = poly_exp_kernel_apply(coeffs, decay, grid, g, m=6)
    assert np.max(np.abs(values - kernel_apply_on_grid(F, grid, g, m=6))) < 1e-13
    assert np.max(np.abs(dvalues - kernel_apply_on_grid(dF, grid, g, m=6))) < 1e-13


def test_exp_apply_of_one_is_exact():
    # int_0^1 e^{-|x - y|} dy = 2 - e^{-x} - e^{-(1 - x)}
    grid = np.linspace(0.0, 1.0, 2001)
    values, _ = exp_kernel_apply(grid, np.ones_like)
    exact = 2.0 - np.exp(-grid) - np.exp(-(1.0 - grid))
    assert np.max(np.abs(values - exact) / exact) < 5e-15


def test_exp_apply_over_a_wide_span_does_not_overflow():
    # rate * span = 2000: the prefix sums run in blocks, each within e^{+-300}
    W = 2000.0
    grid = np.linspace(0.0, W, 4001)
    values, dvalues = exp_kernel_apply(grid, np.ones_like)
    exact = 2.0 - np.exp(-grid) - np.exp(-(W - grid))
    assert np.max(np.abs(values - exact) / exact) < 1e-13
    assert np.max(np.abs(dvalues - (np.exp(-grid) - np.exp(-(W - grid))))) < 1e-13


def test_blocked_prefix_sums_match_the_dense_apply():
    # rate * span = 800 spans three blocks; a polynomial factor rides along
    grid = np.linspace(0.0, 400.0, 801)
    coeffs, rate = (1.0, 0.5), 2.0
    F = lambda t: np.exp(-rate * np.abs(t)) * (1.0 + 0.5 * np.abs(t))
    dF = lambda t: np.sign(t) * np.exp(-rate * np.abs(t)) * (0.5 - rate * (1.0 + 0.5 * np.abs(t)))
    g = lambda y: np.cos(0.3 * y) * np.exp(0.5j * y)
    values, dvalues = poly_exp_kernel_apply(coeffs, rate, grid, g, m=6)
    assert np.max(np.abs(values - kernel_apply_on_grid(F, grid, g, m=6))) < 1e-12
    assert np.max(np.abs(dvalues - kernel_apply_on_grid(dF, grid, g, m=6))) < 1e-12


@pytest.mark.parametrize("grid", [np.linspace(0.0, 700.0, 3), np.array([0.0, 400.0, 401.0]),
                                  np.array([0.0, 1.0, 2.0, 900.0, 901.0, 1800.0])])
def test_cells_wider_than_a_block(grid):
    # one cell spans more than one block (rate * width >= 300), also the first
    F = lambda t: np.exp(-np.abs(t))
    g = lambda y: np.cos(0.3 * y) + 0.5j
    values, dvalues = exp_kernel_apply(grid, g)
    assert np.max(np.abs(values - kernel_apply_on_grid(F, grid, g, m=6))) < 1e-13
    assert np.max(np.abs(dvalues - kernel_apply_on_grid(lambda t: -np.sign(t) * F(t),
                                                        grid, g, m=6))) < 1e-13


@pytest.mark.parametrize("name,poly_exp", [("exp", ((1.0,), 1.0)), ("triangle", ((1.0, -1.0), 0.0)),
                                           ("bsplinex:4", ((1.0, 0.0, -1.5, 0.75), 0.0))])
def test_fast_apply_is_the_prefix_moment_apply_of_poly_exp(name, poly_exp):
    kernel = kernel_from_name(name)
    assert kernel.poly_exp == poly_exp
    grid = np.linspace(0.0, kernel.half_width, 101)
    want = poly_exp_kernel_apply(*poly_exp, grid, smooth_g)
    for got, w in zip(rkhs._apply(kernel, grid, smooth_g), want):
        np.testing.assert_array_equal(got, w)


@pytest.mark.parametrize("complex_g", [False, True])
@pytest.mark.parametrize("block_rows", [12, 11, 4, 5])
def test_chunked_dense_apply_is_bit_identical(monkeypatch, complex_g, block_rows):
    # 11 grid points, 10 cells of m = 4 nodes: 40 entries a row, so block
    # sizes of 12, 11, 4 and 5 rows put the grid below, at and across
    # (evenly and not) a block boundary
    grid = np.linspace(0.0, 0.5, 11)
    g = (lambda y: smooth_g(y) * np.exp(3j * y)) if complex_g else smooth_g
    monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 40 * block_rows)
    for F in (kernel_from_name("triangle"), bspline_kernel(4, half_width=0.5),
              kernel_by_case(("table", None))):
        got = kernel_apply_on_grid(F, grid, g, m=4)
        assert got.dtype == (complex if complex_g else float)
        np.testing.assert_array_equal(got, one_shot(F, grid, g, 4))


@pytest.mark.parametrize("n_cells,m", [(256, 4), (600, 6)])
def test_chunked_dense_apply_is_bit_identical_at_full_size(n_cells, m):
    kernel = kernel_from_name("triangle")
    grid = np.linspace(0.0, 0.5, n_cells + 1)
    assert len(grid) > quadrature._BLOCK_ENTRIES // (n_cells * m)
    g = lambda y: smooth_g(y) * np.exp(1j * y)
    np.testing.assert_array_equal(kernel_apply_on_grid(kernel.deriv, grid, g, m=m),
                                  one_shot(kernel.deriv, grid, g, m))


@pytest.mark.parametrize("name", ["triangle", "bsplinex:2"])
def test_smooth_meets_the_triangle_boundary_rows(name):
    phi, _, _ = mollifier(0.25, 0.15)
    el = smooth(phi, kernel_from_name(name), n=1000)
    b = el.boundary
    assert max(TRIANGLE_DESCRIPTOR.boundary_residuals(b.h0, b.dh0, b.ha, b.dha)) < 1e-15


@pytest.mark.parametrize("case", [("bsplinex:4", 1.2), ("bspline:4", None), ("table", None)])
def test_kernels_without_polynomial_structure_have_no_fast_apply(case):
    assert kernel_by_case(case).poly_exp is None


def test_bsplinex_derivative_is_exact():
    k2, k4 = bspline_x_kernel(2), bspline_x_kernel(4)
    assert k2.deriv_at_zero == (1.0, -1.0)
    assert k4.deriv_at_zero == (0.0, 0.0)
    x = np.linspace(-0.5, 0.5, 11)
    np.testing.assert_array_equal(k2.deriv(x[x != 0]), -np.sign(x[x != 0]))
    # B^{*4}(t) / B^{*4}(0) = 1 - (3/2) t^2 + (3/4) |t|^3 on [-1, 1]
    assert bspline_x_poly_coeffs(4) == (1.0, 0.0, -1.5, 0.75)
    assert np.max(np.abs(k4.deriv(x) - (-3.0 * x + 2.25 * x * np.abs(x)))) < 1e-15


@pytest.mark.parametrize("k", [1, 3, 5])
def test_bsplinex_odd_k_is_refused(k):
    with pytest.raises(DomainError):
        bspline_x_kernel(k)


def test_concentration_matches_nested_quadrature():
    atoms = [(0.2, 0.15), (0.85, 0.1)]
    mass = 1.0 - sum(w for _, w in atoms)
    rho = lambda y: mass * (1.0 + 0.6 * (np.asarray(y) - 0.5))
    grid = np.linspace(0.0, 1.0, 2001)
    mu = MeasureOnInterval.from_density((0.0, 1.0), grid, rho(grid), atoms)

    def t_rho(x):
        left = quad(lambda y: math.exp(y - x) * rho(y), 0.0, x)[0] if x > 0 else 0.0
        right = quad(lambda y: math.exp(x - y) * rho(y), x, 1.0)[0] if x < 1 else 0.0
        return left + right

    q = sum(wa * wb * math.exp(-abs(xa - xb)) for xa, wa in atoms for xb, wb in atoms)
    q += 2.0 * sum(wa * t_rho(xa) for xa, wa in atoms)
    q += quad(lambda x: rho(x) * t_rho(x), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
    got, dispersion = concentration(mu)
    assert abs(got - q) < 1e-10
    assert abs(dispersion + math.log(q)) < 1e-10


def test_isometry_check_transforms_each_distinct_difference_once(monkeypatch):
    mu = SpectralMeasure(np.array([]), np.array([]), atoms=((-3.0, 0.25), (0.0, 0.5), (3.0, 0.25)))
    F = lambda x: 0.5 + 0.5 * np.cos(3.0 * x)
    seen = []
    transform = extensions.bochner_transform
    monkeypatch.setattr(extensions, "bochner_transform",
                        lambda m, x: seen.append(x) or transform(m, x))
    rep = extensions.discrete_isometry_check([0.0, 0.2, 0.4], F, mu, trials=20)
    assert rep.passed and rep.max_gap < 1e-14
    assert len(seen) == len(set(seen)) == 5
