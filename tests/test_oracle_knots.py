"""mercer.apply_operator, the adaptive-quadrature oracle, splits its
integrals at the kernel's knots (where F'' jumps) as well as at the kink
y = x; the factories attach the knots as kernel data."""

import numpy as np
import pytest

from pdext import DomainError, bspline_x_kernel
from pdext.kernels import kernel_from_name, tabulated_kernel
from pdext.mercer import apply_operator
from pdext.quadrature import GL_POINTS, convolution_apply


def seed_one_table():
    """The Gaussian-mixture table of the benchmark's generic workload at seed 1:
    F = sum w_i exp(-x^2 / (2 s_i^2)), F(0) = 1, with F' at 257 points of [0, 1]."""
    rng = np.random.default_rng([1, 2])
    w = rng.uniform(0.2, 1.0, 3)
    w /= w.sum()
    s = rng.uniform(0.3, 0.8, 3)
    x = np.linspace(0.0, 1.0, 257)[:, None]
    F = np.sum(w * np.exp(-x * x / (2 * s * s)), axis=-1)
    dF = np.sum(-w * x / (s * s) * np.exp(-x * x / (2 * s * s)), axis=-1)
    return tabulated_kernel(x[:, 0], F, dF)


def smooth_g(y):
    return np.cos(7.0 * y + 0.3) * np.exp(y) + 0.5


def test_factories_attach_the_knots():
    assert seed_one_table().knots == tuple(np.linspace(0.0, 1.0, 257)[1:])
    assert bspline_x_kernel(4, half_width=1.5).knots == (1.0,)
    assert bspline_x_kernel(4, half_width=3.0).knots == (1.0, 2.0)
    assert bspline_x_kernel(4).knots == ()
    for name in ("exp", "triangle", "bspline:4"):
        assert kernel_from_name(name).knots == ()


@pytest.mark.parametrize("make", [seed_one_table, lambda: bspline_x_kernel(4, half_width=1.5)],
                         ids=["table(seed 1)", "bsplinex:4@1.5"])
def test_oracle_agrees_with_the_fft_apply(make):
    kernel = make()
    n = 2000
    grid = np.linspace(0.0, kernel.half_width, n + 1)
    values, _ = convolution_apply(kernel, kernel.deriv, grid, smooth_g, GL_POINTS)
    idx = [0, 1, 417, 1000, 1733, 1999, 2000]
    assert np.max(np.abs(apply_operator(kernel, smooth_g, grid[idx]) - values[idx])) <= 1e-14


def test_oracle_integrates_a_complex_integrand(kexp):
    x = np.array([0.0, 0.3, 0.7, 1.0])
    # int_0^1 e^{-|x - y|} e^{2iy} dy in closed form
    exact = ((np.exp(2j * x) - np.exp(-x)) / (1 + 2j)
             + (np.exp(2j - (1 - x)) - np.exp(2j * x)) / (2j - 1))
    assert np.max(np.abs(apply_operator(kexp, lambda y: np.exp(2j * y), x) - exact)) <= 1e-14


def test_oracle_refuses_points_outside_the_interval(kexp):
    with pytest.raises(DomainError):
        apply_operator(kexp, np.cos, [1.2])
