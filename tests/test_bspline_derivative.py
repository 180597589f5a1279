"""F' of bspline:k near 0, where cos(pi x) - sinc(x) cancels, against the
cancellation-free sinc'(x) = -pi int_0^1 t sin(pi x t) dt."""

import numpy as np

from pdext import bspline_kernel
from pdext.quadrature import convolution_apply, kernel_apply_on_grid


def test_derivative_keeps_its_digits_near_zero():
    kernel = bspline_kernel(4)
    x = np.concatenate([-np.geomspace(1e-9, 0.9, 60), [0.0], np.geomspace(1e-9, 0.9, 60)])
    t, w = np.polynomial.legendre.leggauss(30)
    t, w = 0.5 * (1.0 + t), 0.5 * w
    dsinc = -np.pi * np.sum(w * t * np.sin(np.pi * x[:, None] * t), axis=1)
    exact = 4.0 * np.sinc(x) ** 3 * dsinc
    assert np.all(np.abs(kernel.deriv(x) - exact) <= 1e-14 * np.abs(exact))


def test_fft_and_dense_derivative_apply_agree_on_two_cells():
    # a GL node 0.0127 from a cell edge: the dense path evaluates F' there at
    # an offset rounded differently from the FFT's, which the cancellation
    # turned into an 11e-15 gap against a term scale of 7.3
    kernel = bspline_kernel(4)
    grid = np.linspace(0.0, 1.0, 3)
    g = lambda y: np.exp(2.0 * y)
    _, dvalues = convolution_apply(kernel, kernel.deriv, grid, g, 7)
    assert np.max(np.abs(dvalues - kernel_apply_on_grid(kernel.deriv, grid, g, 7))) <= 1e-15
