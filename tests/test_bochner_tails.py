"""Closed-form Fourier tails of the built-in spectral measures.

Past the grid cutoff L each built-in density is a finite sum
c cos(w l) |l|^{-p}; its Fourier integral is a sum of
J_p(b) = int_L^inf cos(b l) l^{-p} dl, evaluated from ``sici`` by
integration by parts (or from a continued fraction at high frequency)
with no quadrature.  The oracle is the kernel itself:
mu_hat = F on (-a, a).
"""

import json
import math

import numpy as np
import pytest

from pdext import kernels
from pdext.cli import main
from pdext.kernels import (DomainError, SpectralMeasure, TailDescriptor,
                           bochner_transform, bspline_autoconvolution,
                           bspline_x_kernel, exp_kernel, triangle_kernel)

EPS = np.finfo(float).eps

BUILT_INS = {
    "exp": exp_kernel,
    "triangle": triangle_kernel,
    "bsplinex:2@0.5": lambda: bspline_x_kernel(2, 0.5),
    "bsplinex:4@0.5": lambda: bspline_x_kernel(4, 0.5),
    "bsplinex:4@1": lambda: bspline_x_kernel(4, 1.0),
    "bsplinex:6@0.5": lambda: bspline_x_kernel(6, 0.5),
}


@pytest.fixture(scope="module", params=sorted(BUILT_INS))
def kernel(request):
    return BUILT_INS[request.param]()


def test_restriction_identity(kernel):
    a = kernel.half_width
    xs = np.linspace(-a, a, 41)
    got = np.array([bochner_transform(kernel.measure, x) for x in xs])
    assert np.max(np.abs(got - kernel(xs))) <= 1e-11


def test_total_mass_is_F0(kernel):
    assert abs(kernel.measure.total_mass() - float(kernel(0.0))) <= 1e-11


def old_envelope(k: int) -> tuple[float, float]:
    """(exponent, coeff) as the factories stated them before the tails had terms."""
    if k == 0:
        return 2.0, 1.0 / np.pi
    scale = 1.0 / (2.0 * np.pi * float(bspline_autoconvolution(k, 0.0)))
    return float(k), scale * (math.comb(k, k // 2) / 2.0 ** k) * 2.0 ** k


@pytest.mark.parametrize("make,k", [(exp_kernel, 0), (triangle_kernel, 0),
                                    (lambda: bspline_x_kernel(2), 2),
                                    (lambda: bspline_x_kernel(4), 4),
                                    (lambda: bspline_x_kernel(6, 1.0), 6),
                                    (lambda: bspline_x_kernel(8), 8)])
def test_envelope_derived_from_terms_is_bit_identical(make, k):
    tail = make().measure.tail
    assert tail.terms
    assert (tail.exponent, tail.coeff) == old_envelope(k)


def cos_power_oracle(b: float, n: int, L: float) -> float:
    """int_L^inf cos(b l) l^{-n} dl, b > 0: Gauss-Legendre on [L, M] with
    panels both geometric and a quarter period wide, plus the asymptotic
    series of the rest, -Re e^{ibM} sum_k (n)_k M^{-n-k} / (ib)^{k+1}, whose
    terms fall by (n + k) / bM <= 1/50 at bM = 2000."""
    M = max(2000.0 / b, 2.0 * L)
    periods = int(b * (M - L) / (2.0 * np.pi)) + 1
    edges = np.unique(np.concatenate([np.geomspace(L, M, 200),
                                      np.linspace(L, M, 4 * periods + 2)]))
    t, w = np.polynomial.legendre.leggauss(30)
    lo, hi = edges[:-1, None], edges[1:, None]
    l = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    body = np.sum(0.5 * (hi - lo) * w * np.cos(b * l) * l ** -n)
    k = np.arange(25)
    rising = np.array([math.prod(range(n, n + j)) for j in k], dtype=float)
    rest = -np.exp(1j * b * M) * np.sum(rising * M ** (-n - k) / (1j * b) ** (k + 1))
    return float(body + rest.real)


@pytest.mark.parametrize("L", [3.0, 50.0, 200.0])
def test_cos_power_integrals_against_quadrature(L):
    """Both directions of the recursion: 1e-13 of the row's scale
    L^{1-n}/(n-1) plus 4 eps b^{n-1}/(n-1)!, the upward recursion's bound
    from the absolute error of the sine integral, with b capped where the
    recursion turns downward (past b = 1 and bL = 12)."""
    bs = np.array([1e-3, 0.05, 0.7, 1.0, 1.5, 3.5, 40.0])
    J = kernels._power_integrals(bs, L, 12)[0]
    for i, b in enumerate(bs):
        b_up = min(b, max(1.0, 12.0 / L))
        for n in range(2, 13):
            tol = 1e-13 * L ** (1 - n) / (n - 1) + 4 * EPS * b_up ** (n - 1) / math.factorial(n - 1)
            assert abs(J[n, i] - cos_power_oracle(b, n, L)) <= tol, (b, n)


def test_cos_power_integrals_at_zero_frequency():
    J = kernels._power_integrals(np.array([0.0]), 7.0, 8)[0]
    for n in range(2, 9):
        assert J[n, 0] == pytest.approx(7.0 ** (1 - n) / (n - 1), rel=4 * EPS)


def test_transform_past_the_interval():
    """bsplinex:6 extends to B^{*6}(x)/B^{*6}(0), zero past |x| = 3; at
    x = 10 the upward recursion alone would leave 1e-12 there."""
    ker = bspline_x_kernel(6)
    b0 = float(bspline_autoconvolution(6, 0.0))
    for x in (2.5, 5.0, 10.0, 20.0, 40.0):
        want = float(bspline_autoconvolution(6, x)) / b0
        assert abs(bochner_transform(ker.measure, x) - want) <= 1e-13


def test_tail_with_terms_needs_symmetric_grid():
    tail = TailDescriptor.from_terms(((1.0, 0.0, 2),))
    grid = np.linspace(-10.0, 12.0, 101)
    with pytest.raises(DomainError, match="symmetric"):
        SpectralMeasure(grid, np.ones_like(grid), tail=tail)
    with pytest.raises(DomainError, match="symmetric"):
        SpectralMeasure(np.array([]), np.array([]), tail=tail)
    grid = np.linspace(-10.0, 10.0, 101)
    assert SpectralMeasure(grid, np.ones_like(grid), tail=tail).tail_mass() == \
        pytest.approx(2.0 / 10.0, rel=1e-15)


@pytest.mark.parametrize("terms", [(), ((1.0, 0.0, 1),), ((1.0, -1.0, 2),)])
def test_from_terms_refuses_divergent_or_malformed_terms(terms):
    with pytest.raises(DomainError):
        TailDescriptor.from_terms(terms)


def test_cli_triangle_isometry_passes(capsys):
    code = main(["isometry", "--kernel", "triangle", "--points", "0,0.2,0.4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["passed"]
    assert out["max_gap"] < 1e-9


def test_cli_moments_stdout_unchanged(capsys):
    # the second moments read the envelope alone, so the table is the one
    # printed before the tails had terms, byte for byte
    assert main(["moments"]) == 0
    assert capsys.readouterr().out == (
        "kernel,truncated_second_moment,verdict,indices\n"
        "exp,126.32713754591731,divergent,\"(1,1)\"\n"
        "triangle,160.00000000026148,divergent,\"(1,1)\"\n"
        "bsplinex:4,2.9952247283054576,finite,\"(0,0)\"\n")
