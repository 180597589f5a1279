"""The trigamma function behind the type-1 tail bound.

``extensions._trigamma`` replaces ``scipy.special.polygamma(1, x)``.  It is
checked against a 50-digit ``decimal`` evaluation of the same recurrence and
asymptotic series, and against scipy; scipy's own value is up to 5 ulp from
the 50-digit one on [0.5, 1e4] (5 ulp at x = 0.52865...), so the comparison
with scipy allows the sum of both errors.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import polygamma

from pdext.extensions import _tail_bound, _trigamma, solve_theta_spectrum

# B_2, B_4, ..., B_18
BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
             Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
             Fraction(43867, 798)]


def trigamma_50_digits(x: float) -> float:
    """psi_1(x) to 50 digits: the recurrence up to y >= 50, then the
    asymptotic series through B_18 (truncation below 1e-40 relative)."""
    with localcontext() as ctx:
        ctx.prec = 50
        y = Decimal(x)
        head = Decimal(0)
        while y < 50:
            head += 1 / (y * y)
            y += 1
        t = 1 / (y * y)
        series = Decimal(0)
        for b in reversed(BERNOULLI):
            series = (series + Decimal(b.numerator) / Decimal(b.denominator)) * t
        return float(head + (1 + 1 / (2 * y) + series) / y)


def ulps(got: float, ref: float) -> float:
    return abs(got - ref) / float(np.spacing(ref))


@pytest.mark.parametrize("x, exact", [(0.5, math.pi ** 2 / 2), (1.0, math.pi ** 2 / 6)])
def test_closed_forms(x, exact):
    assert ulps(_trigamma(x), exact) <= 1
    assert ulps(trigamma_50_digits(x), exact) <= 1


@settings(max_examples=300, deadline=None)
@given(st.floats(0.5, 1e4))
@example(0.5286542271134276)      # scipy 5 ulp off
@example(0.6033244278785991)      # _trigamma and scipy 5 ulp apart
@example(20.0)
def test_within_3_ulp_of_50_digits(x):
    assert ulps(_trigamma(x), trigamma_50_digits(x)) <= 3


@settings(max_examples=300, deadline=None)
@given(st.floats(0.5, 1e4))
@example(0.5286542271134276)
@example(0.6033244278785991)
def test_agrees_with_scipy_polygamma(x):
    assert ulps(_trigamma(x), float(polygamma(1, x))) <= 8


LONG = 20000


@pytest.fixture(scope="module")
def long_spectra():
    thetas = (0.0, 0.8, math.pi, 5.0, 2.0 * math.pi - 1e-9)
    return {theta: solve_theta_spectrum(theta, LONG) for theta in thetas}


@pytest.mark.parametrize("N", [1, 2, 10, 1000])
def test_tail_bound_exceeds_the_excluded_weights(N, long_spectra):
    # branch n has |lam_n| < (2|n| + 3) pi, so the weights beyond LONG add at
    # least 2 int_{LONG+1}^inf 2 / ((2x + 3)^2 pi^2 + 3) dx
    c = math.pi / math.sqrt(3.0)
    beyond = 2.0 / (math.pi * math.sqrt(3.0)) * (math.pi / 2 - math.atan((2 * LONG + 5) * c))
    for theta, spec in long_spectra.items():
        w = 2.0 / (spec.lambdas ** 2 + 3.0)
        excluded = math.fsum(w[np.abs(spec.branches) > N]) + beyond
        assert excluded < _tail_bound(theta, N), theta
