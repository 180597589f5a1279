"""One tail representation and one Fourier dispatch for spectral measures.

Past the grid cutoff L a declared tail is a sum of terms
c cos(w l) |l|^{-p}, integrated in closed form; ``TailDescriptor.none()``
and an undeclared tail (``tail=None``) put nothing past the grid.  No path
uses QUADPACK, and a ``density_fn`` is refused.
"""

import json
import math

import numpy as np
import pytest

from pdext import kernels
from pdext.kernels import (DomainError, SpectralMeasure, TailDescriptor, bochner_transform,
                           kernel_from_name)
from pdext.quadrature import simpson

BUILT_INS = ("exp", "triangle", "bspline:2", "bspline:4", "bsplinex:2", "bsplinex:4",
             "bsplinex:6")


def cauchy(l):
    return 1.0 / (np.pi * (1.0 + l * l))


@pytest.mark.parametrize("name", ["exp", "triangle", "bspline:4", "bsplinex:2", "bsplinex:4",
                                  "bsplinex:6"])
def test_json_round_trip_transforms_bit_identically(name):
    mu = kernel_from_name(name).measure
    back = SpectralMeasure.from_json(mu.to_json())
    assert back.tail == mu.tail
    for x in np.linspace(0.0, 1.0, 9):
        assert bochner_transform(back, x) == bochner_transform(mu, x)
    assert back.total_mass() == mu.total_mass()


def test_json_without_terms_reads_the_envelope_as_one_term():
    mu = kernel_from_name("exp").measure
    d = json.loads(mu.to_json())
    d["tail"] = {"exponent": 2.0, "coeff": 1.0 / np.pi}
    back = SpectralMeasure.from_json(json.dumps(d))
    assert back.tail.terms == ((1.0 / np.pi, 0.0, 2),)
    assert abs(bochner_transform(back, 0.5) - math.exp(-0.5)) < 1e-6


@pytest.mark.parametrize("p,c", [(2.0, 1.0 / np.pi), (4.0, 3.0 / (8.0 * np.pi ** 4)), (3, 0.25)])
def test_envelope_is_its_single_term(p, c):
    assert TailDescriptor(p, c) == TailDescriptor.from_terms(((c, 0.0, p),))


@pytest.mark.parametrize("p", [2.5, 1.0, 1, 0.0, math.inf])
def test_envelope_needs_an_integer_exponent_of_at_least_two(p):
    with pytest.raises(DomainError):
        TailDescriptor(p, 1.0)


@pytest.mark.parametrize("term", [(1.0, 0.0, 1), (1.0, -1.0, 2), (1.0, 0.0, 2.5)])
def test_terms_given_directly_are_checked_like_from_terms(term):
    with pytest.raises(DomainError):
        TailDescriptor(2.0, 1.0, (term,))


def test_zero_coeff_declares_no_tail():
    assert TailDescriptor.none().terms == ()
    assert TailDescriptor(2.5, 0.0).terms == ()


def test_density_fn_on_a_non_symmetric_grid_is_refused():
    grid = np.linspace(-150.0, 200.0, 35001)
    with pytest.raises(TypeError, match="density_fn"):
        SpectralMeasure(grid, cauchy(grid), density_fn=cauchy)
    with pytest.raises(DomainError, match="symmetric"):
        SpectralMeasure(grid, cauchy(grid), tail=TailDescriptor(2.0, 1.0 / np.pi))
    # no tail past the grid: nothing starts at the cutoff, any grid will do
    SpectralMeasure(grid, cauchy(grid))
    SpectralMeasure(grid, cauchy(grid), tail=TailDescriptor.none())


def test_no_declared_tail_transforms_the_grid_alone():
    grid = np.linspace(-200.0, 200.0, 20001)
    grid_mass = float(simpson(cauchy(grid), grid))
    for tail in (TailDescriptor.none(), None):
        mu = SpectralMeasure(grid, cauchy(grid), tail=tail)
        assert mu.total_mass() == bochner_transform(mu, 0.0).real == grid_mass
        assert mu.tail_mass() == 0.0


@pytest.mark.parametrize("name", BUILT_INS)
def test_tail_mass_is_the_tail_transform_at_zero(name):
    mu = kernel_from_name(name).measure
    assert mu.tail_mass() == kernels._tail_fourier(mu, 0.0)
    assert mu.total_mass() == bochner_transform(mu, 0.0).real




@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_x_is_refused(x):
    with pytest.raises(DomainError, match="finite"):
        bochner_transform(kernel_from_name("exp").measure, x)
