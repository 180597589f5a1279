"""The folded, batched Bochner transforms and the sampling formula's phihat
on the Lambda_theta lattice, each against the sum it replaces.

* ``bochner_transform`` of an even density on an exactly symmetric grid is
  one cosine sum over l >= 0; the oracle is the complex Simpson sum of
  density * e^{i l x} over the whole grid, plus the atoms and the closed-form
  tail.  A vector of x gives what a loop over its points gives.
* ``rkhs.shifted_lattice_fourier`` (FFTs on the lattice (theta - pi) + 2 pi Z)
  against ``rkhs.lattice_fourier`` on the same panels.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdext import kernels, rkhs
from pdext.elliptic import mollifier
from pdext.extensions import extend_type1, g_r_extension
from pdext.kernels import (SpectralMeasure, TailDescriptor, bochner_transform,
                           kernel_from_name, simpson)

BUILT_INS = ("exp", "triangle", "bspline:1", "bspline:2", "bspline:4",
             "bsplinex:2", "bsplinex:4", "bsplinex:6")
G_R = (0.0, 0.05, 0.5, 1.0)
MEASURES = {name: kernel_from_name(name).measure for name in BUILT_INS}
MEASURES.update({f"G_r@{r}": g_r_extension(r).measure for r in G_R})


def unfolded(mu: SpectralMeasure, x: float) -> complex:
    """The complex Simpson sum over the whole grid, the atoms, the tail."""
    total = simpson(mu.density * np.exp(1j * mu.grid * x), mu.grid)
    total += sum(w * np.exp(1j * loc * x) for loc, w in mu.atoms)
    return complex(total + kernels._tail_fourier(mu, x))


@pytest.mark.parametrize("name", ["exp", "triangle", "bspline:4"] + [f"G_r@{r}" for r in G_R])
def test_built_in_even_measures_fold(name):
    mu = MEASURES[name]
    l, w, sine = mu.fourier_rule
    assert not sine and l[0] == 0.0 and np.array_equal(mu.grid, -mu.grid[::-1])
    assert len(l) == len(mu.grid) // 2 + 1


def test_mirrored_grid_keeps_the_step():
    for L, n in ((200.0, 20001), (80.0 * np.pi, 60001), (4.0 * np.pi, 4001)):
        grid, lin = kernels.mirrored_linspace(L, n), np.linspace(-L, L, n)
        assert grid[0] == lin[0] and grid[1] == lin[1] and grid[-1] == L
        assert np.array_equal(grid, -grid[::-1]) and np.max(np.abs(grid - lin)) < 1e-12


def test_an_uneven_measure_keeps_its_sine_sum():
    grid = np.arange(-2560, 2561) / 128.0       # a power-of-two step is exact
    mu = SpectralMeasure(grid, np.exp(-(grid - 1.0) ** 2), tail=TailDescriptor.none())
    assert mu.fourier_rule[2]
    for x in (-0.7, 0.0, 0.3, 2.0):
        want = math.sqrt(math.pi) * np.exp(1j * x - x * x / 4.0)
        assert abs(bochner_transform(mu, x) - want) < 1e-14


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(MEASURES)),
       xs=st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=6))
def test_folded_and_batched_against_unfolded(name, xs):
    mu = MEASURES[name]
    got = bochner_transform(mu, np.array(xs))
    want = np.array([unfolded(mu, x) for x in xs])
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.max(np.abs(got - [bochner_transform(mu, x) for x in xs])) <= 1e-15


def test_batched_keeps_the_shape_of_x():
    mu = MEASURES["exp"]
    xs = np.array([[0.1, -0.2], [0.5, 0.0]])
    got = bochner_transform(mu, xs)
    assert got.shape == xs.shape and got.dtype == complex
    assert np.max(np.abs(got - np.exp(-np.abs(xs)))) < 1e-11
    assert isinstance(bochner_transform(mu, 0.25), complex)


def hat(center: float, width: float):
    return lambda y: np.maximum(0.0, width - np.abs(np.asarray(y) - center))


@pytest.mark.parametrize("N", [60, 1000, 3000])
@pytest.mark.parametrize("theta", [0.0, 0.5, math.pi, 5.9])
def test_lattice_phihat_matches_lattice_fourier(N, theta):
    ext = extend_type1(theta, N)
    for phi in (mollifier(0.5, 0.3)[0], hat(0.43, 0.3)):
        got = rkhs.shifted_lattice_fourier(phi, ext.lambdas, ext.theta - math.pi)
        assert np.max(np.abs(got - rkhs.lattice_fourier(phi, ext.lambdas))) <= 1e-15


@settings(max_examples=25, deadline=None)
@given(theta=st.one_of(st.sampled_from([0.0, math.pi]),
                       st.floats(0.0, 2.0 * math.pi, exclude_max=True)),
       N=st.integers(1, 3000), center=st.floats(0.2, 0.8), width=st.floats(0.05, 0.2),
       smooth=st.booleans())
def test_lattice_phihat_differential(theta, N, center, width, smooth):
    ext = extend_type1(theta, N)
    phi = mollifier(center, width)[0] if smooth else hat(center, width)
    got = rkhs.shifted_lattice_fourier(phi, ext.lambdas, ext.theta - math.pi)
    want = rkhs.lattice_fourier(phi, ext.lambdas)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_lattice_series_terms_follow_from_the_bound():
    K, e = rkhs._SERIES_TERMS, rkhs.LATTICE_EPS
    assert e ** K / math.factorial(K) <= np.finfo(float).eps
    assert e ** (K - 1) / math.factorial(K - 1) > np.finfo(float).eps
