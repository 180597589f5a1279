"""The type-2 extensions G_r as ordinary spectral measures.

ghat_r is a grid density on [-200, 200], an atom e^{-1} delta_0 at r = 0 and
a tail of cosine and sine terms; ``bochner_transform`` integrates the sine
terms s sin(w |l|) |l|^{-p} through K_p(b) = int_L^inf sin(b l) l^{-p} dl,
the imaginary part of the rows whose real part is the cosine integral.  The
oracle is G_r itself, on (-1, 1) and past it.
"""

import json
import math

import numpy as np
import pytest

from pdext import kernels
from pdext.cli import main
from pdext.extensions import TypeTwoExtension, discrete_isometry_check, g_r_extension
from pdext.kernels import (DomainError, SpectralMeasure, TailDescriptor,
                           bochner_transform, kernel_from_name, second_moment)

EPS = np.finfo(float).eps
# 1e-3 and 0.045 put the peak r/(r^2+l^2) of ghat_r at l = 0 below a 0.01 grid step
RS = [0.0, 1e-3, 0.045, 0.25, 0.5, 0.8, 1.0]


@pytest.mark.parametrize("r", RS)
def test_reconstruction_on_and_past_the_interval(r):
    g = g_r_extension(r)
    xs = np.linspace(-0.95, 7.0, 54)
    got = np.array([g.reconstruct(x) for x in xs])
    assert np.max(np.abs(got - g(xs))) <= 1e-11
    assert abs(g.mass() - 1.0) <= 1e-11


def test_measure_refuses_r_below_its_grid_resolution(capsys):
    with pytest.raises(DomainError):
        g_r_extension(5e-5).mass()
    assert main(["extend", "--r", "5e-5", "--points", "5"]) == 1
    assert g_r_extension(5e-5)(2.0) == pytest.approx(math.exp(-1.0 - 5e-5))


def test_measure_holds_the_atom_only_at_r_zero():
    assert g_r_extension(0.0).measure.atoms == ((0.0, math.exp(-1.0)),)
    assert g_r_extension(0.5).measure.atoms == ()


def exp_power_oracle(b: float, n: int, L: float) -> complex:
    """int_L^inf e^{i b l} l^{-n} dl, b > 0: Gauss-Legendre on [L, M] with
    panels both geometric and a quarter period wide, plus the asymptotic
    series of the rest, -e^{ibM} sum_k (n)_k M^{-n-k} / (ib)^{k+1}."""
    M = max(2000.0 / b, 2.0 * L)
    periods = int(b * (M - L) / (2.0 * np.pi)) + 1
    edges = np.unique(np.concatenate([np.geomspace(L, M, 200),
                                      np.linspace(L, M, 4 * periods + 2)]))
    t, w = np.polynomial.legendre.leggauss(30)
    lo, hi = edges[:-1, None], edges[1:, None]
    l = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    body = np.sum(0.5 * (hi - lo) * w * np.exp(1j * b * l) * l ** -n)
    k = np.arange(25)
    rising = np.array([math.prod(range(n, n + j)) for j in k], dtype=float)
    rest = -np.exp(1j * b * M) * np.sum(rising * M ** (-n - k) / (1j * b) ** (k + 1))
    return complex(body + rest)


@pytest.mark.parametrize("L", [3.0, 200.0])
def test_sine_power_integrals_against_quadrature(L):
    """K_p for p = 3..13, within the cosine rows' bound: 1e-13 of the row's
    scale L^{1-p}/(p-1) plus 4 eps b^{p-1}/(p-1)!, b capped where the
    recursion turns downward (past b = 1 and bL = 13)."""
    bs = np.array([1e-3, 0.05, 0.7, 1.0, 1.5, 3.5, 40.0])
    _, K = kernels._power_integrals(bs, L, 13)
    for i, b in enumerate(bs):
        b_up = min(b, max(1.0, 13.0 / L))
        for p in range(3, 14):
            tol = 1e-13 * L ** (1 - p) / (p - 1) + 4 * EPS * b_up ** (p - 1) / math.factorial(p - 1)
            assert abs(K[p, i] - exp_power_oracle(b, p, L).imag) <= tol, (b, p)


def test_sine_power_integrals_vanish_at_zero_frequency():
    _, K = kernels._power_integrals(np.array([0.0]), 7.0, 8)
    assert np.all(K[2:, 0] == 0.0)


def test_json_round_trip_keeps_the_sine_terms():
    mu = g_r_extension(0.5).measure
    text = mu.to_json()
    assert json.loads(text)["tail"]["sine_terms"]
    back = SpectralMeasure.from_json(text)
    assert back.tail == mu.tail
    for x in (0.0, 0.3, 2.5):
        assert bochner_transform(back, x) == bochner_transform(mu, x)


def test_json_without_sine_terms_still_loads():
    mu = kernel_from_name("triangle").measure
    d = json.loads(mu.to_json())
    del d["tail"]["sine_terms"]
    back = SpectralMeasure.from_json(json.dumps(d))
    assert back.tail == mu.tail and back.tail.sine_terms == ()
    assert bochner_transform(back, 0.25) == bochner_transform(mu, 0.25)


@pytest.mark.parametrize("sine", [(1.0, 0.0, 3), (1.0, -1.0, 3), (1.0, 1.0, 1), (1.0, 1.0, 2.5)])
def test_malformed_sine_terms_refused(sine):
    with pytest.raises(DomainError):
        TailDescriptor.from_terms(((1.0, 0.0, 2),), (sine,))


def test_envelope_runs_over_both_kinds_of_term():
    tail = TailDescriptor.from_terms(((1.0, 0.0, 4), (2.0, 1.0, 4)), ((0.5, 1.0, 3),))
    assert (tail.exponent, tail.coeff) == (3.0, 0.0)
    tail = TailDescriptor.from_terms(((1.0, 0.0, 4),), ((0.5, 1.0, 5),))
    assert (tail.exponent, tail.coeff) == (4.0, 1.0)


def test_envelope_given_against_the_terms_is_refused():
    """A 1/l^2 tail stated with the envelope of an l^{-4} one would read as
    a finite second moment; the terms decide."""
    with pytest.raises(DomainError, match="envelope"):
        TailDescriptor(4.0, 1.0, ((1.0, 0.0, 2),))
    tail = TailDescriptor(2.0, 1.0, ((1.0, 0.0, 2),))
    grid = np.linspace(-10.0, 10.0, 101)
    mu = SpectralMeasure(grid, np.zeros_like(grid), tail=tail)
    assert second_moment(mu, 20.0).verdict == "divergent"
    assert mu.tail_mass() == pytest.approx(0.2, rel=1e-15)


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_discrete_isometry_on_the_line(r):
    g = g_r_extension(r)
    S = np.array([0.0, 0.4, 0.9, 1.3, 2.2, 3.0])
    report = discrete_isometry_check(S, g, g.measure, trials=20)
    assert report.passed and report.max_gap < 1e-9


def test_cli_extend_r_refuses_a_mass_off_by_1e_8(monkeypatch, capsys):
    """Exit 0 means the library's 1e-9 mass bound held."""
    assert main(["extend", "--r", "0", "--points", "5", "--format", "json"]) == 0
    assert abs(json.loads(capsys.readouterr().out)["mass"] - 1.0) <= 1e-9
    monkeypatch.setattr(TypeTwoExtension, "mass", lambda self: 1.0 + 1e-8)
    assert main(["extend", "--r", "0", "--points", "5"]) == 1
