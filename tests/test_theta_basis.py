"""The e_lambda basis over Lambda_theta: one weight, one exponential sum, one
mu_lambda formula, and F_theta as the Lambda_theta expansion of F_0 = e^{-x}."""

import tracemalloc

import numpy as np
import pytest

from pdext import DomainError
from pdext.elliptic import mollifier
from pdext.extensions import (ThetaExpansion, expand_in_theta_basis, extend_type1,
                              sample_via_spectrum, unitary_evolve)
from pdext.mercer import apply_operator
from pdext.quadrature import GL_POINTS, UNIT_PANELS, panel_nodes
from pdext.rkhs import (complex_exponential, e_lambda_measure, e_lambda_weights,
                        element_measure_expansion, exp_basis_coefficients,
                        exp_sum, lattice_fourier, resolving_panels,
                        sampled_from_callable)


def phi_sin(y):
    return np.sin(3.0 * y) ** 2 + y


def phi_complex(y):
    return np.exp(2j * y) * (1.0 + y)


def f0():
    return sampled_from_callable(lambda x: np.exp(-x), 1.0, dfn=lambda x: -np.exp(-x))


@pytest.mark.parametrize("theta", [0.0, 0.8, 6.0])
@pytest.mark.parametrize("N", [4, 20, 60])
def test_f0_coefficients_are_the_weights(theta, N):
    # <e_lam, F_0> = e_lam(0) by the reproducing property
    lams = extend_type1(theta, N).lambdas
    c = exp_basis_coefficients(f0(), lams)
    assert np.max(np.abs(c - e_lambda_weights(lams))) < 1e-15


@pytest.mark.parametrize("theta", [0.0, 6.2])
def test_f0_coefficients_hold_up_to_the_lambda_bound(theta):
    # N = 79 takes max |lam| to just below 2 UNIT_PANELS = 512
    lams = extend_type1(theta, 79).lambdas
    assert 490.0 < np.max(np.abs(lams)) <= 2 * UNIT_PANELS
    w = e_lambda_weights(lams)
    assert np.max(np.abs(exp_basis_coefficients(f0(), lams) - w) / w) < 1e-12


class TestLambdaBound:
    # at theta = 1.234, N = 1000 the [0, 1] rule put F_0's coefficients off by
    # up to 94 times the weight; past |lam| = 512 the expansions refuse
    def test_expansion_refuses(self):
        with pytest.raises(DomainError, match="no longer resolves"):
            expand_in_theta_basis(f0(), extend_type1(1.234, 1000))

    def test_measure_expansion_refuses(self, kexp):
        ext = extend_type1(1.234, 1000)
        with pytest.raises(DomainError, match="no longer resolves"):
            element_measure_expansion(f0(), ext.lambdas, kexp)

    def test_evolving_a_sampled_element_refuses(self):
        with pytest.raises(DomainError, match="no longer resolves"):
            unitary_evolve(f0(), 0.3, extend_type1(1.234, 1000))


@pytest.mark.parametrize("theta, N", [(0.0, 4), (0.8, 50), (6.0, 100)])
def test_extension_is_the_expansion_of_its_weights(theta, N):
    ext = extend_type1(theta, N)
    assert isinstance(ext, ThetaExpansion)
    xs = np.linspace(-4.0, 4.0, 401)
    assert np.array_equal(ext(xs), ThetaExpansion(ext.spectrum, ext.spectrum.weights())(xs))
    assert np.array_equal(ext.atom_weights, ext.coeffs)


def test_expansion_keeps_the_shape_of_x():
    ext = extend_type1(0.8, 10)
    pts = np.linspace(-2.0, 2.0, 6)
    G = ext(pts[:, None] - pts[None, :])
    assert G.shape == (6, 6)
    assert np.array_equal(G[2], ext(pts[2] - pts))
    assert ext(0.5).shape == (1,)


def test_sample_on_an_array_matches_pointwise_calls():
    ext = extend_type1(0.8, 60)
    f, _, _ = mollifier(0.5, 0.3)
    xs = np.linspace(0.05, 0.95, 19)
    batch = sample_via_spectrum(f, ext, xs)
    single = np.array([sample_via_spectrum(f, ext, float(x)) for x in xs])
    assert isinstance(sample_via_spectrum(f, ext, 0.5), complex)
    assert batch.shape == xs.shape
    assert np.max(np.abs(batch - single)) < 1e-15


def test_sample_refuses_points_outside_the_interval():
    ext = extend_type1(0.0, 10)
    f, _, _ = mollifier(0.5, 0.3)
    with pytest.raises(DomainError):
        sample_via_spectrum(f, ext, np.array([0.2, 1.0]))


@pytest.mark.parametrize("lam", [0.0, 2.5, -7.0])
def test_e_lambda_measure_is_the_one_term_expansion(kexp, lam):
    one = e_lambda_measure(lam)
    e = complex_exponential(lam, 1.0)
    mix = element_measure_expansion(e, [lam], kexp)
    assert np.array_equal(one.grid, mix.grid)
    assert np.max(np.abs(one.density - mix.density)) < 1e-12 * (1 + lam * lam)
    ys = np.linspace(0.0, 1.0, 36).reshape(3, 12)
    assert np.max(np.abs(one.density_fn(ys) - mix.density_fn(ys))) < 1e-12 * (1 + lam * lam)
    for (loc_a, w_a), (loc_b, w_b) in zip(one.atoms, mix.atoms):
        assert loc_a == loc_b and abs(w_a - w_b) < 1e-12 * (1 + abs(lam))


class TestUnitaryEvolveSpectrum:
    def test_refuses_an_expansion_over_another_spectrum(self):
        eh = expand_in_theta_basis(f0(), extend_type1(0.8, 20))
        with pytest.raises(DomainError):
            unitary_evolve(eh, 0.3, extend_type1(2.0, 20))

    def test_refuses_another_truncation(self):
        eh = expand_in_theta_basis(f0(), extend_type1(0.8, 20))
        with pytest.raises(DomainError):
            unitary_evolve(eh, 0.3, extend_type1(0.8, 21))

    def test_evolves_with_the_expansion_own_lambdas(self):
        ext = extend_type1(0.8, 20)
        rng = np.random.default_rng(3)
        c = rng.standard_normal(41) + 1j * rng.standard_normal(41)
        u = unitary_evolve(ThetaExpansion(extend_type1(0.8, 20).spectrum, c), 0.7, ext)
        assert np.array_equal(u.coeffs, c * np.exp(1j * ext.lambdas * 0.7))

    def test_evolving_f_theta_is_evolving_f0(self):
        # F_theta is F_0's expansion, so U(t) applies to it directly
        ext = extend_type1(0.8, 30)
        a = unitary_evolve(ext, 1.1, ext)
        b = unitary_evolve(ThetaExpansion(ext.spectrum, ext.coeffs), 1.1, ext)
        assert np.array_equal(a.coeffs, b.coeffs)


class TestBlockedExpSum:
    """exp_sum forms e^{i lam x} in row blocks; each row is reduced on its
    own, so the result is the one-shot outer product's, bit for bit."""

    def test_blocked_equals_the_one_shot_product(self):
        # the N = 1000 sizes: 2001 lam against the 1536 nodes of the 256-panel
        # rule, then the 2001-term sum at 19 points
        ext = extend_type1(0.5, 1000)
        y, w = panel_nodes(0.0, 1.0, UNIT_PANELS, GL_POINTS)
        c = phi_sin(y) * w
        phihat = exp_sum(y, c, -ext.lambdas)
        assert np.array_equal(phihat, np.exp(1j * np.outer(-ext.lambdas, y)) @ c)
        xs = np.linspace(0.05, 0.95, 19)
        d = ext.coeffs * phihat
        assert np.array_equal(exp_sum(ext.lambdas, d, xs),
                              np.exp(1j * np.outer(xs, ext.lambdas)) @ d)

    def test_keeps_the_shape_of_x(self):
        rng = np.random.default_rng(5)
        lams = 40.0 * rng.standard_normal(9)
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        x = rng.uniform(0.0, 1.0, (3, 4))
        out = exp_sum(lams, c, x)
        assert out.shape == (3, 4)
        assert np.array_equal(out, (np.exp(1j * np.outer(x, lams)) @ c).reshape(3, 4))
        assert exp_sum(lams, c, 0.25).shape == ()


class TestLatticeFourier:
    """lattice_fourier against the one-shot direct sum on the same panels."""

    @staticmethod
    def direct(phi, lams):
        y, w = panel_nodes(0.0, 1.0, resolving_panels(lams), GL_POINTS)
        return np.exp(-1j * np.outer(lams, y)) @ (phi(y) * w), np.sum(np.abs(phi(y) * w))

    @pytest.mark.parametrize("phi", [phi_sin, phi_complex])
    @pytest.mark.parametrize("theta, N, panels", [(0.5, 79, 256), (0.5, 82, 512),
                                                  (0.0, 40, 256), (0.0, 200, 1024)])
    def test_matches_the_direct_sum(self, phi, theta, N, panels):
        lams = extend_type1(theta, N).lambdas
        assert resolving_panels(lams) == panels
        # N = 79 and 82 straddle |lam| = 512, where P goes from 256 to 512;
        # theta = 0 puts lam = 0 in the spectrum
        assert (theta == 0.0) == (0.0 in lams)
        ref, scale = self.direct(phi, lams)
        assert np.max(np.abs(lattice_fourier(phi, lams) - ref)) <= 1e-13 * scale

    def test_sample_keeps_the_shape_of_x_above_512(self):
        ext = extend_type1(0.5, 82)
        xs = np.linspace(0.05, 0.95, 12).reshape(3, 4)
        out = sample_via_spectrum(phi_sin, ext, xs)
        assert out.shape == (3, 4)
        assert isinstance(sample_via_spectrum(phi_sin, ext, 0.5), complex)
        single = np.array([sample_via_spectrum(phi_sin, ext, float(x)) for x in xs.ravel()])
        assert np.max(np.abs(out.ravel() - single)) < 1e-15

    def test_sample_at_n1000_matches_apply_operator_and_stays_small(self, kexp):
        # |lam| reaches 6281, past what the 256-panel rule resolves (off by
        # 1.7e-8 there); the refined panels agree to 1e-9
        ext = extend_type1(0.5, 1000)
        xs = np.linspace(0.05, 0.95, 19)
        tracemalloc.start()
        try:
            out = sample_via_spectrum(phi_sin, ext, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert np.max(np.abs(out - apply_operator(kexp, phi_sin, xs))) < 1e-9
