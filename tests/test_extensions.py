import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdext import DomainError
from pdext.elliptic import mollifier
from pdext.extensions import (DefectPair, _tail_bound, boundary_condition_check,
                              defect_vectors, discrete_isometry_check,
                              expand_in_theta_basis, extend_type1,
                              extension_measure, g_r_extension,
                              sample_via_spectrum, solve_theta_spectrum,
                              unitary_evolve)
from pdext.kernels import SpectralMeasure, TailDescriptor, bochner_transform, gram_matrix
from pdext.mercer import volterra_apply
from pdext.rkhs import complex_exponential, sampled_from_callable, smooth


class TestThetaSpectrum:
    @pytest.mark.parametrize("theta", [0.0, 0.8, math.pi])
    def test_residuals_below_threshold(self, theta):
        spec = solve_theta_spectrum(theta, 50)
        assert np.max(spec.residuals) < 1e-10

    def test_zero_is_root_for_theta_zero(self):
        # at theta = 0 the phases match at lambda = 0 and the residual vanishes
        spec = solve_theta_spectrum(0.0, 3)
        assert abs(spec.lambdas[3]) < 1e-14
        assert spec.residuals[3] < 1e-14

    def test_branches_strictly_increasing(self):
        spec = solve_theta_spectrum(2.3, 40)
        assert np.all(np.diff(spec.lambdas) > 0)

    def test_spacing_tends_to_two_pi(self):
        spec = solve_theta_spectrum(0.8, 200)
        gaps = np.diff(spec.lambdas)
        assert abs(gaps[-1] - 2 * np.pi) < 1e-3
        assert abs(gaps[0] - 2 * np.pi) < 1e-3

    def test_asymptotic_offset(self):
        # the principal-branch roots approach theta + (2n -+ 1) pi, i.e. the
        # arctan correction tends to -+pi (not 0; the paper's arctan form
        # hides this branch shift)
        theta = 0.8
        spec = solve_theta_spectrum(theta, 300)
        lam_top = spec.lambdas[-1]
        n_top = spec.branches[-1]
        assert abs(lam_top - (theta + (2 * n_top - 1) * math.pi)) < 0.01
        lam_bot = spec.lambdas[0]
        n_bot = spec.branches[0]
        assert abs(lam_bot - (theta + (2 * n_bot + 1) * math.pi)) < 0.01

    def test_theta_reduced_mod_2pi(self):
        a = solve_theta_spectrum(-1.0, 5)
        b = solve_theta_spectrum(-1.0 + 2 * math.pi, 5)
        assert np.allclose(a.lambdas, b.lambdas)

    def test_one_root_per_window(self):
        theta = 1.3
        spec = solve_theta_spectrum(theta, 30)
        for n, lam in zip(spec.branches, spec.lambdas):
            assert theta + (2 * n - 1) * math.pi < lam < theta + (2 * n + 1) * math.pi


@given(theta=st.floats(0.0, 2 * math.pi, exclude_max=True),
       N=st.integers(1, 1000))
@settings(max_examples=60, deadline=None)
def test_theta_spectrum_property(theta, N):
    spec = solve_theta_spectrum(theta, N)
    assert np.max(spec.residuals) < 1e-10
    assert np.all(np.diff(spec.lambdas) > 0)
    n, lam = spec.branches, spec.lambdas
    assert np.all(spec.theta + (2 * n - 1) * math.pi < lam)
    assert np.all(lam < spec.theta + (2 * n + 1) * math.pi)


class TestBoundaryCondition:
    def test_eigenfunctions_satisfy_theta_condition(self):
        theta = 0.8
        spec = solve_theta_spectrum(theta, 5)
        for lam in spec.lambdas:
            e = complex_exponential(lam, 1.0)
            assert boundary_condition_check(e, theta) < 1e-9

    def test_smoothed_elements_satisfy_all_theta(self, kexp):
        f, _, _ = mollifier(0.5, 0.3)
        el = smooth(f, kexp, n=1000)
        for theta in (0.0, 1.0, 2.5):
            assert boundary_condition_check(el, theta) < 1e-10

    def test_off_spectrum_residual_bounded_away(self):
        theta = 0.8
        spec = solve_theta_spectrum(theta, 3)
        lam = 0.5 * (spec.lambdas[3] + spec.lambdas[4])   # between roots
        e = complex_exponential(lam, 1.0)
        assert boundary_condition_check(e, theta) > 0.1


class TestTypeOneExtension:
    def test_weights_sum_to_one_minus_tail(self):
        ext = extend_type1(0.0, 100)
        s = ext.atom_weights.sum()
        assert 0 < 1.0 - s <= ext.tail_bound

    def test_value_at_half(self):
        ext = extend_type1(0.5, 100)
        v = ext(0.5)[0]
        assert abs(v - math.exp(-0.5)) <= ext.tail_bound

    def test_restriction_error_bounded(self):
        for theta in (0.0, 0.8):
            ext = extend_type1(theta, 100)
            xs = np.linspace(-0.99, 0.99, 199)
            assert ext.restriction_error(xs).max() <= ext.tail_bound * (1 + 1e-12)

    def test_gram_psd_on_line(self, rng):
        ext = extend_type1(0.0, 100)
        pts = rng.uniform(-5, 5, 12)
        G = ext(pts[:, None] - pts[None, :])
        G = 0.5 * (G + G.conj().T)
        assert np.linalg.eigvalsh(G).min() >= -1e-8

    def test_tail_bound_closed_form_valid(self):
        # the trigamma majorant dominates the actual excluded mass
        for theta in (0.0, 0.8, math.pi):
            big = solve_theta_spectrum(theta, 400)
            w = 2.0 / (big.lambdas ** 2 + 3.0)
            inner = np.abs(big.branches) <= 100
            actual_tail_to_400 = w[~inner].sum()
            assert actual_tail_to_400 < _tail_bound(theta, 100)

    def test_completeness_deficit_matches_tail_bound(self):
        # sum of weights increases to 1; the deficit agrees with the bound
        # within 10%
        ext = extend_type1(0.8, 400)
        deficit = 1.0 - ext.atom_weights.sum()
        assert abs(deficit - ext.tail_bound) < 0.1 * ext.tail_bound


class TestExtensionMeasure:
    def test_total_mass(self):
        ext = extend_type1(0.0, 50)
        mu = extension_measure(ext)
        assert mu.total_mass() == pytest.approx(ext.atom_weights.sum(), abs=1e-14)

    def test_bochner_reproduces_extension(self):
        ext = extend_type1(0.8, 50)
        mu = extension_measure(ext)
        for x in (-2.3, 0.4, 1.7):
            assert abs(bochner_transform(mu, x) - ext(x)[0]) < 1e-12

    def test_restriction_vs_kernel(self, kexp):
        ext = extend_type1(0.0, 100)
        mu = extension_measure(ext)
        for x in (-0.7, 0.2, 0.9):
            assert abs(bochner_transform(mu, x) - complex(kexp(x))) <= ext.tail_bound


class TestSampling:
    def test_matches_volterra(self):
        ext = extend_type1(0.0, 80)
        f, _, _ = mollifier(0.5, 0.3)
        xs = np.array([0.21, 0.5, 0.83])
        _, tv = volterra_apply(f, grid=xs)
        for x, ref in zip(xs, tv):
            v = sample_via_spectrum(f, ext, float(x))
            assert abs(v - ref) < 2.0 * ext.tail_bound

    def test_zero_function(self):
        ext = extend_type1(0.0, 20)
        z = lambda y: np.zeros_like(np.asarray(y, dtype=float))
        assert abs(sample_via_spectrum(z, ext, 0.5)) == 0.0

    def test_bump_at_center_positive(self, kexp):
        ext = extend_type1(0.0, 80)
        f, _, _ = mollifier(0.5, 0.25)
        v = sample_via_spectrum(f, ext, 0.5)
        _, ref = volterra_apply(f, grid=np.array([0.5]))
        assert v.real > 0
        assert abs(v - ref[0]) < 2.0 * ext.tail_bound


class TestGrFamily:
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.8, 1.0])
    def test_restriction_is_exp(self, r):
        g = g_r_extension(r)
        xs = np.linspace(-0.999, 0.999, 101)
        assert np.max(np.abs(g(xs) - np.exp(-np.abs(xs)))) < 1e-15

    def test_continuity_at_glue(self):
        g = g_r_extension(0.8)
        eps = 1e-9
        assert abs(g(1 - eps) - g(1 + eps)) < 1e-8
        assert abs(float(g(1.0)) - math.exp(-1)) < 1e-12

    @pytest.mark.parametrize("r", [0.0, 0.5, 0.8, 1.0])
    def test_mass_one(self, r):
        assert abs(g_r_extension(r).mass() - 1.0) < 1e-9

    @pytest.mark.parametrize("r", [0.0, 0.5, 0.8, 1.0])
    def test_reconstruction(self, r):
        g = g_r_extension(r)
        for x in (-0.9, -0.35, 0.0, 0.6, 0.9):
            assert abs(g.reconstruct(x) - math.exp(-abs(x))) < 1e-9

    def test_density_nonnegative_on_grid(self):
        for r in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert g_r_extension(r).density_min_on_grid() > -1e-12

    def test_r_validation(self):
        with pytest.raises(DomainError):
            g_r_extension(1.5)

    def test_gram_psd_on_line(self, rng):
        g = g_r_extension(0.8)
        pts = rng.uniform(-5, 5, 12)
        G = g(np.abs(pts[:, None] - pts[None, :]) * np.sign(
            pts[:, None] - pts[None, :]))
        assert np.linalg.eigvalsh(0.5 * (G + G.T)).min() >= -1e-8


class TestUnitaryEvolution:
    def _f0(self):
        return sampled_from_callable(lambda x: np.exp(-x), 1.0,
                                     dfn=lambda x: -np.exp(-x))

    def test_t_zero_identity(self):
        ext = extend_type1(0.8, 40)
        eh = expand_in_theta_basis(self._f0(), ext)
        u0 = unitary_evolve(eh, 0.0, ext)
        assert np.allclose(u0.coeffs, eh.coeffs)

    def test_group_law(self):
        ext = extend_type1(0.8, 40)
        eh = expand_in_theta_basis(self._f0(), ext)
        u = unitary_evolve(unitary_evolve(eh, 0.7, ext), 0.5, ext)
        v = unitary_evolve(eh, 1.2, ext)
        assert np.max(np.abs(u.coeffs - v.coeffs)) < 1e-10

    def test_norm_preserved(self):
        ext = extend_type1(0.8, 40)
        eh = expand_in_theta_basis(self._f0(), ext)
        ut = unitary_evolve(eh, 3.7, ext)
        assert abs(ut.norm_sq() - eh.norm_sq()) < 1e-10

    def test_autocorrelation_reproduces_extension(self):
        # <F_0, U(t) F_0> = F_theta(t)
        ext = extend_type1(0.8, 60)
        eh = expand_in_theta_basis(self._f0(), ext)
        for t in (0.0, 0.9, 2.5, -1.3):
            ut = unitary_evolve(eh, t, ext)
            val = complex(np.sum(ut.coeffs))     # pairing against F_0
            assert abs(val - ext(t)[0]) < 1e-10

    def test_evolved_element_materializes(self):
        ext = extend_type1(0.0, 30)
        eh = expand_in_theta_basis(self._f0(), ext)
        el = unitary_evolve(eh, 0.4, ext).to_element(n=200)
        assert len(el.values) == 201


class TestDefectVectors:
    def test_exp_norms_are_one(self, kexp):
        pair = defect_vectors(kexp)
        assert pair.indices == (1, 1)
        assert pair.norms[0] == pytest.approx(1.0, abs=1e-9)
        assert pair.norms[1] == pytest.approx(1.0, abs=1e-9)
        # xi_minus is the kernel section at the right endpoint
        assert np.allclose(pair.xi_minus.values,
                           np.exp(pair.xi_minus.grid - 1.0))

    def test_triangle_exact_values(self, ktri):
        # closed forms via the measure representation:
        # ||e^x||^2 = (7e + 8 sqrt(e) + 1)/12, ||e^{-x}||^2 = same / e
        pair = defect_vectors(ktri)
        assert pair.indices == (1, 1)
        exact = (7 * math.e + 8 * math.sqrt(math.e) + 1) / 12
        assert pair.raw_norm_sq["e^x"] == pytest.approx(exact, abs=1e-9)
        assert pair.raw_norm_sq["e^-x"] == pytest.approx(exact / math.e, abs=1e-9)

    def test_smooth_kernel_has_no_defects(self, kbsx4):
        pair = defect_vectors(kbsx4, depth=12)
        assert pair.indices == (0, 0)
        assert pair.norms is None


class TestDiscreteIsometry:
    def test_spec_point_set_passes(self, kexp):
        rep = discrete_isometry_check([0.0, 1.0 / 3.0, 0.5],
                                      lambda t: float(kexp(t)),
                                      kexp.measure, trials=100, tol=1e-6)
        assert rep.passed and rep.psd_ok
        assert rep.max_gap < 1e-6

    def test_singleton_trivial(self, kexp):
        rep = discrete_isometry_check([0.0], lambda t: 1.0, kexp.measure,
                                      trials=10)
        assert rep.passed

    def test_wrong_mass_fails_with_gap(self, kexp):
        tail = TailDescriptor.from_terms((0.5 * c, w, p) for c, w, p in kexp.measure.tail.terms)
        half = SpectralMeasure(kexp.measure.grid, 0.5 * kexp.measure.density, tail=tail)
        rep = discrete_isometry_check([0.0, 0.25], lambda t: float(kexp(t)),
                                      half, trials=20)
        assert not rep.passed
        assert rep.max_gap == pytest.approx(0.5, abs=0.2)

    @pytest.mark.parametrize("S", [[0.0, math.nan], [0.0, 0.5, math.nan], [0.0, math.inf]])
    def test_non_finite_points_are_refused(self, kexp, S):
        with pytest.raises(DomainError, match="finite"):
            discrete_isometry_check(S, lambda t: float(kexp(t)), kexp.measure, trials=5)

    def test_non_psd_values_fail_immediately(self, kexp):
        # F(1) = -2 < -F(0), so the 3-point Gram cannot be PSD
        rep = discrete_isometry_check([0.0, 0.5, 1.0], lambda t: 1.0 - 3 * abs(t),
                                      kexp.measure, trials=5)
        assert not rep.passed and not rep.psd_ok
        assert rep.witness is not None

    def test_asymmetric_measure_against_its_own_transform(self):
        # Hermitian, non-real F = mu_hat: the Gram form must equal
        # int |sum c_k e^{-i s_k l}|^2 dmu, i.e. mu_hat(s_j - s_k)
        mu = SpectralMeasure(np.array([]), np.array([]),
                             atoms=((-3.0, 0.25), (1.0, 0.5), (3.0, 0.25)))
        rep = discrete_isometry_check([0.0, 0.2, 0.4],
                                      lambda t: bochner_transform(mu, t), mu,
                                      trials=50)
        assert rep.passed and rep.psd_ok
        assert rep.max_gap < 1e-14

    def test_report_equals_a_loop_over_the_trials(self, kexp):
        # a measure other than F's, so that every gap depends on its c
        mu = SpectralMeasure(np.array([]), np.array([]),
                             atoms=((-3.0, 0.25), (1.0, 0.5), (3.0, 0.25)))
        S = np.array([0.0, 0.15, 0.4, 0.9])
        F = lambda t: float(kexp(t))
        rep = discrete_isometry_check(S, F, mu, trials=100, tol=1e-6)
        D = S[:, None] - S[None, :]
        G = np.array([[F(d) for d in row] for row in D], dtype=complex)
        mu_hat = np.array([[bochner_transform(mu, d) for d in row] for row in D])
        rng = np.random.default_rng(0)
        gaps = []
        for _ in range(100):
            c = rng.standard_normal(len(S)) + 1j * rng.standard_normal(len(S))
            lhs = float(np.real(np.conj(c) @ G @ c))
            rhs = float(np.real(np.conj(c) @ mu_hat @ c))
            gaps.append(abs(lhs - rhs) / max(abs(lhs), 1e-300))
        assert np.ptp(gaps) > 0.1
        assert np.max(np.abs(rep.gaps - gaps)) <= 1e-13 * np.max(gaps)
        assert (rep.passed, rep.psd_ok) == (False, True)
        assert rep.max_gap == pytest.approx(max(gaps), rel=1e-13)


class TestOpenQuestionDiagnostics:
    def test_no_sampled_theta_gives_the_trivial_extension(self):
        # open question: no theta in a coarse sample reproduces e^{-|x|}
        # beyond the original interval; recorded as a numeric comparison
        for theta in (0.0, 0.8, math.pi, 4.0):
            ext = extend_type1(theta, 150)
            xs = np.array([1.5, 2.0, 3.0])
            gap = np.max(np.abs(ext(xs) - np.exp(-xs)))
            assert gap > 0.01

    def test_group_law_in_hf_norm(self):
        from pdext.extensions import ThetaExpansion
        ext = extend_type1(0.8, 40)
        h = sampled_from_callable(lambda x: np.exp(-x), 1.0,
                                  dfn=lambda x: -np.exp(-x))
        eh = expand_in_theta_basis(h, ext)
        u = unitary_evolve(unitary_evolve(eh, 0.7, ext), 0.5, ext)
        v = unitary_evolve(eh, 1.2, ext)
        diff = ThetaExpansion(ext.spectrum, u.coeffs - v.coeffs)
        assert math.sqrt(diff.norm_sq()) < 1e-10


class TestTruncationField:
    def test_truncation_matches_branch_range(self):
        ext = extend_type1(0.4, 17)
        assert ext.truncation == 17
        assert len(ext.lambdas) == 35
