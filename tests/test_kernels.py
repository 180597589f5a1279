import json
import math

import numpy as np
import pytest

from pdext import (DomainError, MeasureOnInterval, SpectralMeasure,
                   TailDescriptor, bochner_transform, bspline_autoconvolution,
                   bspline_kernel, bspline_x_kernel, check_positive_definite,
                   concentration, deficiency_indices, evaluate_kernel,
                   gram_matrix, kernel_from_name, second_moment,
                   tabulated_kernel)


class TestEvaluate:
    def test_exp_at_zero(self, kexp):
        assert evaluate_kernel(kexp, 0.0) == 1.0

    def test_exp_at_boundary(self, kexp):
        # continuous boundary limit at the endpoint
        assert evaluate_kernel(kexp, 1.0) == pytest.approx(math.exp(-1), abs=1e-15)

    def test_triangle_quarter(self, ktri):
        assert evaluate_kernel(ktri, 0.25) == pytest.approx(0.75, abs=1e-15)

    def test_outside_domain_raises(self, kexp, ktri):
        with pytest.raises(DomainError):
            kexp(1.5)
        with pytest.raises(DomainError):
            ktri(0.75)

    def test_hermitian_symmetry(self, kexp, ktri, kbsx4):
        for ker in (kexp, ktri, kbsx4, bspline_kernel(3)):
            x = np.linspace(-ker.half_width, ker.half_width, 401)
            assert np.max(np.abs(ker(-x) - np.conj(ker(x)))) < 1e-14

    @pytest.mark.parametrize("name", ["exp", "triangle", "bspline:4", "bsplinex:2",
                                      "bsplinex:4", "bsplinex:6", "table"])
    def test_exactly_even(self, name):
        # F(-x) = F(x) and F'(-x) = -F'(x) bit for bit: evenness is applied
        # once, by __call__ and deriv, for every factory
        if name == "table":
            t = np.linspace(0.0, 0.5, 257)
            ker = tabulated_kernel(t, np.exp(-3 * t ** 2), -6 * t * np.exp(-3 * t ** 2))
        else:
            ker = kernel_from_name(name)
        x = np.random.default_rng(3).uniform(0.0, ker.half_width, 1000)
        np.testing.assert_array_equal(ker(-x), ker(x))
        np.testing.assert_array_equal(ker.deriv(-x), -ker.deriv(x))


class TestGram:
    def test_two_points(self, kexp):
        G = gram_matrix(kexp, [0.0, 1.0])
        e1 = math.exp(-1)
        assert np.allclose(G, [[1.0, e1], [e1, 1.0]], atol=1e-15)

    def test_singleton(self, ktri):
        G = gram_matrix(ktri, [0.3])
        assert G.shape == (1, 1) and G[0, 0] == 1.0

    def test_triangle_three_points_pd(self, ktri):
        # oracle: direct symmetric eigendecomposition
        G = gram_matrix(ktri, [0.0, 0.25, 0.5])
        assert np.linalg.eigvalsh(G).min() > 0

    def test_point_outside_raises(self, kexp):
        with pytest.raises(DomainError):
            gram_matrix(kexp, [0.0, 1.2])


class TestPsdCheck:
    @pytest.mark.parametrize("name", ["exp", "triangle"])
    def test_builtins_pass(self, name):
        rep = check_positive_definite(kernel_from_name(name), 12, 50)
        assert rep.passed and rep.worst >= -1e-9

    def test_random_grams_16_points(self, kexp, ktri):
        for ker in (kexp, ktri):
            rep = check_positive_definite(ker, 16, 40, seed=7)
            assert rep.passed

    def test_broken_table_fails(self):
        # F(2/3) = -1 and F(1) = -2 < -F(0): |F| <= F(0) fails, so no Gram
        # envelope can stay PSD
        x = np.linspace(0, 1, 11)
        F = 1.0 - 3.0 * x
        dF = np.full_like(x, -3.0)
        ker = tabulated_kernel(x, F, dF)
        rep = check_positive_definite(ker, 12, 50)
        assert not rep.passed and rep.witness is not None

    def test_npoints_validation(self, kexp):
        with pytest.raises(DomainError):
            check_positive_definite(kexp, 1, 5)


class TestBsplineKernels:
    def test_sinc_sq_at_zero(self):
        assert evaluate_kernel(bspline_kernel(2), 0.0) == 1.0

    def test_sinc_at_one(self):
        assert abs(evaluate_kernel(bspline_kernel(1), 1.0)) < 1e-15

    def test_k_zero_rejected(self):
        with pytest.raises(DomainError):
            bspline_kernel(0)

    def test_sinc_sq_pd_on_half_interval(self):
        ker = bspline_kernel(2, half_width=0.5)
        x = np.linspace(-0.5, 0.5, 101)
        assert np.max(np.abs(ker(x) - ker(-x))) < 1e-15  # even
        assert check_positive_definite(ker, 12, 30).passed

    def test_autoconvolution_matches_displayed_forms(self):
        # triangle, quadratic and cubic B-splines
        u = np.linspace(-2.5, 2.5, 1001)
        b2 = bspline_autoconvolution(2, u)
        assert np.allclose(b2, np.maximum(0, 1 - np.abs(u)), atol=1e-12)
        b3 = bspline_autoconvolution(3, u)
        expected3 = np.where(np.abs(u) < 0.5, 0.25 * (3 - 4 * u ** 2),
                             np.where(np.abs(u) < 1.5,
                                      0.125 * (4 * u ** 2 - 12 * np.abs(u) + 9), 0.0))
        assert np.allclose(b3, expected3, atol=1e-12)
        b4 = bspline_autoconvolution(4, u)
        au = np.abs(u)
        expected4 = np.where(au < 1, (3 * au ** 3 - 6 * au ** 2 + 4) / 6,
                             np.where(au < 2, (-au ** 3 + 6 * au ** 2 - 12 * au + 8) / 6,
                                      0.0))
        assert np.allclose(b4, expected4, atol=1e-12)


class TestBochner:
    def test_cauchy_mass(self, kexp):
        assert bochner_transform(kexp.measure, 0.0).real == pytest.approx(1.0, abs=1e-9)

    def test_cauchy_half(self, kexp):
        v = bochner_transform(kexp.measure, 0.5)
        assert abs(v - math.exp(-0.5)) < 1e-9

    def test_single_atom(self):
        mu = SpectralMeasure(np.array([]), np.array([]), atoms=((2.0, 1.0),))
        x = 0.7
        assert bochner_transform(mu, x) == pytest.approx(np.exp(2j * x), abs=1e-15)

    @pytest.mark.parametrize("name,tol", [("exp", 1e-8), ("triangle", 2e-5),
                                          ("bspline:2", 5e-7), ("bsplinex:4", 2e-5)])
    def test_measure_reproduces_kernel(self, name, tol):
        # restriction identity mu_hat = F on (-a, a)
        ker = kernel_from_name(name)
        xs = np.linspace(-ker.half_width, ker.half_width, 9)
        for x in xs:
            assert abs(bochner_transform(ker.measure, x) - complex(ker(x))) < tol

    @pytest.mark.parametrize("density,atoms", [(np.ones(4), ()), (-np.ones(5), ()),
                                               (np.ones(5), ((1.0, 0.0),))])
    def test_malformed_measure_is_a_domain_error(self, density, atoms):
        # shape, negative density, atom weight
        with pytest.raises(DomainError):
            SpectralMeasure(np.linspace(-1.0, 1.0, 5), density, atoms=atoms)


class TestSecondMoment:
    def test_cauchy_divergent(self, kexp):
        res = second_moment(kexp.measure, 100.0)
        assert res.verdict == "divergent"

    def test_sinc4_finite(self):
        # the measure (sin pi l / pi l)^4 dl has a finite second moment
        fn = lambda l: np.sinc(l) ** 4
        grid = np.linspace(-60, 60, 40001)
        mu = SpectralMeasure(grid, fn(grid),
                             tail=TailDescriptor(4.0, 3.0 / (8.0 * np.pi ** 4)))
        assert second_moment(mu, 60.0).verdict == "finite"

    def test_atom_at_zero(self):
        mu = SpectralMeasure(np.array([]), np.array([]), atoms=((0.0, 1.0),))
        res = second_moment(mu, 10.0)
        assert res.value == 0.0 and res.verdict == "finite"

    def test_monotone_in_cutoff(self, kexp):
        vals = [second_moment(kexp.measure, c).value for c in (5, 20, 80, 200, 800)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_tail_fit_divergent(self):
        # no descriptor: the exponent must be recovered from the samples
        grid = np.linspace(-150, 150, 30001)
        mu = SpectralMeasure(grid, 1.0 / (np.pi * (1 + grid ** 2)))
        res = second_moment(mu, 150.0)
        assert res.verdict == "divergent"
        assert res.tail_exponent == pytest.approx(2.0, abs=0.1)

    def test_guard_band_indeterminate(self):
        grid = np.linspace(-150, 150, 30001)
        mu = SpectralMeasure(grid, np.abs(grid + 1e-9) ** -3.0 / 10.0)
        assert second_moment(mu, 150.0).verdict == "indeterminate"


class TestDeficiencyIndices:
    def test_exp(self, kexp):
        assert deficiency_indices(kexp) == (1, 1)

    def test_triangle(self, ktri):
        assert deficiency_indices(ktri) == (1, 1)

    def test_bspline_x4(self, kbsx4):
        assert deficiency_indices(kbsx4) == (0, 0)

    def test_missing_measure_raises(self):
        x = np.linspace(0, 1, 33)
        ker = tabulated_kernel(x, np.exp(-x), -np.exp(-x))
        with pytest.raises(DomainError, match="extension measure"):
            deficiency_indices(ker)


class TestConcentration:
    def test_delta_is_fully_concentrated(self):
        q, d = concentration(MeasureOnInterval.delta(0.3))
        assert q == 1.0 and d == 0.0

    def test_delta_translation_invariance(self):
        qs = [concentration(MeasureOnInterval.delta(x))[0] for x in (0.0, 0.4, 2.0)]
        assert qs == [1.0, 1.0, 1.0]

    def test_uniform_matches_analytic(self):
        # analytic double integral: 2 int_0^1 (1 - e^{-x}) dx = 2/e
        mu = MeasureOnInterval.uniform_probability((0.0, 1.0))
        q, d = concentration(mu)
        assert q == pytest.approx(2.0 / math.e, abs=1e-8)
        assert d == pytest.approx(1.0 - math.log(2.0), abs=1e-8)

    def test_two_atoms(self):
        mu = MeasureOnInterval((0.0, 1.0), np.array([]), np.array([]),
                               ((0.0, 0.5 + 0j), (1.0, 0.5 + 0j)))
        q, _ = concentration(mu)
        # exact 2x2 sum: 2 (1/4) + 2 (1/4) e^{-1}
        assert q == pytest.approx(0.5 * (1 + math.exp(-1)), abs=1e-15)

    def test_rejects_non_probability(self):
        mu = MeasureOnInterval.lebesgue((0.0, 2.0))
        with pytest.raises(DomainError):
            concentration(mu)


class TestSerialization:
    def test_spectral_measure_roundtrip(self, kexp):
        text = kexp.measure.to_json()
        back = SpectralMeasure.from_json(text)
        assert np.allclose(back.grid, kexp.measure.grid)
        assert np.allclose(back.density, kexp.measure.density)
        assert back.tail.exponent == 2.0

    def test_interval_density_off_the_grid_shape_is_refused(self):
        with pytest.raises(DomainError, match="shape"):
            MeasureOnInterval((0.0, 1.0), np.linspace(0.0, 1.0, 5), np.ones(4))
        with pytest.raises(DomainError):
            MeasureOnInterval.from_json(json.dumps({"interval": [0, 1], "grid": [0, 0.5, 1],
                                                    "density_re": [1.0, 1.0]}))

    def test_interval_measure_roundtrip(self):
        mu = MeasureOnInterval.from_density(
            (0.0, 1.0), np.linspace(0, 1, 11), np.linspace(0, 1, 11) * (1 + 2j),
            atoms=((0.0, 1 - 1j),))
        back = MeasureOnInterval.from_json(mu.to_json())
        assert np.allclose(back.density, mu.density)
        assert back.atoms == mu.atoms


class TestTabulated:
    def test_csv_roundtrip_and_interpolation(self, tmp_path, kexp):
        x = np.linspace(0, 1, 101)
        path = tmp_path / "exp.csv"
        rows = ["x,F,dF"] + [f"{xi},{math.exp(-xi)},{-math.exp(-xi)}" for xi in x]
        path.write_text("\n".join(rows))
        ker = kernel_from_name(f"table:{path}")
        xs = np.linspace(-1, 1, 57)
        assert np.max(np.abs(ker(xs) - np.exp(-np.abs(xs)))) < 1e-9

    def test_outside_table_is_error(self):
        x = np.linspace(0, 0.5, 21)
        ker = tabulated_kernel(x, 1 - x, -np.ones_like(x))
        with pytest.raises(DomainError):
            ker(0.7)

    def test_f0_must_be_positive(self):
        x = np.linspace(0, 1, 5)
        with pytest.raises(DomainError):
            tabulated_kernel(x, -np.ones(5), np.zeros(5))
