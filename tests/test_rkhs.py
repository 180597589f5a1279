import math

import numpy as np
import pytest

from pdext import DomainError, MeasureOnInterval
from pdext.elliptic import mollifier
from pdext.rkhs import (KernelCombo, Sampled, Smoothed, complex_exponential,
                        e_lambda_measure, element_from_json,
                        element_from_measure, element_measure_expansion,
                        element_to_json, exp_inner_product, exp_norm_sq,
                        fd_derivative, inner_product_combo,
                        inner_product_smoothed, load_test_function_csv,
                        membership_test, reproducing_eval,
                        sampled_from_callable, smooth)
from pdext.extensions import extend_type1
from pdext.mercer import hf_inner_via_inverse


def section(x):
    return KernelCombo(((1.0, x),))


class TestComboInnerProduct:
    def test_reproducing_kernel_pair(self, kexp):
        v = inner_product_combo(section(0.2), section(0.7), kexp)
        assert v == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_f0_norm(self, kexp):
        assert inner_product_combo(section(0.0), section(0.0), kexp) == 1.0

    def test_difference_norm_identity(self, kexp, rng):
        # ||F_{y1} - F_{y2}||^2 = 2 (1 - Re F(y1 - y2))
        for _ in range(10):
            y1, y2 = rng.uniform(0, 1, 2)
            d = KernelCombo(((1.0, y1), (-1.0, y2)))
            v = inner_product_combo(d, d, kexp).real
            assert v == pytest.approx(2 * (1 - math.exp(-abs(y1 - y2))), abs=1e-14)

    def test_hermitian(self, kexp):
        a = KernelCombo(((1 + 2j, 0.1), (0.5, 0.6)))
        b = KernelCombo(((2 - 1j, 0.3),))
        assert inner_product_combo(a, b, kexp) == pytest.approx(
            np.conj(inner_product_combo(b, a, kexp)), abs=1e-15)

    def test_cauchy_schwarz_random(self, kexp, rng):
        for _ in range(20):
            pts = rng.uniform(0, 1, 3)
            ca = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            cb = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            a = KernelCombo(tuple(zip(ca, pts)))
            b = KernelCombo(tuple(zip(cb, pts)))
            ip = abs(inner_product_combo(a, b, kexp)) ** 2
            na = inner_product_combo(a, a, kexp).real
            nb = inner_product_combo(b, b, kexp).real
            assert ip <= na * nb * (1 + 1e-12)

    def test_positivity(self, ktri, rng):
        for _ in range(10):
            pts = rng.uniform(0, 0.5, 4)
            c = rng.standard_normal(4)
            a = KernelCombo(tuple(zip(c, pts)))
            assert inner_product_combo(a, a, ktri).real >= -1e-12


class TestSmooth:
    def test_exp_boundary_functionals(self, kexp):
        # h(0) = h'(0) = int phi e^{-y}; h(1) = -h'(1) = int phi e^{y-1}
        f, _, _ = mollifier(0.5, 0.3)
        el = smooth(f, kexp, n=1000)
        y = np.linspace(0, 1, 4001)
        lhs0 = np.trapezoid(f(y) * np.exp(-y), y)
        lhs1 = np.trapezoid(f(y) * np.exp(y - 1), y)
        b = el.boundary
        assert abs(b.h0 - lhs0) < 1e-9 and abs(b.dh0 - lhs0) < 1e-9
        assert abs(b.ha - lhs1) < 1e-9 and abs(b.dha + lhs1) < 1e-9
        assert abs(b.h0 - b.dh0) < 1e-12 and abs(b.ha + b.dha) < 1e-12

    def test_triangle_second_derivative(self, ktri):
        # f'' = -2 phi on the interior
        f, _, _ = mollifier(0.25, 0.15)
        el = smooth(f, ktri, n=2000)
        h = el.grid[1] - el.grid[0]
        fpp = (el.values[:-2] - 2 * el.values[1:-1] + el.values[2:]) / h ** 2
        interior = slice(50, -50)
        assert np.max(np.abs(fpp[interior] + 2 * f(el.grid[1:-1][interior]))) < 1e-4

    def test_approximate_identity_distance(self, kexp):
        # F_{phi_n} -> F(. - x0) in H_F as the bump narrows, and the sup
        # distance is controlled by sqrt(F(0)) ||F_phi - xi||
        x0 = 0.5
        dists = []
        for w in (0.2, 0.1, 0.05):
            f, _, _ = mollifier(x0, w)
            y = np.linspace(0, 1, 8001)
            c = np.trapezoid(f(y), y)     # normalize the bump to unit mass
            g = lambda t, fc=f, cc=c: fc(t) / cc
            # ||F_g - F_{x0}||^2 = <F_g, F_g> - 2 Re F_g(x0) + F(0)
            ngg = inner_product_smoothed(g, g, kexp).real
            el = smooth(g, kexp, n=1000)
            val_x0 = float(np.interp(x0, el.grid, el.values.real))
            dist_sq = ngg - 2 * val_x0 + 1.0
            dists.append(dist_sq)
            sup_err = np.max(np.abs(el.values.real - np.exp(-np.abs(el.grid - x0))))
            assert sup_err <= math.sqrt(max(dist_sq, 0.0)) + 1e-8
        # kink kernel: the squared distance decays linearly in the width
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 0.02
        assert dists[2] / dists[0] == pytest.approx(0.25, rel=0.3)

    def test_nonvanishing_endpoint_rejected(self, kexp):
        with pytest.raises(DomainError):
            smooth(lambda t: np.ones_like(np.asarray(t)), kexp, n=100)


class TestSmoothedInnerProduct:
    def test_self_product_nonnegative(self, kexp):
        f, _, _ = mollifier(0.4, 0.2)
        assert inner_product_smoothed(f, f, kexp).real > 0

    def test_agrees_with_l2_against_transform(self, kexp):
        # <F_phi, F_psi> = <phi, T_F psi>_2 via the independent Volterra path
        from pdext.mercer import volterra_apply
        f, _, _ = mollifier(0.35, 0.2)
        g, _, _ = mollifier(0.6, 0.25)
        v1 = inner_product_smoothed(f, g, kexp).real
        grid, tg = volterra_apply(g, n=2000)
        v2 = float(np.trapezoid(f(grid) * tg, grid))
        assert abs(v1 - v2) < 1e-8

    def test_bump_pair_limits_to_kernel(self, kexp):
        x0, y0 = 0.3, 0.8
        vals = []
        for w in (0.15, 0.075):
            f, _, _ = mollifier(x0, w)
            g, _, _ = mollifier(y0, w)
            y = np.linspace(0, 1, 8001)
            cf = np.trapezoid(f(y), y)
            cg = np.trapezoid(g(y), y)
            v = inner_product_smoothed(lambda t: f(t) / cf, lambda t: g(t) / cg,
                                       kexp).real
            vals.append(abs(v - math.exp(-abs(x0 - y0))))
        assert vals[1] < vals[0] and vals[1] < 5e-3

    def test_smoothed_arguments_are_their_callables(self, kexp):
        f, _, _ = mollifier(0.35, 0.2)
        g, _, _ = mollifier(0.6, 0.25)
        grid = np.linspace(0.0, 1.0, 1001)
        want = inner_product_smoothed(f, g, kexp, n=400)
        got = inner_product_smoothed(Smoothed(grid, f(grid), fn=f), Smoothed(grid, g(grid), fn=g),
                                     kexp, n=400)
        assert got == want
        fs, gs = f(grid), g(grid)
        want = inner_product_smoothed(lambda t: np.interp(t, grid, fs),
                                      lambda t: np.interp(t, grid, gs), kexp, n=400)
        assert inner_product_smoothed(Smoothed(grid, fs), Smoothed(grid, gs), kexp, n=400) == want
        assert inner_product_smoothed((grid, fs), (grid, gs), kexp, n=400) == want


class TestReproducingEval:
    def test_combo(self, kexp, rng):
        xi = section(0.4)
        for x in rng.uniform(0, 1, 5):
            assert reproducing_eval(xi, x, kexp) == pytest.approx(
                math.exp(-abs(0.4 - x)), abs=1e-14)

    def test_smoothed(self, kexp):
        from pdext.rkhs import Smoothed
        f, _, _ = mollifier(0.5, 0.25)
        el = smooth(f, kexp, n=1000)
        sm = Smoothed(np.linspace(0, 1, 1001), f(np.linspace(0, 1, 1001)), fn=f)
        for x in (0.1, 0.5, 0.9):
            v = reproducing_eval(sm, x, kexp)
            ref = np.interp(x, el.grid, el.values.real)
            assert abs(v - ref) < 1e-9

    @pytest.mark.parametrize("name,x", [("exp", 0.77777), ("triangle", 0.388885)])
    def test_smoothed_off_the_panel_edges(self, name, x):
        # x inside a quadrature panel: the kernel kink at y = x is split out
        from pdext import kernel_from_name
        from pdext.mercer import apply_operator
        from pdext.rkhs import Smoothed
        kernel = kernel_from_name(name)
        a = kernel.half_width
        phi = lambda y: np.sin(np.pi * y / a) ** 2
        grid = np.linspace(0.0, a, 2001)
        v = reproducing_eval(Smoothed(grid, phi(grid), fn=phi), x, kernel)
        assert abs(v - apply_operator(kernel, phi, [x])[0]) < 1e-14

    def test_sampled_exponential(self, kexp, rng):
        lam = 2.0
        e = complex_exponential(lam, 1.0)
        for x in rng.uniform(0, 1, 100):
            assert abs(reproducing_eval(e, x, kexp) - np.exp(1j * lam * x)) < 1e-12


class TestExpInnerProduct:
    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0, 5.0])
    def test_norm_formula(self, lam):
        e = complex_exponential(lam, 1.0)
        assert exp_inner_product(e, e).real == pytest.approx(
            (lam ** 2 + 3) / 2, abs=1e-12)

    def test_constant_element(self):
        one = sampled_from_callable(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                                    1.0, dfn=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        assert exp_inner_product(one, one).real == pytest.approx(1.5, abs=1e-12)

    def test_orthogonality_on_theta_spectrum(self):
        ext = extend_type1(0.8, 6)
        lams = ext.lambdas
        e1 = complex_exponential(lams[3], 1.0)
        e2 = complex_exponential(lams[8], 1.0)
        assert abs(exp_inner_product(e1, e2)) < 1e-12

    def test_requires_unit_interval(self, ktri):
        h = sampled_from_callable(np.exp, 0.5)
        with pytest.raises(DomainError):
            exp_inner_product(h, h)

    def test_sampled_grid_path(self):
        # no callables: Simpson on the shared grid
        grid = np.linspace(0, 1, 2001)
        vals = np.exp(1j * 2.0 * grid)
        dvals = 2j * vals
        from pdext.rkhs import BoundaryData
        e = Sampled(grid, vals, dvals, BoundaryData(vals[0], dvals[0], vals[-1], dvals[-1]))
        assert exp_inner_product(e, e).real == pytest.approx(3.5, abs=1e-10)


class TestMembership:
    def test_kernel_section_in(self, kexp, dec_exp_800):
        rep = membership_test(lambda x: np.exp(-np.abs(x - 0.5)), kexp, 256,
                              dec_exp_800)
        assert rep.verdict == "in"
        assert rep.bound == pytest.approx(1.0, rel=1e-3)

    def test_exponential_in_with_norm(self, kexp, dec_exp_800):
        # the rank-m estimate approaches ||e_2||^2 = 3.5 from below with an
        # O(1/m) Parseval tail, so the match is a few parts per thousand
        rep = membership_test(lambda x: np.exp(2j * x), kexp, 256, dec_exp_800)
        assert rep.verdict == "in"
        assert rep.bound == pytest.approx(3.5, rel=3e-3)
        assert rep.bound < 3.5

    def test_jump_out(self, kexp, dec_exp_800):
        rep = membership_test(lambda x: (x > 0.5).astype(float), kexp, 256,
                              dec_exp_800)
        assert rep.verdict == "out"

    def test_basis_size_validation(self, kexp, dec_exp_400):
        with pytest.raises(ValueError):
            membership_test(np.exp, kexp, dec_exp_400.rank + 1, dec_exp_400)

    def test_basis_size_above_the_rank_is_a_domain_error(self, kexp, dec_exp_400):
        with pytest.raises(DomainError, match="rank"):
            membership_test(np.exp, kexp, dec_exp_400.rank + 1, dec_exp_400)


class TestElementFromMeasure:
    def test_delta_gives_section(self, kexp):
        mu = MeasureOnInterval.delta(0.3, interval=(0.0, 1.0))
        el = element_from_measure(mu, kexp, n=500)
        assert np.max(np.abs(el.values - np.exp(-np.abs(el.grid - 0.3)))) < 1e-14

    def test_lebesgue_analytic(self, kexp):
        # int_0^1 e^{-|x-y|} dy = 2 - e^{-x} - e^{x-1}
        mu = MeasureOnInterval.lebesgue((0.0, 1.0))
        el = element_from_measure(mu, kexp, n=500)
        expected = 2.0 - np.exp(-el.grid) - np.exp(el.grid - 1.0)
        assert np.max(np.abs(el.values - expected)) < 1e-10

    def test_passes_membership(self, kexp, dec_exp_800):
        mu = MeasureOnInterval.lebesgue((0.0, 1.0))
        el = element_from_measure(mu, kexp, n=500)
        spl = el.interpolator()
        rep = membership_test(lambda x: spl(x), kexp, 256, dec_exp_800)
        assert rep.verdict == "in"

    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0, 3.0])
    def test_e_lambda_measure_reproduces(self, kexp, lam):
        mu = e_lambda_measure(lam)
        el = element_from_measure(mu, kexp, n=2000)
        assert np.max(np.abs(el.values - np.exp(1j * lam * el.grid))) < 1e-6

    def test_e_lambda_zero_is_constant_one(self, kexp):
        mu = e_lambda_measure(0.0)
        el = element_from_measure(mu, kexp, n=400)
        assert np.max(np.abs(el.values - 1.0)) < 1e-12

    def test_e_lambda_total_variation(self):
        for lam in (0.0, 1.0, 2.0):
            tv = e_lambda_measure(lam).total_variation()
            expected = 0.5 * (1 + lam ** 2) + math.sqrt(1 + lam ** 2)
            assert tv == pytest.approx(expected, abs=1e-6)
        assert e_lambda_measure(1.0).total_variation() == pytest.approx(
            1 + math.sqrt(2), abs=1e-6)


class TestMeasureExpansion:
    def test_kernel_section_f0(self, kexp):
        ext = extend_type1(0.0, 30)
        h = sampled_from_callable(lambda x: np.exp(-x), 1.0,
                                  dfn=lambda x: -np.exp(-x))
        mu = element_measure_expansion(h, ext.lambdas, kexp)
        rec = element_from_measure(mu, kexp, n=500)
        err = np.max(np.abs(rec.values - np.exp(-rec.grid)))
        assert err <= ext.tail_bound * (1 + 1e-6)

    def test_single_eigenfunction_exact(self, kexp):
        ext = extend_type1(0.8, 10)
        lam = float(ext.lambdas[12])
        e = complex_exponential(lam, 1.0)
        mu = element_measure_expansion(e, ext.lambdas, kexp)
        rec = element_from_measure(mu, kexp, n=500)
        assert np.max(np.abs(rec.values - np.exp(1j * lam * rec.grid))) < 1e-9

    def test_half_section_reconstruction(self, kexp):
        ext = extend_type1(0.0, 30)
        h = sampled_from_callable(lambda x: np.exp(-np.abs(x - 0.5)), 1.0)
        mu = element_measure_expansion(h, ext.lambdas, kexp)
        rec = element_from_measure(mu, kexp, n=500)
        err = np.max(np.abs(rec.values - np.exp(-np.abs(rec.grid - 0.5))))
        assert err < 0.05


class TestSerialization:
    def test_combo_roundtrips(self):
        el = KernelCombo(((1 + 1j, 0.25), (-0.5, 0.75)))
        assert element_from_json(element_to_json(el)) == el

    def test_sampled_roundtrips(self):
        e = complex_exponential(1.5, 1.0, n=50)
        back = element_from_json(element_to_json(e))
        assert np.allclose(back.values, e.values)
        assert np.allclose(back.dvalues, e.dvalues)
        assert back.boundary.ha == pytest.approx(e.boundary.ha)

    def test_test_function_csv(self, tmp_path):
        y = np.linspace(0, 1, 21)
        path = tmp_path / "phi.csv"
        path.write_text("y,phi\n" + "\n".join(f"{a},{a*(1-a)}" for a in y))
        sm = load_test_function_csv(str(path))
        assert sm.values[10] == pytest.approx(0.25, abs=1e-12)


class TestFdDerivative:
    def test_fourth_order(self):
        grid = np.linspace(0, 1, 201)
        d = fd_derivative(np.sin(3 * grid), grid[1] - grid[0])
        assert np.max(np.abs(d - 3 * np.cos(3 * grid))) < 1e-7


class TestSobolevVsSmoothedCrossPairs:
    def test_exp_inner_product_matches_double_integral(self, kexp):
        # <F_phi, F_psi>_{H_F} via the Sobolev boundary form equals the
        # double-quadrature inner product for distinct test functions
        f, _, _ = mollifier(0.35, 0.2)
        g, _, _ = mollifier(0.62, 0.27)
        ef = smooth(f, kexp, n=2000)
        eg = smooth(g, kexp, n=2000)
        direct = inner_product_smoothed(f, g, kexp)
        sobolev = exp_inner_product(ef, eg)
        assert abs(sobolev - direct) / abs(direct) < 1e-4


class TestSampledConsistency:
    def test_stored_derivative_agrees_with_differences(self, kexp):
        # Sampled elements carry a derivative consistent with the samples
        f, _, _ = mollifier(0.5, 0.3)
        el = smooth(f, kexp, n=2000)
        fd = fd_derivative(el.values, el.grid[1] - el.grid[0])
        assert np.max(np.abs(fd - el.dvalues)) < 1e-6


class TestMissingDerivative:
    def test_exp_inner_product_requires_derivatives(self):
        from pdext.rkhs import BoundaryData
        grid = np.linspace(0, 1, 101)
        vals = np.exp(-grid)
        el = Sampled(grid, vals, None, BoundaryData(1.0, -1.0, vals[-1], -vals[-1]))
        with pytest.raises(ValueError, match="derivative"):
            exp_inner_product(el, el)

    def test_missing_derivatives_are_a_domain_error(self):
        from pdext.rkhs import BoundaryData, exp_basis_coefficients
        grid = np.linspace(0, 1, 101)
        vals = np.exp(-grid)
        el = Sampled(grid, vals, None, BoundaryData(1.0, -1.0, vals[-1], -vals[-1]))
        with pytest.raises(DomainError, match="derivative"):
            exp_inner_product(el, el)
        with pytest.raises(DomainError, match="derivative"):
            exp_basis_coefficients(el, [0.5])

    def test_interpolator_falls_back_to_differences(self):
        from pdext.rkhs import BoundaryData
        grid = np.linspace(0, 1, 201)
        vals = np.sin(2 * grid)
        el = Sampled(grid, vals, None, BoundaryData(0, 2, vals[-1], 2 * np.cos(2)))
        assert abs(el.interpolator()(0.345) - math.sin(0.69)) < 1e-9


class TestReproducingViaSobolevForm:
    def test_kernel_section_pairing_recovers_point_values(self, kexp, rng):
        # <F(. - x), xi>_{H_F} computed through the Sobolev boundary form
        # equals xi(x): the kernel section enters as a Sampled element with
        # its (kinked) derivative
        lam = 2.0
        e = complex_exponential(lam, 1.0)
        for x in rng.uniform(0.05, 0.95, 6):
            fx = sampled_from_callable(
                lambda t, x=x: np.exp(-np.abs(np.asarray(t, dtype=float) - x)),
                1.0,
                dfn=lambda t, x=x: -np.sign(np.asarray(t, dtype=float) - x)
                * np.exp(-np.abs(np.asarray(t, dtype=float) - x)),
                kinks=(float(x),))
            v = exp_inner_product(fx, e)
            assert abs(v - np.exp(1j * lam * x)) < 1e-9


class TestMembershipUsesMercerForm:
    def test_estimates_are_truncated_hf_norms(self, kexp, dec_exp_800):
        h = lambda x: np.exp(-np.abs(x - 0.4)) + x * x
        rep = membership_test(h, kexp, 256, dec_exp_800)
        hv = h(dec_exp_800.nodes)
        assert rep.estimates == tuple(hf_inner_via_inverse(hv, hv, dec_exp_800, m).real
                                      for m in (64, 128, 256))
        assert rep.bound == rep.estimates[-1]
