import math

import numpy as np
import pytest

from pdext import DomainError, kernel_from_name
from pdext.dyadic import (DyadicIndex, build_onb, expand, generic_norm_formula,
                          level_norm_sq, membership_by_coefficients, norm_table,
                          onb_gram, parseval_norm, projection_interpolation,
                          reconstruct_at)
from pdext.elliptic import mollifier
from pdext.kernels import tabulated_kernel
from pdext.mercer import hf_inner_via_inverse
from pdext.rkhs import exp_norm_sq, inner_product_smoothed, smooth

E = math.e


class TestTables:
    def test_triangle_table_closed_forms(self, ktri):
        # 1, 3/4, 1/4, 1/8 x2, 1/16 x4
        rows = norm_table(ktri, 3)
        expected = [1.0, 0.75, 0.25, 0.125, 0.125] + [0.0625] * 4
        assert len(rows) == 9
        for (_, got), want in zip(rows, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_exp_table_closed_forms(self, kexp):
        rows = norm_table(kexp, 3)
        e1, eh, eq, ee = E ** -1, E ** -0.5, E ** -0.25, E ** -0.125
        expected = [1.0, 1 - e1 ** 2, (1 - e1) / (1 + e1),
                    (1 - eh) / (1 + eh), (1 - eh) / (1 + eh)] \
            + [(1 - eq) / (1 + eq)] * 4
        for (_, got), want in zip(rows, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_generic_symbolic_column(self):
        # the generic closed form (1 + F(a) - 2 F(a/2)^2)/(1 + F(a)) applies
        # verbatim to a tabulated kernel
        x = np.linspace(0, 1, 201)
        ker = tabulated_kernel(x, np.exp(-x), -np.exp(-x))
        lvl1 = level_norm_sq(ker, 1)
        Fa = float(ker(1.0))
        Fh = float(ker(0.5))
        assert lvl1 == pytest.approx((1 + Fa - 2 * Fh ** 2) / (1 + Fa), abs=1e-9)
        assert generic_norm_formula(ker, 1) == pytest.approx(lvl1, abs=1e-15)

    def test_labels(self):
        assert DyadicIndex(0, 0).label == "h_0"
        assert DyadicIndex(2, 3).label == "h_{2,3}"
        with pytest.raises(ValueError):
            DyadicIndex(2, 4)          # position must be odd


class TestOrthonormality:
    @pytest.mark.parametrize("name", ["triangle", "exp"])
    def test_gram_is_identity_depth6(self, name):
        ker = kernel_from_name(name)
        els = build_onb(ker, 6)
        G = onb_gram(els, ker)
        assert G.shape == (2 + 63, 2 + 63)
        assert np.max(np.abs(G - np.eye(len(els)))) < 1e-10

    def test_unit_norms_closed_form(self, ktri):
        els = build_onb(ktri, 4)
        for el in els:
            from pdext.rkhs import inner_product_combo
            assert inner_product_combo(el.combo, el.combo, ktri).real \
                == pytest.approx(1.0, abs=1e-12)

    def test_dependent_sections_rejected(self):
        # constant kernel: F(a) = F(0) = 1 makes F_0, F_a collinear
        x = np.linspace(0, 1, 11)
        ker = tabulated_kernel(x, np.ones_like(x), np.zeros_like(x))
        with pytest.raises(DomainError, match="dependent"):
            build_onb(ker, 2)


class TestExpansion:
    def test_kernel_section_exact_on_dyadics(self, kexp):
        # f = F_{a/2} lies in the span: finite expansion, exact at all
        # dyadic points
        f = lambda x: np.exp(-np.abs(np.asarray(x) - 0.5))
        coeffs = expand(f, kexp, 6)
        els = build_onb(kexp, 6)
        for s in (0.0, 0.25, 0.5, 0.625, 1.0):
            v = reconstruct_at(coeffs, els, kexp, s)
            assert abs(v - f(s)) < 1e-10

    def test_exp_defect_vectors_parseval_one(self, kexp):
        # e^{-x} = F_0 is the first basis vector; e^{x-1} = F_1 lies in the
        # seed span: both Parseval sums are exactly 1
        for fn in (lambda x: np.exp(-np.asarray(x, dtype=float)),
                   lambda x: np.exp(np.asarray(x, dtype=float) - 1.0)):
            total = parseval_norm(expand(fn, kexp, 14))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_triangle_exact_norms(self, ktri):
        # independent closed forms from the measure representation:
        # ||e^x||^2 = (7e + 8 sqrt(e) + 1)/12 and ||e^{-x}||^2 = that / e
        exact = (7 * E + 8 * math.sqrt(E) + 1) / 12
        got_up = parseval_norm(expand(np.exp, ktri, 14))
        got_dn = parseval_norm(expand(lambda x: np.exp(-np.asarray(x, dtype=float)),
                                      ktri, 14))
        assert got_up == pytest.approx(exact, abs=1e-8)
        assert got_dn == pytest.approx(exact / E, abs=1e-8)

    def test_basis_vector_expands_to_itself(self, ktri):
        els = build_onb(ktri, 3)
        el = els[5]
        f = lambda s: sum(w * ktri(np.asarray(s, dtype=float) - c)
                          for w, c in el.combo.coeffs)
        total = parseval_norm(expand(f, ktri, 6))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_coefficient_locality(self, ktri):
        # c_{n,k} touches f only at the three stencil points
        calls = []

        def probe(x):
            calls.append(np.atleast_1d(np.asarray(x, dtype=float)))
            return np.exp(np.asarray(x, dtype=float))

        expand(probe, ktri, 2)
        seen = np.sort(np.unique(np.concatenate(calls)))
        # a = 1/2: depth-2 stencils touch only multiples of a/4 = 1/8
        allowed = np.array([0.0, 0.125, 0.25, 0.375, 0.5])
        assert all(np.min(np.abs(allowed - s)) < 1e-15 for s in seen)

    def test_parseval_partials_nondecreasing(self, kexp):
        parts = expand(np.cos, kexp, 8).parseval_partials()
        assert np.all(np.diff(parts) >= 0)


class TestMembershipVerdicts:
    def test_exp_defects_in(self, kexp):
        rep = membership_by_coefficients(lambda x: np.exp(-np.asarray(x, dtype=float)),
                                         kexp, 12)
        assert rep.verdict == "in"

    def test_triangle_exponentials_in(self, ktri):
        assert membership_by_coefficients(np.exp, ktri, 12).verdict == "in"

    def test_smooth_kernel_exponentials_out(self, kbsx4):
        assert membership_by_coefficients(np.exp, kbsx4, 12).verdict == "out"

    def test_span_function_in_at_small_depth(self, ktri):
        els = build_onb(ktri, 2)
        combo = els[2].combo
        f = lambda s: sum(w * ktri(np.asarray(s, dtype=float) - c)
                          for w, c in combo.coeffs)
        rep = membership_by_coefficients(f, ktri, 6)
        assert rep.verdict == "in"
        assert rep.parseval_sum == pytest.approx(1.0, abs=1e-10)


class TestProjection:
    def test_two_point_match(self, kexp):
        f = lambda s: np.cos(3.0 * np.asarray(s, dtype=float))
        proj, _ = projection_interpolation(f, [0.0, 1.0], kexp)
        assert abs(proj(0.0) - 1.0) < 1e-10
        assert abs(proj(1.0) - math.cos(3.0)) < 1e-10

    def test_level3_nine_points(self, kexp):
        lam = 2.0
        f = lambda s: np.exp(1j * lam * np.asarray(s, dtype=float))
        S = [k / 8 for k in range(9)]
        proj, _ = projection_interpolation(f, S, kexp)
        for s in S:
            assert abs(proj(s) - np.exp(1j * lam * s)) < 1e-10

    def test_idempotent_on_span(self, kexp):
        # f already a combination of sections at S: P f = f everywhere
        S = [0.0, 0.3, 0.8]
        f = lambda s: (0.7 * np.exp(-np.abs(np.asarray(s) - 0.3))
                       + 0.2 * np.exp(-np.abs(np.asarray(s) - 0.8)))
        proj, _ = projection_interpolation(f, S, kexp)
        xs = np.linspace(0, 1, 101)
        assert np.max(np.abs(proj(xs) - f(xs))) < 1e-10

    def test_dependent_sections_error(self):
        x = np.linspace(0, 1, 11)
        ker = tabulated_kernel(x, np.ones_like(x), np.zeros_like(x))
        with pytest.raises(DomainError):
            projection_interpolation(np.exp, [0.0, 0.5, 1.0], ker)


class TestCrossModuleNormAgreement:
    def test_parseval_vs_smoothed_norm(self, kexp):
        f, _, _ = mollifier(0.5, 0.3)
        el = smooth(f, kexp, n=2000)
        spl = el.interpolator()
        total = parseval_norm(expand(lambda s: spl(np.asarray(s, dtype=float)),
                                     kexp, 10))
        direct = inner_product_smoothed(f, f, kexp).real
        assert abs(total - direct) / direct < 1e-3

    def test_three_norm_routes_agree(self, kexp, dec_exp_800):
        # dyadic Parseval, Mercer inverse, Sobolev boundary form
        f, _, _ = mollifier(0.45, 0.25)
        el = smooth(f, kexp, n=2000)
        spl = el.interpolator()
        v_dyadic = parseval_norm(expand(lambda s: spl(np.asarray(s, dtype=float)),
                                        kexp, 12))
        hv = spl(dec_exp_800.nodes)
        v_mercer = hf_inner_via_inverse(hv, hv, dec_exp_800, 300).real
        v_sobolev = exp_norm_sq(el)
        ref = v_sobolev
        assert abs(v_dyadic - ref) / ref < 1e-3
        assert abs(v_mercer - ref) / ref < 1e-3


class TestCoefficientExport:
    def test_expansion_json(self, kexp):
        import json
        coeffs = expand(np.cos, kexp, 3)
        payload = json.loads(coeffs.to_json())
        assert payload["depth"] == 3
        assert len(payload["levels"]) == 3


class TestUnitValueAtZero:
    """The closed forms assume F(0) = 1; a scaled kernel must be refused, not
    given h_0 = F(0) or a misleading dependence error."""

    @pytest.mark.parametrize("scale", [0.8, 1.1, 1.5])
    @pytest.mark.parametrize("call", [lambda k: build_onb(k, 3), lambda k: expand(np.exp, k, 3),
                                      lambda k: norm_table(k, 2)],
                             ids=["build_onb", "expand", "norm_table"])
    def test_scaled_table_refused(self, scale, call):
        x = np.linspace(0, 1, 33)
        ker = tabulated_kernel(x, scale * np.exp(-x), -scale * np.exp(-x))
        with pytest.raises(DomainError, match=r"assume F\(0\) = 1"):
            call(ker)
