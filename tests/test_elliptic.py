import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from pdext import DomainError
from pdext.elliptic import (bracketed_roots, bspline_operator_bound,
                            delta_report_json, descriptor_for_kernel,
                            distributional_derivative_check, ellipticity_check,
                            exp_bvp_spec, mollifier, root_table_rows,
                            solve_transcendental, standard_bumps, support_check,
                            triangle_bvp_spec, verify_against_mercer)
from pdext.mercer import hf_inner_via_inverse
from pdext.rkhs import sampled_from_callable, smooth


class TestExpRoots:
    def test_first_root_bracket_and_residual(self):
        ks = solve_transcendental(exp_bvp_spec(), 1)
        assert 1.0 < ks[0] < math.pi
        spec = exp_bvp_spec()
        assert abs(spec.normalized_residual(ks[0])) < 1e-12

    def test_all_roots_exceed_one(self):
        ks = solve_transcendental(exp_bvp_spec(), 10)
        assert np.all(ks > 1.0)              # k^2 > 1 on the spectrum side

    def test_roots_simple(self):
        spec = exp_bvp_spec()
        ks = solve_transcendental(spec, 8)
        h = 1e-6
        for k in ks:
            d = (spec.residual(k + h) - spec.residual(k - h)) / (2 * h)
            assert abs(d) > 1e-3

    def test_asymptotics_approach_multiples_of_pi(self):
        ks = solve_transcendental(exp_bvp_spec(), 40)
        m = np.round(ks[-1] / math.pi)
        assert abs(ks[-1] - m * math.pi) < 0.02

    def test_mapped_partial_sums_monotone_to_one(self):
        spec = exp_bvp_spec()
        ks = solve_transcendental(spec, 400)
        partial = np.cumsum(spec.mercer_map(ks))
        assert np.all(np.diff(partial) > 0)
        assert np.all(partial < 1.0)
        assert partial[-1] > 0.995


class TestTriangleRoots:
    def test_both_factor_families_present(self):
        # determinant factors through tan(k/4) = 4/(3k) and cos(k/4) = 0:
        # the cosine family contributes k = 2 pi (2m - 1)
        ks = solve_transcendental(triangle_bvp_spec(), 8)
        assert any(abs(k - 2 * math.pi) < 1e-9 for k in ks)
        assert any(abs(k - 6 * math.pi) < 1e-9 for k in ks)

    def test_first_root(self):
        # factor 4 cos(k/4) = 3k sin(k/4): first crossing near 2.19
        ks = solve_transcendental(triangle_bvp_spec(), 1)
        assert abs(math.tan(ks[0] / 4) - 4.0 / (3.0 * ks[0])) < 1e-12

    def test_roots_approach_even_pi_multiples(self):
        ks = solve_transcendental(triangle_bvp_spec(), 30)
        m = np.round(ks[-1] / (2 * math.pi))
        assert abs(ks[-1] - 2 * math.pi * m) < 0.02

    def test_mapped_partial_sums_monotone_to_half(self):
        spec = triangle_bvp_spec()
        ks = solve_transcendental(spec, 400)
        partial = np.cumsum(spec.mercer_map(ks))
        assert np.all(partial < 0.5)
        assert partial[-1] > 0.4995


class TestBracketedRoots:
    def test_root_exactly_at_a_midpoint(self):
        # the second midpoint of [0, 1] is the root of x - 1/4 itself
        r = bracketed_roots(lambda x: x - 0.25, [0.0], [1.0])
        assert r[0] == 0.25

    def test_mixed_brackets(self):
        # rising and falling sign changes, wide and narrow brackets, roots
        # inside and at either end
        c = np.array([0.3, -2.0, 1e3, 0.75, 5.0, 1.0 / 3.0])
        s = np.array([1.0, -1.0, 1.0, -2.0, 1.0, -1.0])
        lo = np.array([0.0, -3.0, 999.0, 0.75, 4.0, -10.0])
        hi = np.array([1.0, 1.0, 1e3 + 1e-9, 1.0, 5.0, 10.0])
        r = bracketed_roots(lambda x: s * (x - c) ** 3, lo, hi)
        assert np.all(np.abs(r - c) <= np.spacing(np.abs(c)))
        assert r[3] == 0.75 and r[4] == 5.0

    def test_bracket_without_sign_change_refused(self):
        with pytest.raises(DomainError):
            bracketed_roots(np.cos, [0.0, 3.0], [1.0, 4.0])


# strictly increasing g with g(u) = 0 only at u = 0, and g'
MONOTONE = {
    "linear": (lambda u: u, lambda u: np.ones_like(u)),
    "cubic": (lambda u: u + u ** 3, lambda u: 1.0 + 3.0 * u ** 2),
    "sinh": (np.sinh, np.cosh),
    "atan": (lambda u: np.arctan(4.0 * u), lambda u: 4.0 / (1.0 + 16.0 * u ** 2)),
    "expm1": (np.expm1, np.exp),
    "concave": (lambda u: -np.expm1(-u), lambda u: np.exp(-u)),
}


@st.composite
def monotone_brackets(draw):
    """f(x) = s g(k (x - c)) on brackets [lo, hi] that hold the float c: at
    an end, at the first midpoint or inside.  x - c rounds to 0 only at
    x = c, so the sign of f changes exactly there."""
    g, dg = MONOTONE[draw(st.sampled_from(sorted(MONOTONE)))]
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        lo = draw(st.floats(-20.0, 20.0))
        hi = lo + draw(st.floats(1e-12, 20.0))
        where = draw(st.sampled_from(["lo", "hi", "mid", "inside"]))
        c = {"lo": lo, "hi": hi, "mid": 0.5 * (lo + hi),
             "inside": min(hi, lo + draw(st.floats(0.0, 1.0)) * (hi - lo))}[where]
        rows.append((lo, hi, c, draw(st.sampled_from([1.0, -1.0])), draw(st.floats(0.1, 2.0))))
    lo, hi, c, s, k = map(np.array, zip(*rows))
    return g, dg, lo, hi, c, s, k


class TestBracketedRootsWithDerivative:
    @given(case=monotone_brackets(), factor=st.sampled_from([1.0, 10.0, 0.1]))
    @settings(max_examples=300, deadline=None)
    def test_matches_bisection_even_with_a_wrong_derivative(self, case, factor):
        # a df off by a factor of 10 either way must still converge to the
        # bisection root; the solver resolves one ulp of the bracket's far end
        g, dg, lo, hi, c, s, k = case
        f = lambda x: s * g(k * (x - c))
        df = lambda x: factor * s * k * dg(k * (x - c))
        bisected = bracketed_roots(f, lo, hi)
        newton = bracketed_roots(f, lo, hi, df)
        assert np.all((lo <= newton) & (newton <= hi))
        far = np.maximum(np.abs(lo), np.abs(hi))
        assert np.all(np.abs(newton - bisected) <= np.spacing(far))

    @given(case=monotone_brackets())
    @settings(max_examples=50, deadline=None)
    def test_bracket_without_sign_change_refused(self, case):
        g, dg, lo, hi, c, s, k = case
        f = lambda x: s * g(k * (x - c))
        df = lambda x: s * k * dg(k * (x - c))
        with pytest.raises(DomainError):
            bracketed_roots(f, c + 1.0 + (lo - lo.min()), c + 1.0 + (hi - lo.min()), df)

    def test_newton_takes_a_few_steps_where_bisection_takes_fifty(self):
        # x^3 = a for 100 values of a in [0, 5]: bisection halves to adjacent
        # floats, Newton converges quadratically once close
        a = np.linspace(0.5, 100.0, 100)
        calls = {"bisection": 0, "newton": 0}

        def counted(name):
            def f(x):
                calls[name] += 1
                return x ** 3 - a
            return f

        bisected = bracketed_roots(counted("bisection"), np.zeros(100), np.full(100, 5.0))
        newton = bracketed_roots(counted("newton"), np.zeros(100), np.full(100, 5.0),
                                 lambda x: 3.0 * x ** 2)
        assert np.all(np.abs(newton - bisected) <= np.spacing(5.0))
        assert calls["bisection"] > 50
        assert calls["newton"] <= 15


@pytest.mark.parametrize("spec", [exp_bvp_spec(), triangle_bvp_spec()],
                         ids=["exp", "triangle"])
def test_roots_match_brentq_oracle(spec):
    # oracle: scipy's Brent on the sign changes of a finer, independent scan
    ks = spec.k_min + 0.003 * np.arange(1, 10 ** 6)
    vals = spec.residual(ks)
    i = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0][:400]
    oracle = np.array([brentq(spec.residual, ks[j], ks[j + 1], xtol=1e-15,
                              rtol=8.9e-16) for j in i])
    roots = solve_transcendental(spec, 400)
    assert np.max(np.abs(roots - oracle) / oracle) < 1e-14


class TestVerifyAgainstMercer:
    def test_exp_top_five(self, dec_exp_800):
        rep = verify_against_mercer(exp_bvp_spec(), dec_exp_800, 5)
        assert rep.all_matched
        assert rep.max_rel_error < 1e-4

    def test_triangle_top_five(self, dec_tri_800):
        rep = verify_against_mercer(triangle_bvp_spec(), dec_tri_800, 5)
        assert rep.all_matched
        assert rep.max_rel_error < 1e-4

    def test_top_eigenvalue_is_smallest_root(self, dec_exp_800):
        spec = exp_bvp_spec()
        ks = solve_transcendental(spec, 1)
        assert abs(dec_exp_800.eigenvalues[0] - spec.mercer_map(ks[0])) \
            / dec_exp_800.eigenvalues[0] < 1e-5

    def test_root_table_rows(self):
        rows = root_table_rows(exp_bvp_spec(), 4)
        assert len(rows) == 4
        assert all(r[3] < 1e-12 for r in rows)


class TestDistributionalDerivatives:
    def test_triangle_delta_identity(self, ktri):
        rows = distributional_derivative_check(ktri, standard_bumps(ktri, seed=3))
        assert all(r.error < 1e-6 for r in rows)

    def test_exp_delta_identity(self, kexp):
        rows = distributional_derivative_check(kexp, standard_bumps(kexp, seed=4))
        assert all(r.error < 1e-6 for r in rows)

    def test_bump_away_from_zero_sees_no_delta(self, ktri):
        f, df, d2f = mollifier(0.15, 0.07)     # supported in (0.08, 0.22)
        rows = distributional_derivative_check(ktri, [(f, df, d2f, 0.15, 0.07)])
        # F'' = 0 away from the kink, so int F psi'' = 0 and rhs = -2 psi(0) = 0
        assert abs(rows[0].lhs) < 1e-9 and rows[0].rhs == 0.0

    def test_json_report(self, ktri):
        rows = distributional_derivative_check(ktri, standard_bumps(ktri, count=2))
        import json
        data = json.loads(delta_report_json(rows))
        assert len(data) == 2 and "error" in data[0]


class TestEllipticity:
    def test_exp_stabilizes(self, kexp, dec_exp_800):
        samples = [smooth(mollifier(c, w)[0], kexp, n=1000)
                   for c, w in ((0.5, 0.3), (0.35, 0.2), (0.7, 0.25))]
        rep = ellipticity_check(kexp, dec_exp_800, samples, m=150)
        assert rep.verdict == "elliptic"
        assert rep.constant < 10.0

    def test_triangle_stabilizes(self, ktri, dec_tri_800):
        samples = [smooth(mollifier(c, w)[0], ktri, n=1000)
                   for c, w in ((0.25, 0.15), (0.18, 0.1))]
        rep = ellipticity_check(ktri, dec_tri_800, samples, m=150)
        assert rep.verdict == "elliptic"

    def test_top_eigenfunction_ratio_below_constant(self, kexp, dec_exp_800):
        # the Rayleigh ratio of xi_1 is covered by the reported constant
        d = dec_exp_800
        xi = d.eigenfunctions[:, 0]
        num = 1.0 / d.eigenvalues[0] * abs(np.sum(d.weights * xi * xi)) ** 2
        dxi = np.gradient(xi, d.nodes)
        den = float(np.sum(d.weights * (xi ** 2 + dxi ** 2)))
        samples = [smooth(mollifier(0.5, 0.3)[0], kexp, n=1000)]
        rep = ellipticity_check(kexp, d, samples, m=150)
        assert num / den <= max(rep.constant, 1.0) + 0.1

    def test_rank_2m_above_the_decomposition_is_a_domain_error(self, kexp, dec_exp_400):
        samples = [smooth(mollifier(0.5, 0.3)[0], kexp, n=400)]
        with pytest.raises(DomainError, match="rank"):
            ellipticity_check(kexp, dec_exp_400, samples, m=dec_exp_400.rank // 2 + 1)

    def test_descriptors_nonnegative(self, kexp, ktri):
        assert descriptor_for_kernel(kexp).is_nonnegative()
        assert descriptor_for_kernel(ktri).is_nonnegative()


class TestBsplineBound:
    def test_k2_bound_one(self):
        rep = bspline_operator_bound(2, trials=50)
        assert rep.passed
        assert np.all(rep.ratios <= 1.0 + 1e-6)

    def test_k4_bound_four(self):
        rep = bspline_operator_bound(4, trials=25)
        assert rep.passed
        assert np.all(rep.ratios <= 4.0 + 1e-6)

    def test_low_frequency_bump_small_ratio(self):
        # phihat concentrated near u = 0: a single very wide bump
        import pdext.elliptic as E
        rep = bspline_operator_bound(2, trials=1, seed=1, a=0.5)
        wide = rep.ratios[0]
        assert wide < 1.0

    def test_invalid_k(self):
        with pytest.raises(DomainError):
            bspline_operator_bound(0)


class TestSupport:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_support_confined(self, k):
        rep = support_check(k)
        assert rep.passed
        assert rep.support == (-k / 2, k / 2)

    def test_k2_is_triangle(self):
        from pdext import bspline_autoconvolution
        u = np.linspace(-1, 1, 101)
        assert np.allclose(bspline_autoconvolution(2, u),
                           np.maximum(0, 1 - np.abs(u)), atol=1e-12)


class TestEllipticityStabilization:
    def test_stabilized_flag_for_smooth_samples(self, kexp, dec_exp_800):
        samples = [smooth(mollifier(0.5, 0.3)[0], kexp, n=1000)]
        rep = ellipticity_check(kexp, dec_exp_800, samples, m=200)
        assert rep.verdict == "elliptic"
        assert rep.stabilized


class TestEllipticityUsesMercerForm:
    def test_constant_is_truncated_hf_norm_over_h1_norm(self, kexp, dec_exp_800):
        f, df, _ = mollifier(0.45, 0.3)
        el = sampled_from_callable(f, 1.0, n=1000, dfn=df)
        d = dec_exp_800
        rep = ellipticity_check(kexp, d, [el], m=150)
        hv, dv = el.interpolator()(d.nodes), el.dfn(d.nodes)
        denom = float(np.sum(d.weights * (np.abs(hv) ** 2 + np.abs(dv) ** 2)))
        assert rep.constant == hf_inner_via_inverse(hv, hv, d, 300).real / denom
