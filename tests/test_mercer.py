import math
import tracemalloc

import numpy as np
import pytest

from pdext import DomainError
from pdext.elliptic import exp_bvp_spec, mollifier, verify_against_mercer
from pdext.kernels import kernel_from_name, tabulated_kernel
from pdext.mercer import (GreensInverseResult, MercerDecomposition,
                          NystromConfig, apply_operator, discretize,
                          greens_inverse_apply, hf_inner_via_inverse,
                          kernel_reconstruct, volterra_apply)
from pdext.rkhs import exp_norm_sq, inner_product_smoothed, smooth


class TestDiscretize:
    def test_trace_exp(self, dec_exp_400):
        assert abs(dec_exp_400.trace() - 1.0) < 1e-10

    def test_trace_triangle(self, dec_tri_400):
        assert abs(dec_tri_400.trace() - 0.5) < 1e-10

    def test_eigenvalues_positive_and_top_below_one(self, dec_exp_400):
        assert dec_exp_400.eigenvalues[-1] > 0
        assert dec_exp_400.eigenvalues[0] < 1.0

    def test_l2_orthonormality(self, dec_exp_400):
        xi = dec_exp_400.eigenfunctions
        G = (xi * dec_exp_400.weights[:, None]).T @ xi
        assert np.max(np.abs(G - np.eye(dec_exp_400.rank))) < 1e-8

    def test_top_eigenpair_residual(self, dec_exp_400, kexp):
        # quadrature-operator application at the nodes (matrix route)
        d = dec_exp_400
        K = kexp(d.nodes[:, None] - d.nodes[None, :])
        resid = K @ (d.weights * d.eigenfunctions[:, 0]) \
            - d.eigenvalues[0] * d.eigenfunctions[:, 0]
        assert np.max(np.abs(resid)) < 1e-8

    def test_node_count_validation(self, kexp):
        with pytest.raises(DomainError):
            NystromConfig(8)

    def test_rank_refusals_are_domain_errors(self, kexp):
        d = discretize(kexp, NystromConfig(16))
        with pytest.raises(DomainError):
            d.coefficients(np.ones(16), 17)
        with pytest.raises(DomainError):
            kernel_reconstruct(d, 17, 0.1, 0.2)
        with pytest.raises(DomainError, match="rank 16"):
            verify_against_mercer(exp_bvp_spec(), d, 40)
        report = verify_against_mercer(exp_bvp_spec(), d, 16)
        assert len(report.matched) + len(report.unmatched) == 16

    def test_non_pd_kernel_rejected(self):
        x = np.linspace(0, 1, 11)
        ker = tabulated_kernel(x, 1.0 - 3.0 * x, np.full_like(x, -3.0))
        with pytest.raises(DomainError, match="rejected"):
            discretize(ker, NystromConfig(64))


class TestReconstruct:
    def test_full_rank_at_nodes(self, dec_exp_400, kexp, rng):
        d = dec_exp_400
        for _ in range(5):
            i, j = rng.integers(0, len(d.nodes), 2)
            x, y = d.nodes[i], d.nodes[j]
            v = kernel_reconstruct(d, d.rank, x, y)
            assert abs(v - complex(kexp(x - y))) < 1e-6

    def test_rank_one_error_bounded_by_trace_tail(self, dec_exp_400, kexp, rng):
        d = dec_exp_400
        tail = d.eigenvalues[1:].sum()
        for _ in range(5):
            i, j = rng.integers(0, len(d.nodes), 2)
            x, y = d.nodes[i], d.nodes[j]
            v = kernel_reconstruct(d, 1, x, y)
            assert abs(v - complex(kexp(x - y))) <= tail + 1e-12

    def test_diagonal_full_rank(self, dec_exp_400):
        x = dec_exp_400.nodes[100]
        assert abs(kernel_reconstruct(dec_exp_400, dec_exp_400.rank, x, x) - 1.0) < 1e-6

    def test_off_node_converges(self, dec_exp_400, kexp):
        # Nystrom extension between nodes: looser, but must converge in N
        x, y = 0.312345, 0.71111
        errs = [abs(kernel_reconstruct(dec_exp_400, N, x, y) - complex(kexp(x - y)))
                for N in (5, 25, 100)]
        assert errs[-1] < 1e-3 and errs[-1] <= errs[0]


class TestInverseInner:
    def test_norm_matches_smoothed(self, dec_exp_400, kexp):
        f, _, _ = mollifier(0.5, 0.25)
        direct = inner_product_smoothed(f, f, kexp).real
        el = smooth(f, kexp)
        hv = el.interpolator()(dec_exp_400.nodes)
        via_inv = hf_inner_via_inverse(hv, hv, dec_exp_400, 200).real
        assert abs(via_inv - direct) / direct < 1e-4

    def test_sqrt_lambda_xi_is_onb(self, dec_exp_400):
        d = dec_exp_400
        for n, m in ((0, 0), (3, 3), (0, 3), (2, 7)):
            hn = math.sqrt(d.eigenvalues[n]) * d.eigenfunctions[:, n]
            hm = math.sqrt(d.eigenvalues[m]) * d.eigenfunctions[:, m]
            v = hf_inner_via_inverse(hn, hm, d, 50).real
            assert abs(v - (1.0 if n == m else 0.0)) < 1e-10

    def test_rank_validation(self, dec_exp_400):
        hv = np.ones(dec_exp_400.rank)
        with pytest.raises(ValueError):
            hf_inner_via_inverse(hv, hv, dec_exp_400, dec_exp_400.rank + 1)


class TestVolterra:
    def test_matches_adaptive_oracle(self):
        f = lambda y: np.exp(-y) * np.sin(3 * y)
        grid, vals = volterra_apply(f, n=800)
        idx = np.arange(0, 801, 80)
        oracle = apply_operator(__import__("pdext").exp_kernel(), f, grid[idx])
        assert np.max(np.abs(vals[idx] - oracle)) < 1e-8

    def test_exponential_closed_form(self):
        # T_F e^{-y} at x: e^{-x} int_0^x e^y e^{-y} + e^x int_x^1 e^{-2y}
        #               = x e^{-x} + (e^{-x} - e^{x-2})/2
        grid, vals = volterra_apply(lambda y: np.exp(-y), n=400)
        x = grid
        closed = x * np.exp(-x) + 0.5 * (np.exp(-x) - np.exp(x - 2.0))
        assert np.max(np.abs(vals - closed)) < 1e-12

    def test_zero_input(self):
        _, vals = volterra_apply(lambda y: 0.0 * y, n=100)
        assert np.max(np.abs(vals)) == 0.0

    def test_few_points_keep_the_full_quadrature(self, kexp):
        # the caller's points split the n uniform cells; they are not the cells
        f = mollifier(0.5, 0.25)[0]
        xs = np.array([0.5])
        _, vals = volterra_apply(f, grid=xs)
        assert np.max(np.abs(vals - apply_operator(kexp, f, xs))) < 1e-12

    def test_matches_nystrom_matrix_application(self, dec_exp_800, kexp):
        # midpoint-rule matrix application agrees at its own O(h^2) accuracy
        d = dec_exp_800
        f = lambda y: np.sin(2 * y)
        K = kexp(d.nodes[:, None] - d.nodes[None, :])
        tf_matrix = K @ (d.weights * f(d.nodes))
        _, tf_exact = volterra_apply(f, grid=d.nodes)
        assert np.max(np.abs(tf_matrix - tf_exact)) < 1e-6


class TestGreensInverse:
    def test_round_trip_exp(self, kexp):
        f, _, _ = mollifier(0.45, 0.3)
        el = smooth(f, kexp, n=2000)
        res = greens_inverse_apply(el.grid, el.values, el.dvalues, "exp")
        assert res.boundary_ok
        assert np.max(np.abs(res.values - f(res.grid))) < 1e-5

    def test_round_trip_triangle(self, ktri):
        f, _, _ = mollifier(0.25, 0.15)
        el = smooth(f, ktri, n=2000)
        res = greens_inverse_apply(el.grid, el.values, el.dvalues, "triangle")
        assert np.max(np.abs(res.values - f(res.grid))) < 1e-5

    def test_pointwise_definition(self):
        # any smooth f: phi = (f - f'')/2 pointwise on the interior
        grid = np.linspace(0, 1, 801)
        f = np.sin(2 * grid) + grid ** 2
        res = greens_inverse_apply(grid, f, None, "exp")
        expected = 0.5 * (np.sin(2 * res.grid) + res.grid ** 2
                          + 4 * np.sin(2 * res.grid) - 2.0)
        assert np.max(np.abs(res.values - expected)) < 1e-8

    def test_boundary_violation_flagged(self):
        grid = np.linspace(0, 1, 401)
        vals = np.cos(3 * grid)            # violates f(0) = f'(0)
        dvals = -3 * np.sin(3 * grid)
        res = greens_inverse_apply(grid, vals, dvals, "exp")
        assert not res.boundary_ok


class TestNormConsistencyChain:
    def test_four_routes_agree(self, dec_exp_800, kexp, rng):
        # (i) double integral, (ii) <phi, T_F phi>_2, (iii) Mercer inverse,
        # (iv) Sobolev boundary form -- pairwise within 1e-4 relative
        for trial in range(3):
            c = rng.uniform(0.3, 0.7)
            w = rng.uniform(0.15, 0.28)
            f, _, _ = mollifier(c, w)
            v1 = inner_product_smoothed(f, f, kexp).real
            grid, tf = volterra_apply(f, n=2000)
            v2 = float(np.trapezoid(f(grid) * tf, grid))
            el = smooth(f, kexp, n=2000)
            hv = el.interpolator()(dec_exp_800.nodes)
            v3 = hf_inner_via_inverse(hv, hv, dec_exp_800, 400).real
            v4 = exp_norm_sq(el)
            vals = np.array([v1, v2, v3, v4])
            assert np.max(np.abs(vals - v1)) / v1 < 1e-4, (trial, vals)


class TestExports:
    def test_eigenfunction_plot_rows(self, dec_exp_400):
        xs = np.linspace(0.1, 0.9, 5)
        rows = dec_exp_400.eigenfunction_table([0, 1], xs)
        assert len(rows) == 5 and len(rows[0]) == 3

    def test_decomposition_json(self, dec_exp_400):
        import json
        payload = json.loads(dec_exp_400.to_json(top=5))
        assert len(payload["eigenvalues"]) == 5
        assert abs(payload["trace"] - 1.0) < 1e-9

    def test_csv_rows(self, dec_exp_400):
        rows = dec_exp_400.to_csv_rows()
        assert rows[0][0] == 1 and rows[0][1] == dec_exp_400.eigenvalues[0]


class TestGreensInverseElementForm:
    def test_accepts_sampled_element(self, kexp):
        f, _, _ = mollifier(0.5, 0.25)
        el = smooth(f, kexp, n=1500)
        res = greens_inverse_apply(el)
        assert res.boundary_ok
        assert np.max(np.abs(res.values - f(res.grid))) < 1e-5


def _small_table_kernel():
    x = np.linspace(0.0, 1.0, 33)
    return tabulated_kernel(x, np.exp(-2.0 * x * x), -4.0 * x * np.exp(-2.0 * x * x))


class TestToeplitzNystrom:
    """discretize builds h F(x_i - x_j) from one kernel row; the dense
    matrix is the oracle."""

    @pytest.mark.parametrize("n", [400, 401])
    @pytest.mark.parametrize("make", [lambda: kernel_from_name("exp"),
                                      lambda: kernel_from_name("triangle"),
                                      lambda: kernel_from_name("bspline:4"),
                                      _small_table_kernel],
                             ids=["exp", "triangle", "bspline:4", "table"])
    def test_matches_dense_oracle(self, make, n):
        kernel = make()
        dec = discretize(kernel, NystromConfig(n))
        x, h = dec.nodes, dec.weights[0]
        dense = np.linalg.eigvalsh(h * kernel(x[:, None] - x[None, :]).real)[::-1]
        lam = dec.eigenvalues
        assert np.max(np.abs(lam - dense)) <= 1e-14 * lam[0]
        assert np.all(np.diff(lam) <= 0)
        xi = dec.eigenfunctions
        G = xi.T @ (dec.weights[:, None] * xi)
        assert np.max(np.abs(G - np.eye(n))) <= 1e-12

    def test_peak_memory_below_dense_build(self, kexp):
        n = 1000
        discretize(kexp, NystromConfig(16))
        tracemalloc.start()
        try:
            discretize(kexp, NystromConfig(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * n * n * 8

    def test_eigenfunction_table_is_one_extension(self, dec_exp_400):
        xs = np.linspace(0.013, 0.987, 7)
        rows = dec_exp_400.eigenfunction_table([0, 2, 5], xs)
        cols = dec_exp_400.eigenfunction_at([0, 2, 5], xs).real
        assert rows == [tuple([x] + list(c)) for x, c in zip(xs, cols)]
