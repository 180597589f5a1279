"""Rules that live in one place (the CSV reader and its refusals, the
indices of a moment verdict, the concentration functional), the root
residual bound of ``solve_transcendental``, and branches no other test
reaches."""

import dataclasses
import json

import numpy as np
import pytest

from pdext import DomainError, MeasureOnInterval, concentration, kernel_from_name
from pdext.cli import main
from pdext.elliptic import exp_bvp_spec, solve_transcendental, triangle_bvp_spec
from pdext.kernels import SecondMomentResult, csv_columns
from pdext.quadrature import cell_gl_layout, kernel_apply_on_grid, simpson
from pdext.rkhs import (BoundaryData, KernelCombo, Sampled, Smoothed, _combo_matrix,
                        element_from_json, element_to_json, exp_inner_product,
                        load_test_function_csv, sampled_from_callable)

# a kernel table (x, F, F') and a test function (y, phi) with a bad third row
BAD_TABLES = {"non-numeric cell": "x,F,dF\n0,1,-1\n0.5,abc,-0.6\n1,0.3,-0.3\n",
              "short row": "x,F,dF\n0,1,-1\n0.5,0.6\n1,0.3,-0.3\n"}
BAD_TEST_FUNCTIONS = {"non-numeric cell": "y,phi\n0,0\n0.5,abc\n1,0\n",
                      "short row": "y,phi\n0,0\n0.5\n1,0\n"}


def test_csv_columns_skips_header_and_blank_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("X,F,dF\n\n0,1,-1,note\n,\n1,0.5,-0.25\n")
    x, F, dF = csv_columns(str(path), "x", 3)
    assert x.tolist() == [0.0, 1.0] and F.tolist() == [1.0, 0.5] and dF.tolist() == [-1.0, -0.25]


@pytest.mark.parametrize("kind", BAD_TABLES)
def test_kernel_table_with_a_bad_row_is_refused(kind, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(BAD_TABLES[kind])
    with pytest.raises(DomainError, match="row 3"):
        kernel_from_name(f"table:{path}")
    assert main(["moments", "--kernels", f"table:{path}"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "DomainError"
    assert str(path) in payload["detail"] and "row 3" in payload["detail"]


@pytest.mark.parametrize("rows", ["", "0,1,-1\n"])
def test_kernel_table_of_fewer_than_two_rows_is_refused(rows, tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("x,F,dF\n" + rows)
    assert main(["moments", "--kernels", f"table:{path}"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "DomainError" and "two or more" in payload["detail"]


@pytest.mark.parametrize("kind", BAD_TEST_FUNCTIONS)
def test_test_function_with_a_bad_row_is_refused(kind, tmp_path):
    path = tmp_path / "phi.csv"
    path.write_text(BAD_TEST_FUNCTIONS[kind])
    with pytest.raises(DomainError, match=f"{path}, row 3"):
        load_test_function_csv(str(path))


@pytest.mark.parametrize("verdict, indices",
                         [("divergent", (1, 1)), ("finite", (0, 0)), ("indeterminate", None)])
def test_moment_verdict_gives_the_deficiency_indices(verdict, indices):
    assert SecondMomentResult(1.0, verdict).indices == indices


def test_1700_exp_roots_are_returned():
    ks = solve_transcendental(exp_bvp_spec(), 1700)
    assert len(ks) == 1700 and np.all(np.diff(ks) > 0)


@pytest.mark.parametrize("make_spec", [exp_bvp_spec, triangle_bvp_spec])
def test_root_moved_by_1e_9_relative_is_refused(make_spec):
    spec = make_spec()
    moved = dataclasses.replace(spec, residual=lambda k: spec.residual(np.asarray(k) * (1 + 1e-9)))
    with pytest.raises(DomainError, match="poorly converged"):
        solve_transcendental(moved, 1700)


def test_mercer_cli_at_1608_exp_roots_exits_0(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["mercer", "--kernel", "exp", "--nodes", "2000", "--n", "800",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 801


def test_sampled_elements_on_different_grids_are_refused():
    h, k = (dataclasses.replace(sampled_from_callable(np.cos, 1.0, n=n, dfn=lambda x: -np.sin(x)),
                                fn=None, dfn=None) for n in (100, 200))
    with pytest.raises(DomainError, match="different grids"):
        exp_inner_product(h, k)


def test_simpson_on_an_even_point_count_ends_with_a_trapezoid():
    grid = np.linspace(0.0, 3.0, 4)
    # Simpson is exact for x^2 on [0, 2]; the trapezoid on [2, 3] gives (4 + 9)/2
    assert simpson(grid ** 2, grid) == pytest.approx(8.0 / 3.0 + 6.5, abs=1e-14)


def test_interpolator_of_complex_samples_matches_the_function_and_its_derivative():
    f = lambda x: np.exp(3j * x)
    df = lambda x: 3j * np.exp(3j * x)
    grid = np.linspace(0.0, 1.0, 201)
    el = Sampled(grid, f(grid), df(grid), BoundaryData(f(0.0), df(0.0), f(1.0), df(1.0)))
    spl = el.interpolator()
    t = np.linspace(0.0, 1.0, 997)
    # cubic Hermite with h = 1/200 and max|f''''| = 81: |f - p| <= h^4 81 / 384
    # and |f' - p'| <= sqrt(3) h^3 81 / 216, both all but reached mid-cell
    h = grid[1]
    assert np.max(np.abs(spl(t) - f(t))) < 1.001 * h ** 4 * 81 / 384
    assert np.max(np.abs(spl(t, 1) - df(t))) < 1.001 * np.sqrt(3) * h ** 3 * 81 / 216
    assert np.array_equal(spl(grid), f(grid))


def test_smoothed_roundtrips_through_json():
    y = np.linspace(0.0, 1.0, 11)
    el = Smoothed(y, np.sin(np.pi * y) * (1.0 - 0.5j))
    back = element_from_json(element_to_json(el))
    assert isinstance(back, Smoothed)
    assert np.array_equal(back.grid, el.grid) and np.array_equal(back.values, el.values)


def gl_oracle(grid, rho, atoms) -> float:
    """q(mu) for the density interpolated linearly (0 off its grid): T rho at
    the atoms by 20-point GL on every cell of grid and atoms, at the grid by
    the dense sum, and Simpson on the grid for the density x density term."""
    rho_lin = lambda y: np.interp(y, grid, rho, left=0.0, right=0.0)
    locs, w = np.array(atoms).T
    y, wy = (v.ravel() for v in cell_gl_layout(np.union1d(grid, locs), 20))
    at_atoms = np.exp(-np.abs(locs[:, None] - y)) @ (wy * rho_lin(y))
    at_grid = kernel_apply_on_grid(lambda t: np.exp(-np.abs(t)), grid, rho_lin, 6)
    return float(w @ np.exp(-np.abs(locs[:, None] - locs)) @ w + 2.0 * w @ at_atoms
                 + simpson(rho * at_grid, grid))


@pytest.mark.parametrize("grid, rho, atoms", [
    # atoms between grid points, inside a linear piece of the density
    (np.linspace(0.0, 1.0, 2001), lambda y: 0.3 * np.pi * np.sin(np.pi * y),
     [(0.123456, 0.25), (0.9, 0.15)]),
    # a density grid that stops short of the interval, and an atom past it
    (np.linspace(0.0, 0.5, 1001), lambda y: 1.12 * (1.0 + y), [(0.9, 0.3)]),
])
def test_concentration_matches_a_cellwise_gl_oracle(grid, rho, atoms):
    mu = MeasureOnInterval.from_density((0.0, 1.0), grid, rho(grid), atoms)
    q, dispersion = concentration(mu)
    oracle = gl_oracle(grid, rho(grid), atoms)
    assert abs(q - oracle) < 1e-13
    assert abs(dispersion + np.log(oracle)) < 1e-13


def combo_matrix_loop(combos):
    """The per-coefficient loop that _combo_matrix replaces, as its reference."""
    centers = np.unique([x for cb in combos for _, x in cb.coeffs])
    C = np.zeros((len(combos), len(centers)), dtype=complex)
    for i, cb in enumerate(combos):
        for c, x in cb.coeffs:
            C[i, np.searchsorted(centers, x)] += c
    return centers, C


def test_combo_matrix_equals_the_loop_over_coefficients():
    rng = np.random.default_rng(7)
    combos = [KernelCombo(tuple(zip(rng.normal(size=m) + 1j * rng.normal(size=m),
                                    rng.choice([0.0, 0.125, 0.25, 0.5, 1.0], size=m))))
              for m in (1, 5, 0, 12)]              # repeated centers within and across combos
    X, C = _combo_matrix(combos)
    X_loop, C_loop = combo_matrix_loop(combos)
    assert np.array_equal(X, X_loop) and np.array_equal(C, C_loop)
