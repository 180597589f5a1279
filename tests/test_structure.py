"""Kernel structure: each built-in kernel either carries an elliptic
descriptor and a transcendental spectrum that are right for it, or every
call that needs them refuses with DomainError."""

import json

import numpy as np
import pytest

from pdext import DomainError, bspline_x_kernel, kernel_from_name, tabulated_kernel
from pdext.cli import main
from pdext.elliptic import (descriptor_for_kernel, distributional_derivative_check,
                            exp_bvp_spec, mollifier, spec_for_kernel, standard_bumps,
                            triangle_bvp_spec, verify_against_mercer)
from pdext.kernels import EXP_DESCRIPTOR, TRIANGLE_DESCRIPTOR, PdKernel
from pdext.mercer import NystromConfig, discretize, greens_inverse_apply
from pdext.rkhs import element_measure_expansion, sampled_from_callable, smooth


def small_table_kernel():
    x = np.linspace(0.0, 0.5, 21)
    return tabulated_kernel(x, np.exp(-x ** 2), -2.0 * x * np.exp(-x ** 2))


@pytest.mark.parametrize("name,structured", [
    ("exp", True), ("triangle", True), ("bsplinex:2", True),
    ("bsplinex:4", False), ("bspline:4", False), ("table", False)])
def test_structure_holds_or_is_refused(name, structured):
    kernel = small_table_kernel() if name == "table" else kernel_from_name(name)
    a = kernel.half_width
    if not structured:
        el = sampled_from_callable(np.cos, kernel, n=100)
        refusals = [
            lambda: spec_for_kernel(kernel),
            lambda: descriptor_for_kernel(kernel),
            lambda: distributional_derivative_check(kernel, standard_bumps(kernel, count=1)),
            lambda: greens_inverse_apply(el.grid, el.values, el.dvalues, kernel),
            lambda: element_measure_expansion(el, [1.0], kernel),
        ]
        for call in refusals:
            with pytest.raises(DomainError):
                call()
        return
    # a range element F_phi satisfies the descriptor's boundary rows, and
    # the descriptor's operator recovers phi (the name goes through
    # kernel_from_name)
    phi, _, _ = mollifier(0.5 * a, 0.3 * a)
    el = smooth(phi, kernel, n=1000)
    res = greens_inverse_apply(el.grid, el.values, el.dvalues, name)
    assert res.boundary_ok
    assert max(res.boundary_residuals) < 1e-9
    assert np.max(np.abs(res.values - phi(res.grid))) < 1e-4
    rep = verify_against_mercer(spec_for_kernel(kernel),
                                discretize(kernel, NystromConfig(400)), 5)
    assert rep.all_matched


def test_bsplinex2_off_the_triangle_width_has_no_triangle_structure():
    # the triangle's boundary rows and root equation hold for a = 1/2 only
    kernel = bspline_x_kernel(2, half_width=0.3)
    with pytest.raises(DomainError):
        spec_for_kernel(kernel)
    with pytest.raises(DomainError):
        descriptor_for_kernel(kernel)


def test_printed_problem_is_read_from_poly_exp_and_width():
    # a kernel built by hand gets exp's problem through its data alone
    def hand_built(half_width):
        return PdKernel(family="hand", half_width=half_width, evaluate=lambda x: np.exp(-x),
                        derivative=lambda x: -np.exp(-x), poly_exp=((1.0,), 1.0))

    kernel = hand_built(1.0)
    assert descriptor_for_kernel(kernel) == EXP_DESCRIPTOR
    assert spec_for_kernel(kernel).second_order == exp_bvp_spec().second_order
    for lookup in (spec_for_kernel, descriptor_for_kernel):
        with pytest.raises(DomainError):
            lookup(hand_built(0.7))


def test_bsplinex2_at_the_triangle_width_gets_the_triangle_problem():
    kernel = bspline_x_kernel(2, 0.5)
    assert spec_for_kernel(kernel).second_order == triangle_bvp_spec().second_order
    assert descriptor_for_kernel(kernel) == TRIANGLE_DESCRIPTOR


def test_cli_mercer_refuses_kernel_without_spectrum(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["mercer", "--kernel", "bspline:4", "--nodes", "64",
                 "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "DomainError"
    assert not out.exists()


def test_cli_triangle_curves(tmp_path):
    curves = tmp_path / "curves.csv"
    assert main(["mercer", "--kernel", "triangle", "--nodes", "100", "--n", "2",
                 "--out", str(tmp_path / "m.csv"), "--curves", str(curves)]) == 0
    assert curves.read_text().startswith("k,curve_lhs,curve_rhs\n")
    k, lhs, rhs = np.loadtxt(curves, delimiter=",", skiprows=1).T
    np.testing.assert_allclose(lhs, np.tan(k / 4.0), rtol=1e-12)
    np.testing.assert_allclose(rhs, 4.0 / (3.0 * k), rtol=1e-12)
