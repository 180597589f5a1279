"""``kernels.boundary_equation`` holds the second-order boundary equation with
the step h as a parameter: h = a/n gives the Nystrom eigenvalues, h = 0 the
continuous Mercer spectrum.  The continuous roots are checked against the
h -> 0 limit of the discrete ones on kernels without a printed root
equation, and the printed maps of the two hand specs against the derived
one."""

import numpy as np
import pytest

from pdext import bspline_x_kernel
from pdext.elliptic import solve_transcendental
from pdext.kernels import boundary_equation, exp_bvp_spec, triangle_bvp_spec

# (poly_exp, a) of second-order kernels that carry no TranscendentalSpec
LIMIT_CASES = {
    "bsplinex:2@0.3": (bspline_x_kernel(2, half_width=0.3).poly_exp, 0.3),
    "bsplinex:2@1": (bspline_x_kernel(2, half_width=1.0).poly_exp, 1.0),
    "2e^{-3|t|}@1": (((2.0,), 3.0), 1.0),
    "e^{-|t|}@2.5": (((1.0,), 1.0), 2.5),
    "1-0.4|t|@1": (((1.0, -0.4), 0.0), 1.0),
}


def top_eigenvalues(poly_exp, a, h, count=12):
    roots, eigenvalue = boundary_equation(poly_exp, a, h)
    return eigenvalue(roots(count))


@pytest.mark.parametrize("name", sorted(LIMIT_CASES))
def test_continuous_spectrum_is_the_limit_of_the_discrete(name):
    # the midpoint Nystrom eigenvalues converge as h^2, so one Richardson
    # step on n = 2000 and 4000 leaves an O(h^4) gap to the h = 0 roots
    poly_exp, a = LIMIT_CASES[name]
    continuous = top_eigenvalues(poly_exp, a, 0.0)
    fine, coarse = (top_eigenvalues(poly_exp, a, a / n) for n in (4000, 2000))
    richardson = (4.0 * fine - coarse) / 3.0
    assert np.max(np.abs(continuous - richardson) / continuous) <= 1e-9
    # and the raw discrete values are farther off: the test can see h
    assert np.max(np.abs(continuous - fine) / continuous) > 1e-7


@pytest.mark.parametrize("spec, printed", [(exp_bvp_spec(), lambda k: 2.0 / (1.0 + k ** 2)),
                                           (triangle_bvp_spec(), lambda k: 2.0 / k ** 2)],
                         ids=["exp", "triangle"])
def test_mercer_map_is_the_printed_map(spec, printed):
    ks = solve_transcendental(spec, 400)
    assert np.array_equal(spec.mercer_map(ks), printed(ks))


@pytest.mark.parametrize("poly_exp, a", [(None, 1.0),                      # no poly_exp
                                         (((1.0, -3.0), 0.0), 1.0),        # |c1| a >= 2 c0
                                         (((1.0, -1.0), 0.0), 2.0),        # the same, by a
                                         (((1.0, 0.5), 0.0), 1.0),         # c1 > 0
                                         (((1.0, -1.0), 1.0), 1.0),        # (1 - |t|) e^{-|t|}
                                         (((1.0, 0.0, -1.0), 0.0), 1.0)])  # 1 - t^2
def test_kernels_without_the_capability_get_none(poly_exp, a):
    assert boundary_equation(poly_exp, a) is None
    assert boundary_equation(poly_exp, a, a / 64) is None
