#!/usr/bin/env python3
"""Layer L4: every caller of ``quadrature.bracketed_roots``, timed and
checked against scipy's ``brentq`` run on an equation written out here.

Run from the repository root:

    PYTHONPATH=src python bench/l4_roots.py           # the default sizes below
    PYTHONPATH=src python bench/l4_roots.py --counts 40 --sizes 16,17 \\
        --theta-sizes 60 --repeats 1 --out /tmp/l4.json
    PYTHONPATH=src python bench/l4_roots.py --parent old.json

Callers and their oracles:

* ``elliptic.solve_transcendental`` on the exp and triangle specs, ``count``
  roots: Brent on each sign change of the printed residual
  ``spec.residual`` along a scan in steps of 0.003 from ``spec.k_min``;
* ``mercer._boundary_spectrum`` on exp and the triangle at n nodes: Brent
  on the discrete boundary equation of each even/odd block written in
  theta = omega h, n theta/2 - atan2(kappa_e, tan(theta/2)) = k pi and
  n theta/2 + atan2(tan(theta/2), kappa_o) = k pi with kappa = h K, mapped
  by lam = s/(g + 4 w sin^2(theta/2)); at n <= 400 also dense ``eigvalsh``
  of the Nystrom matrix, as max |lam - lam_dense|/lam_0;
* ``extensions.solve_theta_spectrum`` at theta = 0.5 and N branches each
  side: Brent on lam + 2 atan(lam) = theta + 2 pi n in each branch window.

Brent runs with rtol = 8.9e-16, the least it takes, and xtol = 1e-300, so
each oracle root is within about 2 ulps.  For each case the script records
the median wall time and the largest relative gap max |x - x_oracle|/|x|.

Every caller passes ``bracketed_roots`` the derivative of its equation, so
the roots come from safeguarded Newton steps.  Each case also records
``bisect_ulps``, the largest gap between those roots and the roots of the
same equation found by plain bisection (the callers run again with the
derivative dropped), in ulps of the far end of the root's bracket: omega in
[j pi/a, (j + 1) pi/a] for ``solve_transcendental`` and for the omega of
``_boundary_spectrum``, lam in [theta + (2n - 1) pi, theta + (2n + 1) pi]
for ``solve_theta_spectrum``; ``bisect_moved`` counts the roots that are not
bit-identical.  One ulp of the far end is the solver's resolution: where the
computed equation is exactly 0 on a few adjacent floats, bisection takes the
one nearest the bracket's low end and Newton the one it lands on.

Only public names, ``mercer._boundary_spectrum`` and the module-level
``bracketed_roots`` of ``pdext.kernels`` and ``pdext.extensions`` are used,
so a record of another checkout (``--parent``, run on the same host just
before) can be stored beside each case.  The script exits with status 1 when
some relative gap exceeds 1e-14, some dense gap exceeds 1e-14, or some
``bisect_ulps`` exceeds 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from l2_apply import commit, timed
from pdext import extensions, kernel_from_name, kernels, quadrature
from pdext.kernels import boundary_equation
from pdext.elliptic import exp_bvp_spec, solve_transcendental, triangle_bvp_spec
from pdext.extensions import solve_theta_spectrum
from pdext.mercer import _boundary_spectrum

ROOT = Path(__file__).resolve().parent.parent
GAP_TOL = 1e-14
BISECT_ULPS = 1.0
DENSE_UP_TO = 400
THETA = 0.5


def brent(f, lo, hi) -> float:
    return brentq(f, lo, hi, xtol=1e-300, rtol=8.9e-16)


def rel_gap(x, oracle) -> float:
    x, oracle = np.sort(x), np.sort(oracle)
    return float(np.max(np.abs(x - oracle) / np.abs(oracle)))


def transcendental_oracle(spec, count: int) -> np.ndarray:
    # the roots lie at most 2 pi apart (a >= 1/2)
    ks = spec.k_min + 0.003 * np.arange(1, int(2.0 * math.pi * (count + 1) / 0.003))
    vals = spec.residual(ks)
    i = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0][:count]
    return np.array([brent(spec.residual, ks[j], ks[j + 1]) for j in i])


def boundary_oracle(kernel, n: int) -> np.ndarray:
    """lam of both blocks from Brent on the theta-form boundary equation."""
    (c0, *c1), rate = kernel.poly_exp
    h = kernel.half_width / n
    if rate > 0:
        rh = rate * h
        s, g, w = h * c0 * -math.expm1(-2.0 * rh), math.expm1(-rh) ** 2, math.exp(-rh)
        k_even = k_odd = math.tanh(0.5 * rh)
    else:
        beta = -c1[0] * h
        s, g, w = 2.0 * beta * h, 0.0, 1.0
        k_even, k_odd = beta / (2.0 * c0 - beta * n), 0.0
    theta = []
    for k in range(n - n // 2):
        theta.append(brent(lambda t: 0.5 * n * t - math.atan2(k_even, math.tan(0.5 * t)) - k * math.pi,
                           2 * k * math.pi / n, (2 * k + 1) * math.pi / n))
    for k in range(1, n // 2 + 1):
        lo = (2 * k - 1) * math.pi / n
        theta.append(lo if k_odd == 0 else
                     brent(lambda t: 0.5 * n * t + math.atan2(math.tan(0.5 * t), k_odd) - k * math.pi,
                           lo, 2 * k * math.pi / n))
    return s / (g + 4.0 * w * np.sin(0.5 * np.array(theta)) ** 2)


def dense_gap(kernel, n: int, lam) -> float:
    h = kernel.half_width / n
    x = (np.arange(n) + 0.5) * h
    dense = np.linalg.eigvalsh(h * kernel(x[:, None] - x[None, :]).real)
    return float(np.max(np.abs(np.sort(lam) - dense)) / dense[-1])


def theta_oracle(theta: float, N: int) -> np.ndarray:
    return np.array([brent(lambda l: l + 2.0 * math.atan(l) - theta - 2 * n * math.pi,
                           theta + (2 * n - 1) * math.pi, theta + (2 * n + 1) * math.pi)
                     for n in range(-N, N + 1)])


@contextlib.contextmanager
def bisection_only():
    """The callers' ``bracketed_roots`` with the derivative dropped."""
    saved = kernels.bracketed_roots, extensions.bracketed_roots
    plain = lambda f, lo, hi, df=None: quadrature.bracketed_roots(f, lo, hi)
    kernels.bracketed_roots = extensions.bracketed_roots = plain
    try:
        yield
    finally:
        kernels.bracketed_roots, extensions.bracketed_roots = saved


def bisect_gap(solve, far) -> dict:
    """``solve()`` against itself under bisection, in ulps of ``far``."""
    x = solve()
    with bisection_only():
        plain = solve()
    return {"bisect_ulps": float(np.max(np.abs(x - plain) / np.spacing(far))),
            "bisect_moved": int(np.count_nonzero(x != plain))}


def omega_far_ends(a: float, count: int) -> np.ndarray:
    return np.pi * np.arange(1, count + 1) / a


def cases(counts, sizes, theta_sizes, repeats):
    specs = {"exp": exp_bvp_spec(), "triangle": triangle_bvp_spec()}
    for name, spec in specs.items():
        for count in counts:
            t, runs, roots = timed(lambda: solve_transcendental(spec, count), repeats)
            yield {"caller": "solve_transcendental", "case": name, "size": count,
                   "seconds": t, "runs_s": runs,
                   "rel_gap": rel_gap(roots, transcendental_oracle(spec, count)),
                   **bisect_gap(lambda: solve_transcendental(spec, count),
                                omega_far_ends(spec.second_order[1], count))}
    for name in specs:
        kernel = kernel_from_name(name)
        for n in sizes:
            t, runs, lam = timed(lambda: _boundary_spectrum(kernel, n), repeats)
            a = kernel.half_width
            omega = boundary_equation(kernel.poly_exp, a, a / n)[0]
            c = {"caller": "_boundary_spectrum", "case": name, "size": n,
                 "seconds": t, "runs_s": runs,
                 "rel_gap": rel_gap(lam, boundary_oracle(kernel, n)),
                 **bisect_gap(lambda: omega(n), omega_far_ends(a, n))}
            if n <= DENSE_UP_TO:
                c["dense_gap_over_lam0"] = dense_gap(kernel, n, lam)
            yield c
    for N in theta_sizes:
        t, runs, spec = timed(lambda: solve_theta_spectrum(THETA, N), repeats)
        base = THETA + (2 * np.arange(-N, N + 1) - 1) * np.pi
        yield {"caller": "solve_theta_spectrum", "case": f"theta={THETA}", "size": N,
               "seconds": t, "runs_s": runs,
               "rel_gap": rel_gap(spec.lambdas, theta_oracle(THETA, N)),
               **bisect_gap(lambda: solve_theta_spectrum(THETA, N).lambdas,
                            np.maximum(np.abs(base), np.abs(base + 2.0 * np.pi)))}


PARENT_FIELDS = ("seconds", "runs_s", "rel_gap")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--counts", default="40,400", help="solve_transcendental root counts")
    ap.add_argument("--sizes", default="16,64,256,400,2000", help="_boundary_spectrum node counts n")
    ap.add_argument("--theta-sizes", default="60,1000", help="solve_theta_spectrum N")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--parent", default=None,
                    help="a record of this script from another checkout, stored beside each case")
    ap.add_argument("--out", default=str(ROOT / "BENCH_L4_roots.json"))
    args = ap.parse_args(argv)
    ints = lambda text: [int(s) for s in text.split(",")]
    parent = json.loads(Path(args.parent).read_text()) if args.parent else None
    solve_theta_spectrum(THETA, 1)                      # first-call set-up
    out = []
    for c in cases(ints(args.counts), ints(args.sizes), ints(args.theta_sizes), args.repeats):
        if parent:
            old = [p for p in parent["cases"]
                   if (p["caller"], p["case"], p["size"]) == (c["caller"], c["case"], c["size"])]
            c["parent"] = {k: old[0][k] for k in PARENT_FIELDS} if old else None
        out.append(c)
        dense = c.get("dense_gap_over_lam0")
        print(f"{c['caller']:>21} {c['case']:>9} {c['size']:>5}  {c['seconds'] * 1e3:8.2f} ms  "
              f"rel gap {c['rel_gap']:.1e}  bisection {c['bisect_ulps']:.1f} ulp "
              f"({c['bisect_moved']} moved)"
              + (f"  dense gap/lam0 {dense:.1e}" if dense is not None else "")
              + (f"  parent {c['parent']['seconds'] * 1e3:8.2f} ms" if c.get("parent") else ""),
              file=sys.stderr)
    payload = {
        "layer": "L4", "what": "root finding: each bracketed_roots caller (safeguarded Newton) "
                               "against scipy brentq on an independently written "
                               "equation and against bisection on the same equation",
        "command": "PYTHONPATH=src python bench/l4_roots.py " + " ".join(argv or sys.argv[1:]),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": commit(),
        "parent_commit": parent["commit"] if parent else None,
        "gap_tol": GAP_TOL, "bisect_ulps_tol": BISECT_ULPS, "cases": out,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    worst = max(max(c["rel_gap"], c.get("dense_gap_over_lam0", 0.0)) for c in out)
    status = 0
    if worst > GAP_TOL:
        print(f"largest gap {worst:.2e} exceeds {GAP_TOL}", file=sys.stderr)
        status = 1
    ulps = max(c["bisect_ulps"] for c in out)
    if ulps > BISECT_ULPS:
        print(f"largest gap from bisection {ulps:.0f} ulps exceeds {BISECT_ULPS:.0f}",
              file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
