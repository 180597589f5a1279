#!/usr/bin/env python3
"""Layer L5: ``bochner_transform`` of the built-in spectral measures, the
closed-form Fourier tail against a QUADPACK (QAWF) reference on the same tail.

Run from the repository root:

    PYTHONPATH=src python bench/l5_bochner.py                 # 9 points per measure
    PYTHONPATH=src python bench/l5_bochner.py --points 2 --out /tmp/l5.json

Measures: exp (Cauchy), triangle, ``bsplinex:2`` at a = 1/2, ``bsplinex:4``
at a = 1/2 and 1 and ``bsplinex:6`` at a = 1/2, with x on [0, a] and the
kernel as oracle; and ghat_r of the type-2 extensions G_r for r = 0, 1/2, 1,
with x on [0, 3] and G_r itself as oracle.  Each carries its tail past the
cutoff L as terms c cos(w l) |l|^{-p} and (G_r) s sin(w |l|) |l|^{-p},
which ``bochner_transform`` sums in closed form.  The QAWF side is this
script's own reference, since pdext has no quadrature path for Bochner
tails: ``bochner_transform`` of the measure with its tail undeclared
(``tail=None``: the grid and the atoms alone), plus ``scipy.integrate.quad``
with a cosine weight (limit 800) of the density the same terms sum to over
[L, inf), twice, since the density is even.  Its ``abserr`` is recorded;
its subdivision-cap warnings are not printed.  For each measure and x the
script records the median wall time of one call on each side and
|mu_hat(x) - F(x)|; the summary gives per measure the median and slowest
time and the largest error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import sys
import warnings
from pathlib import Path

import numpy as np

from l2_apply import commit, timed
from pdext import bochner_transform, bspline_x_kernel, exp_kernel, g_r_extension, triangle_kernel

ROOT = Path(__file__).resolve().parent.parent


def on_interval(kernel):
    """(oracle, measure, x_max) of a kernel: F on [0, a]."""
    return kernel, kernel.measure, kernel.half_width


def g_r(r: float):
    """(oracle, measure, x_max) of G_r: G_r on [0, 3], past the gluing at 1."""
    g = g_r_extension(r)
    return g, g.measure, 3.0


MEASURES = {
    "exp": lambda: on_interval(exp_kernel()),
    "triangle": lambda: on_interval(triangle_kernel()),
    "bsplinex:2@0.5": lambda: on_interval(bspline_x_kernel(2, 0.5)),
    "bsplinex:4@0.5": lambda: on_interval(bspline_x_kernel(4, 0.5)),
    "bsplinex:4@1": lambda: on_interval(bspline_x_kernel(4, 1.0)),
    "bsplinex:6@0.5": lambda: on_interval(bspline_x_kernel(6, 0.5)),
    "G_r@0": lambda: g_r(0.0),
    "G_r@0.5": lambda: g_r(0.5),
    "G_r@1": lambda: g_r(1.0),
}


def qawf_reference(measure):
    """x -> (mu_hat(x), abserr) with the tail past the cutoff L by QAWF on
    the density the tail's terms sum to."""
    from scipy.integrate import IntegrationWarning, quad
    tail, L = measure.tail, measure.cutoff
    body = dataclasses.replace(measure, tail=None)

    def density(l):
        l = np.abs(np.asarray(l, dtype=float))
        return (sum(c * np.cos(w * l) * l ** -float(p) for c, w, p in tail.terms)
                + sum(s * np.sin(w * l) * l ** -float(p) for s, w, p in tail.sine_terms))

    def transform(x):
        weight = {} if abs(x) < 1e-12 else {"weight": "cos", "wvar": x}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            half, abserr = quad(density, L, np.inf, limit=800, **weight)
        return bochner_transform(body, x) + 2.0 * half, 2.0 * abserr

    return transform


def case(name: str, oracle, measure, reference, x: float, repeats: int) -> dict:
    F = float(oracle(x))
    closed_s, closed_runs, closed = timed(lambda: bochner_transform(measure, x), repeats)
    qawf_s, qawf_runs, (qawf, abserr) = timed(lambda: reference(x), repeats)
    return {
        "measure": name, "x": x,
        "closed_s": closed_s, "qawf_s": qawf_s, "speedup": qawf_s / closed_s,
        "closed_runs_s": closed_runs, "qawf_runs_s": qawf_runs,
        "closed_err": abs(closed - F), "qawf_err": abs(qawf - F), "qawf_abserr": abserr,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--points", type=int, default=9, help="x points per measure")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default=str(ROOT / "BENCH_L5_bochner.json"))
    args = ap.parse_args(argv)
    bochner_transform(exp_kernel().measure, 0.5)      # scipy.special import outside the timings
    cases, summary = [], []
    for name, make in MEASURES.items():
        oracle, measure, x_max = make()
        reference = qawf_reference(measure)
        rows = [case(name, oracle, measure, reference, float(x), args.repeats)
                for x in np.linspace(0.0, x_max, args.points)]
        cases += rows
        summary.append({
            "measure": name, "cutoff": measure.cutoff,
            "terms": len(measure.tail.terms) + len(measure.tail.sine_terms),
            "closed_median_s": statistics.median(r["closed_s"] for r in rows),
            "qawf_median_s": statistics.median(r["qawf_s"] for r in rows),
            "closed_max_s": max(r["closed_s"] for r in rows),
            "qawf_max_s": max(r["qawf_s"] for r in rows),
            "closed_max_err": max(r["closed_err"] for r in rows),
            "qawf_max_err": max(r["qawf_err"] for r in rows),
            "qawf_max_abserr": max(r["qawf_abserr"] for r in rows),
        })
        s = summary[-1]
        print(f"{name:>15} closed {s['closed_median_s'] * 1e3:8.2f} ms  err {s['closed_max_err']:.1e}"
              f"   QAWF {s['qawf_median_s'] * 1e3:8.2f} ms  err {s['qawf_max_err']:.1e}",
              file=sys.stderr)
    payload = {
        "layer": "L5", "what": "bochner_transform of the built-in measures and of ghat_r: "
                               "closed-form tail vs a QAWF reference on the same tail, error against "
                               "F on [0, a] and against G_r on [0, 3]",
        "command": "PYTHONPATH=src python bench/l5_bochner.py " + " ".join(argv or sys.argv[1:]),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": commit(),
        "summary": summary, "cases": cases,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
