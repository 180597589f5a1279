#!/usr/bin/env python3
"""Layer L5: ``bochner_transform`` of the built-in spectral measures, the
closed-form Fourier tail against QAWF on the same tail.

Run from the repository root:

    PYTHONPATH=src python bench/l5_bochner.py                 # 9 points of [0, a]
    PYTHONPATH=src python bench/l5_bochner.py --points 2 --out /tmp/l5.json

Measures: exp (Cauchy), triangle, ``bsplinex:2`` at a = 1/2, ``bsplinex:4``
at a = 1/2 and 1 and ``bsplinex:6`` at a = 1/2.  Each carries its tail past
the cutoff L as terms c cos(w l) |l|^{-p}, which ``bochner_transform`` sums
in closed form.  The QAWF side is the same measure with its tail undeclared
(``tail=None``) and a ``density_fn`` that sums the same terms, so QUADPACK
integrates exactly the tail the closed form does; the script stops with an
error if a QAWF case does not reach QUADPACK.  For each measure and x
it records the median wall time of one ``bochner_transform`` call on each
side and |mu_hat(x) - F(x)|, the oracle being the kernel on [-a, a]; the
summary gives per measure the median and slowest time and the largest error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

from l2_apply import commit, timed
from pdext import bochner_transform, bspline_x_kernel, exp_kernel, kernels, triangle_kernel

ROOT = Path(__file__).resolve().parent.parent

MEASURES = {
    "exp": exp_kernel,
    "triangle": triangle_kernel,
    "bsplinex:2@0.5": lambda: bspline_x_kernel(2, 0.5),
    "bsplinex:4@0.5": lambda: bspline_x_kernel(4, 0.5),
    "bsplinex:4@1": lambda: bspline_x_kernel(4, 1.0),
    "bsplinex:6@0.5": lambda: bspline_x_kernel(6, 0.5),
}


def without_terms(measure):
    """The measure with an undeclared tail and a density_fn summing the
    terms: the QAWF path of ``bochner_transform``."""
    terms = measure.tail.terms

    def density(l):
        l = np.asarray(l, dtype=float)
        return sum(c * np.cos(w * l) * np.abs(l) ** -float(p) for c, w, p in terms)

    return dataclasses.replace(measure, tail=None, density_fn=density)


def counting_quad(fn):
    """(fn(), the number of ``kernels._quiet_quad`` calls it made)."""
    real, calls = kernels._quiet_quad, []
    kernels._quiet_quad = lambda *a, **kw: calls.append(1) or real(*a, **kw)
    try:
        return fn(), len(calls)
    finally:
        kernels._quiet_quad = real


def case(name: str, kernel, measure, x: float, repeats: int) -> dict:
    F = float(kernel(x))
    closed_s, closed_runs, closed = timed(lambda: bochner_transform(kernel.measure, x), repeats)
    (qawf_s, qawf_runs, qawf), calls = counting_quad(
        lambda: timed(lambda: bochner_transform(measure, x), repeats))
    if not calls:
        raise RuntimeError(f"the QAWF side of {name} at x = {x} did not reach QUADPACK")
    return {
        "measure": name, "x": x,
        "closed_s": closed_s, "qawf_s": qawf_s, "speedup": qawf_s / closed_s,
        "closed_runs_s": closed_runs, "qawf_runs_s": qawf_runs,
        "closed_err": abs(closed - F), "qawf_err": abs(qawf - F),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--points", type=int, default=9, help="x points on [0, a] per measure")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default=str(ROOT / "BENCH_L5_bochner.json"))
    args = ap.parse_args(argv)
    bochner_transform(exp_kernel().measure, 0.5)      # scipy.special import outside the timings
    cases, summary = [], []
    for name, make in MEASURES.items():
        kernel = make()
        qawf_measure = without_terms(kernel.measure)
        rows = [case(name, kernel, qawf_measure, float(x), args.repeats)
                for x in np.linspace(0.0, kernel.half_width, args.points)]
        cases += rows
        summary.append({
            "measure": name, "cutoff": kernel.measure.cutoff,
            "terms": len(kernel.measure.tail.terms),
            "closed_median_s": statistics.median(r["closed_s"] for r in rows),
            "qawf_median_s": statistics.median(r["qawf_s"] for r in rows),
            "closed_max_s": max(r["closed_s"] for r in rows),
            "qawf_max_s": max(r["qawf_s"] for r in rows),
            "closed_max_err": max(r["closed_err"] for r in rows),
            "qawf_max_err": max(r["qawf_err"] for r in rows),
        })
        s = summary[-1]
        print(f"{name:>15} closed {s['closed_median_s'] * 1e3:8.2f} ms  err {s['closed_max_err']:.1e}"
              f"   QAWF {s['qawf_median_s'] * 1e3:8.2f} ms  err {s['qawf_max_err']:.1e}",
              file=sys.stderr)
    payload = {
        "layer": "L5", "what": "bochner_transform of the built-in measures: closed-form tail "
                               "vs QAWF on the same tail, error against F on [0, a]",
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
