#!/usr/bin/env python3
"""Layer L5: phihat(lam) = int_0^1 phi(y) e^{-i lam y} dy of the sampling
formula over Lambda_theta, the 256-panel one-shot sum against the
lattice-factored sum on panels refined to the spectrum.

Run from the repository root:

    PYTHONPATH=src python bench/l5_sample.py                  # N = 60, 200, 1000, 2000
    PYTHONPATH=src python bench/l5_sample.py --sizes 60 --repeats 1 --out /tmp/l5s.json

theta = 0.5 and phi = sin^2(3y) + y, so Lambda_theta has 2N + 1 points and
max |lam| is about 2 pi N.  The one-shot side is ``exp_sum`` over the
UNIT_PANELS = 256 panel GL rule of [0, 1], which resolves e^{-i lam y} only
up to |lam| = 512; the factored side is ``rkhs.lattice_fourier`` on
P = ``resolving_panels(lam)`` panels, as ``sample_via_spectrum`` computes
it.  For each N the script records the median wall time of phihat over the
whole spectrum on each side; max |phihat - reference|, the reference being a
direct ``exp_sum`` on max(8192, 2P) panels; the sample
sum_n w_n phihat(lam_n) e^{i lam_n x} built from each side against
``mercer.apply_operator`` at 19 points of [0.05, 0.95]; and the traced peak
memory of one factored call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from l2_apply import commit, timed
from pdext import exp_kernel
from pdext.extensions import extend_type1
from pdext.mercer import apply_operator
from pdext.quadrature import GL_POINTS, UNIT_PANELS, panel_nodes
from pdext.rkhs import exp_sum, lattice_fourier, resolving_panels

ROOT = Path(__file__).resolve().parent.parent
THETA = 0.5
REFERENCE_PANELS = 8192


def phi(y):
    return np.sin(3.0 * y) ** 2 + y


def direct(lams, panels: int) -> np.ndarray:
    """phihat by exp_sum over the nodes of the panels-panel GL rule."""
    y, w = panel_nodes(0.0, 1.0, panels, GL_POINTS)
    return exp_sum(y, phi(y) * w, -lams)


def case(N: int, xs, tf, repeats: int) -> dict:
    ext = extend_type1(THETA, N)
    lams = ext.lambdas
    P = resolving_panels(lams)
    ref_panels = max(REFERENCE_PANELS, 2 * P)
    ref = direct(lams, ref_panels)
    one_s, one_runs, one = timed(lambda: direct(lams, UNIT_PANELS), repeats)
    fac_s, fac_runs, fac = timed(lambda: lattice_fourier(phi, lams), repeats)
    tracemalloc.start()
    try:
        lattice_fourier(phi, lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    def sample_err(phihat):
        return float(np.max(np.abs(exp_sum(lams, ext.coeffs * phihat, xs) - tf)))

    return {
        "N": N, "lambdas": len(lams), "max_abs_lambda": float(np.max(np.abs(lams))),
        "panels": P, "reference_panels": ref_panels,
        "one_shot_s": one_s, "factored_s": fac_s, "speedup": one_s / fac_s,
        "one_shot_runs_s": one_runs, "factored_runs_s": fac_runs,
        "one_shot_phihat_err": float(np.max(np.abs(one - ref))),
        "factored_phihat_err": float(np.max(np.abs(fac - ref))),
        "one_shot_sample_err": sample_err(one), "factored_sample_err": sample_err(fac),
        "factored_peak_bytes": peak,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", default="60,200,1000,2000", help="comma-separated truncations N")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default=str(ROOT / "BENCH_L5_sample.json"))
    args = ap.parse_args(argv)
    xs = np.linspace(0.05, 0.95, 19)
    tf = apply_operator(exp_kernel(), phi, xs)
    sizes = [int(s) for s in args.sizes.split(",")]
    case(min(sizes), xs, tf, 1)        # BLAS threads and first calls outside the timings
    cases = []
    for N in sizes:
        cases.append(case(N, xs, tf, args.repeats))
        c = cases[-1]
        print(f"N {N:5d}  P {c['panels']:5d}  one-shot {c['one_shot_s'] * 1e3:8.2f} ms"
              f"  err {c['one_shot_phihat_err']:.1e} / {c['one_shot_sample_err']:.1e}"
              f"   factored {c['factored_s'] * 1e3:8.2f} ms"
              f"  err {c['factored_phihat_err']:.1e} / {c['factored_sample_err']:.1e}",
              file=sys.stderr)
    payload = {
        "layer": "L5", "what": "phihat of sample_via_spectrum over Lambda_theta (theta = 0.5, "
                               "phi = sin^2(3y) + y): 256-panel one-shot exp_sum vs "
                               "lattice_fourier on resolving_panels; phihat error against a "
                               "direct sum on max(8192, 2P) panels, sample error against "
                               "mercer.apply_operator at 19 points",
        "command": "PYTHONPATH=src python bench/l5_sample.py " + " ".join(argv or sys.argv[1:]),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": commit(),
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
