#!/usr/bin/env python3
"""Layer L5: phihat(lam) = int_0^1 phi(y) e^{-i lam y} dy of the sampling
formula over Lambda_theta, the FFT series on the lattice (theta - pi) + 2 pi Z
against the lattice-factored sum it replaces.

Run from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python bench/l5_sample.py   # N = 60 to 3000
    PYTHONPATH=src python bench/l5_sample.py --sizes 60 --repeats 1 --out /tmp/l5s.json

Times need ``OPENBLAS_NUM_THREADS=1``.  With the variable unset on two
cores, the BLAS threads that ``lattice_fourier``'s products wake keep
spinning into the FFT side's timings: one such run read 16 and 24 ms for
the FFT side at N = 200 and 1000, against 1.7 and 6.6 ms with one thread.

theta = 0.5 and phi = sin^2(3y) + y, so Lambda_theta has 2N + 1 points and
max |lam| is about 2 pi N.  Both sides take phihat on the same
P = ``resolving_panels(lam)`` Gauss-Legendre panels of [0, 1]:
``rkhs.shifted_lattice_fourier``, as ``sample_via_spectrum`` computes it,
and ``rkhs.lattice_fourier``, which is its oracle.  For each N the script
records the median wall time of phihat over the whole spectrum on each
side; max |lattice - lattice_fourier| against 1e-14 max |phihat|; the
sample sum_n w_n phihat(lam_n) e^{i lam_n x} built from each side against
``mercer.apply_operator`` at 19 points of [0.05, 0.95]; and the traced peak
memory of one call on each side.  It exits 1 when phihat passes the bound
at any N.
"""

from __future__ import annotations

import argparse
import json
import math
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
from pdext.rkhs import exp_sum, lattice_fourier, resolving_panels, shifted_lattice_fourier

ROOT = Path(__file__).resolve().parent.parent
THETA = 0.5
BOUND = 1e-14


def phi(y):
    return np.sin(3.0 * y) ** 2 + y


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def case(N: int, xs, tf, repeats: int) -> dict:
    ext = extend_type1(THETA, N)
    lams = ext.lambdas
    lattice = lambda: shifted_lattice_fourier(phi, lams, ext.theta - math.pi)
    oracle = lambda: lattice_fourier(phi, lams)
    lat_s, lat_runs, lat = timed(lattice, repeats)
    fac_s, fac_runs, fac = timed(oracle, repeats)

    def sample_err(phihat):
        return float(np.max(np.abs(exp_sum(lams, ext.coeffs * phihat, xs) - tf)))

    scale = float(np.max(np.abs(fac)))
    return {
        "N": N, "lambdas": len(lams), "max_abs_lambda": float(np.max(np.abs(lams))),
        "panels": resolving_panels(lams),
        "lattice_s": lat_s, "lattice_fourier_s": fac_s, "speedup": fac_s / lat_s,
        "lattice_runs_s": lat_runs, "lattice_fourier_runs_s": fac_runs,
        "max_abs_phihat": scale, "phihat_diff": float(np.max(np.abs(lat - fac))),
        "phihat_bound": BOUND * scale,
        "lattice_sample_err": sample_err(lat), "lattice_fourier_sample_err": sample_err(fac),
        "lattice_peak_bytes": peak_bytes(lattice), "lattice_fourier_peak_bytes": peak_bytes(oracle),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", default="60,200,1000,2000,3000", help="comma-separated truncations N")
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
        print(f"N {N:5d}  P {c['panels']:5d}  lattice {c['lattice_s'] * 1e3:8.2f} ms"
              f"  lattice_fourier {c['lattice_fourier_s'] * 1e3:8.2f} ms"
              f"  ({c['speedup']:.1f}x)  phihat diff {c['phihat_diff']:.1e}"
              f" (bound {c['phihat_bound']:.1e})  sample err {c['lattice_sample_err']:.1e}"
              f" / {c['lattice_fourier_sample_err']:.1e}", file=sys.stderr)
    payload = {
        "layer": "L5", "what": "phihat of sample_via_spectrum over Lambda_theta (theta = 0.5, "
                               "phi = sin^2(3y) + y): the FFT series on the lattice "
                               "(shifted_lattice_fourier) vs lattice_fourier on the same "
                               "resolving_panels, phihat difference against 1e-14 max|phihat|, "
                               "sample error against mercer.apply_operator at 19 points",
        "command": "PYTHONPATH=src python bench/l5_sample.py " + " ".join(argv or sys.argv[1:]),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": commit(),
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    failed = [c["N"] for c in cases if c["phihat_diff"] > c["phihat_bound"]]
    if failed:
        print(f"phihat past {BOUND:.0e} max|phihat| of lattice_fourier at N = {failed}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
