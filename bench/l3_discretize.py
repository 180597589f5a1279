#!/usr/bin/env python3
"""Layer L3: the Nystrom spectrum of T_F, the even/odd split of
``mercer.discretize`` against one dense ``eigh`` of the same Toeplitz matrix.

Run from the repository root:

    PYTHONPATH=src python bench/l3_discretize.py                # n = 400, 2000, 4000
    PYTHONPATH=src python bench/l3_discretize.py --sizes 64 --out /tmp/l3.json

Kernels: exp, triangle, ``bspline:4`` and the Gaussian-mixture table of the
benchmark's ``generic`` workload at seed 1.  For each kernel and n it
records the median wall time of ``discretize`` (kernel row, both blocks,
merge and eigenvectors) and of ``np.linalg.eigh`` on the strided Toeplitz
view ``discretize`` starts from (eigenvalues and eigenvectors, nothing
else), max |lam - lam_dense| / lam_0, |sum lam - a| for both, and the
tracemalloc peak of one ``discretize`` call in units of n^2 doubles.
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
from numpy.lib.stride_tricks import sliding_window_view

from l2_apply import TABLE_SEED, commit, gaussian_mixture_table, timed
from pdext import kernel_from_name
from pdext.mercer import NystromConfig, discretize

ROOT = Path(__file__).resolve().parent.parent


def toeplitz_view(kernel, n: int) -> np.ndarray:
    """h F(x_i - x_j) on the midpoint nodes, as the strided view of one row."""
    h = kernel.half_width / n
    nodes = (np.arange(n) + 0.5) * h
    row = h * kernel(nodes - nodes[0]).real
    return sliding_window_view(np.concatenate([row[:0:-1], row]), n)[::-1]


def peak_n2(kernel, n: int) -> float:
    tracemalloc.start()
    try:
        discretize(kernel, NystromConfig(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * n * n)


def case(name: str, kernel, n: int, repeats: int) -> dict:
    a = kernel.half_width
    split_s, split_runs, dec = timed(lambda: discretize(kernel, NystromConfig(n)), repeats)
    T = toeplitz_view(kernel, n)
    dense_s, dense_runs, (lam_dense, _) = timed(lambda: np.linalg.eigh(T), repeats)
    lam = dec.eigenvalues
    return {
        "kernel": name, "n": n,
        "discretize_s": split_s, "dense_eigh_s": dense_s, "speedup": dense_s / split_s,
        "discretize_runs_s": split_runs, "dense_eigh_runs_s": dense_runs,
        "max_rel_eig_err": float(np.max(np.abs(lam - lam_dense[::-1])) / lam[0]),
        "trace_err": abs(float(np.sum(lam)) - a),
        "dense_trace_err": abs(float(np.sum(lam_dense)) - a),
        "peak_n2_doubles": peak_n2(kernel, n),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", default="400,2000,4000", help="comma-separated node counts n")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default=str(ROOT / "BENCH_L3_discretize.json"))
    args = ap.parse_args(argv)
    kernels = {name: kernel_from_name(name) for name in ("exp", "triangle", "bspline:4")}
    kernels[f"table(seed {TABLE_SEED})"] = gaussian_mixture_table(TABLE_SEED)
    discretize(kernels["exp"], NystromConfig(16))     # first-call set-up outside the timings
    cases = []
    for n in (int(s) for s in args.sizes.split(",")):
        for name, kernel in kernels.items():
            cases.append(case(name, kernel, n, args.repeats))
            c = cases[-1]
            print(f"{name:>16} n={n:<5} discretize {c['discretize_s'] * 1e3:9.2f} ms  "
                  f"dense eigh {c['dense_eigh_s'] * 1e3:9.2f} ms  x{c['speedup']:4.1f}  "
                  f"|lam - dense|/lam0 {c['max_rel_eig_err']:.1e}  "
                  f"|sum - a| {c['trace_err']:.1e}  peak {c['peak_n2_doubles']:.2f} n^2",
                  file=sys.stderr)
    payload = {
        "layer": "L3", "what": "Nystrom spectrum: discretize (even/odd split) vs np.linalg.eigh "
                               "of the same symmetric Toeplitz matrix",
        "command": "PYTHONPATH=src python bench/l3_discretize.py " + " ".join(argv or sys.argv[1:]),
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
