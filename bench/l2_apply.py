#!/usr/bin/env python3
"""Layer L2: T_F g and (T_F g)' on a uniform grid, FFT convolution against
the dense kink-split quadrature, for kernels without ``poly_exp``.

Run from the repository root:

    PYTHONPATH=src python bench/l2_apply.py                # n = 400, 2000, 8000
    PYTHONPATH=src python bench/l2_apply.py --sizes 64 --out /tmp/l2.json

Kernels: ``bspline:4``, the Gaussian-mixture table of the benchmark's
``generic`` workload at seed 1 (257 points on [0, 1]) and
``bsplinex:4`` at a = 1.5, with m = 6 GL points a cell.  For each kernel and
n it records the median wall time of ``convolution_apply`` and of the dense
``kernel_apply_on_grid`` (F and F' together, 3 calls each; the dense path
once at n >= 8000, where one call takes seconds), max|FFT - dense| /
max|dense| for both outputs, and the error of each path's T_F g against the
adaptive-quadrature oracle ``mercer.apply_operator`` at 8 grid points.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from pdext import bspline_kernel, bspline_x_kernel, tabulated_kernel
from pdext.mercer import apply_operator
from pdext.quadrature import GL_POINTS, convolution_apply, kernel_apply_on_grid

ROOT = Path(__file__).resolve().parent.parent
# at and above this n the dense path is timed once
DENSE_ONCE_AT = 8000
ORACLE_POINTS = 8
# the generic workload's seed 1 table
TABLE_SEED = 1


def g(y):
    return np.cos(7.0 * y + 0.3) * np.exp(y) + 0.5


def gaussian_mixture_table(seed: int):
    """The generic workload's table kernel: F = sum w_i exp(-x^2 / (2 s_i^2)),
    F(0) = 1, tabulated with F' at 257 points of [0, 1]."""
    rng = np.random.default_rng([seed, 2])
    w = rng.uniform(0.2, 1.0, 3)
    w /= w.sum()
    s = rng.uniform(0.3, 0.8, 3)
    x = np.linspace(0.0, 1.0, 257)[:, None]
    F = np.sum(w * np.exp(-x * x / (2 * s * s)), axis=-1)
    dF = np.sum(-w * x / (s * s) * np.exp(-x * x / (2 * s * s)), axis=-1)
    return tabulated_kernel(x[:, 0], F, dF)


def timed(fn, repeats: int):
    """(median seconds, runs, last result) of repeats calls of fn()."""
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs), runs, out


def rel(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def case(name: str, kernel, n: int, repeats: int) -> dict:
    grid = np.linspace(0.0, kernel.half_width, n + 1)
    fft_s, fft_runs, (values, dvalues) = timed(
        lambda: convolution_apply(kernel, kernel.deriv, grid, g, GL_POINTS), repeats)
    dense_s, dense_runs, (dense, ddense) = timed(
        lambda: (kernel_apply_on_grid(kernel, grid, g, GL_POINTS),
                 kernel_apply_on_grid(kernel.deriv, grid, g, GL_POINTS)),
        1 if n >= DENSE_ONCE_AT else repeats)
    idx = np.unique(np.linspace(0, n, ORACLE_POINTS).round().astype(int))
    oracle = apply_operator(kernel, g, grid[idx])
    return {
        "kernel": name, "n": n, "m": GL_POINTS,
        "fft_s": fft_s, "dense_s": dense_s, "speedup": dense_s / fft_s,
        "fft_runs_s": fft_runs, "dense_runs_s": dense_runs,
        "fft_vs_dense_rel": {"values": rel(values, dense), "deriv": rel(dvalues, ddense)},
        "oracle_err": {"fft": float(np.max(np.abs(values[idx] - oracle))),
                       "dense": float(np.max(np.abs(dense[idx] - oracle)))},
    }


def commit() -> str:
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", default="400,2000,8000", help="comma-separated cell counts n")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default=str(ROOT / "BENCH_L2_apply.json"))
    args = ap.parse_args(argv)
    kernels = {"bspline:4": bspline_kernel(4),
               f"table(seed {TABLE_SEED})": gaussian_mixture_table(TABLE_SEED),
               "bsplinex:4@1.5": bspline_x_kernel(4, half_width=1.5)}
    cases = []
    for n in (int(s) for s in args.sizes.split(",")):
        for name, kernel in kernels.items():
            cases.append(case(name, kernel, n, args.repeats))
            c = cases[-1]
            print(f"{name:>16} n={n:<5} fft {c['fft_s'] * 1e3:8.2f} ms  "
                  f"dense {c['dense_s']:8.3f} s  |fft-dense|/max {max(c['fft_vs_dense_rel'].values()):.1e}  "
                  f"oracle fft {c['oracle_err']['fft']:.1e} dense {c['oracle_err']['dense']:.1e}",
                  file=sys.stderr)
    payload = {
        "layer": "L2", "what": "T_F g and (T_F g)' on a uniform grid: convolution_apply vs "
                               "kernel_apply_on_grid (F and F' together)",
        "command": "PYTHONPATH=src python bench/l2_apply.py " + " ".join(argv or sys.argv[1:]),
        "g": "cos(7 y + 0.3) e^y + 0.5",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": commit(),
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
