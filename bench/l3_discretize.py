#!/usr/bin/env python3
"""Layer L3: the Nystrom spectrum of T_F from ``mercer.discretize`` and the
first access to its eigenfunctions, against dense ``eigvalsh`` and ``eigh``
of the same Toeplitz matrix.  exp and the triangle take their eigenvalues
from the discrete boundary equation of each even/odd block and run no
``eigvalsh``; ``bspline:4`` and the table run ``eigvalsh`` on the blocks.

Run from the repository root:

    PYTHONPATH=src python bench/l3_discretize.py                # n = 16, 64, 400, 2000, 4000
    PYTHONPATH=src python bench/l3_discretize.py --sizes 64 --out /tmp/l3.json
    PYTHONPATH=src python bench/l3_discretize.py --parent old.json
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python bench/l3_discretize.py --sizes 16,64

Kernels: exp, triangle, ``bspline:4`` and the Gaussian-mixture table of the
benchmark's ``generic`` workload at seed 1.  For each kernel and n it
records the median wall time of ``discretize`` (kernel row, the eigenvalues
of both blocks, merge), of the first ``eigenfunctions`` access on that result
(``eigh`` on both blocks, columns written in place), and of
``np.linalg.eigvalsh`` and ``np.linalg.eigh`` on the strided Toeplitz view
``discretize`` starts from, and of ``eigvalsh`` on the two parity blocks
(building them included: the route ``discretize`` takes for kernels without
the boundary equation, timed for every kernel); max |lam - lam_dense| / lam_0
against dense ``eigvalsh``; max_k ||A v_k - lam_k v_k|| / lam_0 over the
unit eigenvectors v_k; |sum lam - a| for the split and for dense; and the
tracemalloc peak of one ``discretize`` call and of one first access, in
units of n^2 doubles.  Each median time has the min and max of its repeats
beside it (``*_range_s``, and in brackets on stderr).

Small-n timings need ``OPENBLAS_NUM_THREADS=1``.  With the variable unset,
exp's and the triangle's ``eigh`` calls at n = 64 (``eigenfunctions`` and
the dense ``eigh``) have taken 30-50 ms in one run and 0.3-0.4 ms in the
next, probably OpenBLAS threads waking after the BLAS-free boundary route.
The median of a few repeats does not remove that.  The range shows a swing
within one run; a whole run that is slow shows as a narrow range at a high
median, so compare it with a run under ``OPENBLAS_NUM_THREADS=1``.

``--parent FILE`` takes a record this script wrote in another checkout (for
example the parent commit's, run on the same host just before) and stores
its numbers for the same kernel and n beside each case.  The script exits
with status 1 when some max |lam - lam_dense| / lam_0 exceeds 1e-14.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from l2_apply import TABLE_SEED, commit, gaussian_mixture_table, timed
from pdext import kernel_from_name
from pdext.mercer import NystromConfig, _parity_block, discretize

ROOT = Path(__file__).resolve().parent.parent
EIG_TOL = 1e-14
# columns of A v - lam v formed at a time
RESIDUAL_BLOCK = 256


def toeplitz_view(kernel, n: int) -> np.ndarray:
    """h F(x_i - x_j) on the midpoint nodes, as the strided view of one row."""
    h = kernel.half_width / n
    nodes = (np.arange(n) + 0.5) * h
    row = h * kernel(nodes - nodes[0]).real
    return sliding_window_view(np.concatenate([row[:0:-1], row]), n)[::-1]


def peaks_n2(kernel, n: int) -> tuple[float, float]:
    """Traced peaks of one discretize call and of its first eigenfunctions
    access (above what the decomposition already held)."""
    tracemalloc.start()
    try:
        dec = discretize(kernel, NystromConfig(n))
        spectrum = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        dec.eigenfunctions
        access = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return spectrum / (8.0 * n * n), access / (8.0 * n * n)


def split_timings(kernel, n: int, repeats: int):
    """Seconds of each discretize call and of the first eigenfunctions access
    on its result; the last decomposition, eigenfunctions computed."""
    spectrum, access = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        dec = discretize(kernel, NystromConfig(n))
        t1 = time.perf_counter()
        dec.eigenfunctions
        access.append(time.perf_counter() - t1)
        spectrum.append(t1 - t0)
    return spectrum, access, dec


def spread(runs) -> list:
    """[min, max] of the repeats, written beside their median."""
    return [min(runs), max(runs)]


def max_residual(T: np.ndarray, dec) -> float:
    A = np.ascontiguousarray(T)
    v = dec.eigenfunctions * np.sqrt(dec.weights[0])     # unit 2-norm columns
    lam = dec.eigenvalues
    worst = 0.0
    for k in range(0, len(lam), RESIDUAL_BLOCK):
        blk = slice(k, k + RESIDUAL_BLOCK)
        r = A @ v[:, blk] - v[:, blk] * lam[blk]
        worst = max(worst, float(np.max(np.linalg.norm(r, axis=0))))
    return worst / lam[0]


def case(name: str, kernel, n: int, repeats: int) -> dict:
    a = kernel.half_width
    spectrum_runs, access_runs, dec = split_timings(kernel, n, repeats)
    T = toeplitz_view(kernel, n)
    eigvalsh_s, eigvalsh_runs, lam_dense = timed(lambda: np.linalg.eigvalsh(T), repeats)
    eigh_s, eigh_runs, _ = timed(lambda: np.linalg.eigh(T), repeats)
    row = np.array(T[0])                                 # h F(x_k - x_0)
    blocks_s, blocks_runs, _ = timed(
        lambda: [np.linalg.eigvalsh(_parity_block(row, odd)) for odd in (False, True)], repeats)
    lam = dec.eigenvalues
    spectrum_s = statistics.median(spectrum_runs)
    access_s = statistics.median(access_runs)
    peak, access_peak = peaks_n2(kernel, n)
    return {
        "kernel": name, "n": n,
        "discretize_s": spectrum_s, "discretize_range_s": spread(spectrum_runs),
        "eigenfunctions_s": access_s, "eigenfunctions_range_s": spread(access_runs),
        "dense_eigvalsh_s": eigvalsh_s, "dense_eigvalsh_range_s": spread(eigvalsh_runs),
        "dense_eigh_s": eigh_s, "dense_eigh_range_s": spread(eigh_runs),
        "blocks_eigvalsh_s": blocks_s, "blocks_eigvalsh_range_s": spread(blocks_runs),
        "speedup_vs_eigvalsh": eigvalsh_s / spectrum_s,
        "speedup_vs_blocks_eigvalsh": blocks_s / spectrum_s,
        "speedup_vs_eigh": eigh_s / (spectrum_s + access_s),
        "discretize_runs_s": spectrum_runs, "eigenfunctions_runs_s": access_runs,
        "dense_eigvalsh_runs_s": eigvalsh_runs, "dense_eigh_runs_s": eigh_runs,
        "blocks_eigvalsh_runs_s": blocks_runs,
        "max_rel_eig_err": float(np.max(np.abs(lam - lam_dense[::-1])) / lam[0]),
        "max_rel_residual": max_residual(T, dec),
        "trace_err": abs(float(np.sum(lam)) - a),
        "dense_trace_err": abs(float(np.sum(lam_dense)) - a),
        "peak_n2_doubles": peak, "eigenfunctions_peak_n2_doubles": access_peak,
    }


PARENT_FIELDS = ("discretize_s", "discretize_runs_s", "dense_eigh_s", "max_rel_eig_err",
                 "trace_err", "peak_n2_doubles")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", default="16,64,400,2000,4000", help="comma-separated node counts n")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--parent", default=None,
                    help="a record of this script from another checkout, stored beside each case")
    ap.add_argument("--out", default=str(ROOT / "BENCH_L3_discretize.json"))
    args = ap.parse_args(argv)
    parent = json.loads(Path(args.parent).read_text()) if args.parent else None
    kernels = {name: kernel_from_name(name) for name in ("exp", "triangle", "bspline:4")}
    kernels[f"table(seed {TABLE_SEED})"] = gaussian_mixture_table(TABLE_SEED)
    discretize(kernels["exp"], NystromConfig(16)).eigenfunctions   # first-call set-up
    cases = []
    for n in (int(s) for s in args.sizes.split(",")):
        for name, kernel in kernels.items():
            c = case(name, kernel, n, args.repeats)
            if parent:
                old = [p for p in parent["cases"] if (p["kernel"], p["n"]) == (name, n)]
                c["parent"] = {k: old[0][k] for k in PARENT_FIELDS} if old else None
            cases.append(c)
            ms = lambda key: "{:9.2f} ms [{:.2f}, {:.2f}]".format(
                *(1e3 * t for t in (c[key + "_s"], *c[key + "_range_s"])))
            print(f"{name:>16} n={n:<5} discretize {ms('discretize')}  "
                  f"eigenfunctions {ms('eigenfunctions')}  "
                  f"dense eigvalsh {ms('dense_eigvalsh')}  "
                  f"blocks eigvalsh {ms('blocks_eigvalsh')}  "
                  f"eigh {ms('dense_eigh')}  "
                  f"|lam - dense|/lam0 {c['max_rel_eig_err']:.1e}  "
                  f"resid/lam0 {c['max_rel_residual']:.1e}  |sum - a| {c['trace_err']:.1e}  "
                  f"peak {c['peak_n2_doubles']:.2f} + {c['eigenfunctions_peak_n2_doubles']:.2f} n^2",
                  file=sys.stderr)
    payload = {
        "layer": "L3", "what": "Nystrom spectrum: discretize (the boundary equation of each "
                               "even/odd block for exp and the triangle, eigvalsh on the "
                               "blocks otherwise) and the first eigenfunctions access "
                               "(eigh on the split) vs "
                               "np.linalg.eigvalsh and eigh of the same symmetric Toeplitz matrix",
        "command": "PYTHONPATH=src python bench/l3_discretize.py " + " ".join(argv or sys.argv[1:]),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": commit(),
        "parent_commit": parent["commit"] if parent else None,
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    worst = max(c["max_rel_eig_err"] for c in cases)
    if worst > EIG_TOL:
        print(f"max |lam - lam_dense| / lam_0 = {worst:.2e} exceeds {EIG_TOL}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
