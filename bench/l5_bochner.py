#!/usr/bin/env python3
"""Layer L5: ``bochner_transform`` of the built-in spectral measures, one
batched call over a vector of x against a loop of one call per x, and both
against the unfolded complex Simpson sum they replace.

Run from the repository root:

    PYTHONPATH=src python bench/l5_bochner.py                 # 9 points per measure
    PYTHONPATH=src python bench/l5_bochner.py --points 2 --out /tmp/l5.json

Measures: exp (Cauchy), triangle, ``bspline:4``, ``bsplinex:2`` at a = 1/2,
``bsplinex:4`` at a = 1/2 and 1 and ``bsplinex:6`` at a = 1/2, with x on
[0, a] and the kernel as oracle; and ghat_r of the type-2 extensions G_r
for r = 0, 1/2, 1, with x on [0, 3] and G_r itself as oracle.  Three sides
per measure, each timed over all its x:

* ``batched``: ``bochner_transform(measure, xs)``, one call;
* ``loop``: ``bochner_transform(measure, x)`` for each x;
* ``unfolded``: for each x, Simpson of density * e^{i l x} in complex
  arithmetic over the whole grid, the atoms and the closed-form tail -- the
  sum ``bochner_transform`` took before its grid part became the real,
  folded and batched sums of ``SpectralMeasure.fourier_rule``.

The script records the median wall time of each side, each side's largest
|mu_hat(x) - F(x)|, and the largest difference of the batched side from the
other two; it exits 1 when that difference passes 1e-14.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

from l2_apply import commit, timed
from pdext import (bochner_transform, bspline_kernel, bspline_x_kernel, exp_kernel,
                   g_r_extension, triangle_kernel)
from pdext.kernels import _tail_fourier, simpson

ROOT = Path(__file__).resolve().parent.parent
AGREEMENT = 1e-14


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
    "bspline:4": lambda: on_interval(bspline_kernel(4)),
    "bsplinex:2@0.5": lambda: on_interval(bspline_x_kernel(2, 0.5)),
    "bsplinex:4@0.5": lambda: on_interval(bspline_x_kernel(4, 0.5)),
    "bsplinex:4@1": lambda: on_interval(bspline_x_kernel(4, 1.0)),
    "bsplinex:6@0.5": lambda: on_interval(bspline_x_kernel(6, 0.5)),
    "G_r@0": lambda: g_r(0.0),
    "G_r@0.5": lambda: g_r(0.5),
    "G_r@1": lambda: g_r(1.0),
}


def unfolded(measure, x: float) -> complex:
    """The complex Simpson sum over the whole grid, the atoms, the tail."""
    total = simpson(measure.density * np.exp(1j * measure.grid * x), measure.grid)
    total += sum(w * np.exp(1j * loc * x) for loc, w in measure.atoms)
    return complex(total + _tail_fourier(measure, x))


def case(name: str, oracle, measure, xs: np.ndarray, repeats: int) -> dict:
    F = np.array([float(oracle(x)) for x in xs])
    sides = {
        "batched": lambda: bochner_transform(measure, xs),
        "loop": lambda: np.array([bochner_transform(measure, x) for x in xs]),
        "unfolded": lambda: np.array([unfolded(measure, x) for x in xs]),
    }
    row = {"measure": name, "points": len(xs), "grid_points": len(measure.grid),
           "folded": not measure.fourier_rule[2]}
    values = {}
    for side, fn in sides.items():
        row[f"{side}_s"], row[f"{side}_runs_s"], values[side] = timed(fn, repeats)
        row[f"{side}_err"] = float(np.max(np.abs(values[side] - F)))
    row["loop_over_batched"] = row["loop_s"] / row["batched_s"]
    row["unfolded_over_batched"] = row["unfolded_s"] / row["batched_s"]
    row["batched_vs_loop"] = float(np.max(np.abs(values["batched"] - values["loop"])))
    row["batched_vs_unfolded"] = float(np.max(np.abs(values["batched"] - values["unfolded"])))
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--points", type=int, default=9, help="x points per measure")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default=str(ROOT / "BENCH_L5_bochner.json"))
    args = ap.parse_args(argv)
    bochner_transform(exp_kernel().measure, 0.5)      # scipy.special import outside the timings
    cases = []
    for name, make in MEASURES.items():
        oracle, measure, x_max = make()
        measure.fourier_rule                          # the cached weights outside the timings
        cases.append(case(name, oracle, measure, np.linspace(0.0, x_max, args.points),
                          args.repeats))
        c = cases[-1]
        print(f"{name:>15} {'folded' if c['folded'] else 'full  '}"
              f"  batched {c['batched_s'] * 1e3:7.2f} ms  loop {c['loop_s'] * 1e3:7.2f} ms"
              f"  unfolded {c['unfolded_s'] * 1e3:7.2f} ms  err {c['batched_err']:.1e}"
              f"  vs unfolded {c['batched_vs_unfolded']:.1e}", file=sys.stderr)
    payload = {
        "layer": "L5", "what": "bochner_transform of the built-in measures and of ghat_r at "
                               "--points x: one batched call, a loop of one call per x, and "
                               "the unfolded complex Simpson sum per x; error against F on "
                               "[0, a] and against G_r on [0, 3]",
        "command": "PYTHONPATH=src python bench/l5_bochner.py " + " ".join(argv or sys.argv[1:]),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": commit(),
        "summary": {
            "median_loop_over_batched": statistics.median(c["loop_over_batched"] for c in cases),
            "median_unfolded_over_batched": statistics.median(c["unfolded_over_batched"]
                                                              for c in cases),
            "max_batched_vs_other_sides": max(max(c["batched_vs_loop"], c["batched_vs_unfolded"])
                                              for c in cases),
        },
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    worst = payload["summary"]["max_batched_vs_other_sides"]
    if worst > AGREEMENT:
        print(f"batched transform {worst:.2e} from the loop or the unfolded sum, "
              f"past {AGREEMENT:.0e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
