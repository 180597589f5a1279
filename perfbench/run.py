#!/usr/bin/env python3
"""pdext benchmark: closed-loop workloads, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload structured --seed 1 --seconds 28 --trace 0

Workloads (one caller, one task at a time; see workloads.py):

* ``cli-readme``  the nine README CLI examples, each a fresh ``python -m pdext``;
* ``structured``  exp and triangle in-process, where the structured paths apply;
* ``generic``     bspline:4 and a seeded tabulated kernel, the dense fallbacks.

One run is one workload in one fresh process (``ru_maxrss`` is a lifetime
maximum).  It times set-up (``import pdext``, the kernels, the seeded inputs)
here and in four more child processes and reports the median; computes the
oracles, untimed; runs one warm-up pass over the task list; then runs timed
passes until ``--seconds`` have passed, at least two.

The last line of stdout is the result: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  A traced run records a span around
every call the benchmark makes into pdext.  After the warm-up it makes one
pass without spans, one with spans (the per-function times; the difference
of the two is the tracing overhead) and one with spans and ``tracemalloc``
(the per-call memory peaks), then times ``python -c pass`` and ``python -c
"import pdext"``.  Span files go to perfbench/out/.  The line before the
result records nproc, the Python, numpy and scipy versions, the commit, the
tail percentile used (a Harrell-Davis estimate) and every failed task.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_PASSES = 2
SETUP_SAMPLES = 5
PROBE_SAMPLES = 3
# log10(tol / err) is clipped to this many digits either way
MARGIN_CLIP = 16.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "pass_frac": "ratio",
    "peak_rss_mb": "MB",
    "margin_digits": "digits",
}

FUNCTIONS = [
    "kernels.kernel_from_name", "kernels.bochner_transform",
    "quadrature.exp_kernel_apply", "quadrature.kernel_apply_on_grid",
    "rkhs.smooth", "rkhs.inner_product_smoothed",
    "mercer.discretize",
    "elliptic.solve_transcendental", "elliptic.verify_against_mercer",
    "extensions.extend_type1", "extensions.discrete_isometry_check",
    "extensions.g_r_reconstruct", "extensions.sample_via_spectrum",
    "dyadic.build_onb", "dyadic.onb_gram",
]
STATS = {"calls": "count", "busy_s": "s", "self_s": "s", "fails": "count",
         "err": "ratio", "peak_mb": "MB"}
WORKLOAD_NAMES = ("cli-readme", "structured", "generic")
CLI_COMMANDS = ["spectrum", "extend", "extend_r", "mercer", "onb", "moments",
                "concentration", "sample", "isometry"]


def per_layer_units() -> dict:
    units = {"cli.python_s": "s", "cli.import_s": "s"}
    units.update({f"cli.{cmd}.busy_s": "s" for cmd in CLI_COMMANDS})
    units.update({f"{fn}.{stat}": unit for fn in FUNCTIONS for stat, unit in STATS.items()})
    units["trace.overhead_s"] = "s"
    return units


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def cap_blas_threads() -> None:
    """Limit the BLAS pools of this process and its children to nproc; must
    run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), nproc()) if cur.isdigit() and int(cur) > 0 else nproc())


class Recorder:
    """Spans around the benchmark's calls into pdext, kept in memory.

    While ``on`` is false, ``call`` only calls.  While it is true, each call
    records its name, start, end and parent span; while ``memory`` is also
    true, the tracemalloc peak above the memory in use at entry as well.
    tracemalloc slows Python callbacks (QUADPACK integrands) up to fivefold,
    so times and peaks come from separate passes.
    """

    def __init__(self):
        self.on = False
        self.memory = False
        self.phase = "setup"
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def call(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        base = 0
        if self.memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            self._fold_peak()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        span = {"name": name, "id": len(self.spans), "phase": self.phase,
                "parent": self._open[-1]["id"] if self._open else None,
                "base": base, "peak": base, "start": time.perf_counter()}
        self.spans.append(span)
        self._open.append(span)
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            if self.memory:
                self._fold_peak()
            self._open.pop()

    def _fold_peak(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for span in self._open:
            span["peak"] = max(span["peak"], peak)


# ---------------------------------------------------------------------------
# running tasks
# ---------------------------------------------------------------------------

def err_ratio(c) -> float:
    """err / tol: 0 for an exact result, at most 10^MARGIN_CLIP (also for a
    non-finite error)."""
    if c.err == 0:
        return 0.0
    if not (math.isfinite(c.err) and c.tol > 0):
        return 10.0 ** MARGIN_CLIP
    return min(c.err / c.tol, 10.0 ** MARGIN_CLIP)


def margin(checks, error: str) -> float:
    """Worst log10(tol / err) over a task's checks, clipped to +-MARGIN_CLIP."""
    if error or not checks:
        return -MARGIN_CLIP
    worst = max(err_ratio(c) for c in checks)
    return MARGIN_CLIP if worst == 0 else min(MARGIN_CLIP, -math.log10(worst))


def judge(task, out, error: str, seconds: float) -> dict:
    checks = []
    if not error:
        try:
            checks = task.check(out, task.ref)
        except Exception as exc:  # unparsable output fails the task
            error = f"check: {type(exc).__name__}: {exc}"
    ok = not error and bool(checks) and all(c.ok for c in checks)
    failing = {c.function for c in checks if not c.ok}
    known = "" if ok or error or not failing <= task.known_defects.keys() else \
        "; ".join(task.known_defects[f] for f in sorted(failing))
    return {"task": task.name, "seconds": seconds, "ok": ok, "checks": checks,
            "margin": margin(checks, error), "error": error, "known_defect": known}


def run_pass(wl, rec: Recorder) -> tuple[float, list]:
    results = []
    start = time.perf_counter()
    for task in wl.tasks:
        with rec.span(f"task:{task.name}"):
            t0 = time.perf_counter()
            try:
                out, error = task.run(rec), ""
            except Exception as exc:  # a raising or refused task is a failed task
                out, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        results.append(judge(task, out, error, seconds))
    return time.perf_counter() - start, results


def timed_passes(wl, rec: Recorder, seconds: float, min_passes: int) -> tuple[list, list]:
    """Passes until ``seconds`` are used up (no pass is started that the last
    one's duration says would overrun), at least ``min_passes``."""
    walls, results = [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start + walls[-1] <= seconds:
        wall, res = run_pass(wl, rec)
        walls.append(wall)
        results.extend(res)
    return walls, results


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

class MissingProgram(RuntimeError):
    pass


def load(workload: str, seed: int, rec: Recorder, tiny: bool, workdir: Path):
    """Import pdext from this checkout, build the kernels and seeded inputs;
    returns the workload and the seconds it took."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import workloads
    except ImportError as exc:
        raise MissingProgram(f"cannot import pdext from {SRC}: {exc}") from exc
    import pdext
    if not Path(pdext.__file__).resolve().is_relative_to(SRC.resolve()):
        raise MissingProgram(f"pdext imported from {pdext.__file__}, not from {SRC}")
    sizes = workloads.TINY if tiny else workloads.FULL
    wl = workloads.WORKLOADS[workload](seed, rec, sizes, workdir)
    return wl, time.perf_counter() - t0


@contextmanager
def scratch_dir(workload: str):
    workdir = BENCH / ".work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:                 # another run still uses it
            pass


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                           "--workload", workload, "--seed", str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def probe_seconds(code: str) -> float:
    """Median wall time of ``python -c code`` with pdext on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       timeout=120, capture_output=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta((n+1) q, (n+1)(1-q)) law.  A task list
    mixes steps whose costs differ several-fold, so the nearest-rank sample
    jumps between neighbouring steps when one of them shifts a little; the
    weighted mean moves smoothly (half the seed-to-seed spread on
    ``structured``)."""
    from scipy.special import betainc
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def tail_quantile(tasks_per_pass: int, min_passes: int) -> float:
    """Highest quantile with at least 10 samples beyond it in the guaranteed
    sample count (so the choice does not move with the number of passes),
    never below the median."""
    return max(0.5, 1.0 - 10.0 / (tasks_per_pass * min_passes))


def end_to_end(workload, setup_samples, walls, results, q_tail) -> dict:
    who = resource.RUSAGE_CHILDREN if workload == "cli-readme" else resource.RUSAGE_SELF
    lat = [r["seconds"] for r in results]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(walls),
        "task_p50_s": statistics.median(lat),
        "task_tail_s": percentile(lat, q_tail),
        "pass_frac": sum(r["ok"] for r in results) / len(results),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "margin_digits": statistics.fmean(r["margin"] for r in results),
    }


def per_layer(rec: Recorder, results, setup_checks, probes: dict, overhead: float) -> dict:
    """Per-function stats: calls, busy and self time from set-up and the
    spans pass, peaks from set-up and the tracemalloc pass, fails and the
    worst err/tol from the spans pass and the set-up checks."""
    stats = {}

    def entry(name):
        return stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                       "fails": 0, "err": 0.0, "peak_mb": 0.0})

    covered = {}
    for span in rec.spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + span["end"] - span["start"]
    for span in rec.spans:
        s = entry(span["name"])
        if span["phase"] != "memory":
            dur = span["end"] - span["start"]
            s["calls"] += 1
            s["busy_s"] += dur
            s["self_s"] += dur - covered.get(span["id"], 0.0)
        if span["phase"] != "pass":
            s["peak_mb"] = max(s["peak_mb"], (span["peak"] - span["base"]) / 2 ** 20)
    for c in [c for r in results for c in r["checks"]] + setup_checks:
        s = entry(c.function)
        s["fails"] += not c.ok
        s["err"] = max(s["err"], err_ratio(c))
    out = dict(probes)
    out.update({f"cli.{cmd}.busy_s": entry(f"cli.{cmd}")["busy_s"] for cmd in CLI_COMMANDS})
    out.update({f"{fn}.{stat}": entry(fn)[stat] for fn in FUNCTIONS for stat in STATS})
    out["trace.overhead_s"] = overhead
    return out


def failures(results, setup_checks) -> list:
    seen, out = set(), []
    for r in results:
        if not r["ok"] and r["task"] not in seen:
            seen.add(r["task"])
            worst = max(r["checks"], key=err_ratio, default=None)
            out.append({"task": r["task"], "error": r["error"],
                        "worst_check": None if worst is None else
                        {"function": worst.function, "err": worst.err, "tol": worst.tol},
                        "known_defect": r["known_defect"]})
    out += [{"task": "setup", "error": "", "worst_check": {"function": c.function, "err": c.err,
                                              "tol": c.tol}, "known_defect": ""}
            for c in setup_checks if not c.ok]
    return out


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Returns (result, info, spans)."""
    rec = Recorder()
    rec.on = rec.memory = trace
    min_passes = 1 if tiny else MIN_PASSES
    with scratch_dir(workload) as workdir:
        wl, setup_main = load(workload, seed, rec, tiny, workdir)
        setup_samples = [setup_main]
        if not (trace or tiny):
            setup_samples += [child_setup_seconds(workload, seed)
                              for _ in range(SETUP_SAMPLES - 1)]
        rec.on = rec.memory = False
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        setup_checks = wl.prepare()
        if not tiny:
            run_pass(wl, rec)                                   # warm-up
        probes, overhead = {}, 0.0
        if trace:
            # one pass each: untraced, spans (times), spans + tracemalloc (peaks)
            untraced_wall, _ = run_pass(wl, rec)
            rec.on, rec.phase = True, "pass"
            wall, results = run_pass(wl, rec)
            walls = [wall]
            overhead = wall - untraced_wall
            rec.memory, rec.phase = True, "memory"
            run_pass(wl, rec)
            rec.on = rec.memory = False
            tracemalloc.stop()
            probes = {"cli.python_s": probe_seconds("pass"),
                      "cli.import_s": probe_seconds("import pdext")}
        else:
            walls, results = timed_passes(wl, rec, seconds, min_passes)

    q_tail = tail_quantile(len(wl.tasks), min_passes)
    if trace:
        metrics = per_layer(rec, results, setup_checks, probes, overhead)
        units = per_layer_units()
    else:
        metrics = end_to_end(workload, setup_samples, walls, results, q_tail)
        units = END_TO_END
    failed = failures(results, setup_checks)
    import numpy
    import scipy
    info = {
        "workload": workload, "seed": seed, "trace": int(trace), "passes": len(walls),
        "tasks_per_pass": len(wl.tasks), "samples": len(results),
        "tail_percentile": round(100.0 * q_tail, 2),
        "setup_samples_s": setup_samples,
        "task_median_s": {name: statistics.median(r["seconds"] for r in results
                                                  if r["task"] == name)
                          for name in dict.fromkeys(r["task"] for r in results)},
        "nproc": nproc(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
        "failed": failed,
    }
    result = {
        "correct": all(f["known_defect"] for f in failed),
        "attempted": len(results),
        "failed": sum(not r["ok"] for r in results),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, info, rec.spans


def write_spans(workload: str, seed: int, spans: list) -> Path:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, one pass, no warm-up (the benchmark's own tests)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    cap_blas_threads()
    try:
        if args.setup_only:
            with scratch_dir(args.workload) as workdir:
                print(load(args.workload, args.seed, Recorder(), args.tiny, workdir)[1])
            return 0
        result, info, spans = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.tiny)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        info["spans"] = str(write_spans(args.workload, args.seed, spans).relative_to(ROOT))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
