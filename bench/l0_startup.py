#!/usr/bin/env python3
"""Layer L0: interpreter start, ``import pdext`` and the nine README commands,
each as fresh processes.

Run from the repository root:

    PYTHONPATH=src python bench/l0_startup.py                  # 5 processes a command
    PYTHONPATH=src python bench/l0_startup.py --repeats 1 --out /tmp/l0.json
    PYTHONPATH=src python bench/l0_startup.py --baseline ../other-checkout

For ``python -c pass``, ``import numpy``, ``import pdext`` and each README
command it records the median wall time of ``--repeats`` fresh processes, the
exit code, the sha256 of stdout and of each file the command wrote, and the
scipy modules the command loaded (from one more process under
``-X importtime``: their count and the public subpackages).  With ``--baseline DIR`` every process also runs, alternating,
with ``DIR/src`` (another checkout of pdext) on the path, and each case
records whether both sides wrote the same bytes; the script then exits 1
unless every case matches (``all_outputs_match``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

import numpy as np

from pdext.kernels import MeasureOnInterval

ROOT = Path(__file__).resolve().parent.parent

PYTHON_CASES = {
    "python -c pass": ["-c", "pass"],
    "import numpy": ["-c", "import numpy"],
    "import pdext": ["-c", "import pdext"],
}
# the CLI section of README.md
README_COMMANDS = [
    "spectrum --theta 0.8 --n 10 --out lambda.csv",
    "extend --theta 0 --n 100 --xmin -4 --xmax 4",
    "extend --r 0.8 --points 401",
    "mercer --kernel triangle --nodes 400 --n 5",
    "onb --kernel exp --depth 3",
    "moments",
    "concentration --measure mu.json",
    "sample --theta 0 --n 60",
    "isometry",
]
# "import time: self [us] | cumulative | imported package" lines of -X importtime
IMPORT_LINE = re.compile(r"^import time:\s*\d+\s*\|\s*\d+\s*\|\s*(\S+)\s*$")


def write_measure(path: Path) -> None:
    """mu.json for ``concentration``: a linear density and two atoms on [0, 1]."""
    grid = np.linspace(0.0, 1.0, 2001)
    mu = MeasureOnInterval.from_density((0.0, 1.0), grid, 0.8 * (1.0 + 0.3 * (grid - 0.5)),
                                        [(0.3, 0.1), (0.7, 0.1)])
    path.write_text(mu.to_json())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list, src: Path, workdir: Path, importtime: bool = False):
    """One fresh ``python <argv>`` in workdir with only src on PYTHONPATH:
    (wall seconds, exit code, stdout hash, {written file: hash}, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=300)
    wall = time.perf_counter() - t0
    files = {}
    for p in sorted(workdir.iterdir()):
        if p.name != "mu.json":
            files[p.name] = sha256(p.read_bytes())
            p.unlink()
    return wall, proc.returncode, sha256(proc.stdout), files, proc.stderr.decode()


def scipy_imports(stderr: str) -> dict:
    names = {m.group(1) for m in map(IMPORT_LINE.match, stderr.splitlines())
             if m and m.group(1).split(".")[0] == "scipy"}
    sub = {n.split(".")[1] for n in names if "." in n}
    return {"scipy_modules": len(names),
            "scipy_subpackages": sorted(s for s in sub if not s.startswith("_"))}


def measure(argv: list, sides: dict, workdir: Path, repeats: int) -> dict:
    runs = {side: [] for side in sides}
    for _ in range(repeats):
        for side, src in sides.items():
            runs[side].append(run(argv, src, workdir))
    out = {}
    for side, src in sides.items():
        walls = [r[0] for r in runs[side]]
        _, code, stdout, files, _ = runs[side][0]
        out[side] = {
            "wall_s": statistics.median(walls), "runs_s": walls, "exit_code": code,
            "stdout_sha256": stdout, "files_sha256": files,
            "outputs_stable": all(r[1:4] == (code, stdout, files) for r in runs[side]),
            **scipy_imports(run(argv, src, workdir, importtime=True)[4]),
        }
    return out


def describe(path: Path) -> str:
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                              cwd=path, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--baseline", default=None,
                    help="another checkout whose src/ is measured alternately")
    ap.add_argument("--out", default=str(ROOT / "BENCH_L0_startup.json"))
    args = ap.parse_args(argv)
    sides = {"this": ROOT / "src"}
    if args.baseline:
        sides["baseline"] = Path(args.baseline).resolve() / "src"
    cases = list(PYTHON_CASES.items())
    cases += [(f"pdext {c}", ["-m", "pdext", *c.split()]) for c in README_COMMANDS]
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        write_measure(workdir / "mu.json")
        for name, av in cases:
            rec = {"case": name, **measure(av, sides, workdir, args.repeats)}
            if args.baseline:
                rec["outputs_match"] = all(rec["this"][k] == rec["baseline"][k] for k in
                                           ("exit_code", "stdout_sha256", "files_sha256"))
            records.append(rec)
            print(f"{name:>52}  " + "  ".join(
                f"{side} {rec[side]['wall_s']:6.3f} s exit {rec[side]['exit_code']} "
                f"scipy {rec[side]['scipy_modules']:3d}" for side in sides), file=sys.stderr)
    payload = {
        "layer": "L0", "what": "fresh-process wall time, exit code, output hashes and scipy "
                               "modules loaded: interpreter start, imports, README commands",
        "command": "PYTHONPATH=src python bench/l0_startup.py " + " ".join(argv or sys.argv[1:]),
        "repeats": args.repeats,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": version("scipy"),
        "commit": {side: describe(src.parent) for side, src in sides.items()},
        "cases": records,
    }
    if args.baseline:
        payload["all_outputs_match"] = all(r["outputs_match"] for r in records)
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    return 0 if payload.get("all_outputs_match", True) else 1


if __name__ == "__main__":
    sys.exit(main())
