"""Smoke tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Each workload runs once at tiny size; every named metric must come out with
its unit, and a deliberately wrong oracle must show up as a failed task.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    return out


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


def test_percentile_is_a_weighted_mean_of_the_samples():
    assert run.percentile([0.3] * 26, 0.62) == pytest.approx(0.3)
    assert run.percentile(range(1, 12), 0.5) == pytest.approx(6.0)
    xs = [0.01] * 16 + [1.0] * 10
    assert 0.01 < run.percentile(xs, 0.5) < run.percentile(xs, 0.62) < 1.0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric(workload, trace):
    out = result_of(bench("--workload", workload, "--seed", "7", "--seconds", "0",
                          "--trace", trace, "--tiny"))
    want = run.per_layer_units() if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())
    if trace == "0":
        assert 0.0 < out["metrics"]["pass_frac"]["value"] <= 1.0


@pytest.mark.parametrize("family", ["exp", "triangle"])
def test_wrong_oracle_counts_as_failure(tmp_path, family):
    run.cap_blas_threads()
    wl, _ = run.load("structured", 7, run.Recorder(), True, tmp_path)
    wl.prepare()
    _, before = run.run_pass(wl, run.Recorder())
    task = next(t for t in wl.tasks if t.name.startswith(f"bochner_transform+isometry:{family}"))
    task.ref = task.ref + 1e-3
    _, after = run.run_pass(wl, run.Recorder())
    failed_before = {r["task"] for r in before if not r["ok"]}
    assert {r["task"] for r in after if not r["ok"]} == failed_before | {task.name}
    e2e = lambda res: run.end_to_end("structured", [1.0], [1.0], res, 0.5)
    drop = (task.name not in failed_before) / len(wl.tasks)
    assert e2e(after)["pass_frac"] == pytest.approx(e2e(before)["pass_frac"] - drop)
    # the triangle isometry is a known defect; a wrong Bochner value never is
    assert next(r for r in after if r["task"] == task.name)["known_defect"] == ""
    assert not all(f["known_defect"] for f in run.failures(after, []))


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    proc = bench("--workload", "structured", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
