"""``import pdext`` and the numpy-only README commands load no scipy module.

Each case runs in a fresh interpreter, since the test process itself has
scipy loaded.  No README command imports ``scipy.integrate``: the Bochner
transforms of ``isometry`` and of ``extend --r`` (the G_r mass), like those
of every built-in and G_r measure, take their closed-form tails from
``scipy.special`` alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdext.kernels import MeasureOnInterval

SRC = Path(__file__).resolve().parent.parent / "src"

# runs pdext.cli.main on argv, then reports its exit code and the scipy modules
CHILD = """
import contextlib, io, json, sys
from pdext.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

# transforms every built-in and G_r measure, then reports the scipy modules
BOCHNER = """
import json, sys
import numpy as np
from pdext.extensions import g_r_extension
from pdext.kernels import bochner_transform, kernel_from_name
measures = [kernel_from_name(name).measure for name in
            ("exp", "triangle", "bspline:4", "bsplinex:2", "bsplinex:4", "bsplinex:6")]
measures += [g_r_extension(r).measure for r in (0.0, 0.5, 1.0)]
for mu in measures:
    for x in np.linspace(-1.0, 1.0, 5):
        bochner_transform(mu, x)
    mu.total_mass()
print(json.dumps({"measures": len(measures),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

NUMPY_ONLY = [
    "spectrum --theta 0.8 --n 10 --out lambda.csv",
    "extend --theta 0 --n 100 --xmin -4 --xmax 4",
    "mercer --kernel triangle --nodes 400 --n 5",
    "onb --kernel exp --depth 3",
    "moments",
    "concentration --measure mu.json",
    "sample --theta 0 --n 60",
]


def child(code: str, args, cwd) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture()
def workdir(tmp_path):
    grid = np.linspace(0.0, 1.0, 2001)
    mu = MeasureOnInterval.from_density((0.0, 1.0), grid, 0.8 * (1.0 + 0.3 * (grid - 0.5)),
                                        [(0.3, 0.1), (0.7, 0.1)])
    (tmp_path / "mu.json").write_text(mu.to_json())
    return tmp_path


def test_import_pdext_loads_no_scipy(tmp_path):
    got = child("import json, sys, pdext\n"
                "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))",
                [], tmp_path)
    assert got == []


@pytest.mark.parametrize("command", NUMPY_ONLY)
def test_numpy_only_command_loads_no_scipy(command, workdir):
    got = child(CHILD, command.split(), workdir)
    assert got["code"] == 0
    assert got["scipy"] == []


def test_extend_r_loads_scipy_special_not_integrate(workdir):
    got = child(CHILD, ["extend", "--r", "0.8", "--points", "401"], workdir)
    assert got["code"] == 0
    assert "scipy.special" in got["scipy"]
    assert "scipy.integrate" not in got["scipy"]


def test_isometry_loads_scipy_special_not_integrate(workdir):
    got = child(CHILD, ["isometry"], workdir)
    assert got["code"] == 0
    assert "scipy.special" in got["scipy"]
    assert "scipy.integrate" not in got["scipy"]


def test_bochner_transforms_load_no_quadpack(tmp_path):
    got = child(BOCHNER, [], tmp_path)
    assert got["measures"] == 9
    assert "scipy.special" in got["scipy"]
    assert "scipy.integrate" not in got["scipy"]
