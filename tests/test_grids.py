"""Simpson's rule assumes a finite, strictly increasing, uniform grid; every
container that integrates with it refuses other grids."""

import json

import numpy as np
import pytest

from pdext import DomainError, MeasureOnInterval, SpectralMeasure
from pdext.cli import main
from pdext.rkhs import BoundaryData, Sampled

UNIFORM = np.linspace(0.0, 1.0, 11)
BAD_GRIDS = {
    "refined near 0": np.concatenate([np.linspace(0.0, 0.1, 6), np.linspace(0.2, 1.0, 5)]),
    "unsorted": UNIFORM[[0, 2, 1, 3, 4, 5, 6, 7, 8, 9, 10]],
    "nan": np.where(np.arange(11) == 4, np.nan, UNIFORM),
    "repeated point": np.sort(np.append(UNIFORM[:-1], 0.5)),
}


def sampled(grid):
    v = np.ones(len(grid))
    return Sampled(grid, v, 0 * v, BoundaryData(1.0, 0.0, 1.0, 0.0))


def spectral(grid):
    return SpectralMeasure(grid - 0.5, np.ones(len(grid)))


def on_interval(grid):
    return MeasureOnInterval.from_density((0.0, 1.0), grid, np.ones(len(grid)))


CONSTRUCTORS = [sampled, spectral, on_interval]


@pytest.mark.parametrize("make", CONSTRUCTORS)
def test_uniform_grid_accepted(make):
    make(UNIFORM)


@pytest.mark.parametrize("make", CONSTRUCTORS)
@pytest.mark.parametrize("name", sorted(BAD_GRIDS))
def test_bad_grid_refused(make, name):
    with pytest.raises(DomainError):
        make(BAD_GRIDS[name])


def test_refined_grid_no_longer_gives_a_wrong_mass():
    # Simpson with the first spacing silently reported mass 0.2 here
    with pytest.raises(DomainError, match="uniform"):
        on_interval(BAD_GRIDS["refined near 0"]).total_mass()


def test_json_readers_refuse():
    bad = BAD_GRIDS["refined near 0"]
    with pytest.raises(DomainError):
        MeasureOnInterval.from_json(json.dumps(
            {"interval": [0, 1], "grid": bad.tolist(), "density_re": [1.0] * len(bad),
             "density_im": [0.0] * len(bad), "atoms": []}))
    with pytest.raises(DomainError):
        SpectralMeasure.from_json(json.dumps(
            {"grid": (bad - 0.5).tolist(), "density": [1.0] * len(bad), "atoms": []}))


def test_concentration_cli_exits_1_with_error_json(tmp_path, capsys):
    bad = BAD_GRIDS["refined near 0"]
    mfile = tmp_path / "mu.json"
    mfile.write_text(json.dumps({"interval": [0, 1], "grid": bad.tolist(),
                                 "density_re": [1.0] * len(bad),
                                 "density_im": [0.0] * len(bad), "atoms": []}))
    assert main(["concentration", "--measure", str(mfile)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "DomainError"
    assert "uniform" in payload["detail"]
