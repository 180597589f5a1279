import csv
import json
import math
import os
import warnings

import numpy as np
import pytest

from pdext import extensions
from pdext.cli import INT_CEILINGS, main


def run(args):
    return main(args)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSpectrum:
    def test_writes_table(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--theta", "0.8", "--n", "10",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,lambda,residual"
        assert len(lines) == 1 + 21        # 2n + 1 roots
        assert all(float(l.split(",")[2]) < 1e-10 for l in lines[1:])

    def test_three_roots_for_n1(self, tmp_path):
        out = tmp_path / "spec.csv"
        run(["spectrum", "--theta", "0", "--n", "1", "--out", str(out)])
        assert len(out.read_text().strip().splitlines()) == 4

    def test_negative_theta_reduced_with_notice(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--theta", "-1", "--n", "2",
                    "--out", str(out)]) == 0
        assert "reduced" in capsys.readouterr().err

    def test_json_payload(self, tmp_path):
        out = tmp_path / "spec.json"
        run(["spectrum", "--theta", "0.8", "--n", "3", "--format", "json",
             "--out", str(out)])
        payload = json.loads(out.read_text())
        assert "tail_bound" in payload and payload["theta"] == 0.8

    def test_curve_samples(self, tmp_path):
        out = tmp_path / "spec.csv"
        curves = tmp_path / "curves.csv"
        run(["spectrum", "--theta", "0.8", "--n", "2", "--out", str(out),
             "--curves", str(curves)])
        assert curves.exists()
        assert curves.read_text().startswith("lambda,")


class TestExtend:
    def test_type1_plot_data(self, tmp_path):
        out = tmp_path / "ext.csv"
        assert run(["extend", "--theta", "0", "--n", "100",
                    "--xmin", "-4", "--xmax", "4", "--points", "101",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 102
        # error column is bounded by the tail everywhere inside (-1, 1)
        for line in lines[1:]:
            x, _, err = line.split(",")
            if abs(float(x)) < 1:
                assert float(err) < 0.011

    def test_type2_plot_data(self, tmp_path):
        out = tmp_path / "gr.csv"
        assert run(["extend", "--r", "0.8", "--points", "51",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("x,G_r")

    def test_restriction_error_column_zero_inside(self, tmp_path):
        out = tmp_path / "gr.csv"
        run(["extend", "--r", "0.5", "--xmin", "-0.9", "--xmax", "0.9",
             "--points", "21", "--out", str(out)])
        for line in out.read_text().strip().splitlines()[1:]:
            assert float(line.split(",")[2]) < 1e-15

    @pytest.mark.parametrize("args", [["--theta", "3", "--xmin", "1e308", "--xmax", "0.5"],
                                      ["--theta", "3", "--xmin=-1e308", "--xmax", "1e308"],
                                      ["--r", "1", "--xmin=-1.7e308", "--xmax", "1.7e308"]])
    def test_x_range_past_the_largest_double_is_refused(self, args, capsys):
        # lambda x, or the grid spacing itself, overflowed into NaN rows at exit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["extend", "--points", "2"] + args) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "DomainError"

    @pytest.mark.parametrize("scale, code", [(0.99, 0), (1.01, 1)])
    def test_phase_past_2_to_the_52_is_refused(self, scale, code, capsys):
        # past max|lam| max|x| = 2^52 the rounding of lam x alone exceeds 2 pi,
        # and --xmin=-1e300 --xmax 1e300 printed noise rows at exit 0
        top = float(np.max(np.abs(extensions.extend_type1(3.0, 10).lambdas)))
        xmax = repr(scale * 2.0 ** 52 / top)
        assert run(["extend", "--theta", "3", "--n", "10", "--xmin", "-" + xmax,
                    "--xmax", xmax, "--points", "3"]) == code
        out = capsys.readouterr().out
        if code:
            assert json.loads(out)["error"] == "DomainError"
        else:
            assert "nan" not in out.splitlines()[2]

    @pytest.mark.parametrize("kind", [["--theta", "0.5"], ["--r", "0.5"]])
    def test_descending_range_is_refused(self, kind, capsys):
        # --xmin > --xmax printed the rows in descending order at exit 0
        assert run(["extend", "--xmin", "0.5", "--xmax", "-0.5", "--points", "3"] + kind) == 1
        assert "exceeds --xmax" in json.loads(capsys.readouterr().out)["detail"]


class TestJsonTypes:
    @pytest.mark.parametrize("args", [["sample", "--theta", "0", "--n", "60"],
                                      ["extend", "--theta", "0.8", "--n", "30"]])
    def test_one_type_per_column(self, tmp_path, args):
        # column 1 is complex: {"re", "im"} also where its imaginary part is 0
        out = tmp_path / "o.json"
        assert run(args + ["--format", "json", "--out", str(out)]) == 0
        cols = list(zip(*json.loads(out.read_text())["rows"]))
        assert all(isinstance(v, dict) for v in cols[1])
        assert all(isinstance(v, float) for col in cols[:1] + cols[2:] for v in col)


class TestMercerCmd:
    def test_table_and_trace(self, tmp_path):
        out = tmp_path / "mercer.json"
        assert run(["mercer", "--kernel", "exp", "--nodes", "400", "--n", "5",
                    "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["trace"] - 1.0) < 1e-9
        assert payload["unmatched"] == 0

    def test_triangle(self, tmp_path):
        out = tmp_path / "mercer.csv"
        assert run(["mercer", "--kernel", "triangle", "--nodes", "400",
                    "--n", "3", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert all(r.endswith("matched") for r in rows)

    def test_curves(self, tmp_path):
        out = tmp_path / "m.csv"
        curves = tmp_path / "tan.csv"
        run(["mercer", "--kernel", "exp", "--nodes", "64", "--n", "2",
             "--out", str(out), "--curves", str(curves)])
        assert curves.read_text().startswith("k,")


class TestOnbCmd:
    def test_triangle_table(self, tmp_path):
        out = tmp_path / "onb.csv"
        assert run(["onb", "--kernel", "triangle", "--depth", "3",
                    "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 10
        vals = [float(r[1]) for r in rows[1:]]
        assert vals == pytest.approx([1, 0.75, 0.25, 0.125, 0.125] + [0.0625] * 4)

    def test_exp_table(self, tmp_path):
        out = tmp_path / "onb.csv"
        run(["onb", "--kernel", "exp", "--depth", "3", "--out", str(out)])
        vals = [float(r[1]) for r in read_rows(out)[1:]]
        assert vals[1] == pytest.approx(1 - math.exp(-2), abs=1e-12)

    def test_depth_zero_single_seed_rows(self, tmp_path):
        out = tmp_path / "onb.csv"
        run(["onb", "--kernel", "exp", "--depth", "0", "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[1].startswith("h_0,1")

    def test_function_samples(self, tmp_path):
        out = tmp_path / "onb.csv"
        fns = tmp_path / "fns.csv"
        run(["onb", "--kernel", "triangle", "--depth", "3", "--out", str(out),
             "--functions", str(fns)])
        header = fns.read_text().splitlines()[0]
        assert header.split(",")[:2] == ["x", "h_0"]

    def test_table_with_f0_not_one_fails(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        x = np.linspace(0, 1, 33)
        table.write_text("x,F,dF\n" + "\n".join(
            f"{a},{0.8 * math.exp(-a)},{-0.8 * math.exp(-a)}" for a in x))
        assert run(["onb", "--kernel", f"table:{table}", "--depth", "2"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "DomainError" and "F(0) = 1" in payload["detail"]


class TestMomentsCmd:
    def test_three_row_dichotomy(self, tmp_path):
        out = tmp_path / "moments.csv"
        assert run(["moments", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [r[-1] for r in rows[1:]] == ["(1,1)", "(1,1)", "(0,0)"]

    def test_empty_list_header_only(self, tmp_path):
        out = tmp_path / "moments.csv"
        run(["moments", "--kernels", "", "--out", str(out)])
        assert out.read_text().strip().splitlines() == [
            "kernel,truncated_second_moment,verdict,indices"]

    def test_table_without_measure_indeterminate(self, tmp_path):
        table = tmp_path / "t.csv"
        x = np.linspace(0, 1, 33)
        table.write_text("x,F,dF\n" + "\n".join(
            f"{a},{math.exp(-a)},{-math.exp(-a)}" for a in x))
        out = tmp_path / "moments.csv"
        run(["moments", "--kernels", f"table:{table}", "--out", str(out)])
        assert "indeterminate" in out.read_text()

    @pytest.mark.parametrize("rows, detail", [
        ("0,1,0\n0.5,0.8,-0.5\n0.4,0.7,-0.5\n", "table row 3: x = 0.4 must exceed"),
        ("0,1,0\n0.5,nan,-0.5\n0.6,0.7,-0.5\n", "table row 2: x, F(x), F'(x) = 0.5, nan"),
    ])
    def test_table_not_increasing_or_not_finite_is_a_domain_error(self, tmp_path, capsys,
                                                                  rows, detail):
        table = tmp_path / "t.csv"
        table.write_text("x,F,dF\n" + rows)
        assert run(["moments", "--kernels", f"table:{table}"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "DomainError" and detail in payload["detail"]


class TestConcentrationCmd:
    def test_delta(self, tmp_path):
        mfile = tmp_path / "mu.json"
        mfile.write_text(json.dumps({"interval": [0, 1], "grid": [],
                                     "density_re": [], "density_im": [],
                                     "atoms": [[0.3, 1.0, 0.0]]}))
        out = tmp_path / "q.csv"
        assert run(["concentration", "--measure", str(mfile),
                    "--out", str(out)]) == 0
        q, d = out.read_text().strip().splitlines()[1].split(",")
        assert float(q) == 1.0 and float(d) == 0.0

    def test_uniform(self, tmp_path):
        grid = np.linspace(0, 1, 2001)
        mfile = tmp_path / "mu.json"
        mfile.write_text(json.dumps({"interval": [0, 1], "grid": grid.tolist(),
                                     "density_re": [1.0] * 2001,
                                     "density_im": [0.0] * 2001, "atoms": []}))
        out = tmp_path / "q.csv"
        run(["concentration", "--measure", str(mfile), "--out", str(out)])
        q, d = out.read_text().strip().splitlines()[1].split(",")
        assert float(q) == pytest.approx(2 / math.e, abs=1e-7)
        assert float(d) == pytest.approx(1 - math.log(2), abs=1e-7)

    def test_density_off_the_grid_is_a_domain_error(self, tmp_path, capsys):
        mfile = tmp_path / "mu.json"
        mfile.write_text(json.dumps({"interval": [0, 1], "grid": [0.0, 0.5, 1.0],
                                     "density_re": [1.0, 1.0], "density_im": [0.0, 0.0],
                                     "atoms": []}))
        assert run(["concentration", "--measure", str(mfile)]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "DomainError"

    def test_density_parts_of_unequal_length_are_a_domain_error(self, tmp_path, capsys):
        mfile = tmp_path / "mu.json"
        mfile.write_text(json.dumps({"interval": [0, 1], "grid": [0.0, 0.5, 1.0],
                                     "density_re": [1.0, 1.0, 1.0], "density_im": [0.0, 0.0],
                                     "atoms": []}))
        assert run(["concentration", "--measure", str(mfile)]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "DomainError"


class TestSampleCmd:
    def test_sampling_matches_volterra(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["sample", "--theta", "0", "--n", "80", "--points", "5",
                    "--out", str(out)]) == 0
        for line in out.read_text().strip().splitlines()[1:]:
            assert float(line.split(",")[3]) < 1e-2

    @pytest.mark.parametrize("width", ["nan", "0", "-0.3", "inf"])
    def test_bad_width_is_refused(self, width, capsys):
        assert run(["sample", "--width", width]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "DomainError"

    @pytest.mark.parametrize("width", ["1e308", "1e-320"])
    def test_width_whose_square_is_not_normal_is_refused(self, width, capsys):
        # 1e308 ** 2 overflowed; 1e-320 ** 2 is 0, and the bump divided by it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sample", "--width", width]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "DomainError"


    @pytest.mark.parametrize("center, width", [("3", "0.5"), ("-0.5", "0.5"), ("1.2", "0.2")])
    def test_bump_outside_the_unit_interval_is_refused(self, center, width, capsys):
        # the bump vanished on the sample points: all-zero rows compared nothing
        assert run(["sample", "--center", center, "--width", width]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "DomainError"

    def test_bump_reaching_into_the_unit_interval_runs(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["sample", "--center", "1.3", "--width", "0.5", "--points", "5",
                    "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["max_gap"] < 1e-2


class TestIsometryCmd:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "iso.json"
        assert run(["isometry", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] and payload["max_gap"] < 1e-6

    def test_bad_point_token_is_named(self, capsys):
        assert run(["isometry", "--points", "0,abc"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "DomainError" and "'abc'" in payload["detail"]

    def test_points_with_a_leading_minus_are_a_value(self, capsys):
        # argparse read -0.2,0.3 as an unknown option and exited 2 with usage
        assert run(["isometry", "--points", "-0.2,0.3"]) == 0
        assert json.loads(capsys.readouterr().out)["points"] == [-0.2, 0.3]
        assert run(["isometry", "--points", "-0.2,abc"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "DomainError" and "'abc'" in payload["detail"]


class TestContract:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["spectrum", "--theta", "0.8", "--n", "5", "--out", str(a)])
        run(["spectrum", "--theta", "0.8", "--n", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_error_json_on_failure(self, capsys, tmp_path):
        code = run(["concentration", "--measure", str(tmp_path / "missing.json")])
        assert code != 0
        payload = json.loads(capsys.readouterr().out)
        assert "error" in payload and "detail" in payload

    @pytest.mark.parametrize("args", [["extend", "--theta", "0", "--xmin", "nan"],
                                      ["extend", "--xmax", "inf"],
                                      ["spectrum", "--theta", "inf"],
                                      ["isometry", "--tol", "nan"],
                                      ["isometry", "--points", "0,nan"],
                                      ["isometry", "--points", "0,0.5,nan"],
                                      ["mercer", "--nodes", "16", "--n", "40"],
                                      ["onb", "--depth", "-1"], ["extend", "--points", "0"],
                                      ["sample", "--points", "0"], ["isometry", "--trials", "0"]])
    def test_domain_error_on_bad_arguments(self, args, capsys):
        assert run(args) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "DomainError"

    @pytest.mark.parametrize("args", [["onb", "--depth"], ["extend", "--points"],
                                      ["isometry", "--trials"], ["mercer", "--nodes"],
                                      ["mercer", "--n"]])
    def test_size_above_its_ceiling_is_refused(self, args, capsys):
        # refused before anything is built: only the ceiling + 1 is run
        option = args[1].lstrip("-")
        assert run(args + [str(INT_CEILINGS[option] + 1)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "DomainError" and "<=" in payload["detail"]

    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "x.csv"
        run(["spectrum", "--theta", "0.1", "--n", "2", "--out", str(out)])
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_full_precision_output(self, tmp_path):
        out = tmp_path / "x.csv"
        run(["spectrum", "--theta", "0.8", "--n", "2", "--out", str(out)])
        lam = out.read_text().splitlines()[1].split(",")[1]
        assert len(lam.replace("-", "").replace(".", "")) >= 16
