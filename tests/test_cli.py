"""Tests for the command-line interface."""

from __future__ import annotations

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparse_kacrice
from sparse_kacrice import (
    Augmentation, ComplexExpSum, ExpSum, InputError, density_many, kostlan, ray_scan_unbounded,
)
from sparse_kacrice import cli, integrate
from sparse_kacrice.cli import main


@pytest.fixture
def two_term_file(tmp_path):
    path = tmp_path / "two_term.json"
    path.write_text(ExpSum([[0.0], [1.0]]).to_json())
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(kostlan(2, 1).to_json())
    return str(path)


@pytest.fixture
def segment_file(tmp_path):
    path = tmp_path / "segment.json"
    path.write_text(ComplexExpSum([[0.0], [1.0], [2.0]]).to_json())
    return str(path)


class TestAnalyze:
    def test_native_route(self, two_term_file, capsys):
        assert main(["analyze", "--input", two_term_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["route"] == "x"
        assert doc["value"] == pytest.approx(0.5, abs=1e-6)

    def test_both_routes(self, two_term_file, capsys):
        assert main(["analyze", "--input", two_term_file, "--route", "both"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["x"]["value"] == pytest.approx(0.5, abs=1e-6)
        assert doc["p"]["value"] == pytest.approx(0.5, abs=1e-6)
        assert doc["abs_diff"] < 1e-6

    @pytest.mark.parametrize("route", ["p", "both"])
    def test_box_rejected_on_moment_routes(self, two_term_file, route, capsys):
        # the moment route covers the whole polytope, so a box would make
        # "both" compare a box integral with a whole-line one
        assert main(["analyze", "--input", two_term_file, "--route", route, "--box=-1,2"]) == 2
        assert "--box" in capsys.readouterr().err

    @pytest.mark.parametrize("route", ["x", "p"])
    def test_reports_work_counters(self, two_term_file, route, capsys):
        assert main(["analyze", "--input", two_term_file, "--route", route]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["route"] == route
        # 13 nodes a cell in one variable, for every cell ever evaluated
        assert doc["cells"] > 0 and doc["nodes"] >= 13 * doc["cells"] and doc["nodes"] % 13 == 0

    def test_both_routes_report_work_counters(self, two_term_file, capsys):
        assert main(["analyze", "--input", two_term_file, "--route", "both"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for route in ("x", "p"):
            assert doc[route]["cells"] > 0 and doc[route]["nodes"] >= 13 * doc[route]["cells"]

    @pytest.mark.parametrize("route", ["p", "both"])
    def test_moment_route_refuses_before_integrating(self, tmp_path, monkeypatch, route, capsys):
        # Past three variables, and on a P with no vertex cells (the
        # octahedron is not simple): bad input, before any cell or the x
        # route's integral.
        def no_integral(*args, **kwargs):
            raise AssertionError("integrated before refusing")

        monkeypatch.setattr(integrate, "_adaptive", no_integral)
        monkeypatch.setattr(cli, "esol_total", no_integral)
        octahedron = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
        for points, message in (([[0] * 4] + np.eye(4).tolist(), "three variables"),
                                (octahedron, "no vertex cells")):
            path = tmp_path / "refused.json"
            path.write_text(ExpSum(points).to_json())
            assert main(["analyze", "--input", str(path), "--route", route]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("route", ["p", "both"])
    def test_moment_route_in_three_variables(self, tmp_path, route, capsys):
        # kostlan(3,1) and the simplex run on the vertex cells both routes
        # take over P, so the routes agree to rounding.
        for E, want in ((kostlan(3, 1), math.pi / 8.0), (ExpSum([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]), 0.125)):
            path = tmp_path / "sum3.json"
            path.write_text(E.to_json())
            assert main(["analyze", "--input", str(path), "--route", route]) == 0
            doc = json.loads(capsys.readouterr().out)
            value = doc["value"] if route == "p" else doc["p"]["value"]
            assert value == pytest.approx(want, abs=1e-7)
            if route == "both":
                assert doc["abs_diff"] < 1e-12

    def test_thin_triangle(self, tmp_path, capsys):
        # Its barycenter is 3.3e-11 from a facet, inside the 2e-9 margin
        # that user targets of invert_moment must clear: the frame once
        # failed that gate and analyze exited 2.
        path = tmp_path / "thin.json"
        path.write_text(ExpSum([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-10]]).to_json())
        assert main(["analyze", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.25, abs=1e-6)

    def test_output_file(self, two_term_file, tmp_path):
        out = tmp_path / "result.json"
        assert main(["analyze", "--input", two_term_file, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["value"] == pytest.approx(0.5, abs=1e-6)

    def test_unwritable_output_exits_two(self, two_term_file, tmp_path, capsys):
        # the same contract as an unreadable --input: bad input, not a traceback
        out = tmp_path / "missing" / "out.json"
        assert main(["analyze", "--input", two_term_file, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write")
        assert not out.parent.exists()

    def test_unwritable_output_is_refused_before_the_computation(self, two_term_file, tmp_path, capsys,
                                                                  monkeypatch):
        called = []

        def patched(*args, **kwargs):
            called.append(args)
            raise AssertionError("the integral ran before --output was checked")

        monkeypatch.setattr(cli, "esol_total", patched)
        out = tmp_path / "missing" / "out.json"
        assert main(["analyze", "--input", two_term_file, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write")
        assert called == [] and not out.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["analyze", "--input", "{two}", "--route", "x"], id="analyze-x"),
        pytest.param(["analyze", "--input", "{two}", "--route", "p"], id="analyze-p"),
        pytest.param(["analyze", "--input", "{two}", "--route", "both"], id="analyze-both"),
        pytest.param(["density-grid", "--input", "{square}", "--resolution", "3", "--format", "json"],
                     id="density-grid"),
        pytest.param(["psi-grid", "--input", "{square}", "--a0", "0.5,0.5", "--resolution", "3",
                      "--format", "json"], id="psi-grid"),
        pytest.param(["witness", "--input", "{square}", "--a0", "0.5,0.5"], id="witness"),
        pytest.param(["mc", "--input", "{two}", "--samples", "400", "--seed", "7"], id="mc"),
        pytest.param(["algebra", "--op", "tensor", "--input", "{two}", "--input2", "{two}"],
                     id="algebra-tensor"),
        pytest.param(["algebra", "--op", "aronszajn", "--input", "{two}", "--input2", "{two}"],
                     id="algebra-aronszajn"),
        pytest.param(["algebra", "--op", "power", "--input", "{two}", "--degree", "2"],
                     id="algebra-power"),
        pytest.param(["algebra", "--op", "kostlan", "--dim", "1", "--degree", "2"],
                     id="algebra-kostlan"),
        pytest.param(["bkk", "--input", "{segment}"], id="bkk"),
    ],
)
def test_every_json_output_carries_schema_one(argv, two_term_file, square_file, segment_file, capsys):
    files = {"two": two_term_file, "square": square_file, "segment": segment_file}
    assert main([arg.format(**files) for arg in argv]) == 0
    assert json.loads(capsys.readouterr().out)["schema"] == 1


class TestGrids:
    def test_density_grid_csv(self, two_term_file, capsys):
        rc = main(
            ["density-grid", "--input", two_term_file, "--box=-2,2", "--resolution", "5"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "x1,density"
        assert len(lines) == 6
        center = float(lines[3].split(",")[1])
        assert center == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-9)

    def test_psi_grid_csv(self, square_file, capsys):
        rc = main(
            [
                "psi-grid",
                "--input",
                square_file,
                "--a0",
                "0.5,0.5",
                "--resolution",
                "8",
                "--space",
                "p",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "p1,p2,psi,class"
        assert len(lines) == 1 + 64
        assert any("U_minus" in line for line in lines[1:])

    @pytest.mark.parametrize("command", ["density-grid", "psi-grid"])
    def test_explicit_format_wins_over_suffix(self, square_file, tmp_path, command):
        header = "x1,x2," if command == "density-grid" else "p1,p2,"
        cases = [("csv", "out.json", False), ("json", "out.csv", True)]
        cases += [(None, "out.json", True), (None, "out.csv", False)]
        for fmt, name, want_json in cases:
            out = tmp_path / name
            argv = [command, "--input", square_file, "--resolution", "3", "--output", str(out)]
            argv += ["--a0", "0.5,0.5"] if command == "psi-grid" else []
            argv += ["--format", fmt] if fmt else []
            assert main(argv) == 0
            text = out.read_text()
            if want_json:
                assert json.loads(text)["schema"] == 1
            else:
                assert text.startswith(header)


class TestCsvFormat:
    # Each number is written as repr(float(v)) of the library's own value,
    # so the line is pinned digit for digit whatever the platform's bits.
    def test_density_grid_lines(self, two_term_file, capsys):
        argv = ["density-grid", "--input", two_term_file, "--box=-1,2", "--resolution", "3"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.split("\n")
        points = np.linspace(-1.0, 2.0, 3)[:, None]
        values = density_many(ExpSum([[0.0], [1.0]]), points)
        want = [",".join(repr(float(v)) for v in (*x, d)) for x, d in zip(points, values)]
        assert lines == ["x1,density", *want, ""]

    def test_ray_lines(self, two_term_file, capsys):
        argv = ["ray", "--input", two_term_file, "--a0", "3", "--alpha0", "0.5",
                "--direction", "1", "--t-max", "9", "--steps", "3"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.split("\n")
        evals = ray_scan_unbounded(ExpSum([[0.0], [1.0]]), Augmentation([3.0], 0.5), [1.0], 9.0, 3)
        want = [f"{float(t)!r},{float(e.psi)!r},{e.classification}"
                for t, e in zip(np.linspace(3.0, 9.0, 3), evals)]
        assert lines == ["t,psi,class", *want, ""]


class TestPointwise:
    def test_witness(self, square_file, capsys):
        rc = main(["witness", "--input", square_file, "--a0", "0.5,0.5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["psi"] == pytest.approx(0.8, rel=1e-9)
        assert doc["classification"] == "U_minus"

    def test_ray(self, two_term_file, capsys):
        rc = main(
            [
                "ray",
                "--input",
                two_term_file,
                "--a0",
                "3",
                "--dir",
                "1",
                "--t-max",
                "40",
                "--steps",
                "4",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,psi,class"
        assert len(lines) == 5
        assert lines[-1].startswith("40.0,")
        assert lines[-1].endswith("U_minus")


class TestStochasticAndComplex:
    def test_mc_is_deterministic(self, two_term_file, capsys):
        args = ["mc", "--input", two_term_file, "--samples", "4000", "--seed", "7"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert abs(first["mean"] - 0.5) < 4.0 * first["stderr"]

    def test_mc_negative_seed_exits_two(self, two_term_file, capsys):
        assert main(["mc", "--input", two_term_file, "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be")

    def test_bkk(self, segment_file, capsys):
        assert main(["bkk", "--input", segment_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["density_route_total"] == pytest.approx(2.0, abs=1e-6)
        assert doc["n_factorial_vol"] == pytest.approx(2.0)
        assert doc["abs_diff"] < 1e-6
        # 13 nodes a cell in one variable, for every cell ever evaluated
        assert doc["cells"] > 0 and doc["nodes"] >= 13 * doc["cells"] and doc["nodes"] % 13 == 0


class TestAlgebra:
    def test_generate_binomial_family(self, capsys):
        rc = main(["algebra", "--op", "kostlan", "--dim", "2", "--degree", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 2
        assert len(doc["support"]) == 4

    def test_tensor(self, two_term_file, capsys):
        rc = main(
            [
                "algebra",
                "--op",
                "tensor",
                "--input",
                two_term_file,
                "--input2",
                two_term_file,
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 2
        assert len(doc["support"]) == 4

    def test_power(self, two_term_file, capsys):
        rc = main(
            ["algebra", "--op", "power", "--input", two_term_file, "--degree", "3"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["support"]) == 4

    def test_aronszajn(self, two_term_file, capsys):
        # shared variable: {0, 1} + {0, 1} = {0, 1, 2}
        argv = ["algebra", "--op", "aronszajn", "--input", two_term_file, "--input2", two_term_file]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 1
        assert sorted(p[0] for p in doc["support"]) == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--op", "kostlan"], "kostlan needs --dim and --degree"),
            (["--op", "kostlan", "--dim", "2"], "kostlan needs --dim and --degree"),
            (["--op", "kostlan", "--degree", "2"], "kostlan needs --dim and --degree"),
            (["--op", "power", "--degree", "2"], "power needs --input and --degree"),
            (["--op", "power", "--input", "{two}"], "power needs --input and --degree"),
            (["--op", "tensor", "--input", "{two}"], "tensor needs --input and --input2"),
            (["--op", "tensor", "--input2", "{two}"], "tensor needs --input and --input2"),
            (["--op", "aronszajn", "--input", "{two}"], "aronszajn needs --input and --input2"),
        ],
    )
    def test_missing_argument_exits_two(self, two_term_file, argv, message, capsys):
        assert main(["algebra"] + [arg.format(two=two_term_file) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_import_leaves_scipy_out():
    # scipy costs several times the package's own import; hulls, clustering
    # and the tangent-space check load it when they first run
    src = str(Path(sparse_kacrice.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, sparse_kacrice; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestSelftestAndErrors:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        assert "PASS  kernel_rows_match_batch" in out
        assert "PASS  simplex_sum_matches_subsets" in out
        assert "PASS  kostlan(3,1) is pi/8 on the moment route" in out
        assert out.splitlines()[-1] == "14 passed, 0 failed"

    def test_a_failing_check_does_not_stop_the_rest(self, monkeypatch, capsys):
        # Each row builds its sum inside its check, so a builder that raises
        # fails the rows that call it and no other.
        def refuse(m, d):
            raise InputError(f"kostlan({m},{d}) refused")

        monkeypatch.setattr(cli, "kostlan", refuse)
        assert main(["selftest"]) == 3
        lines = capsys.readouterr().out.splitlines()
        labels = [row[0] for row in cli._selftest_checks()]
        # The degree-4, the kostlan(3,*), the kernel-rows and the Rolle-cascade rows.
        builds_kostlan = {1, 4, 5, 7, 8, 13}
        assert len(lines) == len(labels) + 1
        for i, (label, line) in enumerate(zip(labels, lines)):
            if i in builds_kostlan:
                assert line.startswith(f"FAIL  {label} (InputError: kostlan(") and line.endswith(") refused)")
            else:
                assert line == f"PASS  {label}"
        assert lines[-1] == "8 passed, 6 failed"

    def test_a_kernel_row_mismatch_fails_its_row(self, monkeypatch, capsys):
        # The batched kernel equals its one-row calls on every BLAS tested,
        # so the one-row density is made to differ from it by 1e-12.
        real = cli.density
        monkeypatch.setattr(cli, "density", lambda E, x: real(E, x) * (1.0 + 1e-12))
        assert main(["selftest"]) == 3
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(failed) == 1 and failed[0].startswith("FAIL  kernel_rows_match_batch: ")
        assert lines[-1] == "13 passed, 1 failed"

    def test_cli_imports_only_public_names(self):
        # The selftest checks an installed package, so the CLI reaches it
        # through public names alone; geometry's input checks validate
        # density-grid's --box and --resolution, and geometry's one CSV
        # writer, which psi-grid's RegionScan.to_csv also uses, writes
        # density-grid and ray.
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "sparse_kacrice")
            for alias in node.names
        }
        assert imported - set(sparse_kacrice.__all__) == {"_check_box", "_csv_text", "_grid"}
        private = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not node.attr.endswith("__")
        }
        assert private == set()

    @pytest.mark.parametrize(
        "record, argv",
        [
            pytest.param('{"schema": 1, "points": "nope"}', ["analyze"], id="no-support"),
            pytest.param('{"dim": 1, "support": [0, 1], "coeffs": ["a", 1]}', ["analyze"],
                         id="coeff-not-a-number"),
            pytest.param('{"dim": 1, "support": [0, 1], "coeffs": {"x": 1}}', ["analyze"],
                         id="coeffs-an-object"),
            pytest.param(ExpSum([[0.0], [1.0]]).to_json(),
                         ["density-grid", "--resolution", "abc"], id="resolution-not-an-int"),
            pytest.param(ExpSum([[0.0], [1.0]]).to_json(),
                         ["density-grid", "--resolution", "-3"], id="resolution-negative"),
            pytest.param(kostlan(2, 1).to_json(),
                         ["psi-grid", "--a0", "0.5,0.5", "--resolution", "x"],
                         id="psi-resolution-not-an-int"),
            pytest.param(ExpSum([[0.0], [1.0]]).to_json(),
                         ["density-grid", "--box=-inf,inf"], id="density-box-infinite"),
            pytest.param(ExpSum([[0.0], [1.0]]).to_json(),
                         ["psi-grid", "--a0", "3", "--space", "x", "--box=-inf,inf"],
                         id="psi-box-infinite"),
            pytest.param(ExpSum([[0.0], [1.0]]).to_json(),
                         ["density-grid", "--resolution", "1"], id="resolution-one"),
            pytest.param(ExpSum([[0.0], [1.0]]).to_json(), ["analyze", "--tol", "inf"],
                         id="tolerance-infinite"),
        ],
    )
    def test_malformed_input_exits_two(self, tmp_path, record, argv):
        bad = tmp_path / "bad.json"
        bad.write_text(record)
        assert main(argv[:1] + ["--input", str(bad)] + argv[1:]) == 2

    def test_infinite_t_max_exits_two(self, two_term_file):
        argv = ["ray", "--input", two_term_file, "--a0", "3", "--direction", "1", "--t-max", "inf"]
        assert main(argv) == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["analyze", "--input", str(tmp_path / "absent.json")]) == 2

    def test_domain_error_exits_two(self, two_term_file):
        # witness point outside the exponent hull
        assert main(["witness", "--input", two_term_file, "--a0", "-0.5"]) == 2


#: Exit paths of ``main`` and of its input parsers: sum support, arguments
#: ("{input}" the sum's file, "{dir}" an existing directory), exit code,
#: and a pattern the whole of stderr matches.
EXIT_PATHS = {
    # A ConvergenceError with its partial value: on this near-degenerate
    # quadrilateral the moment route's integrand is not finite at some nodes.
    "convergence-error": ([[0, 0], [1, 0], [1, 1e-4], [2e-9, 1e-13]], ["analyze", "--route", "p"], 3,
                          r"error: integrand is not finite on 2 of 48 new cells \(partial value 0\.2396\d*\)\n"),
    # A DegenerateMetricError, which reaches main's SparseKacRiceError branch.
    "degenerate-metric": ([[0, 0], [1, 1], [2, 2]], ["witness", "--a0", "0.5,0.5"], 3,
                          r"error: support is not full-dimensional; moment map is not open\n"),
    "output-is-a-directory": ([[0], [1]], ["analyze", "--output", "{dir}"], 2,
                              r"error: cannot write {dir}: .*\n"),
    "direction-not-reals": ([[0], [1]], ["ray", "--a0", "3", "--direction", "1,a"], 2,
                            r"error: could not parse '1,a' as comma-separated reals\n"),
    "box-count": ([[0, 0], [1, 0], [0, 1], [1, 1]], ["analyze", "--box", "0,1"], 2,
                  r"error: --box needs 4 comma-separated reals \(lo,hi per axis\)\n"),
}


@pytest.mark.parametrize("case", EXIT_PATHS)
def test_exit_paths(case, tmp_path, capsys):
    support, argv, code, stderr = EXIT_PATHS[case]
    path = tmp_path / "sum.json"
    path.write_text(ExpSum(support).to_json())
    fill = {"input": str(path), "dir": str(tmp_path)}
    assert main([arg.format(**fill) for arg in argv[:1] + ["--input", "{input}"] + argv[1:]]) == code
    assert re.fullmatch(stderr.format(dir=re.escape(str(tmp_path))), capsys.readouterr().err)
