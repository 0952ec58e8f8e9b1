"""Tests for the command-line interface."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparse_kacrice
from sparse_kacrice import ComplexExpSum, ExpSum, kostlan
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
        assert "PASS  psi_via_phi0_matches_psi" in out

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
