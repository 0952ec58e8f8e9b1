"""Tests for scripts/compare_runs.py, the op-by-op comparison of two
benchmark run records."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "compare_runs.py"


def _op(repeat, op, name="esol_total kostlan(2,1)", verdict="ok", value=0.5, cells=64, elapsed=0.01):
    return {"repeat": repeat, "op": op, "name": name, "verdict": verdict, "value": value,
            "cells": cells, "elapsed": elapsed}


def _record(path, ops):
    path.write_text(json.dumps({"meta": {}, "ops": ops}))
    return str(path)


def _run(a, b):
    done = subprocess.run([sys.executable, str(SCRIPT), a, b], capture_output=True, text=True)
    return done.returncode, done.stdout.splitlines()


def test_same_ops_in_another_order_and_timing_agree(tmp_path):
    ops = [_op(0, 0), _op(0, 1, value=math.nan, cells=0), _op(1, 0)]
    a = _record(tmp_path / "a.json", ops)
    b = _record(tmp_path / "b.json", [dict(op, elapsed=1.0) for op in reversed(ops)])
    assert _run(a, b) == (0, ["same: 3 ops"])


def test_lists_every_differing_op(tmp_path):
    a = _record(tmp_path / "a.json", [_op(0, 0), _op(0, 1), _op(0, 2), _op(1, 0), _op(1, 1)])
    b = _record(tmp_path / "b.json", [
        _op(0, 0, name="esol_pspace kostlan(2,1)"),
        _op(0, 1, verdict="raised:ConvergenceError"),
        _op(0, 2, value=0.5000000000000001),
        _op(1, 0, cells=80),
        _op(1, 2),
    ])
    code, lines = _run(a, b)
    assert code == 1
    assert lines == [
        "repeat 0 op 0: name 'esol_total kostlan(2,1)' != 'esol_pspace kostlan(2,1)'",
        "repeat 0 op 1: verdict 'ok' != 'raised:ConvergenceError'",
        "repeat 0 op 2: value 0.5 != 0.5000000000000001",
        "repeat 1 op 0: cells 64 != 80",
        "repeat 1 op 1: only in A",
        "repeat 1 op 2: only in B",
    ]


def test_refuses_a_wrong_argument_count(tmp_path):
    done = subprocess.run([sys.executable, str(SCRIPT), "a.json"], capture_output=True, text=True)
    assert done.returncode == 2 and "usage" in done.stderr
