"""Tests for scripts/ab_summary.py, the metric-by-metric summary of
alternating A/B benchmark runs."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab_summary.py"
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def _line(**values):
    """One result line: every end-to-end metric 1.0 unless given."""
    metrics = {name: {"value": values.get(name.replace(".", "_"), 1.0), "unit": "s"} for name in METRICS}
    return json.dumps({"correct": True, "attempted": 32, "failed": 0, "metrics": metrics})


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _run(*args):
    done = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True)
    return done.returncode, done.stdout.splitlines(), done.stderr


def _rows(lines):
    return {line.split(":")[0]: line for line in lines[1:]}


def test_resolves_only_nine_tenths_of_wins_past_the_parents_spread(tmp_path):
    a = [_line(work_per_s=100.0 + i, op_s_p50=1.0 + 0.01 * i, op_s_tail=1.0 + 0.01 * i) for i in range(10)]
    b = [
        # work_per_s: B ahead in 9 of 10 by more than A's spread (102.25 to
        # 106.75); op_s.p50: B faster in 10 of 10 but within A's spread;
        # op_s.tail: B slower in every pair, by far.
        _line(work_per_s=(120.0 + i) if i else 99.0, op_s_p50=0.999 + 0.01 * i, op_s_tail=2.0)
        for i in range(10)
    ]
    code, lines, _ = _run(_write(tmp_path / "a", a), _write(tmp_path / "b", b))
    rows = _rows(lines)
    assert code == 0 and lines[0].startswith("10 pairs")
    assert list(rows) == METRICS
    assert rows["work_per_s"] == "work_per_s: 104.5 [102.2, 106.8] | 124.5 [122.2, 126.8] | 9-1 | resolved: B better"
    assert rows["op_s.p50"].endswith("| 10-0 | unresolved")
    assert rows["op_s.tail"].endswith("| 0-10 | resolved: B worse")
    # Ties count for neither side.
    assert rows["ok_frac"] == "ok_frac: 1 [1, 1] | 1 [1, 1] | 0-0 | unresolved"


def test_eight_wins_of_ten_and_fewer_than_ten_pairs_are_not_resolved(tmp_path):
    a = [_line(work_per_s=100.0) for _ in range(10)]
    b = [_line(work_per_s=200.0 if i < 8 else 50.0) for i in range(10)]
    code, lines, _ = _run(_write(tmp_path / "a", a), _write(tmp_path / "b", b))
    assert code == 0 and _rows(lines)["work_per_s"].endswith("| 8-2 | unresolved")
    code, lines, _ = _run(_write(tmp_path / "a", a[:9]), _write(tmp_path / "b", [_line(work_per_s=200.0)] * 9))
    assert code == 0 and _rows(lines)["work_per_s"].endswith("| 9-0 | unresolved")


def test_refuses_unpaired_runs_and_a_wrong_argument_count(tmp_path):
    a = _write(tmp_path / "a", [_line(), _line()])
    b = _write(tmp_path / "b", [_line()])
    code, lines, err = _run(a, b)
    assert code == 2 and lines == [] and "pair" in err
    code, _, err = _run(a)
    assert code == 2 and "usage" in err
