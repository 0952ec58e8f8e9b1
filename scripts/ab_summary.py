"""Summarize alternating A/B benchmark runs, one end-to-end metric a row.

Each file holds one ``perfbench/run.py`` result line (the JSON line a run
prints last) per run, and the runs are paired by line order: line i of A
with line i of B.  For every end-to-end metric that BENCHMARK.json
declares, in its order, a row gives A's and B's medians with their
quartiles [q1, q3], the pairs B wins and loses by the metric's ``better``
(ties count for neither) and a verdict.  A difference is resolved only
over at least ten pairs, when B wins, or loses, at least nine tenths of
them and the medians differ by more than A's interquartile distance
q3 - q1; every other row reads "unresolved".  Quartiles interpolate
linearly between order statistics, as numpy's default percentile does.

Usage: python scripts/ab_summary.py A.jsonl B.jsonl

Exits 0 after the table; a wrong argument count, or files with different
numbers of runs or fewer than two, print the reason and exit 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


def _runs(path: str) -> list[dict]:
    """The metric values of each result line in the file at path."""
    with open(path, encoding="utf-8") as fh:
        return [{name: m["value"] for name, m in json.loads(line)["metrics"].items()}
                for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float]:
    """(q1, q3) of values, by linear interpolation between order statistics."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(a: list[float], b: list[float], higher: bool) -> tuple[int, int, str]:
    """(wins, losses, verdict) of B against A over the pairs (a[i], b[i]),
    where higher says whether a higher value is better."""
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    losses = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    q1, q3 = quartiles(a)
    gap = sign * (statistics.median(b) - statistics.median(a))
    if len(a) >= MIN_PAIRS and wins >= 0.9 * len(a) and gap > q3 - q1:
        return wins, losses, "resolved: B better"
    if len(a) >= MIN_PAIRS and losses >= 0.9 * len(a) and -gap > q3 - q1:
        return wins, losses, "resolved: B worse"
    return wins, losses, "unresolved"


def _cell(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python scripts/ab_summary.py A.jsonl B.jsonl", file=sys.stderr)
        return 2
    a_runs, b_runs = _runs(argv[1]), _runs(argv[2])
    if len(a_runs) != len(b_runs) or len(a_runs) < 2:
        print(f"A has {len(a_runs)} runs and B {len(b_runs)}: they must pair up, two pairs at least", file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    print(f"{len(a_runs)} pairs; metric: A median [q1, q3] | B median [q1, q3] | B wins-losses | verdict")
    for metric in metrics:
        name = metric["name"]
        a = [run[name] for run in a_runs]
        b = [run[name] for run in b_runs]
        wins, losses, word = verdict(a, b, metric["better"] == "higher")
        print(f"{name}: {_cell(a)} | {_cell(b)} | {wins}-{losses} | {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
