"""Compare the ops of two benchmark run records.

A run record is the JSON file that ``perfbench/run.py`` writes for one
workload and seed (``.perfbench/<workload>-seed<s>-trace0.json``).  Its ops
are paired by (``repeat``, ``op``), and a pair differs where its ``name``,
``verdict``, ``value`` or ``cells`` are not the same bits (a value is
compared by its repr, so NaN equals NaN and -0.0 differs from 0.0).  An op
in only one record differs too.  Timing fields are never compared.

Usage: python scripts/compare_runs.py A.json B.json

Prints one line per difference and exits 1, or prints how many ops agree
and exits 0; a wrong argument count prints the usage and exits 2.
"""

from __future__ import annotations

import json
import sys

FIELDS = ("name", "verdict", "value", "cells")


def _ops(path: str) -> dict:
    """The ops of the record at path, keyed by (repeat, op)."""
    with open(path, encoding="utf-8") as fh:
        return {(op["repeat"], op["op"]): op for op in json.load(fh)["ops"]}


def differences(a: dict, b: dict) -> list[str]:
    """One line per (repeat, op) whose fields differ between a and b, or
    that only one of them holds, in key order."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        where = f"repeat {key[0]} op {key[1]}"
        if key not in b or key not in a:
            lines.append(f"{where}: only in {'A' if key in a else 'B'}")
            continue
        for field in FIELDS:
            left, right = repr(a[key].get(field)), repr(b[key].get(field))
            if left != right:
                lines.append(f"{where}: {field} {left} != {right}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python scripts/compare_runs.py A.json B.json", file=sys.stderr)
        return 2
    a, b = _ops(argv[1]), _ops(argv[2])
    lines = differences(a, b)
    for line in lines:
        print(line)
    if lines:
        return 1
    print(f"same: {len(a)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
