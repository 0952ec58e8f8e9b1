"""Layer probes for the traced run: fixed inputs, medians of repeats.

Each probe times one public function on a seeded input outside any
workload, so its rate can be compared across versions even when the
workloads call the function differently.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import time

import numpy as np

import sparse_kacrice as sk

#: (terms, dimension) -> the kostlan sum with that many terms.
KERNEL_CASES = {(2, 1): (1, 1), (9, 2): (2, 2), (25, 2): (2, 4), (8, 3): (3, 1), (27, 3): (3, 2)}
KERNEL_POINTS = 8192
REPEATS = 5


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_rates(rng: np.random.Generator) -> dict[str, tuple[float, str]]:
    """``density_many`` points per second on a fixed batch for each (k, m)."""
    rates = {}
    for (k, m), (dim, degree) in KERNEL_CASES.items():
        E = sk.kostlan(dim, degree)
        X = rng.normal(0.0, 2.0, size=(KERNEL_POINTS, m))
        rate = KERNEL_POINTS / _median_time(lambda: sk.density_many(E, X))
        rates[f"expsum.kernel_pts_per_s.k{k}m{m}"] = (rate, "1/s")
    return rates


def pointwise_rates(rng: np.random.Generator) -> dict[str, tuple[float, str]]:
    """Scalar ``evaluate`` and ``invert_moment`` calls per second on
    kostlan(2, 2), and the time of one ``esol_region`` on [-4, 4]^2."""
    E = sk.kostlan(2, 2)
    xs = rng.normal(0.0, 2.0, size=(400, 2))
    targets = rng.uniform(0.1, 1.9, size=(40, 2))
    evaluate_s = _median_time(lambda: [sk.evaluate(E, x) for x in xs])
    invert_s = _median_time(lambda: [sk.invert_moment(E, p) for p in targets])
    region_s = _median_time(lambda: sk.esol_region(E, [(-4.0, 4.0), (-4.0, 4.0)]))
    return {
        "expsum.evaluate_per_s": (len(xs) / evaluate_s, "1/s"),
        "expsum.invert_moment_per_s": (len(targets) / invert_s, "1/s"),
        "integrate.esol_region_s": (region_s, "s"),
    }


def _child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_times(root: str, repeats: int = 3) -> dict[str, tuple[float, str]]:
    """Cumulative import time of the package and of scipy.spatial, from
    ``python -X importtime`` in fresh interpreters (medians)."""
    totals, spatial = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sparse_kacrice"],
            cwd=root, env=_child_env(root), capture_output=True, text=True, timeout=60, check=True,
        )
        cumulative = {m.group(4): int(m.group(2)) for m in _IMPORTTIME.finditer(proc.stderr)}
        totals.append(cumulative["sparse_kacrice"] / 1e6)
        spatial.append(cumulative.get("scipy.spatial", 0) / 1e6)
    return {
        "import.total_s": (statistics.median(totals), "s"),
        "import.scipy_spatial_s": (statistics.median(spatial), "s"),
    }


def cli_cold(root: str, out_dir: str, repeats: int = 3) -> dict[str, tuple[float, str]]:
    """Wall time of a fresh ``python -m sparse_kacrice analyze`` on a
    two-term sum, median of repeats."""
    path = os.path.join(out_dir, "two_term.json")
    with open(path, "w") as fh:
        fh.write(sk.ExpSum([[0.0], [1.0]]).to_json())
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "sparse_kacrice", "analyze", "--input", path],
            cwd=root, env=_child_env(root), capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(time.perf_counter() - start)
        if abs(json.loads(proc.stdout)["value"] - 0.5) > 1e-6:
            raise RuntimeError(f"cli analyze gave {proc.stdout!r} for a two-term sum")
    return {"cli.cold_analyze_s": (statistics.median(times), "s")}
