"""The benchmark's run loop, metrics and output; ``run.py`` is the entry point.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics from spans and probes.  Each op's verdict and every
metric with its unit are printed first; the last line is the JSON result.
Run records (and, traced, the spans) are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

import numpy as np
import scipy

import sparse_kacrice as sk

import oracles
import probes
import workloads
from calibration import Calibration
from tracing import ENTRY_LAYERS, Deadline, Tracer, deadline

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(ROOT, "src", "sparse_kacrice")
OUT_DIR = os.path.join(ROOT, ".perfbench")
RUN_SCRIPT = os.path.join(HERE, "run.py")

#: Fresh interpreters started to measure set-up time, at the start of each
#: op set, so that a slow phase of the host hits few of them.
SETUP_PER_SET = 2
#: Calibration kernel runs per op set, spread evenly between its ops.
CAL_PER_REPEAT = 12
#: Tail percentile per workload, over ops that finished before their
#: deadline: the highest with at least ten ops beyond it at 30 s runs
#: (quadrature 4 x 32 ops of which about 108 finish, montecarlo 3 x 10,
#: psi-scan 3 x 16).
TAIL_PERCENTILE = {"quadrature": 90, "montecarlo": 66, "psi-scan": 79}
#: Keyword arguments that ROADMAP items 2, 4 and 5 remove from the API.
FORBIDDEN_KEYWORDS = {"threads", "scheme", "interval", "scan_points"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="sparse_kacrice benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.OP_SETS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def public_api_problems() -> list[str]:
    """Uses of the package outside its public API in the benchmark's files.

    Flags underscore names and names missing from ``sparse_kacrice.__all__``,
    imported or read as ``sk.<name>``, and the keyword arguments that the
    ROADMAP removes.
    """
    problems = []
    public = set(sk.__all__)
    for filename in sorted(os.listdir(HERE)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(HERE, filename)) as fh:
            tree = ast.parse(fh.read(), filename)
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sparse_kacrice"):
                names = [alias.name for alias in node.names]
                if node.module != "sparse_kacrice":
                    problems.append(f"{filename}:{node.lineno} imports from {node.module}")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "sk":
                names = [node.attr]
            elif isinstance(node, ast.Call):
                problems += [f"{filename}:{node.lineno} passes {kw.arg}=" for kw in node.keywords
                             if kw.arg in FORBIDDEN_KEYWORDS]
            problems += [f"{filename}:{node.lineno} uses sparse_kacrice.{name}" for name in names
                         if name not in public and name != "__all__"]
    return problems


def _metadata(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(PACKAGE)):
        dirnames.sort()
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, filename), "rb") as fh:
                sha.update(filename.encode() + fh.read())
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except OSError:
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "commit": commit,
        "src_sha256": sha.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
    }


def run_op(op, api, op_id, tracer=None) -> dict:
    """Run one op under its deadline, traced when a tracer is given, then
    check it untimed and untraced."""
    record = {"id": op_id, "name": op.name, "entry": op.entry,
              "known": op.known.text if op.known else None, "ref": op.ref,
              "work": 0.0 if callable(op.work) else op.work, "terms": op.terms, "value": None}
    result = None
    if tracer is not None:
        tracer.begin_op(op_id)
        tracer.install()
    start = time.perf_counter()
    try:
        with deadline(op.deadline):
            result = api[op.entry](*op.args, **op.kwargs)
        verdict = "ok"
    except Deadline:
        verdict = "deadline"
    except Exception as exc:  # every library failure is a verdict, not a crash
        verdict = f"raised:{type(exc).__name__}"
        if isinstance(exc, sk.ConvergenceError):
            record["value"] = exc.value if isinstance(exc.value, float) else None
    finally:
        if tracer is not None:
            tracer.uninstall()
    record["elapsed"] = time.perf_counter() - start
    if verdict == "ok":
        try:
            problem = op.check(result)
        except Exception as exc:  # the reference route failed on this output
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            verdict, record["detail"] = "wrong", problem
        record["value"] = getattr(result, "value", None)
        record["cells"] = getattr(result, "cells", 0)
        record["inversion_failures"] = getattr(result, "inversion_failures", 0)
        if callable(op.work):
            record["work"] = op.work(result)
    record["verdict"] = verdict
    # A failure is expected only when the template's known defect gives it.
    record["expected"] = verdict == "ok" or (
        op.known is not None and op.known.explains(verdict, record["value"], op.ref))
    return record


def _print_record(record, op) -> None:
    known = ""
    if record["verdict"] != "ok":
        known = f"  [known: {op.known.text}]" if record["expected"] else "  [UNEXPECTED]"
    detail = f"  ({record['detail']})" if "detail" in record else ""
    print(f"op {record['op']:3d} repeat {record['repeat']}  {record['elapsed']:8.4f} s  "
          f"{record['verdict']:<26s} {op.name}{detail}{known}")


def run_repeats(args, make_ops, rng, api, repeats: int, calibration) -> tuple[list[dict], float]:
    """Run ``repeats`` op sets, each freshly drawn from the seeded stream,
    and time set-up before each; return the records and the median set-up
    time.

    Each record keeps its raw ``elapsed`` and a ``time`` scaled to the
    reference machine speed; a deadline cut is a timer event, not work, so
    its time stays as measured.
    """
    records, setups = [], []
    for repeat in range(repeats):
        raw_setups = [_setup_time(args) for _ in range(SETUP_PER_SET)]
        ops = make_ops(rng)
        stride = max(1, len(ops) // CAL_PER_REPEAT)
        batch = []
        for index, op in enumerate(ops):
            if index % stride == 0:
                calibration.run()
            record = run_op(op, api, len(records) + len(batch))
            record.update(op=index, repeat=repeat)
            batch.append(record)
            _print_record(record, op)
        factor = calibration.factor()
        setups += [t * factor for t in raw_setups]
        for record in batch:
            record["speed_factor"] = factor
            record["time"] = record["elapsed"] * (1.0 if record["verdict"] == "deadline" else factor)
        records += batch
    return records, statistics.median(setups)


def run_paired(ops, api, traced_api, tracer) -> tuple[list[dict], list[dict]]:
    """Run each op once untraced and once traced, alternating which goes
    first, so that slow phases of the machine hit both sides alike."""
    untraced, traced = [], []
    for index, op in enumerate(ops):
        for with_trace in (False, True) if index % 2 == 0 else (True, False):
            if with_trace:
                record = run_op(op, traced_api, index, tracer)
                traced.append(record)
            else:
                record = run_op(op, api, index)
                untraced.append(record)
            record.update(op=index, repeat=0)
            if not with_trace:
                _print_record(record, op)
    return untraced, traced


def _setup_time(args) -> float:
    """Wall time from starting a fresh interpreter to the first op being
    ready: package import plus building the workload's op set."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, RUN_SCRIPT, "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe process failed")
    return elapsed


def end_to_end(args, records, setup_s) -> dict:
    """Metrics over every op execution of the run, on scaled times.

    The tail is taken over ops that finished, so that it never reads the
    deadline; ops cut at their deadline show in ``ok_frac`` and ``ok_per_s``.
    """
    times = np.array([r["time"] for r in records])
    finished = np.array([r["time"] for r in records if r["verdict"] != "deadline"])
    ok = sum(r["verdict"] == "ok" for r in records)
    pct = TAIL_PERCENTILE[args.workload]
    print(f"op_s.tail is p{pct} of {len(finished)} finished ops ({int(len(finished) * (100 - pct) / 100)} "
          f"beyond it); {len(records) - len(finished)} ops cut at their deadline")
    return {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (float(np.median(times)), "s"),
        "op_s.tail": (float(np.percentile(finished if len(finished) else times, pct)), "s"),
        "ok_per_s": (ok / float(times.sum()), "1/s"),
        "ok_frac": (ok / len(records), "ratio"),
        "work_per_s": (sum(r["work"] for r in records) / float(times.sum()), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(untraced, traced, tracer) -> dict:
    """Layer metrics from the spans of the traced run of the op set.

    Counts come from that single run, so they repeat exactly for a seed;
    a layer the workload never calls reports 0.
    """
    cols = tracer.columns()
    names = np.array(tracer.names)[cols["name"]]
    layer = np.array([name.split(".")[0] for name in names])
    in_ops = cols["op"] >= 0
    returned = np.isin(cols["op"], [r["id"] for r in traced if "cells" in r])

    def seconds(key, mask):
        return (float(cols[key][mask].sum()), "s")

    def calls(mask):
        return (float(mask.sum()), "count")

    solves = [r for r in traced if r["entry"] in ("esol_total", "esol_pspace", "bkk_total")]
    metrics = {
        "integrate.self_s": seconds("self", in_ops & (layer == "integrate")),
        "integrate.esol_total_s": seconds("duration", names == "integrate.esol_total"),
        "integrate.esol_pspace_s": seconds("duration", names == "integrate.esol_pspace"),
        "complexcase.bkk_total_s": seconds("duration", names == "complexcase.bkk_total"),
        "integrate.cells": (float(sum(r.get("cells", 0) for r in solves)), "count"),
        "integrate.x_nodes": (float(cols["size"][returned & (names == "expsum.density_many")].sum()), "count"),
        "integrate.inversion_failures": (float(sum(r.get("inversion_failures", 0) for r in solves)), "count"),
        "integrate.timeouts": (float(sum(r["verdict"] == "deadline" for r in solves)), "count"),
        "integrate.convergence_errors": (float(sum(r["verdict"] == "raised:ConvergenceError" for r in solves)), "count"),
        "expsum.density_many.self_s": seconds("self", names == "expsum.density_many"),
        "expsum.evaluate.self_s": seconds("self", names == "expsum.evaluate"),
        "geometry.interior_contains.calls": calls(names == "geometry.interior_contains"),
        "geometry.interior_contains.self_s": seconds("self", names == "geometry.interior_contains"),
        "geometry.self_s": seconds("self", in_ops & (layer == "geometry")),
        "monotonicity.psi.calls": calls(names == "monotonicity.psi"),
        "monotonicity.psi.self_s": seconds("self", names == "monotonicity.psi"),
        "monotonicity.region_scan.self_s": seconds("self", names == "monotonicity.region_scan"),
        "algebra.build_s": seconds("duration", ~in_ops & (layer == "algebra")),
    }
    for k in (2, 3, 5):
        runs = [r for r in traced if r["entry"] == "estimate_esol" and r["terms"] == k and r["verdict"] == "ok"]
        spent = sum(r["elapsed"] for r in runs)
        metrics[f"mc_oracle.draws_per_s.k{k}"] = (sum(r["work"] for r in runs) / spent if spent else 0.0, "1/s")
    both = [(u["elapsed"], t["elapsed"]) for u, t in zip(untraced, traced)
            if u["verdict"] == "ok" and t["verdict"] == "ok"]
    overhead = sum(t for _, t in both) / sum(u for u, _ in both) - 1.0 if both else 0.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def _check_metric_names(metrics: dict, trace: bool) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if declared != produced:
        raise RuntimeError(f"metrics {sorted(produced.items())} differ from BENCHMARK.json {sorted(declared.items())}")


def main(argv) -> int:
    args = _parse_args(argv)
    make_ops = workloads.OP_SETS[args.workload]
    if args.setup_probe:
        make_ops(np.random.default_rng(args.seed))
        print("ready", flush=True)
        return 0

    warnings.simplefilter("ignore")
    meta = _metadata(args)
    print("meta " + json.dumps(meta))
    problems = public_api_problems() + oracles.self_check()
    for problem in problems:
        print(f"harness check failed: {problem}")
    api = {name: getattr(sk, name) for name in ENTRY_LAYERS}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    if not args.trace:
        repeats = max(1, round(args.seconds / workloads.NOMINAL_SET_SECONDS[args.workload]))
        calibration = Calibration(workloads.CALIBRATION_PARTS[args.workload])
        records, setup_s = run_repeats(args, make_ops, np.random.default_rng(args.seed), api, repeats, calibration)
        metrics = end_to_end(args, records, setup_s)
    else:
        tracer = Tracer()
        for name in ("kostlan", "tensor"):
            tracer.patch(oracles, name, f"algebra.{name}")
        traced_api = {name: tracer.wrap(f"{ENTRY_LAYERS[name]}.{name}", fn) for name, fn in api.items()}
        try:
            ops = make_ops(np.random.default_rng(args.seed))
            untraced, records = run_paired(ops, api, traced_api, tracer)
        finally:
            tracer.restore()
        metrics = per_layer(untraced, records, tracer)
        probe_rng = np.random.default_rng(args.seed)
        metrics.update(probes.kernel_rates(probe_rng))
        metrics.update(probes.pointwise_rates(probe_rng))
        metrics.update(probes.import_times(ROOT))
        metrics.update(probes.cli_cold(ROOT, OUT_DIR))
        np.savez_compressed(stem + ".spans.npz", names=np.array(tracer.names), **tracer.columns())

    _check_metric_names(metrics, bool(args.trace))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    failed = sum(r["verdict"] != "ok" for r in records)
    correct = not problems and all(r["expected"] for r in records)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(stem + ".json", "w") as fh:
        json.dump({"meta": meta, "harness_problems": problems, "ops": records, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0
