"""Command-line interface.

Subcommands
-----------
analyze       expected zero count of a sum (x-space, moment-space, or both)
density-grid  zero density sampled on a rectangular grid (CSV/JSON)
psi-grid      decrease/increase classification of an added exponent on a grid
witness       interior point certifying the decrease region is nonempty
ray           density ratio along a ray (CSV)
mc            Monte-Carlo estimate of the zero count (one variable)
algebra       tensor/shared-variable products and power builders
bkk           complex-coefficient density total vs. n! times polytope volume
selftest      closed-form checks of an installation, pass/fail table

``analyze``'s moment route (``--route p`` or ``both``) takes m <= 3 and a
simple Newton polytope; under ``both`` it runs first, so an input it
refuses exits 2 before the x route integrates anything.

``selftest`` uses the package's public names only.  It checks the
closed-form counts (two terms 1/2, kostlan(1,4) 1, the unit square pi/8
turned two ways over the Newton polytope, kostlan(3,1) pi/8 at 1e-6 and
kostlan(3,2) pi 2^(3/2)/8 at 1e-7 over it, the triangle 1/4 and
kostlan(3,1) pi/8 at 1e-6 on the moment route, the complex segment's
root count 2), the weighted pentagon's complex total 14 on the x route
(a two-variable sum with no facet-log start), two Monte-Carlo counts,
and that the batched density kernel on this machine's BLAS equals
one-row calls and a direct Cauchy-Binet sum.  Each check is a row that one
rule reads: an integral within a bound of its closed form, a Monte-Carlo
count within four standard errors of it, or one of the two kernel checks.
A row builds its sum inside its check, so a sum that fails to build fails
that row alone and the other rows still run.  Checks of the private
kernels live in the test suite.

Inputs are JSON objects {"dim": m, "support": [[...], ...], "coeffs":
[...]} (coeffs optional).  Exit codes: 0 success, 2 bad input, 3
numerical non-convergence.  An ``--input`` that cannot be read and an
``--output`` that cannot be written are bad input, exit 2; an ``--output``
whose directory is missing or not writable is refused before any
computation, and nothing is opened until the output is written.  Every JSON
data output carries "schema": 1; CSV numbers are written by ``repr``, so
they read back as the same doubles.  No output holds anything
time-dependent.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from . import (
    Augmentation, ComplexExpSum, ConvergenceError, DomainError, ExpSum, InputError, McConfig,
    Quadrature, SparseKacRiceError, aronszajn, aronszajn_power, ball_sphere_constants, bkk_total,
    density, density_many, esol_pspace, esol_region, esol_total, estimate_esol, evaluate, kostlan,
    n_factorial_volume, psi, ray_scan_unbounded, region_scan, tensor, witness_interior,
)
from .geometry import _check_box, _csv_text, _grid
from .monotonicity import _ray_ts

__all__ = ["main", "console_main"]


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise InputError(f"could not parse {text!r} as comma-separated reals") from exc


def _parse_box(text: str, m: int):
    if text == "auto":
        return None
    values = _parse_floats(text)
    if values.size != 2 * m:
        raise InputError(f"--box needs {2 * m} comma-separated reals (lo,hi per axis)")
    return _check_box(values.reshape(m, 2), m)


def _parse_resolution(text: str):
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise InputError(f"could not parse {text!r} as comma-separated integers") from exc
    return parts[0] if len(parts) == 1 else parts


def _load_expsum(path: str, cls=ExpSum):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return cls.from_json(text)


def _check_output(output: str | None) -> None:
    """InputError unless ``--output``'s directory exists and is writable,
    checked before the handler computes; the file itself is not opened."""
    folder = os.path.dirname(os.path.abspath(output)) if output else None
    if folder and not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise InputError(f"cannot write {output}: {folder} is not a writable directory")


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {output}: {exc}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(payload: dict, output: str | None) -> None:
    _emit(json.dumps({"schema": 1, **payload}, indent=2), output)


def _wants_json(args) -> bool:
    """The grid format: ``--format`` when given, else JSON for a ``.json``
    output path and CSV otherwise."""
    if args.format is not None:
        return args.format == "json"
    return (args.output or "").endswith(".json")


def _counters(r) -> dict:
    """An integral's value, claimed error and work counters, as each
    ``analyze`` payload reports them."""
    return {"value": r.value, "error": r.error, "cells": r.cells, "nodes": r.nodes}


# ---------------------------------------------------------------------------
# Handlers


def _cmd_analyze(args) -> int:
    E = _load_expsum(args.input)
    box = _parse_box(args.box, E.dim)
    if args.route != "x" and box is not None:
        raise InputError("--box applies to the x route only; the moment route covers the polytope")
    q = Quadrature(abs_tol=args.tol, rel_tol=args.tol)
    if args.route == "both":
        # The moment route first: it refuses its inputs before the x route integrates.
        rp, rx = esol_pspace(E, q), esol_total(E, q)
        _emit_json(
            {
                "route": "both",
                "x": _counters(rx),
                "p": _counters(rp),
                "abs_diff": abs(rx.value - rp.value),
            },
            args.output,
        )
        return 0
    if args.route == "p":
        result = esol_pspace(E, q)
    else:
        result = esol_total(E, q) if box is None else esol_region(E, box, q)
    _emit_json({**_counters(result), "route": result.route}, args.output)
    return 0


def _cmd_density_grid(args) -> int:
    E = _load_expsum(args.input)
    m = E.dim
    box = _parse_box(args.box, m) or ((-5.0, 5.0),) * m
    _, axes, points = _grid(box, _parse_resolution(args.resolution))
    values = density_many(E, points)
    if _wants_json(args):
        payload = {
            "box": [list(map(float, b)) for b in box],
            "axes": [axis.tolist() for axis in axes],
            "density": values.tolist(),
        }
        _emit_json(payload, args.output)
    else:
        header = [f"x{i + 1}" for i in range(m)] + ["density"]
        _emit(_csv_text(header, ((*row, value) for row, value in zip(points, values))), args.output)
    return 0


def _cmd_psi_grid(args) -> int:
    E = _load_expsum(args.input)
    aug = Augmentation(_parse_floats(args.a0), args.alpha0)
    box, resolution = _parse_box(args.box, E.dim), _parse_resolution(args.resolution)
    scan = region_scan(E, aug, box=box, resolution=resolution, space=args.space)
    _emit(scan.to_json() if _wants_json(args) else scan.to_csv(), args.output)
    return 0


def _cmd_witness(args) -> int:
    E = _load_expsum(args.input)
    aug = Augmentation(_parse_floats(args.a0), args.alpha0)
    x0 = witness_interior(E, aug)
    result = psi(E, aug, x0)
    _emit_json(
        {
            "x0": x0.tolist(),
            "psi": result.psi,
            "classification": result.classification,
        },
        args.output,
    )
    return 0


def _cmd_ray(args) -> int:
    E = _load_expsum(args.input)
    aug = Augmentation(_parse_floats(args.a0), args.alpha0)
    direction = _parse_floats(args.direction)
    evals = ray_scan_unbounded(E, aug, direction, args.t_max, args.steps)
    rows = ((t, e.psi, e.classification) for t, e in zip(_ray_ts(args.t_max, args.steps), evals))
    _emit(_csv_text(["t", "psi", "class"], rows), args.output)
    return 0


def _cmd_mc(args) -> int:
    E = _load_expsum(args.input)
    cfg = McConfig(n_samples=args.samples, seed=args.seed)
    mean, stderr = estimate_esol(E, cfg)
    _emit_json(
        {"mean": mean, "stderr": stderr, "samples": args.samples},
        args.output,
    )
    return 0


# Each algebra op: the arguments it needs, in the order its builder takes
# them (an --input names a sum file to load), and the builder.
_ALGEBRA_OPS = {
    "tensor": (("input", "input2"), tensor),
    "aronszajn": (("input", "input2"), aronszajn),
    "power": (("input", "degree"), aronszajn_power),
    "kostlan": (("dim", "degree"), kostlan),
}


def _cmd_algebra(args) -> int:
    names, build = _ALGEBRA_OPS[args.op]
    values = [getattr(args, name) for name in names]
    if None in values:
        raise InputError(f"{args.op} needs " + " and ".join(f"--{name}" for name in names))
    values = [_load_expsum(v) if n.startswith("input") else v for n, v in zip(names, values)]
    _emit_json(build(*values).to_dict(), args.output)
    return 0


def _cmd_bkk(args) -> int:
    E = _load_expsum(args.input, cls=ComplexExpSum)
    result = bkk_total(E, Quadrature(abs_tol=args.tol, rel_tol=args.tol))
    reference = n_factorial_volume(E)
    _emit_json(
        {
            "density_route_total": result.value,
            "n_factorial_vol": reference,
            "abs_diff": abs(result.value - reference),
            "cells": result.cells,
            "nodes": result.nodes,
        },
        args.output,
    )
    return 0


def _integral_near(integral, build, ref, bound, tol=None) -> bool:
    """|integral(build(), q) - ref| < bound, with q Quadrature(tol, tol), or
    none (the default Quadrature) when no tol is given."""
    q = None if tol is None else Quadrature(abs_tol=tol, rel_tol=tol)
    return abs(integral(build(), q).value - ref) < bound


def _mc_near(build, ref) -> bool:
    """A 4000-draw Monte-Carlo count of build() within 4 standard errors of ref."""
    mean, stderr = estimate_esol(build(), McConfig(n_samples=4000, seed=7))
    return abs(mean - ref) < 4.0 * stderr


def _selftest_checks():
    """The selftest's rows: a label, a rule, and the rule's arguments.  Each
    sum is built inside its check, so one that fails to build fails only
    its own row."""
    pi_8, c, s = math.pi / 8.0, math.cos(0.7), math.sin(0.7)
    pentagon = [[0.0, 0.0], [2.0, 0.0], [3.0, 1.0], [1.0, 3.0], [-1.0, 1.0]]

    def two_term():
        return ExpSum([[0.0], [1.0]])

    def kernel_rows_match_batch():
        # 64 rows take other BLAS blockings than one row does, so a layout
        # fault in the batched kernel on this BLAS shows as a mismatch.
        rng = np.random.default_rng(3)
        for E in (ExpSum(pentagon), kostlan(3, 1)):
            X = rng.uniform(-1.0, 1.0, size=(64, E.dim))
            rows = [density(E, x) for x in X]
            if not np.allclose(density_many(E, X), rows, rtol=1e-13, atol=0.0):
                return False
        return True

    def simplex_sum_matches_subsets():
        # det g = sum over the 35 four-point subsets S of det[1 a_S]^2 prod_S
        # lambda, against the batched kernel's blocked contraction of it.
        rng = np.random.default_rng(9)
        E = ExpSum(rng.normal(size=(7, 3)), rng.uniform(0.5, 2.0, size=7))
        X = rng.uniform(-2.0, 2.0, size=(64, 3))
        W = np.array([evaluate(E, x).weights for x in X])
        subsets = np.array(list(itertools.combinations(range(7), 4)))
        corners = E.support.points[subsets]
        D = np.linalg.det(np.concatenate([np.ones(corners.shape[:2] + (1,)), corners], axis=2))
        want = 2.0 / ball_sphere_constants(3)[1] * np.sqrt(np.prod(W[:, subsets], axis=2) @ (D * D))
        return np.allclose(density_many(E, X), want, rtol=1e-13, atol=0.0)

    return [
        ("two-term expected zero count is 1/2", _integral_near, esol_total, two_term, 0.5, 1e-6),
        ("degree-4 one-variable count is sqrt(4)/2", _integral_near, esol_total,
         lambda: kostlan(1, 4), 1.0, 1e-4),
        ("rotated unit square is pi/8 over the Newton polytope", _integral_near, esol_total,
         lambda: ExpSum([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), pi_8, 1e-6),
        ("rotated square (0.7 rad) is pi/8 at 1e-10 over the Newton polytope", _integral_near, esol_total,
         lambda: ExpSum([[0.0, 0.0], [c, s], [-s, c], [c - s, s + c]]), pi_8, 1e-10, 1e-10),
        ("kostlan(3,1) is pi/8 at 1e-6 over the Newton polytope", _integral_near, esol_total,
         lambda: kostlan(3, 1), pi_8, 1e-6, 1e-6),
        ("kostlan(3,2) is pi 2^(3/2)/8 at 1e-7 over the Newton polytope", _integral_near, esol_total,
         lambda: kostlan(3, 2), math.pi * 2.0**1.5 / 8.0, 1e-7, 1e-7),
        ("moment route on the triangle is 1/4", _integral_near, esol_pspace,
         lambda: ExpSum([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 0.25, 1e-6),
        ("kostlan(3,1) is pi/8 on the moment route", _integral_near, esol_pspace,
         lambda: kostlan(3, 1), pi_8, 1e-6, 1e-6),
        ("kernel_rows_match_batch: 64-row pentagon and kostlan(3,1) batches equal one-row"
         " density calls", kernel_rows_match_batch),
        ("simplex_sum_matches_subsets: the batched density equals a direct sum over the"
         " 4-subsets of a seeded 7-point support in R^3", simplex_sum_matches_subsets),
        ("complex density total equals the root count", _integral_near, bkk_total,
         lambda: ComplexExpSum([[0.0], [1.0], [2.0]]), 2.0, 1e-3),
        # No facet-log start, so this two-variable integral runs on the x route.
        ("weighted pentagon's complex density total is 2 x its area 7 on the x route", _integral_near,
         bkk_total, lambda: ComplexExpSum(pentagon, [1.0, 0.5, 2.0, 1.5, 0.75]), 14.0, 1e-5),
        ("Monte-Carlo two-term count is 1/2", _mc_near, two_term, 0.5),
        # five terms: most draws change sign twice or more, so the Rolle
        # cascade, not Descartes' rule, counts them
        ("Monte-Carlo Rolle cascade: kostlan(1,4) count is sqrt(4)/2", _mc_near, lambda: kostlan(1, 4), 1.0),
    ]


def _cmd_selftest(args) -> int:
    checks, failures = _selftest_checks(), 0
    for label, rule, *arguments in checks:
        try:
            ok = bool(rule(*arguments))
        except Exception as exc:  # honest report, keep going
            ok = False
            label = f"{label} ({type(exc).__name__}: {exc})"
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures} passed, {failures} failed")
    return 0 if failures == 0 else 3


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-kacrice",
        description="Expected real zeros of Gaussian exponential sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The flag groups that several subcommands share, each declared once.
    io, aug, grid = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    io.add_argument("--input", required=True, help="exponential-sum JSON file")
    io.add_argument("--output")
    aug.add_argument("--a0", required=True, help="comma-separated exponent")
    aug.add_argument("--alpha0", type=float, default=1.0)
    grid.add_argument("--box", default="auto", help="auto or lo,hi per axis")
    grid.add_argument("--resolution", default="64")
    grid.add_argument("--format", choices=("csv", "json"),
                      help="default: json when --output ends in .json, else csv")

    def command(name, handler, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=parents)
        p.set_defaults(handler=handler)
        return p

    p = command("analyze", _cmd_analyze, "expected zero count", io)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--box", default="auto", help="auto or lo,hi per axis")
    p.add_argument("--route", choices=("x", "p", "both"), default="x")

    command("density-grid", _cmd_density_grid, "zero density on a grid", io, grid)

    p = command("psi-grid", _cmd_psi_grid, "added-exponent classification grid", io, aug, grid)
    p.add_argument("--space", choices=("p", "x"), default="p")

    command("witness", _cmd_witness, "interior decrease-region witness", io, aug)

    p = command("ray", _cmd_ray, "density ratio along a ray", io, aug)
    p.add_argument("--direction", required=True)
    p.add_argument("--t-max", type=float, default=40.0)
    p.add_argument("--steps", type=int, default=64)

    p = command("mc", _cmd_mc, "Monte-Carlo zero count (one variable)", io)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = command("algebra", _cmd_algebra, "products and power builders")
    p.add_argument("--op", choices=tuple(_ALGEBRA_OPS), required=True)
    p.add_argument("--input")
    p.add_argument("--input2")
    p.add_argument("--dim", type=int)
    p.add_argument("--degree", type=int)
    p.add_argument("--output")

    p = command("bkk", _cmd_bkk, "complex density total vs. volume count", io)
    p.add_argument("--tol", type=float, default=1e-5)

    command("selftest", _cmd_selftest, "closed-form smoke checks")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output(getattr(args, "output", None))
        return args.handler(args)
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        detail = "" if exc.value is None else f" (partial value {exc.value!r})"
        print(f"error: {exc}{detail}", file=sys.stderr)
        return 3
    except SparseKacRiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())
