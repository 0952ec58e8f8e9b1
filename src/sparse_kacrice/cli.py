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
selftest      closed-form smoke checks, pass/fail table

Inputs are JSON objects {"dim": m, "support": [[...], ...], "coeffs":
[...]} (coeffs optional).  Exit codes: 0 success, 2 bad input, 3
numerical non-convergence.  Data outputs carry "schema": 1 and contain
nothing time-dependent.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import algebra as algebra_mod
from . import mc_oracle
from .complexcase import ComplexExpSum, bkk_total, n_factorial_volume
from .errors import ConvergenceError, DomainError, InputError, SparseKacRiceError
from .expsum import (
    ExpSum, _batch_moments, _invert_moment_many, _simplex_sum, _softmax, density, density_many,
    evaluate, invert_moment,
)
from .geometry import _check_box, _grid, ball_sphere_constants, interior_contains
from .integrate import Quadrature, esol_pspace, esol_region, esol_total
from .monotonicity import (
    OUTSIDE,
    Augmentation,
    psi,
    ray_scan_unbounded,
    region_scan,
    witness_interior,
)

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


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(payload: dict, output: str | None) -> None:
    _emit(json.dumps(payload, indent=2), output)


def _wants_json(args) -> bool:
    """The grid format: ``--format`` when given, else JSON for a ``.json``
    output path and CSV otherwise."""
    if args.format is not None:
        return args.format == "json"
    return (args.output or "").endswith(".json")


# ---------------------------------------------------------------------------
# Handlers


def _cmd_analyze(args) -> int:
    E = _load_expsum(args.input)
    box = _parse_box(args.box, E.dim)
    if args.route != "x" and box is not None:
        raise InputError("--box applies to the x route only; the moment route covers the polytope")
    q = Quadrature(abs_tol=args.tol, rel_tol=args.tol)
    if args.route == "both":
        rx, rp = esol_total(E, q), esol_pspace(E, q)
        _emit_json(
            {
                "schema": 1,
                "route": "both",
                "x": {"value": rx.value, "error": rx.error, "cells": rx.cells},
                "p": {"value": rp.value, "error": rp.error, "cells": rp.cells},
                "abs_diff": abs(rx.value - rp.value),
            },
            args.output,
        )
        return 0
    if args.route == "p":
        result = esol_pspace(E, q)
    else:
        result = esol_total(E, q) if box is None else esol_region(E, box, q)
    _emit_json(
        {
            "schema": 1,
            "value": result.value,
            "error": result.error,
            "route": result.route,
            "cells": result.cells,
        },
        args.output,
    )
    return 0


def _cmd_density_grid(args) -> int:
    E = _load_expsum(args.input)
    m = E.dim
    box = _parse_box(args.box, m) or ((-5.0, 5.0),) * m
    _, axes, points = _grid(box, _parse_resolution(args.resolution))
    values = density_many(E, points)
    if _wants_json(args):
        payload = {
            "schema": 1,
            "box": [list(map(float, b)) for b in box],
            "axes": [axis.tolist() for axis in axes],
            "density": values.tolist(),
        }
        _emit_json(payload, args.output)
    else:
        lines = [",".join([f"x{i + 1}" for i in range(m)] + ["density"])]
        for row, value in zip(points, values):
            lines.append(",".join([repr(float(c)) for c in row] + [repr(float(value))]))
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_psi_grid(args) -> int:
    E = _load_expsum(args.input)
    aug = Augmentation(_parse_floats(args.a0), args.alpha0)
    box, resolution = _parse_box(args.box, E.dim), _parse_resolution(args.resolution)
    scan = region_scan(E, aug, box=box, resolution=resolution, space=args.space)
    if _wants_json(args):
        _emit(scan.to_json(), args.output)
    else:
        _emit(scan.to_csv(), args.output)
    return 0


def _cmd_witness(args) -> int:
    E = _load_expsum(args.input)
    aug = Augmentation(_parse_floats(args.a0), args.alpha0)
    x0 = witness_interior(E, aug)
    result = psi(E, aug, x0)
    _emit_json(
        {
            "schema": 1,
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
    ts = np.linspace(args.t_max / args.steps, args.t_max, args.steps)
    lines = ["t,psi,class"]
    for t, e in zip(ts, evals):
        lines.append(f"{float(t)!r},{e.psi!r},{e.classification}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_mc(args) -> int:
    E = _load_expsum(args.input)
    cfg = mc_oracle.McConfig(n_samples=args.samples, seed=args.seed)
    mean, stderr = mc_oracle.estimate_esol(E, cfg)
    _emit_json(
        {"schema": 1, "mean": mean, "stderr": stderr, "samples": args.samples},
        args.output,
    )
    return 0


def _cmd_algebra(args) -> int:
    if args.op == "kostlan":
        if args.dim is None or args.degree is None:
            raise InputError("kostlan needs --dim and --degree")
        result = algebra_mod.kostlan(args.dim, args.degree)
    elif args.op == "power":
        if args.input is None or args.degree is None:
            raise InputError("power needs --input and --degree")
        result = algebra_mod.aronszajn_power(_load_expsum(args.input), args.degree)
    else:
        if args.input is None or args.input2 is None:
            raise InputError(f"{args.op} needs --input and --input2")
        E_a = _load_expsum(args.input)
        E_b = _load_expsum(args.input2)
        if args.op == "tensor":
            result = algebra_mod.tensor(E_a, E_b)
        else:
            result = algebra_mod.aronszajn(E_a, E_b)
    payload = {"schema": 1}
    payload.update(result.to_dict())
    _emit_json(payload, args.output)
    return 0


def _cmd_bkk(args) -> int:
    E = _load_expsum(args.input, cls=ComplexExpSum)
    result = bkk_total(E, Quadrature(abs_tol=args.tol, rel_tol=args.tol))
    reference = n_factorial_volume(E)
    _emit_json(
        {
            "schema": 1,
            "density_route_total": result.value,
            "n_factorial_vol": reference,
            "abs_diff": abs(result.value - reference),
        },
        args.output,
    )
    return 0


def _selftest_checks():
    two_term = ExpSum([[0.0], [1.0]])
    pentagon = ExpSum([[0.0, 0.0], [2.0, 0.0], [3.0, 1.0], [1.0, 3.0], [-1.0, 1.0]])

    def esol_two_term():
        return abs(esol_total(two_term).value - 0.5) < 1e-6

    def esol_degree_four():
        return abs(esol_total(algebra_mod.kostlan(1, 4)).value - 1.0) < 1e-4

    def rotated_square():
        E = ExpSum([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        return abs(esol_total(E).value - math.pi / 8.0) < 1e-6

    def square_at_0_7_rad():
        c, s = math.cos(0.7), math.sin(0.7)
        E = ExpSum([[0.0, 0.0], [c, s], [-s, c], [c - s, s + c]])
        return abs(esol_total(E, Quadrature(1e-10, 1e-10)).value - math.pi / 8.0) < 1e-10

    def kostlan_three_variables():
        tol = 1e-6
        r = esol_total(algebra_mod.kostlan(3, 1), Quadrature(abs_tol=tol, rel_tol=tol))
        return abs(r.value - math.pi / 8.0) < tol

    def moment_triangle():
        E = ExpSum([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        return abs(esol_pspace(E).value - 0.25) < 1e-6

    def density_closed_form():
        want = 1.0 / (2.0 * math.pi * math.cosh(1.0))
        return abs(density(two_term, [1.0]) - want) < 1e-12

    def inversion_round_trip():
        x = invert_moment(two_term, [0.73])
        return abs(float(evaluate(two_term, x).mu[0]) - 0.73) < 1e-8

    def batched_inversion_on_pentagon():
        E = pentagon
        nodes = _grid(((-1.0, 3.0), (0.0, 3.0)), 8)[2]
        nodes = nodes[[interior_contains(E.support, p, 1e-6) for p in nodes]]
        X, ok = _invert_moment_many(E, nodes)
        return len(nodes) > 20 and ok.all() and all(
            np.allclose(x, invert_moment(E, p), rtol=1e-12, atol=1e-12) for x, p in zip(X, nodes))

    def kernel_rows_match_batch():
        # 64 rows take other BLAS blockings than one row does, so a layout
        # fault in the batched kernel on this BLAS shows as a mismatch.
        rng = np.random.default_rng(3)
        for E in (pentagon, algebra_mod.kostlan(3, 1)):
            X = rng.uniform(-1.0, 1.0, size=(64, E.dim))
            batch = _batch_moments(E, X)
            values = density_many(E, X)
            formed = 2.0 / ball_sphere_constants(E.dim)[1] * np.sqrt(np.linalg.det(batch[3]))
            bundles = [evaluate(E, x) for x in X]
            rows = [np.array(r) for r in zip(*((b.phi, b.weights, b.mu, b.g.entries) for b in bundles))]
            if not (np.allclose(values, formed, rtol=1e-12, atol=0.0)
                    and np.allclose(values, [b.density for b in bundles], rtol=1e-13, atol=0.0)
                    and all(np.allclose(got, want, rtol=1e-13, atol=1e-13)
                            for got, want in zip(batch, rows))):
                return False
        return True

    def simplex_sum_matches_subsets():
        # The sorted-tuple block contracted by one GEMM against a sum over the
        # 35 subsets of four points, so a blocking fault of this BLAS shows.
        rng = np.random.default_rng(9)
        E = ExpSum(rng.normal(size=(7, 3)), rng.uniform(0.5, 2.0, size=7))
        _, W, _ = _softmax(E, rng.uniform(-2.0, 2.0, size=(64, 3)).T)
        subsets = np.array(list(itertools.combinations(range(7), 4)))
        corners = E.support.points[subsets]
        D = np.linalg.det(np.concatenate([np.ones(corners.shape[:2] + (1,)), corners], axis=2))
        want = (D * D) @ np.prod(W[subsets], axis=1)
        return np.allclose(_simplex_sum(W, E.support._simplex_form, 3), want, rtol=1e-13, atol=0.0)

    def witness_in_square():
        E = algebra_mod.kostlan(2, 1)
        aug = Augmentation(np.array([0.5, 0.5]))
        x0 = witness_interior(E, aug)
        return psi(E, aug, x0).psi < 1.0

    def psi_scan_matches_scalar():
        E, aug = algebra_mod.kostlan(2, 1), Augmentation(np.array([0.3, 0.6]))
        scan = region_scan(E, aug, resolution=8, space="p")
        inside = scan.classes != OUTSIDE
        nodes = _grid(scan.box, scan.resolution)[2][inside.ravel()]
        want = [psi(E, aug, invert_moment(E, p)) for p in nodes]
        return inside.sum() == 36 and all(
            label == w.classification and abs(value - w.psi) <= 1e-9 * w.psi
            for value, label, w in zip(scan.psi[inside], scan.classes[inside], want))

    def metric_additivity():
        E_a = ExpSum([[0.0], [1.0]])
        E_b = ExpSum([[0.0], [0.5], [1.7]], [1.0, 2.0, 1.0])
        g_sum = evaluate(algebra_mod.aronszajn(E_a, E_b), [0.4]).g.entries
        g_parts = evaluate(E_a, [0.4]).g.entries + evaluate(E_b, [0.4]).g.entries
        return float(np.abs(g_sum - g_parts).max()) < 1e-12

    def binomial_coefficients():
        built = algebra_mod.kostlan(1, 2)
        return np.allclose(built.coeffs, [1.0, math.sqrt(2.0), 1.0], atol=1e-12)

    def bkk_segment():
        E = ComplexExpSum([[0.0], [1.0], [2.0]])
        return abs(bkk_total(E).value - 2.0) < 1e-3

    def mc_two_term():
        cfg = mc_oracle.McConfig(n_samples=4000, seed=7)
        mean, stderr = mc_oracle.estimate_esol(two_term, cfg)
        return abs(mean - 0.5) < 4.0 * stderr

    def mc_rolle_cascade():
        # five terms: most draws change sign twice or more, so the Rolle
        # cascade, not Descartes' rule, counts them
        cfg = mc_oracle.McConfig(n_samples=4000, seed=7)
        mean, stderr = mc_oracle.estimate_esol(algebra_mod.kostlan(1, 4), cfg)
        return abs(mean - 1.0) < 4.0 * stderr

    return [
        ("two-term expected zero count is 1/2", esol_two_term),
        ("degree-4 one-variable count is sqrt(4)/2", esol_degree_four),
        ("rotated unit square is pi/8 on the x route", rotated_square),
        ("rotated square (0.7 rad) is pi/8 at 1e-10 on the x route", square_at_0_7_rad),
        ("kostlan(3,1) is pi/8 at 1e-6 on the x route", kostlan_three_variables),
        ("moment route on the triangle is 1/4", moment_triangle),
        ("two-term density closed form at x=1", density_closed_form),
        ("moment-map inversion round trip", inversion_round_trip),
        ("batched inversion equals scalar invert_moment on the pentagon's 8^2 p-grid",
         batched_inversion_on_pentagon),
        ("kernel_rows_match_batch: 64-row pentagon and kostlan(3,1) batches equal one-row"
         " calls and the formed-metric determinant", kernel_rows_match_batch),
        ("simplex_sum_matches_subsets: the sorted-tuple contraction equals a direct sum over"
         " the 4-subsets of a seeded 7-point support in R^3", simplex_sum_matches_subsets),
        ("interior witness decreases density", witness_in_square),
        ("batched Psi scan equals scalar psi on an 8^2 p-grid of the unit square",
         psi_scan_matches_scalar),
        ("metric additivity of shared-variable product", metric_additivity),
        ("binomial coefficient system at degree 2", binomial_coefficients),
        ("complex density total equals the root count", bkk_segment),
        ("Monte-Carlo agrees with quadrature", mc_two_term),
        ("Monte-Carlo Rolle cascade: kostlan(1,4) count is sqrt(4)/2", mc_rolle_cascade),
    ]


def _cmd_selftest(args) -> int:
    checks, failures = _selftest_checks(), 0
    for label, check in checks:
        try:
            ok = bool(check())
        except Exception as exc:  # honest report, keep going
            ok = False
            label = f"{label} ({type(exc).__name__}: {exc})"
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures} passed, {failures} failed")
    return 0 if failures == 0 else 3


# ---------------------------------------------------------------------------
# Parser


_FORMAT_HELP = "default: json when --output ends in .json, else csv"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-kacrice",
        description="Expected real zeros of Gaussian exponential sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="expected zero count")
    p.add_argument("--input", required=True, help="exponential-sum JSON file")
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--box", default="auto", help="auto or lo,hi per axis")
    p.add_argument("--route", choices=("x", "p", "both"), default="x")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("density-grid", help="zero density on a grid")
    p.add_argument("--input", required=True)
    p.add_argument("--box", default="auto")
    p.add_argument("--resolution", default="64")
    p.add_argument("--format", choices=("csv", "json"), help=_FORMAT_HELP)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_density_grid)

    p = sub.add_parser("psi-grid", help="added-exponent classification grid")
    p.add_argument("--input", required=True)
    p.add_argument("--a0", required=True, help="comma-separated exponent")
    p.add_argument("--alpha0", type=float, default=1.0)
    p.add_argument("--space", choices=("p", "x"), default="p")
    p.add_argument("--box", default="auto")
    p.add_argument("--resolution", default="64")
    p.add_argument("--format", choices=("csv", "json"), help=_FORMAT_HELP)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_psi_grid)

    p = sub.add_parser("witness", help="interior decrease-region witness")
    p.add_argument("--input", required=True)
    p.add_argument("--a0", required=True)
    p.add_argument("--alpha0", type=float, default=1.0)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("ray", help="density ratio along a ray")
    p.add_argument("--input", required=True)
    p.add_argument("--a0", required=True)
    p.add_argument("--alpha0", type=float, default=1.0)
    p.add_argument("--direction", required=True)
    p.add_argument("--t-max", type=float, default=40.0)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_ray)

    p = sub.add_parser("mc", help="Monte-Carlo zero count (one variable)")
    p.add_argument("--input", required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_mc)

    p = sub.add_parser("algebra", help="products and power builders")
    p.add_argument("--op", choices=("tensor", "aronszajn", "power", "kostlan"), required=True)
    p.add_argument("--input")
    p.add_argument("--input2")
    p.add_argument("--dim", type=int)
    p.add_argument("--degree", type=int)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_algebra)

    p = sub.add_parser("bkk", help="complex density total vs. volume count")
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_bkk)

    p = sub.add_parser("selftest", help="closed-form smoke checks")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
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
