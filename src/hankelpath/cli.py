"""Command-line front end: generate test systems, run single solves, compute
certified regularization paths, and export plot-ready CSV/JSON data.

Exit codes are a stable contract: 0 success, 1 usage error, 2 I/O error,
3 numerical failure.  All numeric file output uses 17 significant digits, so
repeated runs with identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._textio import fmt17
from .hankel import (
    ImpulseResponse,
    read_impulse_csv,
    read_impulse_json,
    write_impulse_csv,
)
from .path import PathAborted, compute_path, compute_t_max, hankel_singular_values
from .solver import SolverOptions, solve_constrained
from .systems import impulse_response, random_system, write_system_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are code 1
        raise UsageError(message)


_DEFAULTS = {
    "k_max": 31,
    "epsilon": 0.01,
    "grid_points": 20,
    "rank_tol": 1e-6,
    "rho": 1.0,
    "max_iters": 5000,
    "tol": None,
    "format": "both",
    "jobs": 1,
    "order": 6,
    "seed": 0,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="hankelpath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", default=".", help="output directory")

    gen = sub.add_parser("gen", help="generate a random stable system")
    gen.add_argument("--order", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--k-max", dest="k_max", type=int)
    add_common(gen)

    def add_solver_flags(p):
        p.add_argument("--rank-tol", dest="rank_tol", type=float)
        p.add_argument("--rho", type=float)
        p.add_argument("--max-iters", dest="max_iters", type=int)
        p.add_argument("--tol", type=float, help="primal and dual tolerance")

    solve = sub.add_parser("solve", help="solve the constrained fit at one t")
    solve.add_argument("--input", required=True, help="impulse response (.csv or .json)")
    solve.add_argument("--t", type=float, required=True)
    add_solver_flags(solve)
    add_common(solve)

    path = sub.add_parser("path", help="compute the certified regularization path")
    path.add_argument("--input", required=True, help="impulse response (.csv or .json)")
    path.add_argument("--epsilon", type=float)
    path.add_argument("--grid-points", dest="grid_points", type=int)
    add_solver_flags(path)
    path.add_argument("--format", choices=["json", "csv", "both"])
    path.add_argument("--verify", action="store_true", default=None,
                      help="re-solve at 5 sampled t values and check the certified interval")
    path.add_argument("--jobs", type=int, help="parallel workers for --verify re-solves")
    add_common(path)
    return parser


def _merge_config(args) -> dict:
    """flags > config file > defaults."""
    merged = dict(_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise UsageError(f"config file is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in doc.items():
            merged[key.replace("-", "_")] = value
    for key, value in vars(args).items():
        if value is not None and key not in ("config", "command", "func"):
            merged[key] = value
    return merged


def _solver_opts(cfg) -> SolverOptions:
    try:
        return SolverOptions(
            rho=float(cfg["rho"]),
            max_iters=int(cfg["max_iters"]),
            primal_tol=None if cfg["tol"] is None else float(cfg["tol"]),
            dual_tol=None if cfg["tol"] is None else float(cfg["tol"]),
            rank_tol=float(cfg["rank_tol"]),
        )
    except ValueError as exc:
        raise UsageError(str(exc))


def _read_impulse(path) -> ImpulseResponse:
    if str(path).endswith(".json"):
        return read_impulse_json(path)
    return read_impulse_csv(path)


def _ensure_outdir(cfg) -> str:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    return out


def cmd_gen(args) -> int:
    cfg = _merge_config(args)
    order, seed, k_max = int(cfg["order"]), int(cfg["seed"]), int(cfg["k_max"])
    if order < 1:
        raise UsageError("--order must be >= 1")
    if k_max < 1:
        raise UsageError("--k-max must be >= 1")
    if k_max % 2 == 0:
        k_max += 1
        print(f"warning: k_max must be odd; padded to {k_max}", file=sys.stderr)
    out = _ensure_outdir(cfg)
    spec = random_system(order, seed)
    g = impulse_response(spec, k_max)
    spec_path = os.path.join(out, "system.json")
    imp_path = os.path.join(out, "impulse.csv")
    write_system_json(spec, spec_path)
    write_impulse_csv(g, imp_path)
    sig = hankel_singular_values(g)
    print("hankel_singular_values: " + " ".join(fmt17(v) for v in sig))
    print("t_max: " + fmt17(compute_t_max(g)))
    print(f"wrote {spec_path}")
    print(f"wrote {imp_path}")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _merge_config(args)
    t = float(cfg["t"])
    if t <= 0:
        raise UsageError("--t must be positive")
    g_o = _read_impulse(cfg["input"])
    out = _ensure_outdir(cfg)
    result = solve_constrained(g_o, t, _solver_opts(cfg))
    g_fit = t * result.g_tilde.values
    fit_path = os.path.join(out, "g_fit.csv")
    write_impulse_csv(ImpulseResponse(g_fit), fit_path)
    print("objective: " + fmt17(result.objective))
    print("nuclear_norm: " + fmt17(result.nuclear_norm_value))
    print(f"iterations: {result.iterations}")
    print(f"wrote {fit_path}")
    if not result.converged:
        print(
            "solver did not converge: primal_residual=%s dual_residual=%s"
            % (fmt17(result.primal_residual), fmt17(result.dual_residual)),
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    return EXIT_OK


def _write_path_outputs(result, out: str, fmt: str) -> list[str]:
    written = []
    if fmt in ("json", "both"):
        p = os.path.join(out, "path.json")
        result.write_json(p)
        written.append(p)
    if fmt in ("csv", "both"):
        p = os.path.join(out, "samples.csv")
        result.write_samples_csv(p)
        written.append(p)
        p = os.path.join(out, "singular_values.csv")
        result.write_singular_values_csv(p)
        written.append(p)
    return written


def _verify_path(result, g_o, opts, jobs: int) -> list[str]:
    """Re-solve at 5 deterministically sampled t values; report violations."""
    from .systems import SplitMix64

    norm_go = g_o.norm()
    slack = 1e-6 * (1 + norm_go**2)
    stream = SplitMix64(0xC0FFEE)
    candidates = [s for s in result.samples if s.t > 0]
    picks = [candidates[int(stream.uniform() * len(candidates))] for _ in range(5)]

    def solve_at(sample):
        return solve_constrained(g_o, sample.t, opts).objective

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            observed = list(pool.map(solve_at, picks))
    else:
        observed = [solve_at(s) for s in picks]

    failures = []
    for sample, fresh in zip(picks, observed):
        lower = sample.f_approx - sample.gap - slack
        upper = sample.f_approx + slack
        if not (lower <= fresh <= upper):
            failures.append(
                "verify failed at t=%s: fresh objective %s outside [%s, %s]"
                % (fmt17(sample.t), fmt17(fresh), fmt17(lower), fmt17(upper))
            )
    return failures


def cmd_path(args) -> int:
    cfg = _merge_config(args)
    eps = float(cfg["epsilon"])
    grid = int(cfg["grid_points"])
    fmt = cfg["format"]
    jobs = int(cfg["jobs"])
    if eps <= 0:
        raise UsageError("--epsilon must be positive")
    if grid < 2:
        raise UsageError("--grid-points must be >= 2")
    if jobs < 1:
        raise UsageError("--jobs must be >= 1")
    if fmt not in ("json", "csv", "both"):
        raise UsageError("--format must be json, csv or both")
    g_o = _read_impulse(cfg["input"])
    out = _ensure_outdir(cfg)
    opts = _solver_opts(cfg)

    start = time.perf_counter()
    try:
        result = compute_path(g_o, eps, grid_points_per_segment=grid, solver_opts=opts)
    except PathAborted as exc:
        written = _write_path_outputs(exc.partial, out, fmt)
        print(f"path aborted: {exc}", file=sys.stderr)
        for p in written:
            print(f"wrote {p} (partial)")
        return EXIT_NUMERICAL
    wall = time.perf_counter() - start

    written = _write_path_outputs(result, out, fmt)
    print(f"m: {result.m}")
    print("breakpoints: " + " ".join(fmt17(b) for b in result.breakpoints))
    print("wall_time_s: %.3f" % wall)
    for p in written:
        print(f"wrote {p}")

    if cfg.get("verify"):
        failures = _verify_path(result, g_o, opts, jobs)
        if failures:
            for line in failures:
                print(line, file=sys.stderr)
            return EXIT_NUMERICAL
        print("verify: ok (5 fresh solves inside certified intervals)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_path(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
