"""Command-line front end: generate test systems, run single solves, compute
certified regularization paths, and export plot-ready CSV/JSON data.

Exit codes are a stable contract: 0 success, 1 usage error, 2 I/O error,
3 numerical failure.  All numeric file output uses 17 significant digits, so
repeated runs with identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from ._textio import fmt17
from .hankel import (
    ImpulseResponse,
    compute_t_max,
    hankel_singular_values,
    read_impulse_csv,
    read_impulse_json,
    write_impulse_csv,
)
from .path import PathAborted, compute_path
from .solver import SolverOptions, solve_constrained
from .systems import SplitMix64, impulse_response, random_system, write_system_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are code 1
        raise UsageError(message)


def _checked(convert, ok, rule: str):
    """A type= callable: convert(text) if ok accepts it, else 'must be <rule>'."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return parse


# --t, --epsilon and --tol
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "positive and finite")


def _count(low: int):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, every call returns a fresh namespace."""
    parser = _Parser(prog="hankelpath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", default=".", help="output directory")

    gen = sub.add_parser("gen", help="generate a random stable system")
    gen.add_argument("--order", type=_count(1), default=6)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--k-max", dest="k_max", type=_count(1), default=31)
    add_common(gen)

    def add_solver_flags(p):
        p.add_argument("--max-iters", dest="max_iters", type=_count(1),
                       default=SolverOptions.max_iters)
        p.add_argument("--tol", type=_positive_float, default=SolverOptions.primal_tol,
                       help="primal and dual tolerance")

    solve = sub.add_parser("solve", help="solve the constrained fit at one t")
    solve.add_argument("--input", required=True, help="impulse response (.csv or .json)")
    solve.add_argument("--t", type=_positive_float, required=True)
    add_solver_flags(solve)
    add_common(solve)

    path = sub.add_parser("path", help="compute the certified regularization path")
    path.add_argument("--input", required=True, help="impulse response (.csv or .json)")
    path.add_argument("--epsilon", type=_positive_float, default=0.01)
    path.add_argument("--grid-points", dest="grid_points", type=_count(2), default=20)
    add_solver_flags(path)
    path.add_argument("--format", choices=["json", "csv", "both"], default="both")
    path.add_argument("--verify", action="store_true",
                      help="re-solve at 5 sampled t values; a sample's upper end is the "
                           "objective of the path's own solution made feasible, so each cold "
                           "re-solve stops once its certified lower bound clears the sample's "
                           "lower end, otherwise it must converge with its objective inside "
                           "the sample's interval")
    # the --verify re-solves run in this process; kept for argvs that pass --jobs 1
    path.add_argument("--jobs", type=int, choices=[1], default=1, help=argparse.SUPPRESS)
    add_common(path)
    return parser


def _config_tokens(config_path, command: str) -> list[str]:
    """The command-line tokens a JSON config file stands for.

    Each key that names an option of command becomes --flag=value (a switch
    set to true becomes --flag), so the value passes the flag's own checks;
    a key that names only another command's option is dropped, and one that
    names a required option is refused: only the command line sets those.
    """
    with open(config_path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError
            raise UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    (sub,) = (a for a in _build_parser()._actions if a.dest == "command")
    known = {a.dest: a for a in sub.choices[command]._actions}
    anywhere = {a.dest for p in sub.choices.values() for a in p._actions} - {"help"}
    tokens = []
    for key, value in doc.items():
        dest = key.replace("-", "_")
        if dest not in anywhere:
            raise UsageError(f"config key {key!r} names no option of any command")
        action = known.get(dest)
        if action is None:
            continue
        flag = action.option_strings[-1]
        if action.required:
            raise UsageError(f"config key {key!r} sets the required {flag}; "
                             "pass it on the command line instead")
        switch = action.nargs == 0
        if switch and type(value) is bool:
            tokens += [flag] if value else []
        elif not switch and type(value) in (str, int, float):
            tokens.append(f"{flag}={value}")
        else:
            wants = "true or false" if switch else "a string or a number"
            raise UsageError(f"config key {key!r} takes {wants}, got {json.dumps(value)}")
    return tokens


def _say(line: str) -> None:
    """Print one line to stdout.  Once stdout's reader has gone (a closed
    pipe, as in `hankelpath gen | head -1`), the output ends there: the rest
    goes to the null device, and the command runs on to its own exit code."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _solver_opts(args) -> SolverOptions:
    return SolverOptions(max_iters=args.max_iters, primal_tol=args.tol, dual_tol=args.tol)


def _read_impulse(path) -> ImpulseResponse:
    if str(path).endswith(".json"):
        return read_impulse_json(path)
    return read_impulse_csv(path)


def cmd_gen(args) -> int:
    k_max = args.k_max
    if k_max % 2 == 0:
        k_max += 1
        print(f"warning: k_max must be odd; padded to {k_max}", file=sys.stderr)
    os.makedirs(args.out, exist_ok=True)
    spec = random_system(args.order, args.seed)
    g = impulse_response(spec, k_max)
    spec_path = os.path.join(args.out, "system.json")
    imp_path = os.path.join(args.out, "impulse.csv")
    write_system_json(spec, spec_path)
    write_impulse_csv(g, imp_path)
    sig = hankel_singular_values(g)
    _say("hankel_singular_values: " + " ".join(fmt17(v) for v in sig))
    _say("t_max: " + fmt17(compute_t_max(g)))
    _say(f"wrote {spec_path}")
    _say(f"wrote {imp_path}")
    return EXIT_OK


def cmd_solve(args) -> int:
    g_o = _read_impulse(args.input)
    os.makedirs(args.out, exist_ok=True)
    result = solve_constrained(g_o, args.t, _solver_opts(args))
    g_fit = args.t * result.g_tilde.values
    fit_path = os.path.join(args.out, "g_fit.csv")
    write_impulse_csv(ImpulseResponse(g_fit), fit_path)
    _say("objective: " + fmt17(result.objective))
    _say("nuclear_norm: " + fmt17(result.nuclear_norm_value))
    _say(f"iterations: {result.iterations}")
    _say(f"wrote {fit_path}")
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


def _verify_path(result, g_o, opts) -> list[str]:
    """Re-solve at 5 deterministically sampled t values; report violations.

    Each sample claims the optimum lies in [f_approx - gap - slack,
    f_approx + slack].  Its upper end f_approx is the objective of a
    feasible point, the owning solution scaled into the nuclear ball, so
    the cold re-solve needs to certify only the lower end: it stops as soon
    as its dual lower bound clears f_approx - gap - slack.  A re-solve that
    never gets there runs to the residual test, and its fresh objective
    must then lie in the interval; one that neither certifies nor converges
    fails.
    """
    slack = 1e-6 * (1 + g_o.norm() ** 2)
    stream = SplitMix64(0xC0FFEE)
    samples = result.samples
    candidates = samples[samples.t > 0]
    picks = candidates[[int(stream.uniform() * len(candidates)) for _ in range(5)]].tolist()

    failures = []
    for t, f_approx, gap in picks:
        lower, upper = f_approx - gap - slack, f_approx + slack
        fresh = solve_constrained(g_o, t, opts, stop_above=lower)
        if lower <= fresh.bounds[0]:
            continue
        if not fresh.converged:
            failures.append(
                "verify failed at t=%s: re-solve neither certified nor converged after "
                "%d iterations (primal_residual=%s dual_residual=%s)"
                % (fmt17(t), fresh.iterations, fmt17(fresh.primal_residual),
                   fmt17(fresh.dual_residual))
            )
        elif not (lower <= fresh.objective <= upper):
            failures.append(
                "verify failed at t=%s: fresh objective %s outside [%s, %s]"
                % (fmt17(t), fmt17(fresh.objective), fmt17(lower), fmt17(upper))
            )
    return failures


def cmd_path(args) -> int:
    g_o = _read_impulse(args.input)
    os.makedirs(args.out, exist_ok=True)
    opts = _solver_opts(args)

    start = time.perf_counter()
    try:
        result = compute_path(
            g_o, args.epsilon, grid_points_per_segment=args.grid_points, solver_opts=opts
        )
    except PathAborted as exc:
        written = _write_path_outputs(exc.partial, args.out, args.format)
        print(f"path aborted: {exc}", file=sys.stderr)
        for p in written:
            _say(f"wrote {p} (partial)")
        return EXIT_NUMERICAL
    wall = time.perf_counter() - start

    written = _write_path_outputs(result, args.out, args.format)
    _say(f"m: {result.m}")
    _say("breakpoints: " + " ".join(fmt17(b) for b in result.breakpoints))
    _say("wall_time_s: %.3f" % wall)
    for p in written:
        _say(f"wrote {p}")

    if args.verify:
        failures = _verify_path(result, g_o, opts)
        if failures:
            for line in failures:
                print(line, file=sys.stderr)
            return EXIT_NUMERICAL
        _say("verify: ok (5 fresh solves inside certified intervals)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the config's flags go first, so the command line's win: argparse
            # keeps an option's last occurrence
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_tokens(args.config, args.command)
                                     + argv[at:])
        return {"gen": cmd_gen, "solve": cmd_solve, "path": cmd_path}[args.command](args)
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
