#!/usr/bin/env python3
"""Benchmark of certified regularization paths; the design is in DESIGN.md.

Run from the repository root, for example

    python3 bench/run.py --workload order100-path --seed 0 --seconds 35 --trace 0

One closed-loop client in one process computes one certified path at a time,
waits for it, and checks it.  --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced paths and reports the per-layer
metrics plus the tracing overhead.  Path and set-up times are reported in
seconds at a reference machine speed (speed.py); the report also prints the
wall-clock times.  The lines before the last are a readable report; the last
line is one JSON object with the keys "correct", "attempted", "failed" and
"metrics".  A detail record (and, when traced, every span) goes to
.bench_work/.

A path fails when it aborts, exits non-zero or misses any acceptance check.
"correct" turns false only for a wrong output: an abort or non-zero exit, an
unconverged solve, a sample gap above 1.05 eps, or a path.json that differs
between repeats or from the library.  A breakpoint certificate that is not
tight to the criterion-3 budget fails the path but leaves "correct" true,
since every reported gap is still certified.  Exit code 0 when correct, 1
when not, 2 when the package cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import inspect
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from spans import Tracer
from speed import SpeedProbe, speed_now

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# the acceptance-fixture family of tests/conftest.py: a dominant pole pair
# near the unit circle plus four weak poles
FIXTURE_BANDS = [(2, (0.88, 0.92), 0.1), (4, (0.15, 0.3), 0.002)]
# the order-100 system of demos/04: ten strong modes, ninety weak ones
ORDER100_BANDS = [(10, (0.9, 0.96), 3.0), (90, (0.1, 0.6), 0.02)]

# system_seed is the first system of the family; family is the number of
# consecutive system seeds one run cycles through
WORKLOADS = {
    "fixture-cli": dict(order=6, bands=FIXTURE_BANDS, k_max=31, eps=0.01,
                        system_seed=0, family=20, max_iters=None),
    "order100-path": dict(order=100, bands=ORDER100_BANDS, k_max=51, eps=12.0,
                          system_seed=4, family=1, max_iters=200000),
    "wide-hankel-path": dict(order=100, bands=ORDER100_BANDS, k_max=81, eps=40.0,
                             system_seed=4, family=1, max_iters=None),
}

SETUP_SAMPLES = 3
# every run measures at least two units, so criterion 10 (byte-identical
# path.json across repeats) is checked in every run
MIN_UNITS = 2
# acceptance tolerances (tests/test_acceptance.py), unchanged
SAMPLE_GAP_FACTOR = 1.05  # criterion 2: every sample gap <= 1.05 eps
BP_GAP_REL = 1e-6  # criterion 3: breakpoint gap <= 1e-6 (1 + ||g_o||^2)


# -- set-up -------------------------------------------------------------------

def import_package():
    """Import hankelpath from ./src of this checkout, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import hankelpath
    except ImportError as exc:
        print(f"cannot import hankelpath from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(hankelpath.__file__).resolve().is_relative_to(SRC):
        print(f"hankelpath was imported from {hankelpath.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return hankelpath


def setup(name: str, system_seed: int):
    """Import the package, generate the workload's systems and write the CLI
    input files.  Returns (seconds, generation seconds, systems)."""
    start = time.perf_counter()
    hp = import_package()
    w = WORKLOADS[name]
    gen_start = time.perf_counter()
    systems = [
        {"seed": s, "g_o": hp.impulse_response(
            hp.random_system(w["order"], s, bands=w["bands"]), w["k_max"])}
        for s in range(system_seed, system_seed + w["family"])
    ]
    gen_s = time.perf_counter() - gen_start
    if name == "fixture-cli":
        for system in systems:
            out = WORK / name / f"system-{system['seed']}"
            out.mkdir(parents=True, exist_ok=True)
            system["out"] = out
            system["input"] = out / "impulse.csv"
            hp.write_impulse_csv(system["g_o"], system["input"])
    return time.perf_counter() - start, gen_s, systems


def measure_setup(name: str, system_seed: int) -> tuple[list[float], list[float]]:
    """Set-up seconds of SETUP_SAMPLES fresh processes, run one after another,
    at the reference speed (speed.py) and as wall time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", name, "--system-seed", str(system_seed)]
    samples, wall = [], []
    for _ in range(SETUP_SAMPLES):
        before = speed_now()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds, after = map(float, proc.stdout.split()[-2:])
        wall.append(seconds)
        samples.append(seconds * (before + after) / 2)
    return samples, wall


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas['name']} {blas['version']}",
        "blas_threads": _openblas_threads(numpy),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _openblas_threads(numpy):
    """Thread count of the OpenBLAS bundled with numpy, or None if unknown."""
    import ctypes

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


# -- one certified path -------------------------------------------------------

def cli_path(cli, system, eps: float, span):
    """One `hankelpath path ... --verify` invocation, in process."""
    argv = ["path", "--input", str(system["input"]), "--out", str(system["out"]),
            "--epsilon", repr(eps), "--format", "both", "--verify", "--jobs", "1"]
    path_json = system["out"] / "path.json"
    path_json.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with span, redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    end = time.perf_counter()
    doc = path_json.read_bytes() if path_json.exists() else b""
    problems = [] if rc == 0 else [f"exit code {rc}: {err.getvalue().strip()}"]
    solves = json.loads(doc)["m"] if doc else 0
    return {"start": start, "end": end, "doc": doc, "solves": solves, "problems": problems}


def library_path(path_mod, hp, system, w, span):
    """One compute_path call, as demos/04 makes it."""
    opts = hp.SolverOptions(max_iters=w["max_iters"]) if w["max_iters"] else hp.SolverOptions()
    problems = []
    start = time.perf_counter()
    with span:
        try:
            result = path_mod.compute_path(system["g_o"], w["eps"], solver_opts=opts)
        except hp.PathAborted as exc:
            result = exc.partial
            problems.append(f"aborted: {exc}")
    end = time.perf_counter()
    return {"start": start, "end": end, "doc": result.to_json().encode(), "solves": result.m,
            "result": result, "problems": problems}


def check_result(result, g_o, eps: float) -> tuple[list[str], float]:
    """Checks of criteria 2 and 3 on one PathResult; returns (wrong-output
    problems, worst breakpoint gap over the criterion-3 budget)."""
    from hankelpath.certificates import duality_gap

    problems = [f"solve at t={r.t:.6g} did not converge"
                for r in result.exact_solutions if not r.converged]
    worst_sample = max((s.gap for s in result.samples), default=0.0)
    if worst_sample > SAMPLE_GAP_FACTOR * eps:
        problems.append(f"sample gap {worst_sample:.6g} > {SAMPLE_GAP_FACTOR} eps")
    budget = BP_GAP_REL * (1.0 + g_o.norm() ** 2)
    bp_ratio = max((duality_gap(c, g_o, t) / budget
                    for t, c in zip(result.breakpoints, result.certificates)), default=0.0)
    return problems, bp_ratio


def check_paths(hp, name: str, systems, records) -> float:
    """Add every check failure to its path record: wrong outputs to
    "problems", untight breakpoint certificates to "untight".  Returns the
    worst breakpoint-gap ratio seen."""
    w = WORKLOADS[name]
    worst_bp = 0.0
    for system in systems:
        recs = [r for r in records if r["system"] == system["seed"]]
        if not recs:
            continue
        first = recs[0]["doc"]
        for r in recs[1:]:
            if r["doc"] != first:
                r["problems"].append("path.json differs from the first repeat")
        if name == "fixture-cli":
            # the CLI output must be the library path of the same input, so
            # the library's certificates stand for the CLI's
            g_o = hp.read_impulse_csv(system["input"])
            try:
                result = hp.compute_path(g_o, w["eps"])
            except hp.PathAborted as exc:
                result = exc.partial
                shared = [f"library path aborted: {exc}"]
            else:
                shared = []
            if result.to_json().encode() != first:
                shared.append("path.json differs from the library path")
            results = [(recs, result)]
        else:
            g_o, shared = system["g_o"], []
            results = [([r], r.pop("result")) for r in recs]
        for owners, result in results:
            problems, bp_ratio = check_result(result, g_o, w["eps"])
            worst_bp = max(worst_bp, bp_ratio)
            for r in owners:
                r["problems"] += shared + problems
                if bp_ratio > 1.0:
                    r["untight"] = f"breakpoint gap {bp_ratio:.3g} x the criterion-3 budget"
    return worst_bp


# -- tracing ------------------------------------------------------------------

def install_tracer(tracer: Tracer) -> list[str]:
    """Wrap the public calls at each module boundary; returns the names that
    do not exist in this version of the package."""
    import numpy as np
    from hankelpath import cli, path, solver

    def solve_info(args, kwargs, result):
        return result.iterations, result.converged

    def simplex_cut(args, kwargs, result):
        radius = args[1] if len(args) > 1 else kwargs["radius"]
        return float(np.sum(args[0])) > radius

    step_sig = inspect.signature(path.next_breakpoint)

    def step_kind(args, kwargs, result):
        a = step_sig.bind(*args, **kwargs).arguments
        if result >= a["t_max"]:
            return "capped"
        cert = a["cert"]
        closed = cert.t_star + math.sqrt(a["eps"]) / cert.residual_dir_norm
        return "closed" if result == closed else "root"

    def written(args, kwargs, result):
        return os.path.getsize(args[1])

    targets = [
        (cli, "main", "cli.main", None),
        (cli, "read_impulse_csv", "cli.read", None),
        (cli, "read_impulse_json", "cli.read", None),
        (cli, "_verify_path", "cli.verify", None),
        (cli, "solve_constrained", "solver.cold_solve", solve_info),
        (cli, "compute_path", "path.compute_path", None),
        (path, "compute_path", "path.compute_path", None),
        (path, "compute_t_max", "path.t_max", None),
        (path, "hankel_singular_values", "path.hsv", None),
        (path, "solve_constrained", "solver.path_solve", solve_info),
        (path, "subgradient_vector", "certificates.build", None),
        (path, "next_breakpoint", "certificates.step", step_kind),
        (path, "duality_gap", "certificates.gap_eval", None),
        (solver, "project_nuclear_ball", "solver.project", None),
        (solver, "project_simplex_l1", "solver.simplex", simplex_cut),
        (solver, "adjoint_fast", "hankel.adjoint", None),
    ] + [(path.PathResult, attr, "cli.write", written)
         for attr in ("write_json", "write_samples_csv", "write_singular_values_csv")]
    missing = []
    for owner, attr, name, info in targets:
        if hasattr(owner, attr):
            tracer.wrap(owner, attr, name, info)
        else:
            missing.append(f"{owner.__name__}.{attr}")
    return missing


def layer_metrics(per_path: dict, traced_s, untraced_s, gen_s, bp_gap_max) -> dict:
    """Per-layer metrics, per traced path unless the name says otherwise."""
    P = len(per_path)
    merged: dict[str, dict] = {}
    for names in per_path.values():
        for name, e in names.items():
            m = merged.setdefault(name, {"n": 0, "total": 0.0, "self": 0.0, "infos": []})
            m["n"] += e["n"]
            m["total"] += e["total"]
            m["self"] += e["self"]
            m["infos"] += e["infos"]

    def get(name, key):
        return merged.get(name, {"n": 0, "total": 0.0, "self": 0.0, "infos": []})[key]

    path_solves = get("solver.path_solve", "infos")
    cold_solves = get("solver.cold_solve", "infos")
    iters = sum(i for i, _ in path_solves)
    steps = [s for s in get("certificates.step", "infos") if s != "capped"]
    projections = get("solver.project", "n")
    return {
        "solver.iters": iters / P,
        "solver.iters_max": max((i for i, _ in path_solves), default=0),
        "solver.calls": len(path_solves) / P,
        "solver.unconverged": sum(not ok for _, ok in path_solves + cold_solves) / P,
        "solver.s": get("solver.path_solve", "total") / P,
        "solver.self_s": (get("solver.path_solve", "self") + get("solver.cold_solve", "self")) / P,
        "solver.us_per_iter": 1e6 * get("solver.path_solve", "total") / iters if iters else 0.0,
        "solver.project_s": get("solver.project", "total") / P,
        "solver.project_self_s": get("solver.project", "self") / P,
        "solver.simplex_s": get("solver.simplex", "total") / P,
        "solver.simplex_cut_ratio": sum(get("solver.simplex", "infos")) / projections if projections else 0.0,
        "solver.cold_s": get("solver.cold_solve", "total") / P,
        "solver.cold_iters": sum(i for i, _ in cold_solves) / P,
        "hankel.adjoint_s": get("hankel.adjoint", "total") / P,
        "hankel.adjoint_calls": get("hankel.adjoint", "n") / P,
        "certificates.build_s": get("certificates.build", "total") / P,
        "certificates.builds": get("certificates.build", "n") / P,
        "certificates.step_s": get("certificates.step", "total") / P,
        "certificates.gap_eval_s": get("certificates.gap_eval", "total") / P,
        "certificates.gap_evals": get("certificates.gap_eval", "n") / P,
        # 1 when no step needed the root finder (steps capped at t_max excluded)
        "certificates.closed_form_ratio": steps.count("closed") / len(steps) if steps else 1.0,
        "certificates.bp_gap_max": bp_gap_max,
        "path.self_s": get("path.compute_path", "self") / P,
        "path.hsv_s": get("path.hsv", "total") / P,
        "path.t_max_s": get("path.t_max", "total") / P,
        "cli.self_s": (get("cli.main", "self") + get("cli.verify", "self")) / P,
        "cli.read_s": get("cli.read", "total") / P,
        "cli.write_s": get("cli.write", "total") / P,
        "cli.bytes_written": sum(get("cli.write", "infos")) / P,
        "cli.verify_s": get("cli.verify", "total") / P,
        "systems.gen_s": gen_s,
        "client.self_s": get("client.path", "self") / P,
        "trace.path_s": statistics.median(traced_s),
        "trace.overhead_s": statistics.median(traced_s) - statistics.median(untraced_s),
    }


# self-time buckets that partition a traced path: (label, [(span, key)])
ACCOUNTING = [
    ("client", [("client.path", "self")]),
    ("cli", [("cli.main", "self"), ("cli.verify", "self"), ("cli.read", "total")]),
    ("cli.write", [("cli.write", "total")]),
    ("path", [("path.compute_path", "self"), ("path.hsv", "total"), ("path.t_max", "total")]),
    ("solver loop", [("solver.path_solve", "self"), ("solver.cold_solve", "self")]),
    ("nuclear projection", [("solver.project", "self")]),
    ("simplex projection", [("solver.simplex", "total")]),
    ("hankel adjoint", [("hankel.adjoint", "total")]),
    ("certificates", [("certificates.build", "total"), ("certificates.step", "total"),
                      ("certificates.gap_eval", "total")]),
]


# -- main loop ----------------------------------------------------------------

def run(args) -> int:
    name, w = args.workload, WORKLOADS[args.workload]
    system_seed = w["system_seed"] if args.system_seed is None else args.system_seed
    hp = import_package()
    import hankelpath.cli as cli
    import hankelpath.path as path_mod

    WORK.mkdir(exist_ok=True)
    setup_samples, setup_wall = measure_setup(name, system_seed)
    _, gen_s, systems = setup(name, system_seed)

    # warm-up outside the timed loop: lazy imports and first-call costs
    warm = hp.impulse_response(hp.random_system(6, 10, bands=FIXTURE_BANDS), 31)
    hp.compute_path(warm, 0.01)

    tracer = Tracer()
    rng = random.Random(args.seed)
    records = []

    def unit(traced: bool):
        # fixture-cli: one cycle over the family in a seed-drawn order;
        # the order-100 workloads: one path
        order = systems[:]
        rng.shuffle(order)
        missing = install_tracer(tracer) if traced else []
        try:
            for system in order:
                tracer.path_id = len(records)
                span = tracer.span("client.path") if traced else nullcontext()
                if name == "fixture-cli":
                    rec = cli_path(cli, system, w["eps"], span)
                else:
                    rec = library_path(path_mod, hp, system, w, span)
                rec.update(system=system["seed"], traced=traced)
                records.append(rec)
        finally:
            tracer.restore()
        return missing

    # start units until --seconds have passed; the last one runs to its end
    missing = []
    loop_start = time.perf_counter()
    units = 0
    with SpeedProbe() as probe:
        while units < MIN_UNITS or time.perf_counter() - loop_start < args.seconds:
            missing += unit(traced=bool(args.trace) and units % 2 == 1)
            units += 1
    for r in records:
        r["wall_s"] = r["end"] - r["start"]
        r["seconds"] = probe.normalize(r["start"], r["end"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bp_gap_max = check_paths(hp, name, systems, records)
    failed = [r for r in records if r["problems"] or r.get("untight")]
    wrong = [r for r in records if r["problems"]]
    untraced_s = [r["seconds"] for r in records if not r["traced"]]
    traced_s = [r["seconds"] for r in records if r["traced"]]
    wall_s = [r["wall_s"] for r in records if not r["traced"]]
    slowdowns = probe.slowdowns()
    end_to_end = {
        "path_s": (statistics.median(untraced_s), "s"),
        "solves_per_path": (sum(r["solves"] for r in records) / len(records), "count"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }

    print(f"workload {name}  seed {args.seed}  systems {system_seed}.."
          f"{system_seed + w['family'] - 1}  trace {args.trace}  units {units}")
    print(f"  fail_frac        {len(failed) / len(records):.4g}  "
          f"({len(failed)} of {len(records)} paths)")
    for (system, why), count in Counter((r["system"], _why(r)) for r in failed).items():
        print(f"  FAILED {count} path(s) of system {system}: {why}")
    for key, (value, unit_name) in end_to_end.items():
        print(f"  {key:<16} {value:.6g} {unit_name}")
    tail = None
    if len(untraced_s) > 10:
        ranked = sorted(untraced_s)
        tail = {"percentile": round(100.0 * (len(ranked) - 10) / len(ranked), 1),
                "value": ranked[len(ranked) - 11], "samples": len(ranked)}
        print(f"  path_s.tail      p{tail['percentile']:g} = {tail['value']:.6g} s "
              f"over {tail['samples']} paths")
    print(f"  wall path_s      {statistics.median(wall_s):.6g} s; machine slowdown median "
          f"{statistics.median(slowdowns):.3f}, quartiles "
          + " ".join(f"{q:.3f}" for q in statistics.quantiles(slowdowns, n=4)[::2])
          + f" over {len(slowdowns)} probe samples")
    print(f"  setup_s samples  " + " ".join(f"{s:.3f}" for s in setup_samples)
          + "; wall " + " ".join(f"{s:.3f}" for s in setup_wall))
    print(f"  bp_gap_max       {bp_gap_max:.3g} of the criterion-3 budget")

    detail = {"workload": name, "seed": args.seed, "system_seed": system_seed,
              "trace": args.trace, "seconds": args.seconds,
              "fail_frac": len(failed) / len(records), "path_s_tail": tail,
              "failures": sorted({_why(r) for r in failed}),
              "path_s_samples": untraced_s, "wall_path_s_samples": wall_s,
              "slowdown_median": statistics.median(slowdowns),
              "setup_s_samples": setup_samples, "wall_setup_s_samples": setup_wall,
              "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
              "machine": machine_info()}
    if args.trace:
        by_path = {pid: names for pid, names in tracer.by_path().items() if pid >= 0}
        layers = layer_metrics(by_path, traced_s, untraced_s, gen_s, bp_gap_max)
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
        print(f"  traced paths     {len(traced_s)}; tracing overhead "
              f"{layers['trace.overhead_s']:+.4g} s per path")
        for key, value in layers.items():
            print(f"  {key:<30} {value:.6g} {LAYER_UNITS[key]}")
        _print_accounting(by_path, [r["wall_s"] for r in records if r["traced"]])
        detail["per_system"] = _print_per_system(by_path, records)
        detail["layers"] = layers
        if missing:
            print("  not traced (absent in this version): " + ", ".join(sorted(set(missing))))
        tracer.write(WORK / f"spans-{name}-seed{args.seed}.tsv")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    (WORK / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"correct": not wrong, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if wrong else 0


def _why(record) -> str:
    untight = [record["untight"]] if record.get("untight") else []
    return "; ".join(record["problems"] + untight)


LAYER_UNITS = {
    "solver.iters": "count", "solver.iters_max": "count", "solver.calls": "count",
    "solver.unconverged": "count", "solver.s": "s", "solver.self_s": "s",
    "solver.us_per_iter": "us", "solver.project_s": "s", "solver.project_self_s": "s",
    "solver.simplex_s": "s", "solver.simplex_cut_ratio": "ratio", "solver.cold_s": "s",
    "solver.cold_iters": "count", "hankel.adjoint_s": "s", "hankel.adjoint_calls": "count",
    "certificates.build_s": "s", "certificates.builds": "count", "certificates.step_s": "s",
    "certificates.gap_eval_s": "s", "certificates.gap_evals": "count",
    "certificates.closed_form_ratio": "ratio", "certificates.bp_gap_max": "ratio",
    "path.self_s": "s", "path.hsv_s": "s", "path.t_max_s": "s", "cli.self_s": "s",
    "cli.read_s": "s", "cli.write_s": "s", "cli.bytes_written": "bytes", "cli.verify_s": "s",
    "systems.gen_s": "s", "client.self_s": "s", "trace.path_s": "s", "trace.overhead_s": "s",
}


def _print_accounting(by_path: dict, traced_s) -> None:
    """Self time per layer, per traced path, against the traced path time."""
    totals = {label: 0.0 for label, _ in ACCOUNTING}
    for names in by_path.values():
        for label, parts in ACCOUNTING:
            totals[label] += sum(names.get(span, {}).get(key, 0.0) for span, key in parts)
    per_path = sum(traced_s) / len(traced_s)
    print(f"  self time per traced path (mean traced path {per_path:.4g} s):")
    for label, total in totals.items():
        share = total / len(by_path)
        print(f"    {label:<20} {share:10.4g} s  {100 * share / per_path:5.1f} %")
    accounted = sum(totals.values()) / len(by_path)
    print(f"    {'sum':<20} {accounted:10.4g} s  {100 * accounted / per_path:5.1f} %")


def _print_per_system(by_path: dict, records) -> list[dict]:
    """Solves and ADMM iterations of the first traced path of each system."""
    rows, seen = [], set()
    for pid, names in sorted(by_path.items()):
        system = records[pid]["system"]
        if system in seen:
            continue
        seen.add(system)
        its = [i for i, _ in names.get("solver.path_solve", {}).get("infos", [])]
        cold = [i for i, _ in names.get("solver.cold_solve", {}).get("infos", [])]
        rows.append({"system": system, "solves": len(its), "iters": sum(its),
                     "iters_max": max(its, default=0), "cold_iters": sum(cold),
                     "seconds": records[pid]["wall_s"],
                     "compute_path_s": names.get("path.compute_path", {}).get("total", 0.0)})
    for row in sorted(rows, key=lambda r: r["system"]):
        print("  system {system}: {solves} solves, {iters} iterations (largest {iters_max}), "
              "{cold_iters} verify iterations, {seconds:.4g} s traced, of which "
              "compute_path {compute_path_s:.4g} s".format(**row))
    return rows


def main(argv=None) -> int:
    # one BLAS thread: at n <= 41 OpenBLAS's second thread slowed an
    # order100-path path by 16-42 % and ties its time to whatever else runs
    # on the machine; set before numpy loads, inherited by set-up processes
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the fixture family within each cycle")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--system-seed", type=int,
                        help="first system seed, to measure a held-out system "
                             "(default: the workload's own)")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        seconds, _, _ = setup(args.workload, args.system_seed)
        print(f"{seconds:.9f} {speed_now():.9f}")
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
