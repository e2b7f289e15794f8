#!/usr/bin/env python3
"""One SHA-256 over the outputs of a fixed set of certified paths, so that a
change which must keep every output byte can be checked with one number.

Run from anywhere; it imports the package from ./src of its own checkout:

    python3 tools/output_digest.py

The digest covers, in this order:

1. fixture systems 0-119 (the acceptance family of tests/conftest.py: order
   6, k_max 31), each through `hankelpath path --verify` with every other
   option at its default: the bytes of path.json, samples.csv and
   singular_values.csv;
2. the order-100 system of demos/04 at seeds 4-8 (k_max 51, eps 12): the
   bytes of compute_path's to_json(), then each certificate's h.tobytes().

So it pins the outputs, the breakpoints and their count m, and every
certificate bit of the order-100 paths.  It prints the digest, the fixture
seeds whose --verify failed, and iteration totals that can move where the
digest does not: the path and the --verify iterations of fixture systems
0-19, the --verify iterations of systems 0-119, and the path iterations of
the order-100 seeds, in total and seed by seed.  Counting wraps the solve
calls and leaves their results alone, so it does not change the digest.
One more line, outside the digest, counts the path iterations of two
regimes the gated paths do not reach: the fine path of fixture system 10 at
eps = 1e-6 ||g_o||^2 (1,066 solves, about 1 s) and the order-100 system of
seed 4 at n = 100 (k_max 199, eps 40).

Last it prints two soundness lines, which the digest does not cover.  The
first costs no solve: g_o / t_max is feasible, so f*(t_max) = 0, and it
counts the fixture paths 0-119 whose last sample, at t_max, claims a lower
end f_approx - gap above 0 by more than --verify's slack
1e-6 (1 + ||g_o||^2), with the worst such claim in slacks and its system.
The second takes every sample of fixture systems 0-19 (t > 0) against a
tight solve at its t (primal and dual tolerance 1e-12).  It counts the upper
ends f_approx below the tight solve's lower bound, and the lower ends
f_approx - gap above its upper bound by more than the slack, with the worst
such excess in slacks and its system.  A sound path reads 0 on both lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import hankelpath as hp  # noqa: E402
from hankelpath import cli  # noqa: E402

FIXTURE_BANDS = [(2, (0.88, 0.92), 0.1), (4, (0.15, 0.3), 0.002)]
ORDER100_BANDS = [(10, (0.9, 0.96), 3.0), (90, (0.1, 0.6), 0.02)]


def _count_iterations(module) -> list[int]:
    """Wrap module.solve_constrained so that every solve adds its iterations
    to the one-element total returned."""
    real = module.solve_constrained
    total = [0]

    def counted(*args, **kwargs):
        res = real(*args, **kwargs)
        total[0] += res.iterations
        return res

    module.solve_constrained = counted
    return total


def _soundness(seeds) -> str:
    """The soundness line over every sample of the fixture paths of seeds."""
    tight = hp.SolverOptions(primal_tol=1e-12, dual_tol=1e-12)
    samples = upper_low = lower_high = 0
    worst, worst_seed = -math.inf, None
    for seed in seeds:
        g_o = hp.impulse_response(hp.random_system(6, seed, bands=FIXTURE_BANDS), 31)
        slack = 1e-6 * (1 + g_o.norm() ** 2)
        solves = {}
        for t, f_approx, gap in hp.compute_path(g_o, 0.01).samples.tolist():
            if t <= 0:
                continue
            if t not in solves:
                solves[t] = hp.solve_constrained(g_o, t, tight).bounds
            lower, upper = solves[t]
            samples += 1
            upper_low += f_approx < lower
            excess = (f_approx - gap - upper) / slack
            lower_high += excess > 1
            if excess > worst:
                worst, worst_seed = excess, seed
    return (f"soundness, {samples} samples of fixture systems {seeds[0]}-{seeds[-1]}: "
            f"{upper_low} upper ends below a tight lower bound, {lower_high} lower ends "
            f"above a tight upper bound by more than the slack (worst {worst:.4g} slacks, "
            f"system {worst_seed})")


def main() -> int:
    digest = hashlib.sha256()
    failures = []
    counts = {}
    at_t_max = []  # (the last sample's lower end in slacks, seed)
    path_iters = _count_iterations(hp.path)
    verify_iters = _count_iterations(cli)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(120):
            if seed == 20:
                counts["path iterations, fixture systems 0-19"] = path_iters[0]
                counts["--verify iterations, fixture systems 0-19"] = verify_iters[0]
            out = Path(tmp) / f"system-{seed}"
            out.mkdir()
            g_o = hp.impulse_response(hp.random_system(6, seed, bands=FIXTURE_BANDS), 31)
            hp.write_impulse_csv(g_o, out / "impulse.csv")
            argv = ["path", "--input", str(out / "impulse.csv"), "--out", str(out), "--verify"]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                if cli.main(argv) != cli.EXIT_OK:
                    failures.append(seed)
            for name in ("path.json", "samples.csv", "singular_values.csv"):
                digest.update((out / name).read_bytes())
            last = (out / "samples.csv").read_text().split()[-1]
            t, f_approx, gap = map(float, last.split(","))
            assert t == hp.compute_t_max(g_o)
            at_t_max.append(((f_approx - gap) / (1e-6 * (1 + g_o.norm() ** 2)), seed))
    counts["--verify iterations, fixture systems 0-119"] = verify_iters[0]
    per_seed = []
    for seed in range(4, 9):
        before = path_iters[0]
        g_o = hp.impulse_response(hp.random_system(100, seed, bands=ORDER100_BANDS), 51)
        path = hp.compute_path(g_o, 12.0)
        digest.update(path.to_json().encode())
        for cert in path.certificates:
            digest.update(cert.h.tobytes())
        per_seed.append(path_iters[0] - before)
    counts["path iterations, order-100 seeds 4-8"] = "%d (%s)" % (
        sum(per_seed), " ".join(map(str, per_seed)))
    fine = hp.impulse_response(hp.random_system(6, 10, bands=FIXTURE_BANDS), 31)
    wide = hp.impulse_response(hp.random_system(100, 4, bands=ORDER100_BANDS), 199)
    regimes = []
    for g_o, eps in ((fine, 1e-6 * fine.norm() ** 2), (wide, 40.0)):
        before = path_iters[0]
        hp.compute_path(g_o, eps)
        regimes.append(path_iters[0] - before)
    counts["path iterations, fixture system 10 at 1e-6 ||g_o||^2 and order-100 seed 4 at "
           "n = 100"] = "%d and %d" % tuple(regimes)
    print(digest.hexdigest())
    print("verify failures:", failures)
    for name, total in counts.items():
        print(f"{name}: {total}")
    worst, worst_seed = max(at_t_max)
    print(f"soundness at t_max, where the optimum is 0: {sum(r > 1 for r, _ in at_t_max)} of "
          f"{len(at_t_max)} fixture paths claim a lower end above the slack (worst "
          f"{worst:.4g} slacks, system {worst_seed})")
    print(_soundness(range(20)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
