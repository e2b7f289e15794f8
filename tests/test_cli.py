import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hankelpath as hp
from hankelpath import cli

from conftest import FIXTURE_K_MAX


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "hankelpath", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def run_cli_closed_stdout(*args):
    """run_cli with stdout a pipe whose reading end is already closed, as
    after `hankelpath ... | head -1` has read its line."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "hankelpath", *map(str, args)],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write)


@pytest.fixture()
def impulse_file(tmp_path, sixth_order_impulse):
    path = tmp_path / "impulse.csv"
    hp.write_impulse_csv(sixth_order_impulse, path)
    return path


class TestGen:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "gen"
        proc = run_cli("gen", "--order", 1, "--seed", 7, "--out", out)
        assert proc.returncode == 0, proc.stderr
        spec = hp.read_system_json(out / "system.json")
        g = hp.read_impulse_csv(out / "impulse.csv")
        expected = hp.impulse_response(hp.random_system(1, 7), 31)
        np.testing.assert_array_equal(g.values, expected.values)
        assert spec.order == 1

    def test_printed_t_max_matches_written_response(self, tmp_path):
        out = tmp_path / "gen"
        proc = run_cli("gen", "--order", 6, "--seed", 1, "--k-max", 31, "--out", out)
        assert proc.returncode == 0, proc.stderr
        line = next(l for l in proc.stdout.splitlines() if l.startswith("t_max:"))
        printed = float(line.split()[1])
        g = hp.read_impulse_csv(out / "impulse.csv")
        assert printed == hp.compute_t_max(g)

    def test_even_k_max_normalized_with_warning(self, tmp_path):
        out = tmp_path / "gen"
        proc = run_cli("gen", "--order", 2, "--seed", 3, "--k-max", 30, "--out", out)
        assert proc.returncode == 0
        assert "padded to 31" in proc.stderr
        assert hp.read_impulse_csv(out / "impulse.csv").k_max == 31

    def test_bad_order_is_usage_error(self, tmp_path):
        proc = run_cli("gen", "--order", 0, "--out", tmp_path)
        assert proc.returncode == 1


class TestSolve:
    def test_beyond_t_max_recovers_data(self, tmp_path, impulse_file, sixth_order_impulse):
        t = 2.0 * hp.compute_t_max(sixth_order_impulse)
        out = tmp_path / "solve"
        proc = run_cli("solve", "--input", impulse_file, "--t", t, "--out", out)
        assert proc.returncode == 0, proc.stderr
        obj = float(next(l for l in proc.stdout.splitlines() if l.startswith("objective:")).split()[1])
        assert obj <= 1e-20
        g_fit = hp.read_impulse_csv(out / "g_fit.csv")
        np.testing.assert_allclose(g_fit.values, sixth_order_impulse.values, atol=1e-12)

    def test_t_zero_is_usage_error(self, tmp_path, impulse_file):
        proc = run_cli("solve", "--input", impulse_file, "--t", 0.0, "--out", tmp_path)
        assert proc.returncode == 1

    @pytest.mark.parametrize("flag", ["--tol"])
    def test_non_finite_option_is_usage_error(self, tmp_path, impulse_file, flag):
        proc = run_cli("solve", "--input", impulse_file, "--t", 0.5, flag, "nan", "--out", tmp_path)
        assert proc.returncode == 1
        assert flag[2:].replace("-", "_") in proc.stderr

    @pytest.mark.parametrize("scale", [1e-154, 1e-200, 1e-300, 1e-310])
    def test_tiny_t_is_a_numerical_error(self, tmp_path, impulse_file, sixth_order_impulse,
                                         scale):
        # the solver refuses a t whose fit curvature 2 t^2 / ||g_o||^2, or
        # 1e-8 times it, is not a normal float, before any RuntimeWarning
        t = scale * sixth_order_impulse.norm()
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "hankelpath", "solve",
             "--input", str(impulse_file), "--t", repr(t), "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical error:") and "normal float" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_input_is_io_error(self, tmp_path):
        proc = run_cli("solve", "--input", tmp_path / "nope.csv", "--t", 1.0, "--out", tmp_path)
        assert proc.returncode == 2

    def test_non_convergence_is_exit_3(self, tmp_path, impulse_file, sixth_order_impulse):
        t = 0.3 * hp.compute_t_max(sixth_order_impulse)
        proc = run_cli(
            "solve", "--input", impulse_file, "--t", t, "--max-iters", 2, "--out", tmp_path
        )
        assert proc.returncode == 3
        assert "did not converge" in proc.stderr

    def test_half_t_max_matches_library_value(self, tmp_path, rank1_impulse):
        src = tmp_path / "rank1.csv"
        hp.write_impulse_csv(rank1_impulse, src)
        t = 0.5 * hp.compute_t_max(rank1_impulse)
        proc = run_cli("solve", "--input", src, "--t", t, "--out", tmp_path)
        assert proc.returncode == 0, proc.stderr
        printed = float(
            next(l for l in proc.stdout.splitlines() if l.startswith("objective:")).split()[1]
        )
        assert printed == hp.solve_constrained(rank1_impulse, t).objective


class TestPath:
    def test_writes_all_outputs(self, tmp_path, impulse_file):
        out = tmp_path / "path"
        proc = run_cli(
            "path", "--input", impulse_file, "--epsilon", 0.01, "--out", out, "--format", "both"
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "path.json").exists()
        assert (out / "samples.csv").exists()
        assert (out / "singular_values.csv").exists()

    def test_sampled_gaps_within_tolerance_from_csv(self, tmp_path, rank1_impulse):
        src = tmp_path / "rank1.csv"
        hp.write_impulse_csv(rank1_impulse, src)
        out = tmp_path / "path"
        proc = run_cli("path", "--input", src, "--epsilon", 1e-4, "--out", out)
        assert proc.returncode == 0, proc.stderr
        rows = (out / "samples.csv").read_text().strip().split("\n")[1:]
        gaps = [float(r.split(",")[2]) for r in rows]
        assert max(gaps) <= 1.05e-4

    def test_huge_epsilon_gives_single_segment(self, tmp_path, impulse_file, sixth_order_impulse):
        out = tmp_path / "path"
        eps = 2.0 * sixth_order_impulse.norm() ** 2
        proc = run_cli("path", "--input", impulse_file, "--epsilon", eps, "--out", out)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((out / "path.json").read_text())
        assert doc["m"] == 1
        assert doc["breakpoints"] == [doc["t_max"]]

    def test_verify_passes(self, tmp_path, impulse_file):
        out = tmp_path / "path"
        proc = run_cli(
            "path", "--input", impulse_file, "--epsilon", 0.01, "--out", out,
            "--verify",
        )
        assert proc.returncode == 0, proc.stderr
        assert "verify: ok" in proc.stdout

    def test_verify_fails_on_unconverged_uncertified_resolve(self, tmp_path):
        # the order-6 system of `hankelpath gen --seed 1` has ||g_o||^2 = 5.55,
        # so at eps = 10 its path is one closed-form solve at t_max, which
        # takes no iteration, but the cold re-solve at t = 1.2634 needs 2 to
        # certify its sample; 1 leaves it neither certified nor converged
        g_o = hp.impulse_response(hp.random_system(6, 1), FIXTURE_K_MAX)
        src = tmp_path / "impulse.csv"
        hp.write_impulse_csv(g_o, src)
        proc = run_cli(
            "path", "--input", src, "--epsilon", 10.0, "--out", tmp_path / "path",
            "--verify", "--max-iters", 1,
        )
        assert proc.returncode == 3, proc.stdout
        assert "verify: ok" not in proc.stdout
        assert "neither certified nor converged after 1 iterations" in proc.stderr
        assert "primal_residual=" in proc.stderr and "dual_residual=" in proc.stderr

    def test_verify_catches_a_sample_that_excludes_the_optimum(self, sixth_order_impulse):
        g_o = sixth_order_impulse
        path = hp.compute_path(g_o, eps=0.01)
        slack = 1e-6 * (1 + g_o.norm() ** 2)
        # a mid-segment sample of the second breakpoint's segment
        t_lo, t_hi = path.breakpoints[1], path.breakpoints[2]
        sample = next(s for s in path.samples if t_lo < s.t < t_hi)
        f_star = hp.solve_constrained(g_o, sample.t).objective
        bad = (sample.t, f_star + 100 * slack, 0.0)
        corrupted = dataclasses.replace(path, samples=[bad])
        failures = cli._verify_path(corrupted, g_o, hp.SolverOptions())
        assert len(failures) == 5
        for line in failures:
            assert line.startswith("verify failed at t=")
            fresh = float(line.split("fresh objective ")[1].split()[0])
            assert fresh == f_star

    def test_verify_certifies_on_the_lower_bound_alone(self, sixth_order_impulse, monkeypatch):
        # the path's own solutions, made feasible, price every sample's upper
        # end, so each re-solve stops once its lower bound clears the
        # sample's lower end
        g_o = sixth_order_impulse
        path = hp.compute_path(g_o, eps=0.01)
        slack = 1e-6 * (1 + g_o.norm() ** 2)
        calls = []

        def recorded(*args, stop_above=None, **kwargs):
            res = hp.solve_constrained(*args, stop_above=stop_above, **kwargs)
            calls.append((stop_above, res))
            return res

        monkeypatch.setattr(cli, "solve_constrained", recorded)
        assert cli._verify_path(path, g_o, hp.SolverOptions()) == []
        assert len(calls) == 5
        for lo, res in calls:
            # a breakpoint's t ends one segment and starts the next
            (sample,) = (s for s in path.samples
                         if s.t == res.t and lo == s.f_approx - s.gap - slack)
            assert res.converged and lo <= res.bounds[0] <= sample.f_approx

    @pytest.mark.parametrize("eps", ["1e-300", "0.01"])
    def test_overflowing_data_is_a_numerical_error(self, tmp_path, eps):
        # ||g_o||^2 overflows: one line and exit 3, before any RuntimeWarning
        src = tmp_path / "impulse.csv"
        hp.write_impulse_csv(hp.ImpulseResponse([1e300, 0.0, 0.0]), src)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "hankelpath", "path",
             "--input", str(src), "--epsilon", eps, "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical error: ||g_o||^2")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("eps", ["1e-300", "5e-324"])
    def test_eps_too_small_for_the_data_is_a_numerical_error(self, tmp_path, eps):
        # the zero model's level t1 underflows to 0: one line and exit 3, where
        # 5e-324 ended in a traceback (exit 1) from the solve cap's int(inf)
        src = tmp_path / "impulse.csv"
        hp.write_impulse_csv(hp.ImpulseResponse([1e150, 0.0, 0.0]), src)
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "hankelpath", "path",
             "--input", str(src), "--epsilon", eps, "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical error: eps is too small")
        assert proc.stderr.count("\n") == 1

    def test_byte_identical_reruns(self, tmp_path, impulse_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            proc = run_cli("path", "--input", impulse_file, "--epsilon", 0.01, "--out", out)
            assert proc.returncode == 0, proc.stderr
        for name in ("path.json", "samples.csv", "singular_values.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_rerun_over_longer_outputs_matches_a_fresh_run(self, tmp_path, impulse_file):
        # the outputs are rewritten in place and cut to their new length
        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        stale.mkdir()
        for name in ("path.json", "samples.csv", "singular_values.csv"):
            (stale / name).write_text("0,0,0\n" * 5000)
        for out in (fresh, stale):
            proc = run_cli("path", "--input", impulse_file, "--epsilon", 0.01, "--out", out)
            assert proc.returncode == 0, proc.stderr
        for name in ("path.json", "samples.csv", "singular_values.csv"):
            assert (stale / name).read_bytes() == (fresh / name).read_bytes()

    def test_failed_write_leaves_an_empty_file_and_exits_2(self, tmp_path, impulse_file,
                                                            monkeypatch, capsys):
        # a write that fails half way (a full disk) leaves neither its own
        # bytes nor the old file's: the file is cut to zero, and the CLI
        # reports an i/o error
        out = tmp_path / "path"
        out.mkdir()
        (out / "path.json").write_text("stale " * 5000)

        class FullDisk:
            def __getattr__(self, name):
                return getattr(os, name)

            @staticmethod
            def write(fd, data):
                os.write(fd, data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(hp._textio, "os", FullDisk())
        rc = cli.main(["path", "--input", str(impulse_file), "--epsilon", "0.01",
                       "--out", str(out)])
        assert rc == cli.EXIT_IO
        assert "No space left on device" in capsys.readouterr().err
        assert (out / "path.json").read_bytes() == b""

    def test_sigma3_drop_visible_in_csv(self, tmp_path, impulse_file):
        out = tmp_path / "path"
        proc = run_cli("path", "--input", impulse_file, "--epsilon", 0.01, "--out", out)
        assert proc.returncode == 0, proc.stderr
        rows = (out / "singular_values.csv").read_text().strip().split("\n")[1:]
        first = [float(x) for x in rows[0].split(",")]
        assert first[3] <= 0.05 * first[1]  # sigma_3 <= 5% of sigma_1 at the smallest t*

    def test_partial_output_on_abort(self, tmp_path, impulse_file):
        out = tmp_path / "path"
        proc = run_cli(
            "path", "--input", impulse_file, "--epsilon", 0.01, "--out", out,
            "--max-iters", 2,
        )
        assert proc.returncode == 3
        doc = json.loads((out / "path.json").read_text())
        assert doc["partial"] is True
        # no solve finished, so the table is its first column's header alone
        assert doc["m"] == 0
        assert (out / "singular_values.csv").read_bytes() == b"t\n"

    def test_config_file_and_flag_precedence(self, tmp_path, impulse_file):
        config = tmp_path / "config.json"
        config.write_text('{"epsilon": 0.05, "grid-points": 5}')
        out1 = tmp_path / "c1"
        proc = run_cli("path", "--input", impulse_file, "--config", config, "--out", out1)
        assert proc.returncode == 0, proc.stderr
        doc1 = json.loads((out1 / "path.json").read_text())
        assert doc1["epsilon"] == 0.05
        out2 = tmp_path / "c2"
        proc = run_cli(
            "path", "--input", impulse_file, "--config", config, "--epsilon", 0.02, "--out", out2
        )
        assert proc.returncode == 0, proc.stderr
        doc2 = json.loads((out2 / "path.json").read_text())
        assert doc2["epsilon"] == 0.02

    def test_bad_epsilon_is_usage_error(self, tmp_path, impulse_file):
        proc = run_cli("path", "--input", impulse_file, "--epsilon", -1.0, "--out", tmp_path)
        assert proc.returncode == 1

    def test_json_input_accepted(self, tmp_path, sixth_order_impulse):
        src = tmp_path / "impulse.json"
        hp.write_impulse_json(sixth_order_impulse, src)
        out = tmp_path / "path"
        proc = run_cli("path", "--input", src, "--epsilon", 0.01, "--out", out)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "doc",
        ["[1, 2, 3]", '{"k_max": 3}', '{"k_max": null, "values": [1.0, 2.0, 3.0]}'],
        ids=["top-level-list", "no-values", "null-k-max"],
    )
    def test_malformed_json_input_is_exit_3(self, tmp_path, doc):
        # each used to end in an uncaught TypeError or KeyError traceback
        src = tmp_path / "impulse.json"
        src.write_text(doc)
        proc = run_cli("path", "--input", src, "--epsilon", 0.01, "--out", tmp_path / "path")
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical error: impulse JSON")
        assert len(proc.stderr.splitlines()) == 1

    def test_one_decomposition_of_h_go_per_path(self, tmp_path, impulse_file, sixth_order_impulse,
                                                monkeypatch, capsys):
        # t_max, and the closed-form test, closed-form result and cold start
        # of every solve, the 5 --verify re-solves included, read one cached
        # eigendecomposition of H(g_o): no decomposition sees H(g_o), or
        # H(g_o / t) for any t, a second time
        H = hp.hankel_embed(sixth_order_impulse).entries
        unit = H / np.abs(H).max()
        calls = []

        def counting(fn):
            def counted(a, *args, **kwargs):
                a = np.asarray(a)
                if (a.shape == H.shape and a.any()
                        and np.abs(a / np.abs(a).max() - unit).max() <= 1e-12):
                    calls.append(1)
                return fn(a, *args, **kwargs)
            return counted

        for owner, name in [(hp.hankel, "eigh_lo"), (hp.hankel, "eigvalsh_lo"),
                            (hp.solver, "eigh_lo"), (np.linalg, "eigh"),
                            (np.linalg, "eigvalsh"), (np.linalg, "svd")]:
            monkeypatch.setattr(owner, name, counting(getattr(owner, name)))
        argv = ["path", "--input", str(impulse_file), "--epsilon", "0.01",
                "--out", str(tmp_path / "path"), "--verify"]
        assert cli.main(argv) == 0
        assert "verify: ok" in capsys.readouterr().out
        assert len(calls) == 1


class TestClosedStdout:
    """A closed stdout ends the output, not the command: the files are
    written, and the exit code is the command's own."""

    def test_gen_writes_and_exits_0(self, tmp_path):
        out = tmp_path / "gen"
        proc = run_cli_closed_stdout("gen", "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert (out / "system.json").exists() and (out / "impulse.csv").exists()

    def test_path_still_verifies(self, tmp_path, impulse_file):
        out = tmp_path / "path"
        proc = run_cli_closed_stdout(
            "path", "--input", impulse_file, "--epsilon", 0.01, "--out", out, "--verify"
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "path.json").read_bytes() == (
            hp.compute_path(hp.read_impulse_csv(impulse_file), 0.01).to_json().encode()
        )

    def test_failed_verify_still_exits_3(self, tmp_path):
        # the system, eps and budget of
        # test_verify_fails_on_unconverged_uncertified_resolve
        g_o = hp.impulse_response(hp.random_system(6, 1), FIXTURE_K_MAX)
        src = tmp_path / "impulse.csv"
        hp.write_impulse_csv(g_o, src)
        proc = run_cli_closed_stdout(
            "path", "--input", src, "--epsilon", 10.0, "--out", tmp_path / "path",
            "--verify", "--max-iters", 1,
        )
        assert proc.returncode == 3
        assert "neither certified nor converged" in proc.stderr

    def test_missing_input_still_exits_2(self, tmp_path):
        proc = run_cli_closed_stdout(
            "solve", "--input", tmp_path / "nope.csv", "--t", 1.0, "--out", tmp_path
        )
        assert proc.returncode == 2
        assert "i/o error" in proc.stderr and "Broken pipe" not in proc.stderr


class TestCachedParser:
    def test_second_call_shows_default_behaviour(self, tmp_path, impulse_file, capsys):
        # the parser is built once per process; the flags of one call must
        # not leak into the next
        out1, out2 = tmp_path / "a", tmp_path / "b"
        code = cli.main([
            "path", "--input", str(impulse_file), "--out", str(out1),
            "--verify", "--grid-points", "5",
        ])
        assert code == 0
        assert "verify: ok" in capsys.readouterr().out
        doc1 = json.loads((out1 / "path.json").read_text())
        assert len(doc1["samples"]) == 5 * doc1["m"]
        assert cli.main(["path", "--input", str(impulse_file), "--out", str(out2)]) == 0
        assert "verify: ok" not in capsys.readouterr().out
        doc2 = json.loads((out2 / "path.json").read_text())
        assert len(doc2["samples"]) == 20 * doc2["m"]
        assert doc2["epsilon"] == 0.01

    def test_unknown_config_key_after_cached_build(self, tmp_path, impulse_file, capsys):
        assert cli.main(["gen", "--out", str(tmp_path / "gen")]) == 0
        config = tmp_path / "config.json"
        config.write_text('{"epsilonn": 0.05}')
        code = cli.main([
            "path", "--input", str(impulse_file), "--config", str(config),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: config key 'epsilonn'")


@pytest.mark.parametrize(
    "command, flags, config",
    [
        ("path", ["--epsilon", "nan"], None),
        ("path", ["--epsilon", "inf"], None),
        ("solve", ["--t", "nan"], None),
        ("solve", ["--t", "inf"], None),
        ("path", [], {"epsilon": "abc"}),
        ("path", [], {"epsilon": None}),
        ("path", [], {"max_iters": 2.5}),
        ("path", [], {"max_iters": True}),
        ("path", [], {"grid_points": 3.7}),
        ("path", [], {"jobs": True}),
        ("path", ["--jobs", "2"], None),
        ("path", ["--jobs", "0"], None),
        ("path", [], {"jobs": 2}),
        ("path", ["--rank-tol", "1e-6"], None),
        ("path", ["--rho", "1"], None),
        ("path", [], {"epsilonn": 0.05}),
        ("path", [], {"rank_tol": 1e-6}),
        ("path", [], {"rho": 1}),
        ("path", [], {"input": "x.csv"}),
        ("solve", ["--t", "0.5"], {"t": 0.5}),
        ("path", [], {"verify": "no"}),
        ("path", [], {"out": None}),
        ("path", [], {"epsilon": [1]}),
    ],
    ids=[
        "epsilon-nan", "epsilon-inf", "t-nan", "t-inf", "config-epsilon-abc",
        "config-epsilon-null", "config-max-iters-2.5", "config-max-iters-true",
        "config-grid-points-3.7",
        "config-jobs-true", "jobs-2", "jobs-0", "config-jobs-2",
        "removed-rank-tol", "removed-rho", "config-unknown-key",
        "config-removed-rank-tol", "config-removed-rho", "config-required-input",
        "config-required-t", "config-verify-no", "config-out-null",
        "config-epsilon-list",
    ],
)
def test_bad_option_value_is_usage_error(tmp_path, impulse_file, command, flags, config):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        flags = flags + ["--config", path]
    proc = run_cli(command, "--input", impulse_file, *flags, "--out", tmp_path / "out")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: "), proc.stderr
    for key in config or ():
        assert key in proc.stderr or key.replace("_", "-") in proc.stderr, proc.stderr


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("gen", "order", 3), ("gen", "seed", 5), ("gen", "k_max", 21), ("gen", "out", None),
        ("solve", "max_iters", 3), ("solve", "tol", 1e-7), ("solve", "out", None),
        ("path", "epsilon", 0.05), ("path", "grid_points", 5), ("path", "max_iters", 4000), ("path", "tol", 1e-8), ("path", "format", "csv"),
        ("path", "verify", True), ("path", "jobs", 1), ("path", "out", None),
    ],
)
def test_config_key_acts_as_its_flag(tmp_path, impulse_file, monkeypatch, capsys,
                                     command, key, value):
    # --input and --t are required on the command line and --config names the
    # file, so every other option is set once by flag and once by config key;
    # an "out" config key used to be overridden by the flag's default "."
    monkeypatch.chdir(tmp_path)
    required = {"gen": [], "solve": ["--input", str(impulse_file), "--t", "0.5"],
                "path": ["--input", str(impulse_file)]}[command]
    by_flag, by_config = tmp_path / "flag", tmp_path / "config"
    flag = "--" + key.replace("_", "-")
    config = tmp_path / "config.json"
    if key == "out":
        config.write_text(json.dumps({"out": str(by_config)}))
        config_argv = [command, *required, "--config", str(config)]
        flag_argv = [command, *required, "--out", str(by_flag)]
    else:
        config.write_text(json.dumps({key: value}))
        config_argv = [command, *required, "--config", str(config), "--out", str(by_config)]
        value_tokens = [] if value is True else [str(value)]
        flag_argv = [command, *required, flag, *value_tokens, "--out", str(by_flag)]
    runs = []
    for argv, out in ((flag_argv, by_flag), (config_argv, by_config)):
        code = cli.main(argv)
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        files = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}
        runs.append((code, [l for l in stdout.splitlines() if "wall_time_s" not in l], files))
    assert runs[0][2], runs[0]
    assert runs[1] == runs[0]
    # nothing landed in the working directory
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "config", "config.json", "flag", "impulse.csv"]


def test_config_key_of_another_command_is_ignored(tmp_path, impulse_file, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"t": 0.5, "order": 3}')
    argv = ["path", "--input", str(impulse_file), "--out", str(tmp_path / "out")]
    assert cli.main(argv + ["--config", str(config)]) == 0
    with_config = (tmp_path / "out" / "path.json").read_bytes()
    assert cli.main(argv) == 0
    assert (tmp_path / "out" / "path.json").read_bytes() == with_config


def test_config_file_not_utf8_is_usage_error(tmp_path, impulse_file, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'\xff\xfe{"epsilon": 0.05}')
    argv = ["path", "--input", str(impulse_file), "--config", str(config),
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: config file is not valid JSON")


def test_unknown_command_is_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1
