"""The benchmark's contract with the package: every name bench/run.py traces
exists, and the argv it passes the CLI still runs.  bench/ is loaded as it
stands, never edited."""

import contextlib
import importlib.util
import pathlib

import pytest

import hankelpath as hp
from hankelpath import cli

from conftest import FIXTURE_BANDS, FIXTURE_K_MAX

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_run(monkeypatch):
    # run.py imports its siblings spans and speed by plain name
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(bench_run):
    tracer = bench_run.Tracer()
    try:
        assert bench_run.install_tracer(tracer) == []
    finally:
        tracer.restore()


def test_cli_argv_runs(bench_run, tmp_path):
    g_o = hp.impulse_response(hp.random_system(6, 0, bands=FIXTURE_BANDS), FIXTURE_K_MAX)
    system = {"input": tmp_path / "impulse.csv", "out": tmp_path / "out"}
    hp.write_impulse_csv(g_o, system["input"])
    record = bench_run.cli_path(cli, system, 0.01, contextlib.nullcontext())
    assert record["problems"] == []
    assert record["solves"] >= 1
