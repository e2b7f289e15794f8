import os
import pathlib

import numpy as np
import pytest

import hankelpath as hp

# Subprocess tests (CLI, demos) import the package from src/ like the
# in-process tests, installed or not.
SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# Frozen acceptance fixture: 6th-order system, one dominant complex pole pair
# near the unit circle plus four weak small-residue poles, k_max = 31.  Chosen
# so sigma_3/sigma_1 of H(g_o) <= 0.01 and t_max sits near 1 (a handful of
# breakpoints at eps = 0.01).
FIXTURE_SEED = 10
FIXTURE_BANDS = [(2, (0.88, 0.92), 0.1), (4, (0.15, 0.3), 0.002)]
FIXTURE_K_MAX = 31
# The order-100 system of demos/04: ten strong modes, ninety weak ones.
ORDER100_SEED = 4
ORDER100_BANDS = [(10, (0.9, 0.96), 3.0), (90, (0.1, 0.6), 0.02)]


@pytest.fixture(scope="session")
def sixth_order_spec():
    return hp.random_system(6, FIXTURE_SEED, bands=FIXTURE_BANDS)


@pytest.fixture(scope="session")
def sixth_order_impulse(sixth_order_spec):
    return hp.impulse_response(sixth_order_spec, FIXTURE_K_MAX)


@pytest.fixture(scope="session")
def sixth_order_path(sixth_order_impulse):
    return hp.compute_path(sixth_order_impulse, eps=0.01)


@pytest.fixture(scope="session")
def rank1_impulse():
    """Single pole 0.5, residue 1: H(g) is rank one with nuclear norm 4/3 - ish."""
    spec = hp.SystemSpec(poles=(0.5,), residues=(1.0,))
    return hp.impulse_response(spec, 15)


@pytest.fixture(scope="session")
def order100_spec():
    return hp.random_system(100, ORDER100_SEED, bands=ORDER100_BANDS)


@pytest.fixture(scope="session")
def order100_path(order100_spec):
    """(g_o, path) of the order-100 system at k_max = 51 (n = 26), eps = 12."""
    g_o = hp.impulse_response(order100_spec, 51)
    return g_o, hp.compute_path(g_o, eps=12.0)


@pytest.fixture(scope="session")
def wide_held_out_impulse():
    """A held-out member of the order-100 family (seed 5) at k_max = 81 (n = 41)."""
    return hp.impulse_response(hp.random_system(100, 5, bands=ORDER100_BANDS), 81)


@pytest.fixture(scope="session")
def wide_path(order100_spec):
    """(g_o, path) of the order-100 system at k_max = 81 (n = 41), eps = 40."""
    g_o = hp.impulse_response(order100_spec, 81)
    return g_o, hp.compute_path(g_o, eps=40.0)


def path_solves(monkeypatch, g_o, eps):
    """(compute_path(g_o, eps), its solves as solve_constrained returned
    them): the path keeps no splitting state, so tests that read it record
    each solve on the way."""
    real = hp.path.solve_constrained
    solves = []

    def recording(*args, **kwargs):
        solves.append(real(*args, **kwargs))
        return solves[-1]

    with monkeypatch.context() as m:
        m.setattr(hp.path, "solve_constrained", recording)
        return hp.compute_path(g_o, eps), solves
