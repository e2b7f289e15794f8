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
