"""Hankel embedding of truncated impulse responses and supporting linear algebra.

A length-(2n-1) impulse-response vector g maps to the n-by-n matrix with
constant anti-diagonals

    H(g)[i, j] = g[i + j]        (0-based),

which is symmetric by construction.  The adjoint of the embedding sums
anti-diagonals, and the composition adjoint(embed(g)) rescales g by the
anti-diagonal multiplicities min(k, 2n-k).  The nuclear norm of H(g) is the
convex surrogate for the realization order of the underlying system.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np


def _as_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d coefficient vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("impulse response must have at least one coefficient")
    if not np.all(np.isfinite(arr)):
        raise ValueError("impulse response contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class ImpulseResponse:
    """Finite real impulse-response sequence g_1..g_{k_max} with odd k_max.

    Even-length input is padded with one trailing zero (padding preserves the
    H2 distance to the original sequence).  The stored array is read-only, so
    instances are safe to share between threads.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.values)
        if arr.size % 2 == 0:
            arr = np.append(arr, 0.0)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def k_max(self) -> int:
        return self.values.size

    @property
    def n(self) -> int:
        """Side length of the Hankel embedding, (k_max + 1) // 2."""
        return (self.values.size + 1) // 2

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector (the H2 norm)."""
        return float(np.linalg.norm(self.values))

    @functools.cached_property
    def hankel_nuclear_norm(self) -> float:
        """||H(g)||_*, the sum of hankel_singular_values(g), computed once
        per instance: compute_t_max and the solver's closed-form test both
        read it, so a path and its --verify re-solves decompose H(g_o) once."""
        return float(hankel_singular_values(self).sum())

    def __len__(self) -> int:
        return self.values.size

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype)

    def __repr__(self) -> str:
        return f"ImpulseResponse(k_max={self.k_max})"


def as_impulse(g) -> ImpulseResponse:
    """Coerce an array-like or ImpulseResponse into an ImpulseResponse."""
    if isinstance(g, ImpulseResponse):
        return g
    return ImpulseResponse(np.asarray(g, dtype=float))


@dataclass(frozen=True, eq=False)
class HankelMatrix:
    """Square matrix with constant anti-diagonals.

    The entries are a read-only copy: the caller's array stays writable, and
    later writes to it do not change the matrix.
    """

    entries: np.ndarray
    n: int

    def __post_init__(self):
        ent = np.array(self.entries, dtype=float)
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)

    def __repr__(self) -> str:
        return f"HankelMatrix(n={self.n})"


@functools.lru_cache(maxsize=64)
def embed_indices(n: int) -> np.ndarray:
    """Index matrix IDX[i, j] = i + j that gathers g into H(g); read-only, cached per n."""
    idx = np.add.outer(np.arange(n), np.arange(n))
    idx.setflags(write=False)
    return idx


def hankel_embed(g) -> HankelMatrix:
    """Embed a length-(2n-1) vector as the n-by-n constant-anti-diagonal matrix.

    Parameters
    ----------
    g : ImpulseResponse or 1-d array-like
        Raw array input must already have odd length; use ImpulseResponse to
        opt in to trailing-zero padding.

    Returns
    -------
    HankelMatrix
    """
    if isinstance(g, ImpulseResponse):
        vec = g.values
    else:
        vec = _as_vector(g)
        if vec.size % 2 == 0:
            raise ValueError(
                "even-length vector cannot be Hankel-embedded; wrap it in "
                "ImpulseResponse to pad a trailing zero explicitly"
            )
    n = (vec.size + 1) // 2
    return HankelMatrix(entries=vec[embed_indices(n)], n=n)


def _as_square(M) -> np.ndarray:
    arr = np.asarray(M, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def hankel_adjoint(M) -> np.ndarray:
    """Adjoint of the Hankel embedding: anti-diagonal sums of a square matrix.

    Satisfies <hankel_embed(g), M>_F = <g, hankel_adjoint(M)> for every g.
    Each anti-diagonal is reduced with math.fsum, so sums of identical entries
    are correctly rounded and hankel_adjoint(hankel_embed(g)) equals
    multiplicities(n) * g exactly, not just to roundoff.
    """
    # anti-diagonal k of M is diagonal n-1-k of M with its columns reversed
    flipped = _as_square(M)[:, ::-1]
    n = flipped.shape[0]
    return np.array([math.fsum(flipped.diagonal(n - 1 - k)) for k in range(2 * n - 1)])


def adjoint_fast(M: np.ndarray) -> np.ndarray:
    """bincount-based adjoint for hot loops; 1 ulp noisier than hankel_adjoint."""
    return np.bincount(embed_indices(M.shape[0]).ravel(), weights=M.ravel())


def multiplicities(n: int) -> np.ndarray:
    """Number of appearances of each coefficient in the embedding: min(k, 2n-k)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(1, 2 * n)
    return np.minimum(k, 2 * n - k).astype(float)


def symmetric_singular_values(H: np.ndarray) -> np.ndarray:
    """All singular values of a symmetric matrix, descending: the magnitudes
    of its eigenvalues (only the lower triangle is read)."""
    return np.sort(np.abs(np.linalg.eigvalsh(H)))[::-1]


def hankel_singular_values(g) -> np.ndarray:
    """All singular values of the Hankel embedding of g, descending.

    H(g) is symmetric, so they are the magnitudes of its eigenvalues.  Every
    Hankel nuclear norm in the package is the sum of this array (or of
    symmetric_singular_values on an H(g) already at hand), which keeps
    compute_t_max and the solver's closed-form test in exact agreement.
    """
    return symmetric_singular_values(hankel_embed(as_impulse(g)).entries)


def compute_t_max(g_o) -> float:
    """Smallest t with a perfect fit: the nuclear norm of H(g_o)."""
    return as_impulse(g_o).hankel_nuclear_norm


# ---------------------------------------------------------------------------
# File formats: CSV (one coefficient per line) and JSON {"k_max", "values"}.
# ---------------------------------------------------------------------------

def write_impulse_csv(g: ImpulseResponse, path) -> None:
    from ._textio import fmt17, write_text

    write_text(path, "".join(fmt17(v) + "\n" for v in as_impulse(g).values))


def read_impulse_csv(path) -> ImpulseResponse:
    with open(path, "r", encoding="utf-8") as fh:
        vals = [float(line) for line in fh if line.strip()]
    return ImpulseResponse(np.array(vals))


def write_impulse_json(g: ImpulseResponse, path) -> None:
    from ._textio import fmt17, write_text

    g = as_impulse(g)
    body = ", ".join(fmt17(v) for v in g.values)
    write_text(path, '{"k_max": %d, "values": [%s]}\n' % (g.k_max, body))


def read_impulse_json(path) -> ImpulseResponse:
    """Read {"values": [...]} with an optional integer "k_max"; a document
    of any other shape raises ValueError naming the defect."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"impulse JSON must be an object, got {type(doc).__name__}")
    if "values" not in doc:
        raise ValueError('impulse JSON has no "values" list')
    try:
        values = np.asarray(doc["values"], dtype=float)
    except TypeError as exc:
        raise ValueError(f'impulse JSON "values" is not a list of numbers: {exc}') from exc
    if "k_max" in doc:
        k_max = doc["k_max"]
        if type(k_max) is not int:
            raise ValueError(f'impulse JSON "k_max" must be an integer, got {k_max!r}')
        if k_max != values.size:
            raise ValueError("k_max field disagrees with the number of values")
    return ImpulseResponse(values)
