"""Regularization-path driver.

Walks the constraint level t from 0 up to t_max = ||H(g_o)||_*, solving the
constrained fit exactly only at breakpoints where the frozen solution's gap
certificate reaches eps, and records the Hankel singular values of each exact
solution for model-order selection.  Between breakpoints the previous solution
is reused; every reported sample carries its certified gap, so the true path
is confined to [f_approx - gap, f_approx] throughout.

The loop cannot start at t = 0 (the zero solution has no subgradient
certificate).  Instead the zero model is certified directly on [0, t1] by the
norm bound f_t(g) >= max(0, ||g_o|| - t)^2 (feasible g have ||g||_2 <= 1), and
t1 = ||g_o|| - sqrt(max(0, ||g_o||^2 - eps)) is the largest level at which
that elementary certificate still meets eps.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._textio import fmt17, json_list, json_nested_list, write_text
from .certificates import (
    GapCertificate,
    _segment_samples,
    duality_gap,  # not called here; bench/run.py wraps hankelpath.path.duality_gap
    next_breakpoint,
    subgradient_vector,
)
# hankel_singular_values is not called here; bench/run.py wraps
# hankelpath.path.hankel_singular_values
from .hankel import as_impulse, compute_t_max, hankel_singular_values
from .solver import SolveResult, SolverOptions, solve_constrained


class PathSample(NamedTuple):
    t: float
    f_approx: float
    gap: float


class SampleTable(Sequence):
    """The samples of a path as one read-only float64 (N, 3) table of
    (t, f_approx, gap) rows.  Indexing, iteration and len() see a sequence
    of PathSample; a slice is a list of them.  Built from a sequence of such
    rows or an (N, 3) array, which is copied."""

    def __init__(self, rows=()):
        self._rows = np.array(rows, dtype=float).reshape(-1, 3)
        self._rows.flags.writeable = False

    @property
    def array(self) -> np.ndarray:
        """The (N, 3) table itself, read-only."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [PathSample(*row) for row in self._rows[i].tolist()]
        return PathSample(*self._rows[i].tolist())

    def __iter__(self):
        return (PathSample(*row) for row in self._rows.tolist())


class PathAborted(RuntimeError):
    """Solver failure mid-path; carries the partial result computed so far."""

    def __init__(self, message: str, partial: "PathResult"):
        super().__init__(message)
        self.partial = partial


@dataclass
class PathResult:
    """Breakpoints, exact solutions, singular-value records and gap samples.

    The exact solutions hold no splitting state and no spectrum
    (admm_state and singular_values are None): compute_path keeps only the
    last state, for the next warm start, and singular_values[i] is t times
    solve i's spectrum.  samples
    is a SampleTable; a sequence of (t, f_approx, gap) rows passed in, as
    by dataclasses.replace(path, samples=[...]), becomes one.
    """

    breakpoints: list[float]
    exact_solutions: list[SolveResult]
    singular_values: list[np.ndarray]
    samples: SampleTable
    epsilon: float
    t_max: float
    bootstrap_t: float
    partial: bool = False
    certificates: list[GapCertificate] = field(default_factory=list, repr=False)

    def __post_init__(self):
        if not isinstance(self.samples, SampleTable):
            self.samples = SampleTable(self.samples)

    @property
    def m(self) -> int:
        """Number of exact solves along the path."""
        return len(self.breakpoints)

    @property
    def objectives(self) -> list[float]:
        return [r.objective for r in self.exact_solutions]

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        """Deterministic JSON document (17 significant digits per float)."""
        parts = [
            '"epsilon": %s' % fmt17(self.epsilon),
            '"t_max": %s' % fmt17(self.t_max),
            '"m": %d' % self.m,
            '"partial": %s' % ("true" if self.partial else "false"),
            '"bootstrap_t": %s' % fmt17(self.bootstrap_t),
            '"breakpoints": %s' % json_list(self.breakpoints),
            '"objectives": %s' % json_list(self.objectives),
            '"singular_values": %s' % json_nested_list(self.singular_values),
            '"samples": [%s]'
            % ", ".join(
                '{"t": %.17g, "f_approx": %.17g, "gap": %.17g}' % (t, f, gap)
                for t, f, gap in self.samples.array.tolist()
            ),
        ]
        return "{" + ", ".join(parts) + "}\n"

    # each writer rewrites its file in place (see _textio.write_text)

    def write_json(self, path) -> None:
        write_text(path, self.to_json())

    def write_samples_csv(self, path) -> None:
        write_text(path, "t,f_approx,gap\n" + "".join(
            "%.17g,%.17g,%.17g\n" % (t, f, gap) for t, f, gap in self.samples.array.tolist()
        ))

    def write_singular_values_csv(self, path) -> None:
        n = max((len(s) for s in self.singular_values), default=0)
        write_text(path, "t," + ",".join(f"sigma_{j + 1}" for j in range(n)) + "\n" + "".join(
            ("%.17g," + ",".join(["%.17g"] * len(sig))) % (t, *sig) + "\n"
            for t, sig in zip(self.breakpoints, self.singular_values)
        ))


def bootstrap_gap(g_o, t: float) -> float:
    """Certified excess of the zero model at level t: ||g_o||^2 - max(0, ||g_o|| - t)^2."""
    norm_go = as_impulse(g_o).norm()
    return norm_go**2 - max(0.0, norm_go - t) ** 2


def _bootstrap_t(norm_go: float, eps: float) -> float:
    if eps >= norm_go**2:
        # the zero model is an eps-approximation everywhere
        return math.inf
    return norm_go - math.sqrt(norm_go**2 - eps)


def compute_path(
    g_o,
    eps: float,
    grid_points_per_segment: int = 20,
    solver_opts: SolverOptions | None = None,
) -> PathResult:
    """Compute the eps-certified regularization path of g_o on [0, t_max].

    Parameters
    ----------
    g_o : ImpulseResponse or array-like
        Nonzero target impulse response.
    eps : float
        Positive finite gap tolerance; every sample's certified gap stays
        <= eps (up to breakpoint rounding).
    grid_points_per_segment : int
        Reporting grid per segment (endpoints included, at least 2); does not
        influence the breakpoints.
    solver_opts : SolverOptions, optional
        Forwarded to every exact solve.  Solves after the first start from
        the previous breakpoint's splitting state.

    Returns
    -------
    PathResult

    Raises
    ------
    PathAborted
        If any breakpoint solve fails to converge; the partial path rides on
        the exception.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be positive and finite")
    # as SolverOptions.max_iters: a bool is an Integral, but no point count
    if not (
        isinstance(grid_points_per_segment, numbers.Integral)
        and not isinstance(grid_points_per_segment, bool)
        and grid_points_per_segment >= 2
    ):
        raise ValueError("grid_points_per_segment must be an integer >= 2")
    if solver_opts is None:
        solver_opts = SolverOptions()
    g_o = as_impulse(g_o)
    if not np.any(g_o.values):
        raise ValueError("g_o must be nonzero (zero target has a degenerate path)")

    t_max = compute_t_max(g_o)
    norm_go = g_o.norm()
    t_first = min(_bootstrap_t(norm_go, eps), t_max)

    breakpoints, solutions, singular_values, certificates = [], [], [], []
    # zero-model segment [0, t_first], priced as bootstrap_gap prices it
    f_zero = norm_go**2
    segments = [[
        (t, f_zero, f_zero - max(0.0, norm_go - t) ** 2)
        for t in np.linspace(0.0, t_first, grid_points_per_segment)
    ]]

    def finish(partial: bool) -> PathResult:
        return PathResult(
            breakpoints=breakpoints,
            exact_solutions=solutions,
            singular_values=singular_values,
            samples=SampleTable(np.concatenate(segments)),
            epsilon=float(eps),
            t_max=t_max,
            bootstrap_t=t_first,
            partial=partial,
            certificates=certificates,
        )

    # each certified segment advances t by at least sqrt(eps) because the
    # growth rate a is at most 1; this cap only guards against cycling
    max_solves = int((t_max - t_first) / math.sqrt(eps) * 10) + 100

    t_i = t_first
    warm = None
    while True:
        # each breakpoint solve starts from the previous one's splitting state
        res = solve_constrained(g_o, t_i, solver_opts, warm_start=warm)
        if not res.converged:
            raise PathAborted(
                f"solver did not converge at breakpoint t={t_i:.6g} "
                f"(primal {res.primal_residual:.3g}, dual {res.dual_residual:.3g})",
                finish(partial=True),
            )
        # the splitting state stays here, for the next warm start only
        warm = res.admm_state
        breakpoints.append(t_i)
        solutions.append(dataclasses.replace(res, admm_state=None, singular_values=None))
        # sigma(H(t g~)) = t sigma(H(g~)), the spectrum the solve already took
        singular_values.append(t_i * res.singular_values)
        dual = None if warm is None else warm[1]
        cert = subgradient_vector(res.g_tilde, t_i, g_o=g_o, dual=dual)
        certificates.append(cert)

        if t_i >= t_max * (1.0 - 1e-12):
            return finish(partial=False)
        if len(breakpoints) > max_solves:
            raise PathAborted(
                f"breakpoint count exceeded the safety cap {max_solves}", finish(partial=True)
            )

        try:
            t_next = next_breakpoint(cert, g_o, eps, t_max)
        except RuntimeError as exc:
            raise PathAborted(str(exc), finish(partial=True)) from exc
        segments.append(_segment_samples(
            cert, g_o.values, np.linspace(t_i, t_next, grid_points_per_segment)
        ))
        t_i = t_next


def segment_owner(result: PathResult, t: float) -> int:
    """Index of the breakpoint whose solution covers t, or -1 for the
    zero-model bootstrap segment."""
    owners = [i for i, b in enumerate(result.breakpoints) if b <= t]
    return owners[-1] if owners else -1
