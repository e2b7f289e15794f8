"""Regularization-path driver.

Walks the constraint level t from 0 up to t_max = ||H(g_o)||_*, solving the
constrained fit exactly only at breakpoints where the frozen solution's gap
certificate reaches eps, and records the Hankel singular values of each exact
solution for model-order selection.  Between breakpoints the previous solution
is reused; every reported sample carries its certified gap, so the true path
is confined to [f_approx - gap, f_approx] throughout.

The loop cannot start at t = 0 (the zero solution has no subgradient
certificate).  Instead the zero model is certified directly on [0, t1] by the
norm bound f_t(g) >= max(0, ||g_o|| - t)^2 (feasible g have ||g||_2 <= 1),
so its gap is t (2 ||g_o|| - t) below ||g_o||, and
t1 = eps / (||g_o|| + sqrt(||g_o||^2 - eps)) is the largest level at which
that elementary certificate still meets eps.  Both forms are free of
cancellation at small eps.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from ._textio import fmt17, json_list, write_text
from .certificates import (
    DegenerateCertificateError,
    GapCertificate,
    _segment_samples,
    duality_gap,  # not called here; bench/run.py wraps hankelpath.path.duality_gap
    next_breakpoint,
    subgradient_vector,
)
from .hankel import _require_count, _require_positive, as_impulse, compute_t_max
# not called here; bench/run.py wraps hankelpath.path.hankel_singular_values
from .hankel import hankel_singular_values
from .solver import SolveResult, SolverOptions, _best_start, solve_constrained


# the fields of a sample row, as PathResult.samples names them
_SAMPLE_FIELDS = np.dtype([("t", float), ("f_approx", float), ("gap", float)])


class PathAborted(RuntimeError):
    """Solver failure mid-path; carries the partial result computed so far."""

    def __init__(self, message: str, partial: "PathResult"):
        super().__init__(message)
        self.partial = partial


@dataclass
class PathResult:
    """One exact solve per breakpoint, its certificate, and the gap samples.

    breakpoints, objectives and singular_values (t times the spectrum) are
    read off the solves, which hold neither admm_state nor dual_direction.
    samples is a read-only record array with float fields t, f_approx and
    gap: a row unpacks as (t, f_approx, gap), and samples.gap is a column.
    Rows passed in, as by dataclasses.replace(path, samples=rows), may be a
    record array of those fields or (N, 3) floats, which are viewed where
    they are contiguous; another nonempty shape raises ValueError.
    """

    exact_solutions: list[SolveResult]
    samples: np.recarray
    epsilon: float
    t_max: float
    bootstrap_t: float
    partial: bool = False
    certificates: list[GapCertificate] = field(default_factory=list, repr=False)

    def __post_init__(self):
        rows = self.samples
        if not (isinstance(rows, np.ndarray) and rows.dtype == _SAMPLE_FIELDS):
            rows = np.ascontiguousarray(rows, dtype=float)
            if rows.size and (rows.ndim != 2 or rows.shape[1] != 3):
                raise ValueError(f"samples must be (N, 3) rows, got shape {rows.shape}")
            rows = rows.reshape(-1, 3).view(_SAMPLE_FIELDS)[:, 0]
        self.samples = rows.view(np.recarray)
        self.samples.flags.writeable = False

    @property
    def m(self) -> int:
        """Number of exact solves along the path."""
        return len(self.exact_solutions)

    @property
    def breakpoints(self) -> list[float]:
        return [r.t for r in self.exact_solutions]

    @property
    def objectives(self) -> list[float]:
        return [r.objective for r in self.exact_solutions]

    @property
    def singular_values(self) -> list[np.ndarray]:
        return [r.t * r.singular_values for r in self.exact_solutions]

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
            '"singular_values": [%s]' % ", ".join(map(json_list, self.singular_values)),
            '"samples": [%s]'
            % ", ".join(
                '{"t": %.17g, "f_approx": %.17g, "gap": %.17g}' % (t, f, gap)
                for t, f, gap in self.samples.tolist()
            ),
        ]
        return "{" + ", ".join(parts) + "}\n"

    # each writer rewrites its file in place (see _textio.write_text)

    def write_json(self, path) -> None:
        write_text(path, self.to_json())

    def write_samples_csv(self, path) -> None:
        write_text(path, "t,f_approx,gap\n" + "".join(
            "%.17g,%.17g,%.17g\n" % (t, f, gap) for t, f, gap in self.samples.tolist()
        ))

    def write_singular_values_csv(self, path) -> None:
        n = max((len(r.singular_values) for r in self.exact_solutions), default=0)
        write_text(path, ",".join(["t"] + [f"sigma_{j + 1}" for j in range(n)]) + "\n" + "".join(
            ("%.17g," + ",".join(["%.17g"] * len(sig))) % (t, *sig) + "\n"
            for t, sig in zip(self.breakpoints, self.singular_values)
        ))


def bootstrap_gap(g_o, t: float) -> float:
    """Certified excess of the zero model at level t: ||g_o||^2 - max(0, ||g_o|| - t)^2.
    A negative or NaN t raises ValueError."""
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    return float(_zero_model_gap(as_impulse(g_o).norm(), t))


def _zero_model_gap(norm_go: float, t):
    """bootstrap_gap at a level t, or at each of an array of levels."""
    t = np.minimum(t, norm_go)
    return t * (2.0 * norm_go - t)


def _bootstrap_t(norm_go: float, eps: float) -> float:
    """t1, where the zero model's gap reaches eps; inf where it never does."""
    if eps >= norm_go**2:
        return math.inf
    return eps / (norm_go + math.sqrt(norm_go**2 - eps))


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
        <= eps, up to breakpoint rounding and what pricing f_approx at an
        exactly feasible point adds.
    grid_points_per_segment : int
        Reporting grid per segment (endpoints included, at least 2); does not
        influence the breakpoints.
    solver_opts : SolverOptions, optional
        Forwarded to every exact solve.  The first solve starts cold.  Each
        later loop solve starts from whichever of the previous breakpoint's
        splitting state, the cold start and, from the third solve on, the
        secant through the last two breakpoints' states has the smallest
        first fixed-point residual at its t (solver._best_start); the
        closed form at t_max takes no start.

    Returns
    -------
    PathResult

    Raises
    ------
    ValueError
        For a zero g_o or one whose ||g_o||^2 overflows, an eps that is not
        positive and finite or so small next to ||g_o|| that the zero
        model's level t1 underflows to 0, or fewer than 2 grid points.
    PathAborted
        If any breakpoint solve fails to converge, or stops at g~ = 0, which
        has no certificate; the partial path, each solve with its
        certificate, rides on the exception.
    """
    eps = _require_positive("eps", eps)
    _require_count("grid_points_per_segment", grid_points_per_segment, 2)
    g_o = as_impulse(g_o)
    if not np.any(g_o.values):
        raise ValueError("g_o must be nonzero (zero target has a degenerate path)")
    # solve_constrained's rule, before anything squares ||g_o||
    with np.errstate(over="ignore"):
        if not g_o.values @ g_o.values < math.inf:
            raise ValueError("||g_o||^2 must be a finite float")

    t_max = compute_t_max(g_o)
    norm_go = g_o.norm()
    t_first = min(_bootstrap_t(norm_go, eps), t_max)
    if not t_first > 0:
        raise ValueError("eps is too small next to ||g_o||: the zero model's level "
                         "t1 = eps / (||g_o|| + sqrt(||g_o||^2 - eps)) underflows to 0")

    solutions, certificates = [], []
    # zero-model segment [0, t_first], priced as bootstrap_gap prices it
    ts = np.linspace(0.0, t_first, grid_points_per_segment)
    segments = [np.column_stack((ts, np.full_like(ts, norm_go**2), _zero_model_gap(norm_go, ts)))]

    def finish(partial: bool) -> PathResult:
        return PathResult(
            exact_solutions=solutions,
            samples=np.concatenate(segments),
            epsilon=eps,
            t_max=t_max,
            bootstrap_t=t_first,
            partial=partial,
            certificates=certificates,
        )

    # each certified segment advances t by at least sqrt(eps) because the
    # growth rate a is at most 1; this cap only guards against cycling.  It
    # stays a float: at a tiny eps it may be inf, which int() cannot take
    max_solves = (t_max - t_first) / math.sqrt(eps) * 10 + 100

    t_i = t_first
    # the start of the next solve, and (t, X, U_dual) of the solve before the last
    warm = older = None
    while True:
        res = solve_constrained(g_o, t_i, solver_opts, warm_start=warm)
        if not res.converged:
            raise PathAborted(
                f"solver did not converge at breakpoint t={t_i:.6g} "
                f"(primal {res.primal_residual:.3g}, dual {res.dual_residual:.3g})",
                finish(partial=True),
            )
        try:
            cert = subgradient_vector(res.g_tilde, t_i, g_o=g_o, h=res.dual_direction)
        except DegenerateCertificateError as exc:
            raise PathAborted(str(exc), finish(partial=True)) from exc
        solutions.append(dataclasses.replace(res, admm_state=None, dual_direction=None))
        certificates.append(cert)

        if t_i >= t_max * (1.0 - 1e-12):
            return finish(partial=False)
        if len(solutions) > max_solves:
            raise PathAborted(
                f"breakpoint count exceeded the safety cap {max_solves:.0f}", finish(partial=True)
            )

        try:
            t_next = next_breakpoint(cert, g_o, eps, t_max)
            segments.append(_segment_samples(
                cert, g_o.values, np.linspace(t_i, t_next, grid_points_per_segment),
                res.nuclear_norm_value,
            ))
        except RuntimeError as exc:
            raise PathAborted(str(exc), finish(partial=True)) from exc
        # the splitting states stay here, for the next starts only; the
        # closed form at t_max takes none
        warm = _best_start(g_o, t_next, t_i, res.admm_state, older) if t_next < t_max else None
        older = (t_i, *res.admm_state[:2])
        t_i = t_next


def segment_owner(result: PathResult, t: float) -> int:
    """Index of the breakpoint whose solution covers t, or -1 for the
    zero-model bootstrap segment."""
    owners = [i for i, b in enumerate(result.breakpoints) if b <= t]
    return owners[-1] if owners else -1
