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

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._textio import fmt17, json_list, json_nested_list
from .certificates import GapCertificate, duality_gap, next_breakpoint, subgradient_vector
from .hankel import as_impulse, compute_t_max, hankel_singular_values
from .solver import SolveResult, SolverOptions, solve_constrained


class PathSample(NamedTuple):
    t: float
    f_approx: float
    gap: float


class PathAborted(RuntimeError):
    """Solver failure mid-path; carries the partial result computed so far."""

    def __init__(self, message: str, partial: "PathResult"):
        super().__init__(message)
        self.partial = partial


@dataclass
class PathResult:
    """Breakpoints, exact solutions, singular-value records and gap samples."""

    breakpoints: list[float]
    exact_solutions: list[SolveResult]
    singular_values: list[np.ndarray]
    samples: list[PathSample]
    epsilon: float
    t_max: float
    bootstrap_t: float
    partial: bool = False
    certificates: list[GapCertificate] = field(default_factory=list, repr=False)

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
                '{"t": %s, "f_approx": %s, "gap": %s}'
                % (fmt17(s.t), fmt17(s.f_approx), fmt17(s.gap))
                for s in self.samples
            ),
        ]
        return "{" + ", ".join(parts) + "}\n"

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_json())

    def write_samples_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,f_approx,gap\n")
            for s in self.samples:
                fh.write("%s,%s,%s\n" % (fmt17(s.t), fmt17(s.f_approx), fmt17(s.gap)))

    def write_singular_values_csv(self, path) -> None:
        n = max((len(s) for s in self.singular_values), default=0)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t," + ",".join(f"sigma_{j + 1}" for j in range(n)) + "\n")
            for t, sig in zip(self.breakpoints, self.singular_values):
                fh.write(fmt17(t) + "," + ",".join(fmt17(v) for v in sig) + "\n")


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
        Gap tolerance; every sample's certified gap stays <= eps (up to
        breakpoint rounding).
    grid_points_per_segment : int
        Reporting grid per segment (endpoints included); does not influence
        the breakpoints.
    solver_opts : SolverOptions, optional
        Forwarded to every exact solve; rank_tol also feeds the certificates.
        Solves after the first start from the previous breakpoint's
        splitting state, so opts.rho only sets the first solve's start.

    Returns
    -------
    PathResult

    Raises
    ------
    PathAborted
        If any breakpoint solve fails to converge; the partial path rides on
        the exception.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if grid_points_per_segment < 2:
        raise ValueError("grid_points_per_segment must be >= 2")
    if solver_opts is None:
        solver_opts = SolverOptions()
    g_o = as_impulse(g_o)
    if not np.any(g_o.values):
        raise ValueError("g_o must be nonzero (zero target has a degenerate path)")

    t_max = compute_t_max(g_o)
    norm_go = g_o.norm()
    t_first = min(_bootstrap_t(norm_go, eps), t_max)

    result = PathResult(
        breakpoints=[],
        exact_solutions=[],
        singular_values=[],
        samples=[],
        epsilon=float(eps),
        t_max=t_max,
        bootstrap_t=t_first,
    )

    # zero-model segment [0, t_first]
    f_zero = norm_go**2
    for t in np.linspace(0.0, t_first, grid_points_per_segment):
        result.samples.append(PathSample(float(t), f_zero, bootstrap_gap(g_o, t)))

    # each certified segment advances t by at least sqrt(eps) because the
    # growth rate a is at most 1; this cap only guards against cycling
    max_solves = int((t_max - t_first) / math.sqrt(eps) * 10) + 100

    t_i = t_first
    warm = None
    while True:
        # each breakpoint solve starts from the previous one's splitting state
        res = solve_constrained(g_o, t_i, solver_opts, warm_start=warm)
        if not res.converged:
            result.partial = True
            raise PathAborted(
                f"solver did not converge at breakpoint t={t_i:.6g} "
                f"(primal {res.primal_residual:.3g}, dual {res.dual_residual:.3g})",
                result,
            )
        warm = res.admm_state
        result.breakpoints.append(t_i)
        result.exact_solutions.append(res)
        result.singular_values.append(hankel_singular_values(t_i * res.g_tilde.values))
        cert = subgradient_vector(
            res.g_tilde, t_i, g_o=g_o, rank_tol=solver_opts.rank_tol
        )
        result.certificates.append(cert)

        if t_i >= t_max * (1.0 - 1e-12):
            break
        if len(result.breakpoints) > max_solves:
            result.partial = True
            raise PathAborted(
                f"breakpoint count exceeded the safety cap {max_solves}", result
            )

        try:
            t_next = next_breakpoint(cert, g_o, eps, t_max)
        except RuntimeError as exc:
            result.partial = True
            raise PathAborted(str(exc), result) from exc
        for t in np.linspace(t_i, t_next, grid_points_per_segment):
            result.samples.append(
                PathSample(
                    float(t),
                    float(np.sum((t * res.g_tilde.values - g_o.values) ** 2)),
                    duality_gap(cert, g_o, float(t)),
                )
            )
        t_i = t_next

    return result


def segment_owner(result: PathResult, t: float) -> int:
    """Index of the breakpoint whose solution covers t, or -1 for the
    zero-model bootstrap segment."""
    owners = [i for i, b in enumerate(result.breakpoints) if b <= t]
    return owners[-1] if owners else -1
