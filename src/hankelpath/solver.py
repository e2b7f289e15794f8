"""Splitting solver for the constrained fit problem

    minimize   ||t*g - g_o||_2^2
    subject to ||H(g)||_*  <=  1,

with H the Hankel embedding.  The solver alternates a closed-form coefficient
update (the normal equations are diagonal because adjoint(embed(g)) equals
multiplicities * g), a nuclear-ball projection of the embedded iterate, and a
scaled dual update, until primal and dual residuals fall below tolerances.

That splitting step is a fixed-point map of z = X + U_dual, and the loop
extrapolates it by safeguarded type-II Anderson acceleration (Walker & Ni,
SIAM J. Numer. Anal. 2011; the safeguard after Zhang, O'Donoghue & Boyd,
SIAM J. Optim. 2020).  Every iteration is still a splitting step from a
consistent state, and convergence is decided on that step alone.

When one residual exceeds the other tenfold, residual balancing scales the
penalty rho by sqrt(r_pri / r_dual) clipped to [0.1, 10] (Wohlberg, ADMM
penalty parameter selection by residual balancing, 2017).  Each change of
rho changes the map and drops the Anderson history.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dposv

from .hankel import (
    ImpulseResponse,
    DEFAULT_RANK_TOL,
    adjoint_fast,
    as_impulse,
    embed_indices,
    hankel_singular_values,
    multiplicities,
)

#: Number of past differences the Anderson-accelerated loop keeps.
AA_MEM = 16
#: Tikhonov weight of the Anderson normal equations, relative to their trace.
AA_REG = 1e-10
#: Largest factor by which one residual-balancing step scales rho.
BALANCE_MAX = 10.0


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for solve_constrained.

    primal_tol / dual_tol default to 1e-9 * (1 + ||g_o||) when left None.
    The stopping thresholds additionally scale with problem size and with
    min(1, 2 t^2): the fit term's curvature is 2 t^2, so without that factor
    the solution error at small t would be residual / (2 t^2), far looser
    than the certificate machinery downstream can tolerate.
    """

    rho: float = 1.0
    max_iters: int = 5000
    primal_tol: float | None = None
    dual_tol: float | None = None
    rank_tol: float = DEFAULT_RANK_TOL

    def __post_init__(self):
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be positive and finite")
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise ValueError("max_iters must be an integer >= 1")
        for name in ("primal_tol", "dual_tol"):
            tol = getattr(self, name)
            if tol is not None and not (np.isfinite(tol) and tol > 0):
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.rank_tol < 1.0:
            raise ValueError("rank_tol must lie in (0, 1)")


@dataclass(frozen=True)
class SolveResult:
    """Solution of the constrained fit at one t, with iteration diagnostics.

    admm_state is the splitting state (X, U_dual, rho) the iteration stopped
    at, read-only, for warm-starting a solve at a nearby t; None when the
    closed-form branch ran.
    """

    g_tilde: ImpulseResponse
    t: float
    objective: float
    nuclear_norm_value: float
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool
    admm_state: tuple | None = field(default=None, repr=False, compare=False)


def project_simplex_l1(s, radius: float) -> np.ndarray:
    """Euclidean projection of a nonnegative vector onto {x >= 0 : sum(x) <= radius}.

    If the input already satisfies the budget it is returned unchanged;
    otherwise the unique threshold theta with sum(max(s - theta, 0)) = radius
    is found exactly by the sort-based scheme (no sampling, ties handled by
    the cumulative-sum rule).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    s = np.asarray(s, dtype=float)
    if s.size and s.min() < 0:
        raise ValueError("entries must be nonnegative")
    if s.sum() <= radius:
        return s
    d = np.sort(s)[::-1]
    # candidate thresholds (cumsum_k - radius) / k; the support is the prefix
    # of sorted entries that stay above their threshold
    theta = d.cumsum()
    theta -= radius
    theta /= np.arange(1, d.size + 1)
    k = np.flatnonzero(d > theta)[-1]
    return np.maximum(s - theta[k], 0.0)


def project_nuclear_ball(M, radius: float) -> np.ndarray:
    """Frobenius-nearest matrix with nuclear norm <= radius.

    Computed as U diag(project_simplex_l1(S, radius)) V^T on the SVD;
    matrices already inside the ball pass through untouched, so the map is
    idempotent, and as a projection onto a convex set it is non-expansive.

    An exactly symmetric input (every Hankel iterate of the solver) takes the
    cheaper eigendecomposition Q diag(lam) Q^T instead: |lam| are its singular
    values, so the projection shrinks |lam| on the simplex and keeps the
    signs.  The result is symmetrized bit for bit, so the solver's iterates
    stay on this branch.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    arr = np.asarray(M, dtype=float)
    if arr.ndim == 2 and np.array_equal(arr, arr.T):
        lam, Q = np.linalg.eigh(arr)
        mag = np.abs(lam)
        if mag.sum() <= radius:
            return arr
        P = (Q * np.copysign(project_simplex_l1(mag, radius), lam)) @ Q.T
        return 0.5 * (P + P.T)
    U, S, Vh = np.linalg.svd(arr, full_matrices=False)
    if S.sum() <= radius:
        return arr
    return (U * project_simplex_l1(S, radius)) @ Vh


def solve_constrained(
    g_o, t: float, opts: SolverOptions | None = None, *, warm_start=None
) -> SolveResult:
    """Solve the constrained fit problem at constraint level t.

    Parameters
    ----------
    g_o : ImpulseResponse or 1-d array-like
        Target impulse response (odd length; padded by ImpulseResponse).
    t : float
        Positive regularization parameter.
    opts : SolverOptions, optional
    warm_start : tuple (X, U_dual, rho), optional
        Splitting state to start from instead of zeros and opts.rho, usually
        the admm_state of a solve at a nearby t.  X and U_dual must be
        n-by-n; they are copied, not modified.  The stopping rule is the same
        as for a cold start.

    Returns
    -------
    SolveResult
        Deterministic for fixed inputs, options and start (no randomness).
        Non-convergence is reported through converged=False with residuals
        populated, never as an exception.

    Notes
    -----
    When ||H(g_o)||_* <= t the unconstrained optimum g_o / t is feasible and
    is returned exactly with zero iterations.

    One splitting step maps z = X + U_dual, with X = Pi(z) on the nuclear
    ball, to T(z) = H(g) + U_dual.  After each step the loop extrapolates
    z_aa = T(z) - (dZ + dF) gamma over the last AA_MEM differences of z and
    of f = T(z) - z, with gamma the regularized least-squares fit of f by
    dF, and restarts from the consistent state (Pi(z_aa), z_aa - Pi(z_aa)).
    The extrapolation is taken only while ||f|| has not grown since the last
    one; otherwise, and whenever residual balancing changes rho, the history
    is dropped and the plain step taken.  The residual test runs on each
    plain step, so the returned g_tilde, residuals and admm_state are those
    of a genuine step.
    """
    if opts is None:
        opts = SolverOptions()
    if not np.isfinite(t) or t <= 0:
        raise ValueError("t must be positive")
    g_o = as_impulse(g_o)
    gvec = g_o.values
    k_max = gvec.size
    n = g_o.n

    if warm_start is None:
        X = np.zeros((n, n))
        U_dual = np.zeros((n, n))
        rho = float(opts.rho)
    else:
        X0, U0, rho = warm_start
        X = np.array(X0, dtype=float)
        U_dual = np.array(U0, dtype=float)
        rho = float(rho)
        if X.shape != (n, n) or U_dual.shape != (n, n):
            raise ValueError(
                f"warm start must be {n}-by-{n}, got {X.shape} and {U_dual.shape}"
            )
        if not np.isfinite(rho) or rho <= 0:
            raise ValueError("warm-start rho must be positive")

    nuc0 = float(hankel_singular_values(g_o).sum())
    if nuc0 <= t:
        g_tilde = ImpulseResponse(gvec / t)
        obj = float(np.sum((t * g_tilde.values - gvec) ** 2))
        return SolveResult(
            g_tilde=g_tilde,
            t=float(t),
            objective=obj,
            nuclear_norm_value=nuc0 / t,
            iterations=0,
            primal_residual=0.0,
            dual_residual=0.0,
            converged=True,
        )

    norm_go = np.linalg.norm(gvec)
    primal_tol = opts.primal_tol if opts.primal_tol is not None else 1e-9 * (1 + norm_go)
    dual_tol = opts.dual_tol if opts.dual_tol is not None else 1e-9 * (1 + norm_go)
    # sqrt of the X entry count times the curvature factor (see SolverOptions),
    # floored at the resolution float iterates can actually reach
    scale = n * min(1.0, 2.0 * t * t)
    floor = 4e-15 * n * (1 + norm_go)
    eps_pri = max(primal_tol * scale, floor)
    eps_dual = max(dual_tol * scale, floor)

    idx = embed_indices(n)
    flat_idx = idx.ravel()
    w = multiplicities(n)
    # loop invariants: the fit term's linear part 2 t g_o and curvature 2 t^2;
    # the diagonal of the normal equations changes only with rho
    fit_rhs = 2.0 * t * gvec
    fit_curv = 2.0 * t * t
    denom = fit_curv + rho * w

    g_tilde = np.zeros(k_max)
    r_pri = r_dual = np.inf
    converged = False
    # Anderson history over z = X + U_dual: ring buffers of the differences
    # between consecutive steps of T(z) = H(g) + U_dual (dT = dZ + dF) and of
    # the residual f = T(z) - z, and the Gram matrix of the dF rows
    dT = np.empty((AA_MEM, n * n))
    dF = np.empty((AA_MEM, n * n))
    gram = np.empty((AA_MEM, AA_MEM))
    eye = np.eye(AA_MEM)
    filled = slot = 0
    prev = None  # flat (T(z), f) of the previous step
    f_ref = np.inf  # ||f|| where the last extrapolation was taken
    z = X + U_dual
    it = 0
    for it in range(1, opts.max_iters + 1):
        g_tilde = (fit_rhs + rho * adjoint_fast(X - U_dual, flat_idx, k_max)) / denom
        Hg = g_tilde[idx]
        Tz = Hg + U_dual
        X_new = project_nuclear_ball(Tz, 1.0)
        step = Hg - X_new
        r_pri = float(np.linalg.norm(step))
        r_dual = rho * float(np.linalg.norm(X_new - X))
        # the plain ADMM state after this step: (Pi(T(z)), T(z) - Pi(T(z)))
        X = X_new
        U_dual += step
        if r_pri <= eps_pri and r_dual <= eps_dual:
            converged = True
            break
        if (r_pri > 10.0 * r_dual and rho < 1e8) or (r_dual > 10.0 * r_pri and rho > 1e-8):
            # residual balancing keeps both residuals decreasing together:
            # rho scales by sqrt(r_pri / r_dual) clipped to [0.1, 10], by 10
            # when r_dual is zero; a new rho changes the map T, so the
            # history is dropped
            factor = BALANCE_MAX if r_dual == 0.0 else math.sqrt(r_pri / r_dual)
            factor = min(max(factor, 1.0 / BALANCE_MAX), BALANCE_MAX)
            rho_new = min(max(rho * factor, 1e-8), 1e8)
            U_dual *= rho / rho_new
            rho = rho_new
            denom = fit_curv + rho * w
            filled = slot = 0
            prev = None
            f_ref = np.inf
            z = X + U_dual
            continue
        f = Tz - z
        fnorm = float(np.linalg.norm(f))
        Tz_flat = Tz.ravel()
        f_flat = f.ravel()
        if fnorm > f_ref:
            # the last extrapolation did not reduce the residual: restart
            filled = slot = 0
            f_ref = np.inf
        elif prev is not None:
            np.subtract(Tz_flat, prev[0], out=dT[slot])
            np.subtract(f_flat, prev[1], out=dF[slot])
            filled = min(filled + 1, AA_MEM)
            row = dF[:filled] @ dF[slot]
            gram[slot, :filled] = row
            gram[:filled, slot] = row
            slot = (slot + 1) % AA_MEM
        prev = (Tz_flat, f_flat)
        if filled:
            # Cholesky solve of the regularized normal equations; when they
            # are not numerically positive definite (info > 0, say all
            # differences zero) the plain step is taken
            G = gram[:filled, :filled]
            _, gamma, info = dposv(G + AA_REG * np.trace(G) * eye[:filled, :filled],
                                   dF[:filled] @ f_flat)
            if info == 0:
                z = Tz - (gamma @ dT[:filled]).reshape(n, n)
                z = 0.5 * (z + z.T)
                X = project_nuclear_ball(z, 1.0)
                U_dual = z - X
                f_ref = fnorm
                continue
        z = Tz

    result_g = ImpulseResponse(g_tilde)
    obj = float(np.sum((t * g_tilde - gvec) ** 2))
    X.setflags(write=False)
    U_dual.setflags(write=False)
    return SolveResult(
        g_tilde=result_g,
        t=float(t),
        objective=obj,
        nuclear_norm_value=float(hankel_singular_values(result_g).sum()),
        iterations=it,
        primal_residual=r_pri,
        dual_residual=r_dual,
        converged=converged,
        admm_state=(X, U_dual, rho),
    )
