"""Splitting solver for the constrained fit problem

    minimize   ||t*g - g_o||_2^2
    subject to ||H(g)||_*  <=  1,

with H the Hankel embedding.  The solver alternates a closed-form coefficient
update (the normal equations are diagonal because adjoint(embed(g)) equals
multiplicities * g), a nuclear-ball projection of the embedded iterate, and a
scaled dual update, until primal and dual residuals fall below tolerances.
The iterates are exactly symmetric, and the projection eigendecomposes them
by LAPACK dsyevd through np.linalg.eigh's own gufunc, without the wrapper;
the loop vouches for their symmetry and finiteness (_Iterate), so the
projection does not test them entry by entry.
A cold solve starts at the projection of the unconstrained fit H(g_o / t)
(Fazel, Pong, Sun & Tseng, SIAM J. Matrix Anal. Appl. 2013), read off the
eigendecomposition of H(g_o) that the data vector caches.

That splitting step is a fixed-point map of z = X + U_dual, and the loop
extrapolates it by safeguarded type-II Anderson acceleration (Walker & Ni,
SIAM J. Numer. Anal. 2011; the safeguard after Zhang, O'Donoghue & Boyd,
SIAM J. Optim. 2020).  Every iteration starts from a consistent state.  The
plain step, whose projection the residual test and residual balancing read,
runs whenever no extrapolation is at hand, every TEST_EVERY-th iteration and
whenever the test could pass; convergence is decided on that step alone.  A
TEST_EVERY-th iteration whose test is out of reach keeps that plain step as
its step, as safeguarded Anderson acceleration interleaves plain steps with
extrapolated ones and keeps its history across them, and so projects once.

When one residual exceeds the other tenfold, residual balancing scales the
penalty rho by sqrt(r_pri / r_dual) clipped to [0.1, 10] (Wohlberg, ADMM
penalty parameter selection by residual balancing, 2017).  Each change of
rho changes the map and drops the Anderson history.

The loop solves the normalized problem: the fit term is divided by
s^2 = ||g_o||^2, which is the fit of the unit-norm data g_o / s at level
t / s.  Scaling the data by c then leaves the iterates, the iteration count
and every stopping decision unchanged (up to rounding): the thresholds are
relative (Boyd et al., Distributed optimization and statistical learning via
ADMM, 2011, section 3.3.1), and residual balancing runs on normalized
residuals, which is scale invariant where plain balancing is not (Wohlberg
2017).  rho, and with it the dual residual, is reported in the units of the
original problem.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo, solve1

from .certificates import _TINY, _half_space_bound, _objective, _w0_cut, feasible_upper_bound
from .hankel import (
    ImpulseResponse,
    _require_finite,
    adjoint_fast,
    as_impulse,
    compute_t_max,
    embed_indices,
    multiplicities,
    symmetric_singular_values,
)

#: Number of past differences the Anderson-accelerated loop keeps.
AA_MEM = 16
#: Tikhonov weight of the Anderson normal equations, relative to their trace.
AA_REG = 1e-10
#: Largest factor by which one residual-balancing step scales rho.
BALANCE_MAX = 10.0
#: Period, in iterations, of the plain step that the residual test and
#: residual balancing run on while an extrapolation is at hand; such an
#: iteration takes the plain step unless its test could pass.
TEST_EVERY = 4
#: Rounding allowance of the free dual norm (_dual_norm), per unit of n:
#: 64 machine epsilons.
NORM_ROUNDING = 64 * np.finfo(float).eps

# per-solve constant: the identity of the Anderson normal equations' Tikhonov term
_AA_EYE = np.eye(AA_MEM)


class _Iterate(np.ndarray):
    """Marker view of an iterate that solve_constrained vouches for, so that
    project_nuclear_ball takes it without its two entrywise checks.  Only
    the loop creates one, for T(z) and z_aa: it builds both bit-symmetric
    from a symmetric start, and a finite sum of squares it holds anyway
    (||T(z) - z||, ||z_aa||^2) implies finite entries; where that sum is
    not finite, the entrywise test decides.  Every other input keeps every
    check."""


def _require_count(name: str, value, low: int) -> None:
    """ValueError unless value is an integer >= low; a bool is an Integral,
    but a config file's true is no count."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}")


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for solve_constrained.

    primal_tol / dual_tol are relative to unit-norm data: the solver works
    on the fit divided by ||g_o||^2, the problem of g_o / ||g_o|| at level
    t / ||g_o||, and both default to 2e-9 (1e-9 * (1 + 1)); each must be a
    positive finite real number, not a bool, else ValueError.
    The stopping thresholds additionally scale with problem size and with
    min(1, 2 (t / ||g_o||)^2): the normalized fit term's curvature is
    2 (t / ||g_o||)^2, so without that factor the solution error at small t
    would be residual / curvature, far looser than the certificate machinery
    downstream can tolerate.

    There is no option for the start: a cold solve starts at the projected
    unconstrained fit with rho at the normalized fit curvature (see
    solve_constrained), and solve_constrained's warm_start sets any other
    start, (0, 0, 2 t^2) the zero one.
    """

    max_iters: int = 5000
    primal_tol: float = 2e-9
    dual_tol: float = 2e-9

    def __post_init__(self):
        _require_count("max_iters", self.max_iters, 1)
        for name in ("primal_tol", "dual_tol"):
            tol = getattr(self, name)
            real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
            # an int compares exactly, where math.isfinite(10**400) overflows
            if not (real and 0 < tol <= sys.float_info.max):
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True, slots=True)
class SolveResult:
    """Solution of the constrained fit at one t, with iteration diagnostics.

    iterations counts coefficient updates.  primal_residual and
    dual_residual are those of the last plain splitting step: the step that
    passed the residual test when the solve converged on it, stale after a
    stop_above exit or when the iteration budget runs out.

    admm_state is the splitting state (X, U_dual, rho) the iteration stopped
    at, for warm-starting a solve at a nearby t, None for the closed form.
    dual_direction, the h of certificates.subgradient_vector, is the cut
    that prices bounds[0] (below), and the closed form's W = 0 cut of
    H(g_tilde) (certificates._w0_cut).  Both are read-only, and None in
    every solve a PathResult keeps.  rho and dual_residual are in the units
    of the original problem; X and U_dual do not depend on the data's scale.

    singular_values is sigma(H(g_tilde)), descending, read-only and one
    contiguous array: the spectrum which bounds prices, and whose sum the
    read-only nuclear_norm_value is.  A path prices its samples' f_approx at
    g_tilde / max(1, nuclear_norm_value), the exactly feasible point of
    bounds[1], from the solve it keeps; PathResult.singular_values reports t
    times the spectrum, the Hankel singular values of the fit t g_tilde.  The
    closed-form branch reads it, and its cut, off the cached g_o.hankel_eigh
    with the eigenvalues divided by t.

    bounds = (lower, upper) encloses the optimal cost at t however far the
    solve got, converged or not.  One routine, _price, prices the state
    every loop exit returns, the residual test, the iteration budget and a
    stop_above exit alike: lower is the half-space bound of dual_direction
    = adjoint(U_dual) / nu, dual_bounds' with the free bound _dual_norm for
    ||U_dual||_2, at most a rounding allowance looser, and upper is dual_bounds' own,
    certificates.feasible_upper_bound at the nuclear norm sum(singular_values).
    The closed-form branch, whose g_tilde is the optimum, reports
    (0.0, objective).  The enclosure is not yet certified to the last ulp:
    both halves treat float eigenvalues and sums as exact, and where the true
    gap falls below their rounding, lower can exceed upper by a few ulps of
    upper (in 29 of 500 converged solves on fixture systems 0-19, all at
    t <= 7.5e-7 t_max); ROADMAP item 12 rounds both outward.
    """

    g_tilde: ImpulseResponse
    t: float
    objective: float
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool
    bounds: tuple[float, float]
    singular_values: np.ndarray = field(repr=False, compare=False)
    admm_state: tuple | None = field(default=None, repr=False, compare=False)
    dual_direction: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def nuclear_norm_value(self) -> float:
        """||H(g_tilde)||_*, the sum of singular_values."""
        return float(self.singular_values.sum())


def project_simplex_l1(s, radius: float) -> np.ndarray:
    """Euclidean projection of a nonnegative vector onto {x >= 0 : sum(x) <= radius}.

    If the input already satisfies the budget it is returned unchanged;
    otherwise the unique threshold theta with sum(max(s - theta, 0)) = radius
    is found exactly by the sort-based scheme (no sampling): one scan of the
    entries in descending order keeps the running sum c_k of the first k, in
    cumsum's order, and theta is the candidate (c_k - radius) / k of the last
    entry that stays above its own candidate (ties handled by that rule).
    The support is a prefix of the sorted entries (Duchi, Shalev-Shwartz,
    Singer & Chandra, ICML 2008), so the scan stops at the first entry that
    drops out.  A NaN or non-positive radius raises ValueError; an infinite
    one returns the input.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    s = np.asarray(s, dtype=float)
    total = s.sum()
    d = sorted(s.ravel().tolist(), reverse=True)
    # the sum propagates NaN and inf, so it also rejects non-finite input,
    # and with every entry a number the smallest one sorts last
    if (d and not d[-1] >= 0) or not math.isfinite(total):
        raise ValueError("entries must be nonnegative and finite")
    if total <= radius:
        return s
    running = d[0]
    # the largest entry is always in the support, even where its candidate
    # d[0] - radius rounds to d[0] itself
    theta = running - radius
    for k in range(1, len(d)):
        running += d[k]
        candidate = (running - radius) / (k + 1)
        if not d[k] > candidate:
            break
        theta = candidate
    x = s - theta
    return np.maximum(x, 0.0, out=x)


def project_nuclear_ball(M, radius: float) -> np.ndarray:
    """Frobenius-nearest matrix with nuclear norm <= radius.

    Computed as U diag(project_simplex_l1(S, radius)) V^T on the SVD;
    matrices already inside the ball pass through untouched, so the map is
    idempotent, and as a projection onto a convex set it is non-expansive.
    An inf or NaN entry, or a decomposition that fails, raises
    np.linalg.LinAlgError.

    An exactly symmetric input (every Hankel iterate of the solver) takes the
    cheaper eigendecomposition Q diag(lam) Q^T instead (LAPACK dsyevd, by the
    eigh_lo gufunc of np.linalg.eigh): |lam| are its singular values, so the
    projection shrinks |lam| on the simplex and keeps the signs.  The result
    is symmetrized bit for bit, so the solver's iterates stay on this branch.
    The solver's loop passes its iterates as _Iterate views, which it built
    symmetric and vouched finite; those skip the two entrywise checks.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    if type(M) is _Iterate:
        arr = M.view(np.ndarray)
    else:
        arr = np.asarray(M, dtype=float)
        if not np.isfinite(arr).all():
            # the SVD can loop forever on inf, and eigh_lo returns NaNs and warns
            raise np.linalg.LinAlgError("matrix has non-finite entries")
        if not (arr.ndim == 2 and arr.shape[0] == arr.shape[1] and (arr == arr.T).all()):
            U, S, Vh = np.linalg.svd(arr, full_matrices=False)
            if S.sum() <= radius:
                return arr
            return (U * project_simplex_l1(S, radius)) @ Vh
    lam, Q = eigh_lo(arr)
    mag = np.abs(lam)
    total = mag.sum()
    if not math.isfinite(total):
        raise np.linalg.LinAlgError("eigendecomposition failed")
    if total <= radius:
        return arr
    return _shrink_eigen(lam, Q, mag, radius)


def _shrink_eigen(lam: np.ndarray, Q: np.ndarray, mag: np.ndarray, radius: float) -> np.ndarray:
    """Q diag(x) Q^T, symmetrized bit for bit, with x the eigenvalues lam
    shrunk onto the nuclear ball: the simplex projection of mag = |lam| to
    radius, with the signs of lam kept."""
    P = (Q * np.copysign(project_simplex_l1(mag, radius), lam)) @ Q.T
    return 0.5 * (P + P.T)


def _norm(a) -> float:
    """np.linalg.norm(a) of a C-contiguous float array, bit for bit: the same
    sqrt of the flat dot product, without the wrapper's per-call cost."""
    v = a.ravel()
    return math.sqrt(v.dot(v))


def _dual_norm(X: np.ndarray, U_dual: np.ndarray) -> float:
    """nu >= ||U_dual||_2 for a state the nuclear-ball projection just left:
    X = Pi(w) and U_dual = c (w - X), c in [0.1, 10] the factor of a rho
    rescale (1 without one), both n-by-n and symmetric.

    Pi keeps the eigenvectors of w and moves its eigenvalues lam to x, with
    |lam_i - x_i| = theta on the support of x, at most theta off it, and
    sum |x_i| = 1 when w lies outside the ball.  So, exactly,
    ||U_dual||_2 = c theta = <U_dual, X>, and U_dual = 0 inside the ball.
    The computed state misses that identity by the eigensolver's backward
    error, a modest multiple of n u ||w||_2 (u the unit roundoff), and by the
    rounding of the reconstruction and of the subtraction.  With
    ||.||_2 <= ||.||_F, ||X||_F <= 1 and c bounded, all of it stays below
    delta = NORM_ROUNDING n (1 + ||X||_F)(||X||_F + ||U_dual||_F), and
    nu = max(<U_dual, X>, 0) + delta.  Three dot products replace the
    eigvalsh of certificates.dual_bounds' lower bound.  nu is valid only for
    X the projection U_dual was split from, which the loop guarantees and no
    caller of a public function could.
    """
    x = X.ravel()
    v = U_dual.ravel()
    x_fro = math.sqrt(x.dot(x))
    delta = NORM_ROUNDING * X.shape[0] * (1.0 + x_fro) * (x_fro + math.sqrt(v.dot(v)))
    return max(float(v.dot(x)), 0.0) + delta


def _price(g_o, t, X, U_dual, g_tilde, Hg, lo=None):
    """(lower, upper, sv, h) of SolveResult.bounds and dual_direction for a
    state the loop leaves, one a projection just left, with sv = sigma(Hg)
    for Hg = H(g_tilde).  lower, the half-space bound of h = adjoint(U_dual)
    / nu with nu = _dual_norm(X, U_dual) for ||U_dual||_2 (the bit-symmetric
    U_dual is its own symmetric part; any larger divisor is as valid, and
    _TINY keeps U_dual = 0, nu = 0, at h = 0, whose bound is 0), comes first:
    unless lo <= lower, None is returned before anything decomposes Hg."""
    h = adjoint_fast(U_dual) / max(_dual_norm(X, U_dual), _TINY)
    lower = _half_space_bound(g_o, t, h)
    if lo is not None and not lo <= lower:
        return None
    sv = symmetric_singular_values(Hg)
    return lower, feasible_upper_bound(g_o, t, g_tilde, float(sv.sum())), sv, h


def _cold_start(g_o: ImpulseResponse, t: float, idx: np.ndarray, w: np.ndarray):
    """(X0, U0, c): the splitting state a cold solve starts from, at the
    projected unconstrained fit (Fazel, Pong, Sun & Tseng, SIAM J. Matrix
    Anal. Appl. 2013).

    z0 = H(g_o / t) is the unconstrained optimum, X0 = Pi(z0) its projection
    onto the nuclear ball and U0 = c (z0 - X0).  With H(g_o) = Q diag(lam)
    Q^T the cached g_o.hankel_eigh, z0 = Q diag(lam / t) Q^T, so X0 is
    _shrink_eigen of lam / t, as project_nuclear_ball would compute it,
    without a decomposition of its own.  z0 - X0 lies in the normal cone of
    the ball at X0, and so does U0 for every c >= 0, so Pi(X0 + U0) = X0:
    the state is one a splitting step could have left.  c is the
    least-squares fit of the g-update's stationarity condition at the cold
    penalty (rho = 2 t^2 / ||g_o||^2), adjoint(U) = g_o / t - g, with
    g = adjoint(X0) / w the coefficients nearest X0.  Since
    adjoint(z0) = w g_o / t, the right-hand side is a / w with
    a = adjoint(z0 - X0), and c = <a, a / w> / <a, a> lies in [1 / n, 1]
    (0 for a = 0).  The start depends on g_o / t alone, up to the rounding
    of the decomposition: it is the same whatever path the solve is on, and
    for scaled data to rounding.  idx and w are embed_indices(n) and
    multiplicities(n).
    """
    lam, Q = g_o.hankel_eigh
    lam = lam / t
    X0 = _shrink_eigen(lam, Q, np.abs(lam), 1.0)
    D = (g_o.values / t)[idx] - X0
    a = adjoint_fast(D)
    aa = float(a.dot(a))
    # c = 0 (U0 = 0) where <a, a> is 0 or overflows
    c = float(a.dot(a / w)) / aa if 0.0 < aa < math.inf else 0.0
    return X0, c * D, c


def solve_constrained(
    g_o, t: float, opts: SolverOptions | None = None, *, warm_start=None, stop_above=None
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
        Splitting state to start from instead of the cold start (see Notes),
        usually the admm_state of a solve at a nearby t.  X and U_dual are
        exactly symmetric n-by-n matrices, or scalars standing for the
        constant one, whose sums of squares and that of X + U_dual are
        finite; they are copied, not modified.  rho is in the units of the
        original problem: (0, 0, 2 t^2) starts from zeros at the fit
        curvature, the cold start of earlier versions.  The stopping rule is
        the same as for a cold start.
    stop_above : float, optional
        Stop at the first iteration whose state has its certified lower
        bound (SolveResult.bounds[0]) at or above stop_above, and report it
        as converged.  The iterate of such an early exit is only as accurate
        as its bounds: it certifies stop_above <= f*(t), not the residual
        tolerances.  Without it the solve runs to the residual test alone.

    Returns
    -------
    SolveResult
        Deterministic for fixed inputs, options and start (no randomness).
        Non-convergence is reported through converged=False with residuals
        and bounds populated, never as an exception.  bounds is priced as
        SolveResult.bounds says, with one eigvalsh of each returned loop
        state's H(g_tilde), shared with the stop test, and none for the
        closed form.

    Raises
    ------
    ValueError
        For t <= 0, a malformed warm start, data whose ||g_o||^2 underflows
        to 0 or overflows (the loop divides by it), or a t so small next to
        ||g_o|| that the loop's fit curvature 2 t^2 / ||g_o||^2, or 1e-8
        times it, is not a normal float (t below about 1e-150 ||g_o||).
    np.linalg.LinAlgError
        When an iterate turns non-finite, before anything decomposes it or
        does arithmetic on it, or when a decomposition fails.

    Notes
    -----
    When ||H(g_o)||_* <= t the unconstrained optimum g_o / t is feasible and
    is returned exactly with zero iterations.  Otherwise a cold solve starts
    at the projected unconstrained fit (_cold_start): X = Pi(z0) for
    z0 = H(g_o / t), U_dual = c (z0 - X) with c >= 0 the least-squares fit of
    the coefficient update's stationarity condition, and rho at the
    normalized fit curvature 2 t^2 / ||g_o||^2.  That state is consistent,
    Pi(X + U_dual) = X, and depends on g_o / t alone, so a cold solve is the
    same whatever path it belongs to and for scaled data.

    One splitting step maps z = X + U_dual, with X = Pi(z) on the nuclear
    ball, to T(z) = H(g) + U_dual.  Each iteration extrapolates
    z_aa = T(z) - (dZ + dF) gamma over the last AA_MEM differences of z and
    of f = T(z) - z, with gamma the regularized least-squares fit of f by
    dF, and restarts from the consistent state (Pi(z_aa), z_aa - Pi(z_aa)).
    The extrapolation is taken only while ||f|| has not grown since the last
    one; otherwise, and whenever residual balancing changes rho, the history
    is dropped and the plain state (Pi(T(z)), T(z) - Pi(T(z))) taken.

    That plain projection feeds the residual test and residual balancing,
    so while z_aa is at hand it runs only every TEST_EVERY-th iteration and
    whenever ||f|| <= eps_pri + eps_dual / rho, the one case in which the
    test can pass.  A TEST_EVERY-th iteration with ||f|| above that keeps
    the plain state as its step, without solving for z_aa, and the history
    carries on from it; an iteration whose test could pass runs the plain
    step and then takes z_aa.  Convergence is decided on a plain step, and
    the returned g_tilde, residuals and admm_state are then those of that
    step.
    """
    if opts is None:
        opts = SolverOptions()
    if not np.isfinite(t) or t <= 0:
        raise ValueError("t must be positive")
    g_o = as_impulse(g_o)
    gvec = g_o.values
    n = g_o.n

    rho = None
    if warm_start is not None:
        X0, U0, rho = warm_start
        # a scalar stands for the constant n-by-n matrix, so (0, 0, 2 t^2)
        # is the zero start at the fit curvature
        X, U_dual = (
            np.full((n, n), float(a)) if np.ndim(a) == 0 else np.array(a, dtype=float)
            for a in (X0, U0)
        )
        rho = float(rho)
        if X.shape != (n, n) or U_dual.shape != (n, n):
            raise ValueError(
                f"warm start must be {n}-by-{n}, got {X.shape} and {U_dual.shape}"
            )
        # NaN or inf entries, or norms of X, U_dual or z = X + U_dual that overflow
        with np.errstate(over="ignore", invalid="ignore"):
            finite = all(math.isfinite(np.vdot(a, a)) for a in (X, U_dual, X + U_dual))
        if not finite:
            raise ValueError("warm-start X, U_dual and X + U_dual need finite sums of squares")
        # the loop keeps every iterate bit-symmetric from a symmetric start,
        # and vouches for them to the projection on that ground
        if not ((X == X.T).all() and (U_dual == U_dual.T).all()):
            raise ValueError("warm-start X and U_dual must be exactly symmetric")
        if not np.isfinite(rho) or rho <= 0:
            raise ValueError("warm-start rho must be positive")

    closed = compute_t_max(g_o) <= t
    if closed:
        # the optimum g_o / t is feasible, so its objective closes the bounds;
        # H(g_o / t) = Q diag(lam / t) Q^T gives its spectrum and W = 0 cut
        lam, Q = g_o.hankel_eigh
        lam = lam / t
        g_tilde = ImpulseResponse(gvec / t)
        sv = -np.sort(-np.abs(lam))
        h = _w0_cut(lam, Q)
        it, r_pri, r_dual, converged, lower, state = 0, 0.0, 0.0, True, 0.0, None
    else:
        # the loop solves the fit divided by s^2 = ||g_o||^2; X and U_dual are
        # the same in both problems, and rho is rho / s^2 inside the loop
        with np.errstate(over="ignore"):
            s2 = float(gvec @ gvec)
        if not 0.0 < s2 < math.inf:
            raise ValueError("||g_o||^2 must be a positive finite float")
        # loop invariants: the normalized fit term's linear part 2 t g_o / s^2
        # and curvature 2 t^2 / s^2; the diagonal of the normal equations
        # changes only with rho
        fit_rhs = (2.0 * t / s2) * gvec
        fit_curv = 2.0 * t * t / s2
        # a cold start meets the fit curvature; balancing keeps rho within
        # [1e-8, 1e8] times it
        rho = fit_curv if rho is None else rho / s2
        rho_lo = 1e-8 * fit_curv
        rho_hi = 1e8 * fit_curv
        # below the normal floats (t under about 1e-150 ||g_o||) the cold
        # start's H(g_o / t) overflows, or the loop divides by zero
        if not rho_lo >= _TINY:
            raise ValueError(
                "t is too small for ||g_o||: 2e-8 t^2 / ||g_o||^2 must be a normal float"
            )
        # sqrt of the X entry count times the curvature factor (see SolverOptions),
        # floored at the resolution float iterates of unit-norm data can reach
        scale = n * min(1.0, fit_curv)
        floor = 8e-15 * n
        eps_pri = max(opts.primal_tol * scale, floor)
        eps_dual = max(opts.dual_tol * scale, floor)

        idx = embed_indices(n)
        w = multiplicities(n)
        denom = fit_curv + rho * w
        if warm_start is None:
            X, U_dual, _ = _cold_start(g_o, t, idx, w)

        converged = False
        priced = None  # (lower, upper, sv, h) of the state a stop_above exit priced
        # Anderson history over z = X + U_dual: ring buffers of the differences
        # between consecutive steps of T(z) = H(g) + U_dual (dT = dZ + dF) and of
        # the residual f = T(z) - z, and the Gram matrix of the dF rows
        dT = np.empty((AA_MEM, n * n))
        dF = np.empty((AA_MEM, n * n))
        gram = np.empty((AA_MEM, AA_MEM))
        filled = slot = 0
        prev = None  # flat (T(z), f) of the previous step
        f_ref = np.inf  # ||f|| where the last extrapolation was taken
        z = X + U_dual
        # max_iters >= 1 and iteration 1 steps plainly: the loop sets all it returns
        for it in range(1, opts.max_iters + 1):
            g_tilde = (fit_rhs + rho * adjoint_fast(X - U_dual)) / denom
            Hg = g_tilde[idx]
            Tz = Hg + U_dual
            f = Tz - z
            fnorm = _norm(f)
            if not math.isfinite(fnorm):
                # a finite ||T(z) - z|| vouches for a finite T(z); otherwise the
                # entrywise test decides, before the Anderson update can warn
                _require_finite(Tz)
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
            # f = H(g) - X, so ||f|| <= r_pri + r_dual / rho by the triangle
            # inequality through Pi(T(z)): while ||f|| > eps_pri + eps_dual / rho
            # the residual test cannot pass (rounding can at most defer it to the
            # next tested iteration)
            near = fnorm <= eps_pri + eps_dual / rho
            z_aa = None
            # a cadence iteration with the test out of reach takes the plain step
            # it projects for balancing anyway, and extrapolates from the next one
            if filled and (near or it % TEST_EVERY):
                # LU solve of the regularized normal equations; with tr(G) > 0
                # they are positive definite, so it cannot fail, and with all
                # differences zero (a zero trace) the plain step is taken
                G = gram[:filled, :filled]
                tr = G.trace()
                if tr > 0:
                    G = G + AA_REG * tr * _AA_EYE[:filled, :filled]
                    gamma = solve1(G, dF[:filled] @ f_flat)
                    z_aa = Tz - (gamma @ dT[:filled]).reshape(n, n)
                    z_aa = 0.5 * (z_aa + z_aa.T)
            # the plain step runs when it is the step, and when the test could
            # pass, ahead of the extrapolated point
            if z_aa is None or near:
                X_new = project_nuclear_ball(Tz.view(_Iterate), 1.0)
                step = Hg - X_new
                r_pri = _norm(step)
                r_dual = rho * _norm(X_new - X)
                # the plain ADMM state after this step: (Pi(T(z)), T(z) - Pi(T(z)))
                X = X_new
                U_dual += step
                if r_pri <= eps_pri and r_dual <= eps_dual:
                    converged = True
                    break
                if (r_pri > 10.0 * r_dual and rho < rho_hi) or (
                    r_dual > 10.0 * r_pri and rho > rho_lo
                ):
                    # residual balancing keeps both residuals decreasing together:
                    # rho scales by sqrt(r_pri / r_dual) clipped to [0.1, 10], by
                    # 10 when r_dual is zero; a new rho changes the map T, so the
                    # history and the extrapolation are dropped
                    factor = BALANCE_MAX if r_dual == 0.0 else math.sqrt(r_pri / r_dual)
                    factor = min(max(factor, 1.0 / BALANCE_MAX), BALANCE_MAX)
                    rho_new = min(max(rho * factor, rho_lo), rho_hi)
                    U_dual *= rho / rho_new
                    rho = rho_new
                    denom = fit_curv + rho * w
                    filled = slot = 0
                    prev = z_aa = None
                    f_ref = np.inf
                    z = X + U_dual
                elif z_aa is None:
                    z = Tz
            if z_aa is not None:
                z = z_aa
                z_flat = z.ravel()
                if not math.isfinite(z_flat.dot(z_flat)):
                    _require_finite(z)
                X = project_nuclear_ball(z.view(_Iterate), 1.0)
                U_dual = z - X
                f_ref = fnorm
            if stop_above is not None:
                # one check per iteration, on the state it leaves
                priced = _price(gvec, t, X, U_dual, g_tilde, Hg, stop_above)
                if priced is not None:
                    converged = True
                    break

        # the residual test and the iteration budget leave a state still to be priced
        if priced is None:
            priced = _price(gvec, t, X, U_dual, g_tilde, Hg)
        lower, upper, sv, h = priced
        g_tilde = ImpulseResponse(g_tilde)
        r_dual *= s2
        state = (X, U_dual, rho * s2)

    obj = float(_objective(g_tilde.values, gvec, t))
    for a in (sv, h) if closed else (sv, h, X, U_dual):
        a.setflags(write=False)
    return SolveResult(
        g_tilde=g_tilde,
        t=float(t),
        objective=obj,
        iterations=it,
        primal_residual=r_pri,
        dual_residual=r_dual,
        converged=converged,
        bounds=(lower, obj if closed else upper),
        singular_values=sv,
        admm_state=state,
        dual_direction=h,
    )
