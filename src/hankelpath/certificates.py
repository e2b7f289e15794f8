"""Gap certificates for the constrained fit problem.

A solution g* at parameter t* yields a vector h = adjoint(Z), the pullback of
a nuclear-norm subgradient Z with ||Z||_2 = 1.  The half-space
{g : h^T (g - g*) <= 0} contains the whole feasible set, so projecting the
data onto it lower-bounds the optimal cost at any t >= t*, and the difference

    gap(t) = ||(I - h h^T / ||h||^2) (t g* - g_o)||^2,

the squared norm of the part of the fit residual orthogonal to h, is a
certified upper bound on how far the frozen solution's objective sits above
the true optimum at t.  At an exact optimum the fit residual is parallel
to h, so the gap vanishes at t* and grows as (t - t*)^2 * a^2 with a the
component of g* orthogonal to h.  So (g*, t*, h) fix a certificate: a
GapCertificate takes those three alone and derives a from them.

Z is read off the splitting solver's dual.  Each step leaves
U_dual = T(z) - Pi(T(z)) with Pi the projection onto the nuclear ball; for
the eigen-projection that is Q diag(mu - x) Q^T, equal to theta * sign(mu) on
the support of X = Pi(T(z)) and of magnitude at most theta off it, theta the
simplex threshold.  So U_dual / ||U_dual||_2 is a nuclear-norm subgradient at
X, at every iterate however rough the solve, after an Anderson step or a rho
rescale too: U_dual lies in the normal cone of the ball at X (the ADMM
optimality conditions, Boyd et al. 2011, section 3.3).  The solver prices
bounds[0] with h = adjoint(U_dual) / nu, nu = solver._dual_norm(X, U_dual)
>= ||U_dual||_2, and returns it as SolveResult.dual_direction, the h the
certificate takes: any divisor at or above ||U_dual||_2 keeps the half-space
valid, and no gap depends on the scale of h.  A closed-form solve has no
dual; its Z is the W = 0 form U_r V_r^T of H(g*), for the symmetric
H(g*) = Q diag(lam) Q^T the Q_r sign(lam_r) Q_r^T over the eigenvalues above
the noise floor (_w0_cut).  The solve reads it off the cached decomposition
of H(g_o) (ImpulseResponse.hankel_eigh) and returns it as dual_direction
too; subgradient_vector without an h reads it off g*.hankel_eigh.
Given the data vector, an h that already points along -(t* g* - g_o) to
within SNAP_TOL is snapped onto it exactly.  subgradient_vector makes that
choice of h, and the certificate checks it.

dual_bounds prices any g and any dual matrix U: the objective at the
rescaled, exactly feasible point bounds the optimum from above, and the
half-space h^T g <= 1 of h = adjoint(S) / ||S||_2, S the symmetric part of
U, a lower bound.  Nothing vouches for the norm of an arbitrary U, so
dual_bounds alone takes ||S||_2 from an eigvalsh.

Every gap is that one formula (_orth_norm2, for a vector or for each row of
a table): duality_gap prices one residual, compute_path's segment grids a
table of them (_segment_samples), and the snap test and next_breakpoint
take the same orthogonal part (_orth_component).  The objective
||t g - g_o||^2 is one routine too (_objective), which approx_objective,
feasible_upper_bound, the tables and the solver read.  A table prices
f_approx at the exactly feasible point, as feasible_upper_bound does, and
adds what that costs over f(g*) to the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hankel import (
    ImpulseResponse,
    adjoint_fast,
    as_impulse,
    hankel_singular_values,
    symmetric_singular_values,
)

#: A certificate is snapped exactly onto the residual direction when it
#: already agrees with it to this angular tolerance (sin of the angle).
SNAP_TOL = 1e-6

_TINY = np.finfo(float).tiny  # the smallest normal float


class DegenerateCertificateError(ValueError):
    """Raised when a certificate with h = 0 is asked for gap values."""


@dataclass(frozen=True, eq=False, slots=True)
class GapCertificate:
    """Gap certificate at a breakpoint, fixed by (h, t_star, g_tilde_star).

    h is a read-only copy of a finite vector of length k_max (else
    ValueError; _direction), and g_tilde_star passes through as_impulse.
    residual_dir_norm is derived: a = ||(I - h h^T / ||h||^2) g*||, the
    growth rate of the square-root gap in t, and 0 for h = 0.  A certificate
    with h = 0 is flagged degenerate and cannot evaluate gaps;
    subgradient_vector gives one only for g* = 0.
    """

    h: np.ndarray
    t_star: float
    g_tilde_star: ImpulseResponse
    residual_dir_norm: float = field(init=False)

    def __post_init__(self):
        g_star = as_impulse(self.g_tilde_star)
        h = _direction(self.h, g_star.k_max)
        h.setflags(write=False)
        a = float(np.linalg.norm(_orth_component(g_star.values, h))) if np.any(h) else 0.0
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g_tilde_star", g_star)
        object.__setattr__(self, "residual_dir_norm", a)

    @property
    def degenerate(self) -> bool:
        return not np.any(self.h)


def _direction(h, k_max: int) -> np.ndarray:
    """A float copy of h, which must be a finite vector of length k_max; an
    h != 0 whose ||h||^2 is not a normal float is scaled by the exact power
    of two that puts max |h| in [0.5, 1).  No gap depends on that scale."""
    h = np.array(h, dtype=float)
    if h.shape != (k_max,) or not np.isfinite(h).all():
        raise ValueError(f"h must be a finite vector of length {k_max}")
    with np.errstate(over="ignore", under="ignore"):
        hh = float(h.dot(h))
    if not _TINY <= hh < math.inf and np.any(h):
        h = np.ldexp(h, -math.frexp(float(np.abs(h).max()))[1])
    return h


def _w0_cut(lam: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The W = 0 cut adjoint(U_r V_r^T) of the symmetric H = Q diag(lam) Q^T:
    U_r V_r^T = Q_r sign(lam_r) Q_r^T over the singular values |lam| above
    the noise floor n * sigma_1 * machine epsilon."""
    mag = np.abs(lam)
    keep = mag > np.finfo(float).eps * mag.size * mag.max()
    Q_r = Q[:, keep]
    return adjoint_fast((Q_r * np.sign(lam[keep])) @ Q_r.T)


def _orth_component(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The part of x orthogonal to h, for a vector x or for each row of a
    table x.  The dot with h is a sum along the row, whose rounding does not
    depend on how many rows the table has (a matrix-vector product's can),
    so a row of a table gets the bits of that row alone."""
    return x - (np.sum(x * h, axis=-1) / np.dot(h, h))[..., None] * h


def _orth_norm2(x: np.ndarray, h: np.ndarray):
    """||x - (<h, x> / ||h||^2) h||^2, the gap of a fit residual x, for a
    vector or for each row of a table."""
    o = _orth_component(x, h)
    return np.sum(o * o, axis=-1)


def _objective(g: np.ndarray, g_o: np.ndarray, t):
    """||t g - g_o||^2 of float arrays g and g_o at a level t, or one value
    per row for a column of levels t, each with the bits of its level
    alone."""
    return np.sum((t * g - g_o) ** 2, axis=-1)


def subgradient_vector(g_tilde_star, t_star: float, g_o=None, h=None) -> GapCertificate:
    """Build the gap certificate at a solution of the constrained fit.

    It chooses h alone: the given dual direction, the W = 0 form, or the
    snap onto the residual; GapCertificate derives the rest.

    Parameters
    ----------
    g_tilde_star : ImpulseResponse or array-like
        Solution of the constrained fit at t_star.
    t_star : float
        Parameter value the solution belongs to.
    g_o : ImpulseResponse or array-like, optional
        Data vector.  When given, an h that already points along the negated
        fit residual t_star * g* - g_o to within SNAP_TOL is snapped onto it.
    h : vector of length k_max, optional
        The SolveResult.dual_direction of the solve that produced
        g_tilde_star, taken as the certificate's h (for another dual matrix
        U: adjoint(S) / ||S||_2, S its symmetric part).  Without it, or when
        it is 0, h is the W = 0 form adjoint(U_r V_r^T) of H(g*), cut at the
        noise floor n * sigma_1 times machine epsilon: _w0_cut of
        g*.hankel_eigh, one decomposition of H(g*).

    Returns
    -------
    GapCertificate
        Degenerate (h = 0) iff g_tilde_star = 0.

    Raises
    ------
    ValueError
        When h is not a finite vector of length k_max (GapCertificate's check).
    np.linalg.LinAlgError
        When the spectrum of H(g*) overflows (ImpulseResponse.hankel_eigh).
    """
    g_star = as_impulse(g_tilde_star)
    k_max = g_star.k_max
    if h is not None:
        h = _direction(h, k_max)
    if not np.any(g_star.values):
        return GapCertificate(np.zeros(k_max), float(t_star), g_star)

    if h is None or not np.any(h):
        h = _w0_cut(*g_star.hankel_eigh)
    if g_o is not None:
        # snap onto -res, keeping the norm, when the gap of res is inside
        # numerical slop; a residual whose squared norm underflows to 0 has
        # no usable direction
        res = float(t_star) * g_star.values - as_impulse(g_o).values
        rr = float(res.dot(res))
        if rr > 0 and h.dot(res) < 0 and _orth_norm2(res, h) <= SNAP_TOL**2 * rr:
            h = -(np.linalg.norm(h) / math.sqrt(rr)) * res
    return GapCertificate(h, float(t_star), g_star)


def approx_objective(g_tilde_star, g_o, t: float) -> float:
    """Objective of the frozen solution at parameter t: ||t g* - g_o||^2."""
    return float(_objective(as_impulse(g_tilde_star).values, as_impulse(g_o).values, t))


def dual_bounds(g_o, t: float, g, U=None) -> tuple[float, float]:
    """Certified enclosure (lower, upper) of the optimal cost f*(t) from any g and U.

    upper is feasible_upper_bound: the objective ||t g_hat - g_o||^2 of the
    exactly feasible point g_hat = g / max(1, ||H(g)||_*).  lower comes from
    the dual point U, 0 for U = None: with S the symmetric part of U and
    h = adjoint(S) / ||S||_2, every feasible g has
    h^T g = <S, H(g)> / ||S||_2 <= ||H(g)||_* <= 1, so t g stays in the
    half-space h^T x <= t and f*(t) >= max(0, h^T g_o - t)^2 / ||h||^2.
    That holds for any U, however inexact the solve it came from; at an
    optimum, with U the solver's scaled dual, the bound is tight.  An S with
    adjoint(S) = 0 (S = 0 among them) gives 0; any other U that is not
    n-by-n for a g_o of length 2n - 1 raises ValueError, and a U with a
    non-finite entry np.linalg.LinAlgError, before inf - inf can warn.  Each
    bound takes one eigvalsh.

    solve_constrained prices its own states without these eigvalsh: it
    divides by an upper bound on ||S||_2 read off the state, and takes the
    nuclear norm from the spectrum it already holds (SolveResult.bounds),
    so its lower bound is at most a rounding allowance below this one.
    """
    go = np.asarray(g_o, dtype=float)
    gv = np.asarray(g, dtype=float)
    lower = 0.0
    if U is not None:
        U = np.asarray(U, dtype=float)
        if not np.isfinite(U).all():
            raise np.linalg.LinAlgError("dual has non-finite entries")
        S = 0.5 * (U + U.T)
        a = adjoint_fast(S)
        if np.any(a):
            lower = _half_space_bound(go, t, a / float(symmetric_singular_values(S)[0]))
    return lower, feasible_upper_bound(go, t, gv, float(hankel_singular_values(gv).sum()))


def _half_space_bound(g_o: np.ndarray, t: float, h: np.ndarray) -> float:
    """max(0, h^T g_o - t)^2 / ||h||^2, the lower bound on f*(t) of
    h = adjoint(S) / nu for S symmetric and nu >= ||S||_2; h = 0 gives 0.
    Any nu >= ||S||_2 keeps the bound valid, since then ||S / nu||_2 <= 1;
    one below makes it unsound, so only callers that vouch for their nu
    pass one: dual_bounds (nu = ||S||_2) and solver._price (_dual_norm).
    """
    excess = float(h.dot(g_o)) - t
    return excess * excess / float(h.dot(h)) if excess > 0.0 else 0.0


def feasible_upper_bound(g_o: np.ndarray, t: float, g: np.ndarray, nuclear_norm: float) -> float:
    """Upper bound on f*(t): the objective ||t g_hat - g_o||^2 of the exactly
    feasible point g_hat = g / max(1, nuclear_norm), with nuclear_norm the
    Hankel nuclear norm of g (float arrays g_o and g)."""
    return float(_objective(g / max(1.0, nuclear_norm), g_o, t))


def duality_gap(cert: GapCertificate, g_o, t: float) -> float:
    """Certified bound on the frozen solution's excess objective at t.

    The squared norm of the part of the residual t g* - g_o orthogonal to h,
    with the bits of its row in a path's segment table, whose gap adds the
    pricing of f_approx to it (_segment_samples).  The bound certifies the
    interval only for t at or above the certificate's own t_star.
    """
    _require_direction(cert)
    return float(_orth_norm2(t * cert.g_tilde_star.values - as_impulse(g_o).values, cert.h))


def _require_direction(cert: GapCertificate) -> None:
    if cert.degenerate:
        raise DegenerateCertificateError(
            "certificate has h = 0 (g* = 0); the gap is undefined"
        )


def _segment_samples(
    cert: GapCertificate, g_o: np.ndarray, ts: np.ndarray, nuclear_norm: float
) -> np.ndarray:
    """The (t, f_approx, gap) rows of the frozen solution on the grid ts, as
    one (k, 3) table, each row with the bits it would get alone.  f_approx
    is feasible_upper_bound at ts[j]: the objective of the exactly feasible
    point g_hat = g* / max(1, nuclear_norm), nuclear_norm the Hankel nuclear
    norm of g*.  The gap is duality_gap at ts[j] plus f(g_hat) - f(g*), so
    the lower end f_approx - gap is f(g*) - duality_gap to rounding.
    Raises DegenerateCertificateError for h = 0."""
    _require_direction(cert)
    g_star = cert.g_tilde_star.values
    t = ts[:, None]
    f_hat = _objective(g_star / max(1.0, nuclear_norm), g_o, t)
    gap = _orth_norm2(t * g_star - g_o, cert.h) + (f_hat - _objective(g_star, g_o, t))
    return np.column_stack((ts, f_hat, gap))


def next_breakpoint(cert: GapCertificate, g_o, eps: float, t_max: float) -> float:
    """Smallest t > t_star where the certificate's gap reaches eps, capped at t_max.

    With p and r the components of g* and of the residual t* g* - g_o
    orthogonal to h, the gap is the exact quadratic ||s p + r||^2 in the step
    s = t - t*, so the crossing is the positive root of
    a^2 s^2 + 2 b s - c = 0 with a = ||p||, b = <p, r> and c = eps - ||r||^2,
    taken in the form that does not cancel.  a = 0 means the frozen solution
    stays exact in the direction of h and the gap never reaches eps; a gap
    that already reaches eps at t* (c <= 0) raises RuntimeError.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be positive and finite")
    t_star = cert.t_star
    if t_star >= t_max:
        return float(t_max)
    a = cert.residual_dir_norm
    if a == 0.0:
        return float(t_max)
    h = cert.h
    g_star = cert.g_tilde_star.values
    p = _orth_component(g_star, h)
    r = _orth_component(t_star * g_star - as_impulse(g_o).values, h)
    gap_at_start = float(np.dot(r, r))
    if gap_at_start >= eps:
        raise RuntimeError(
            f"certificate gap at its own breakpoint t*={t_star:.6g} is already "
            f"{gap_at_start:.3g} >= eps={eps:.3g}; the owning solve was too inexact"
        )
    b, c = float(np.dot(p, r)), eps - gap_at_start
    root = math.sqrt(b * b + a * a * c)
    step = c / (b + root) if b >= 0 else (root - b) / (a * a)
    return float(min(t_star + step, t_max))
