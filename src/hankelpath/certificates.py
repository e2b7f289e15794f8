"""Gap certificates for the constrained fit problem.

A solution g* at parameter t* yields a vector h = adjoint(Z), the pullback of
a nuclear-norm subgradient Z with ||Z||_2 = 1.  The half-space
{g : h^T (g - g*) <= 0} contains the whole feasible set, so projecting the
data onto it lower-bounds the optimal cost at any t >= t*, and the difference

    gap(t) = ||t g* - g_o||^2 - <h, t g* - g_o>^2 / ||h||^2

is a certified upper bound on how far the frozen solution's objective sits
above the true optimum at t.  At an exact optimum the fit residual is parallel
to h, so the gap vanishes at t* and grows as (t - t*)^2 * a^2 with a the
component of g* orthogonal to h.

Z is read off the splitting solver's dual.  Each step leaves
U_dual = T(z) - Pi(T(z)) with Pi the projection onto the nuclear ball; for
the eigen-projection that is Q diag(mu - x) Q^T, equal to theta * sign(mu) on
the support of X = Pi(T(z)) and of magnitude at most theta off it, theta the
simplex threshold.  So with S the symmetric part of U_dual, Z = S / ||S||_2
is a nuclear-norm subgradient at X, at every iterate however rough the solve,
after an Anderson step or a rho rescale too: U_dual lies in the normal cone
of the ball at X (the ADMM optimality conditions, Boyd et al. 2011, section
3.3).  Without a dual (closed-form solves, callers holding only g*) Z is the
W = 0 form U_r V_r^T of H(g*): H(g*) is symmetric, so with its cached
eigendecomposition Q diag(lam) Q^T (ImpulseResponse.hankel_eigh) that is
Q_r sign(lam_r) Q_r^T over the eigenvalues above the noise floor.  Given the
data vector, an h that already points along -(t* g* - g_o) to within
SNAP_TOL is snapped onto it exactly.

dual_bounds prices any solver state with the same h: the objective at the
rescaled, exactly feasible point bounds the optimum from above, and the
half-space h^T g <= 1 gives a lower bound, however inexact the solve.  The
certificate and dual_bounds take ||S||_2 from an eigvalsh, so the scale of h
is that of Z = S / ||S||_2.  The solver's stop_inside test alone divides by an
upper bound on ||S||_2 read off its state instead (solver._dual_norm): any
divisor at or above ||S||_2 keeps the half-space valid, at a bound looser by
the excess.

compute_path prices a segment's reporting grid as one table of residuals
(_segment_samples), with the same arithmetic per sample as approx_objective
and duality_gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hankel import (
    ImpulseResponse,
    adjoint_fast,
    as_impulse,
    hankel_adjoint,
    hankel_singular_values,
    symmetric_singular_values,
)

#: A certificate is snapped exactly onto the residual direction when it
#: already agrees with it to this angular tolerance (sin of the angle).
SNAP_TOL = 1e-6


class DegenerateCertificateError(ValueError):
    """Raised when a certificate with h = 0 is asked for gap values."""


@dataclass(frozen=True, eq=False, slots=True)
class GapCertificate:
    """Subgradient direction h at a breakpoint plus derived gap quantities.

    residual_dir_norm is a = ||(I - h h^T / ||h||^2) g*||, the growth rate of
    the square-root gap in t.  A certificate with h = 0 (only possible for
    g* = 0, whose Hankel matrix has no nonzero singular value) is flagged
    degenerate and cannot evaluate gaps.
    """

    h: np.ndarray
    t_star: float
    g_tilde_star: ImpulseResponse
    residual_dir_norm: float

    def __post_init__(self):
        arr = np.asarray(self.h, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "h", arr)

    @property
    def degenerate(self) -> bool:
        return not np.any(self.h)


def _orth_component(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    return x - h * (np.dot(h, x) / np.dot(h, h))


def _dual_direction(U) -> np.ndarray | None:
    """h = adjoint(S) / ||S||_2 with S the symmetric part of U; None when
    adjoint(S) = 0 (S = 0 among them)."""
    U = np.asarray(U, dtype=float)
    S = 0.5 * (U + U.T)
    a = adjoint_fast(S)
    if not np.any(a):
        return None
    return a / float(symmetric_singular_values(S)[0])


def subgradient_vector(g_tilde_star, t_star: float, g_o=None, dual=None) -> GapCertificate:
    """Build the gap certificate at a solution of the constrained fit.

    Parameters
    ----------
    g_tilde_star : ImpulseResponse or array-like
        Solution of the constrained fit at t_star.
    t_star : float
        Parameter value the solution belongs to.
    g_o : ImpulseResponse or array-like, optional
        Data vector.  When given, an h that already points along the negated
        fit residual t_star * g* - g_o to within SNAP_TOL is snapped onto it.
    dual : n-by-n array, optional
        The solver's dual U_dual (admm_state[1] of the solve that produced
        g_tilde_star); h = adjoint(S) / ||S||_2 with S its symmetric part.
        Without it, or when adjoint(S) = 0, h is the W = 0 form
        adjoint(U_r V_r^T) of H(g*), cut at the noise floor n * sigma_1 times
        machine epsilon, and taken as adjoint(Q_r sign(lam_r) Q_r^T) from
        g*.hankel_eigh.

    Returns
    -------
    GapCertificate
        Degenerate (h = 0) iff g_tilde_star = 0.

    Raises
    ------
    np.linalg.LinAlgError
        When the dual has a non-finite entry, or the spectrum of H(g*) or of
        S overflows (symmetric_eigh, symmetric_singular_values).
    """
    g_star = as_impulse(g_tilde_star)
    k_max = g_star.k_max
    if not np.any(g_star.values):
        return GapCertificate(np.zeros(k_max), float(t_star), g_star, 0.0)

    h = None if dual is None else _dual_direction(dual)
    if h is None:
        # U_r V_r^T = Q_r sign(lam_r) Q_r^T over the singular values |lam|
        # above the noise floor n * sigma_1 * machine epsilon
        lam, Q = g_star.hankel_eigh
        mag = np.abs(lam)
        keep = mag > np.finfo(float).eps * mag.size * mag.max()
        Q_r = Q[:, keep]
        h = hankel_adjoint((Q_r * np.sign(lam[keep])) @ Q_r.T)
    if g_o is not None:
        # snap onto -res, keeping the norm, inside numerical slop; a
        # residual whose squared norm underflows to 0 has no usable direction
        res = float(t_star) * g_star.values - as_impulse(g_o).values
        rr, hr = float(res.dot(res)), float(h.dot(res))
        if hr < 0 and rr > 0 and rr - hr * hr / float(h.dot(h)) <= SNAP_TOL**2 * rr:
            h = -(np.linalg.norm(h) / math.sqrt(rr)) * res

    a = float(np.linalg.norm(_orth_component(g_star.values, h)))
    return GapCertificate(
        h=h, t_star=float(t_star), g_tilde_star=g_star, residual_dir_norm=a
    )


def approx_objective(g_tilde_star, g_o, t: float) -> float:
    """Objective of the frozen solution at parameter t: ||t g* - g_o||^2."""
    gs = as_impulse(g_tilde_star).values
    go = as_impulse(g_o).values
    return float(np.sum((t * gs - go) ** 2))


def dual_bounds(g_o, t: float, g, U=None, nuclear_norm=None) -> tuple[float, float]:
    """Certified enclosure (lower, upper) of the optimal cost f*(t) from any g and U.

    upper is feasible_upper_bound: the objective ||t g_hat - g_o||^2 of the
    exactly feasible point g_hat = g / max(1, ||H(g)||_*); nuclear_norm, when
    given, is that Hankel nuclear norm of g, so a caller that has it saves
    one eigvalsh.  lower is dual_lower_bound(g_o, t, U), 0 for U = None.
    """
    go = np.asarray(g_o, dtype=float)
    gv = np.asarray(g, dtype=float)
    if nuclear_norm is None:
        nuclear_norm = float(hankel_singular_values(gv).sum())
    lower = 0.0 if U is None else dual_lower_bound(go, t, U)
    return lower, feasible_upper_bound(go, t, gv, nuclear_norm)


def dual_lower_bound(g_o: np.ndarray, t: float, U) -> float:
    """Lower bound on f*(t) from a dual point U, for a float data vector g_o.

    With S the symmetric part of U and h = adjoint(S) / ||S||_2, every
    feasible g has h^T g = <S, H(g)> / ||S||_2 <= ||H(g)||_* <= 1, so t g
    stays in the half-space h^T x <= t and f*(t) >= max(0, h^T g_o - t)^2 /
    ||h||^2.  That holds for any U, however inexact the solve it came from;
    at an optimum, with U the solver's scaled dual, the bound is tight.  An
    S with adjoint(S) = 0 (S = 0 among them) gives 0; any other U that is
    not n-by-n for a g_o of length 2n - 1 raises ValueError.
    """
    h = _dual_direction(U)
    return 0.0 if h is None else _half_space_bound(g_o, t, h)


def _half_space_bound(g_o: np.ndarray, t: float, h: np.ndarray) -> float:
    """max(0, h^T g_o - t)^2 / ||h||^2, the lower bound on f*(t) of
    h = adjoint(S) / nu for S symmetric and nu >= ||S||_2 (dual_lower_bound
    with nu = ||S||_2); h = 0 gives 0.  Any nu >= ||S||_2 keeps the bound
    valid, since then ||S / nu||_2 <= 1, and loosens it by the excess; one
    below ||S||_2 makes it unsound, so only a caller that can vouch for its
    nu passes one: the solver's stop test, with solver._dual_norm and the
    adjoint of its bit-symmetric U_dual, its own symmetric part.
    """
    excess = float(h.dot(g_o)) - t
    return excess * excess / float(h.dot(h)) if excess > 0.0 else 0.0


def feasible_upper_bound(g_o: np.ndarray, t: float, g: np.ndarray, nuclear_norm: float) -> float:
    """Upper bound on f*(t): the objective ||t g_hat - g_o||^2 of the exactly
    feasible point g_hat = g / max(1, nuclear_norm), with nuclear_norm the
    Hankel nuclear norm of g (float arrays g_o and g)."""
    return float(np.sum((t * (g / max(1.0, nuclear_norm)) - g_o) ** 2))


def duality_gap(cert: GapCertificate, g_o, t: float) -> float:
    """Certified bound on the frozen solution's excess objective at t.

    Evaluates ||t g* - g_o||^2 - <h, t g* - g_o>^2 / ||h||^2, i.e. the squared
    norm of the residual component orthogonal to h, clamped below at zero
    against roundoff.  The bound certifies the interval only for t at or
    above the certificate's own t_star.
    """
    _require_direction(cert)
    res = t * cert.g_tilde_star.values - as_impulse(g_o).values
    h = cert.h
    raw = float(np.sum(res**2) - np.dot(h, res) ** 2 / np.dot(h, h))
    return max(raw, 0.0)


def _require_direction(cert: GapCertificate) -> None:
    if cert.degenerate:
        raise DegenerateCertificateError(
            "certificate has h = 0 (g* = 0); the gap is undefined"
        )


def _segment_samples(cert: GapCertificate, g_o: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The (t, f_approx, gap) rows of the frozen solution on the grid ts, as
    one (k, 3) table.  Row j prices the residual ts[j] g* - g_o of one
    (k, 2n - 1) table: f_approx is its row sum of squares, and the gap takes
    np.dot with h and the scalar square per row, as duality_gap does, so both
    equal approx_objective and duality_gap bit for bit (a vector square
    would not: the float64 scalar power can differ from x * x in the last
    bit).  Raises DegenerateCertificateError as duality_gap does."""
    _require_direction(cert)
    h = cert.h
    res = ts[:, None] * cert.g_tilde_star.values - g_o
    f_approx = np.sum(res**2, axis=1)
    hr2 = np.array([np.dot(h, row) ** 2 for row in res])
    gap = np.maximum(f_approx - hr2 / np.dot(h, h), 0.0)
    return np.column_stack((ts, f_approx, gap))


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
