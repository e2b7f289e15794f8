"""Gap certificates for the constrained fit problem.

A solution g* at parameter t* yields a vector h, the adjoint of a nuclear-norm
subgradient U V^T + W at H(g*).  The half-space {g : h^T (g - g*) <= 0}
contains the whole feasible set, so projecting the data onto it lower-bounds
the optimal cost at any t >= t*, and the difference

    gap(t) = ||t g* - g_o||^2 - <h, t g* - g_o>^2 / ||h||^2

is a certified upper bound on how far the frozen solution's objective sits
above the true optimum at t.  At an exact optimum the fit residual is parallel
to h for the right choice of W, so the gap vanishes at t* and grows as
(t - t*)^2 * a^2 with a the component of g* orthogonal to h.

W is matched to the fit residual by a small regularized least-squares solve
over the truncated subspace (with its spectral norm capped at one, so the
certificate is always a genuine subgradient certificate); called without the
data vector the construction reduces to the plain W = 0 form.

One matched certificate costs one n x n SVD, one k_max x n x n tensor of
anti-diagonal sums (O(n^4), from which every cut's least-squares matrix is
sliced), and per cut r one ridge solve of size min((n - r)^2, k_max).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .hankel import (
    DEFAULT_RANK_TOL,
    ImpulseResponse,
    as_impulse,
    hankel_adjoint,
    hankel_embed,
)

#: The matched certificate is snapped exactly onto the residual direction when
#: it already agrees with it to this angular tolerance (sin of the angle).
SNAP_TOL = 1e-6

#: Relative ridge used in the W-matching least squares.
RIDGE_REL = 1e-8


class DegenerateCertificateError(ValueError):
    """Raised when a certificate with h = 0 is asked for gap values."""


@dataclass(frozen=True, eq=False)
class GapCertificate:
    """Subgradient direction h at a breakpoint plus derived gap quantities.

    residual_dir_norm is a = ||(I - h h^T / ||h||^2) g*||, the growth rate of
    the square-root gap in t.  A certificate with h = 0 (only possible for
    g* = 0, whose Hankel matrix has an empty compact SVD) is flagged
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


def _antidiagonal_tensor(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """T[k, i, j] = adjoint(u_i v_j^T)[k] for all column pairs of U and V.

    Built by n shifted outer-product adds, O(n^4): row p of U meets row q of
    V on anti-diagonal p + q.
    """
    n = U.shape[0]
    T = np.zeros((2 * n - 1, n, n))
    for p in range(n):
        T[p : p + n] += U[p][None, :, None] * V[:, None, :]
    return T


def _match_subgradient(U, S, Vh, res, k_max):
    """Best certificate direction over candidate truncation ranks.

    For each cut r the direction adjoint(U_r V_r^T + W) with W supported on
    the discarded subspace is fitted to be anti-parallel to the residual
    (ridge least squares, spectral norm of W capped at 1).  Every candidate is
    a valid subgradient pullback; the one with the smallest raw gap at t*
    wins.  Returns (h, raw_gap).

    Everything is read off one tensor T = _antidiagonal_tensor(U, V): the
    matrix A mapping vec(W) to adjoint(U_2 W V_2^T) is T's trailing block,
    adjoint(U_r V_r^T) a partial sum of its diagonal slices.
    """
    n = U.shape[0]
    rhat = res / np.linalg.norm(res)

    def raw_gap(h):
        return float(np.sum(res**2) - np.dot(h, res) ** 2 / np.dot(h, h))

    T = _antidiagonal_tensor(U, Vh.T)
    diag = np.arange(n)
    h0_of_cut = np.cumsum(T[:, diag, diag], axis=1)
    # rhat^T A of each cut is a trailing block of this n x n matrix
    rhat_T = np.tensordot(rhat, T, axes=1)
    noise_floor = np.finfo(float).eps * S[0] * n
    best_gap, best_h = np.inf, None
    for cut in range(1, n + 1):
        if cut > 1 and S[cut - 1] <= noise_floor:
            break
        h0 = h0_of_cut[:, cut - 1]
        candidates = [h0]
        if cut < n:
            m = n - cut
            A = T[:, cut:, cut:].reshape(k_max, m * m)
            PA = A - np.outer(rhat, rhat_T[cut:, cut:].ravel())
            Ph0 = h0 - rhat * np.dot(rhat, h0)
            # the ridge solution (PA^T PA + mu I)^-1 PA^T (-Ph0) equals
            # PA^T (PA PA^T + mu I)^-1 (-Ph0); both Gram matrices have the
            # same trace, so mu is the same whichever one is solved
            small = m * m <= k_max
            G = PA.T @ PA if small else PA @ PA.T
            mu = RIDGE_REL * (np.trace(G) / (m * m))
            try:
                if small:
                    z = np.linalg.solve(G + mu * np.eye(m * m), -PA.T @ Ph0)
                else:
                    z = PA.T @ np.linalg.solve(G + mu * np.eye(k_max), -Ph0)
            except np.linalg.LinAlgError:
                z = None
            if z is not None:
                spectral = np.linalg.norm(z.reshape(m, m), 2)
                if spectral > 1.0:
                    z = z / spectral
                candidates.append(h0 + A @ z)
        for h in candidates:
            gap = raw_gap(h)
            if gap < best_gap:
                best_gap, best_h = gap, h

    # snap onto the residual direction when already inside numerical slop
    rnorm2 = float(np.sum(res**2))
    if best_gap <= (SNAP_TOL**2) * rnorm2 and np.dot(best_h, res) < 0:
        best_h = -(np.linalg.norm(best_h) / np.sqrt(rnorm2)) * res
        best_gap = raw_gap(best_h)
    return best_h, best_gap


def subgradient_vector(
    g_tilde_star,
    t_star: float,
    g_o=None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> GapCertificate:
    """Build the gap certificate at a solution of the constrained fit.

    Parameters
    ----------
    g_tilde_star : ImpulseResponse or array-like
        Solution of the constrained fit at t_star.
    t_star : float
        Parameter value the solution belongs to.
    g_o : ImpulseResponse or array-like, optional
        Data vector.  When given, W is matched to the fit residual
        t_star * g* - g_o so the certificate is tight at t_star; when omitted
        the certificate is the literal W = 0 form h = adjoint(U V^T).
    rank_tol : float
        Relative truncation threshold for the compact SVD.

    Returns
    -------
    GapCertificate
        Degenerate (h = 0) iff g_tilde_star = 0.
    """
    g_star = as_impulse(g_tilde_star)
    H = hankel_embed(g_star)
    k_max = g_star.k_max
    U, S, Vh = np.linalg.svd(H.entries)

    if S.size == 0 or S[0] == 0.0:
        return GapCertificate(
            h=np.zeros(k_max),
            t_star=float(t_star),
            g_tilde_star=g_star,
            residual_dir_norm=0.0,
        )

    res = None if g_o is None else float(t_star) * g_star.values - as_impulse(g_o).values
    if res is not None and np.linalg.norm(res) > 1e-15:
        h, _ = _match_subgradient(U, S, Vh, res, k_max)
    else:
        base_rank = int(np.sum(S > rank_tol * S[0]))
        h = hankel_adjoint(U[:, :base_rank] @ Vh[:base_rank, :])

    a = float(np.linalg.norm(_orth_component(g_star.values, h)))
    return GapCertificate(
        h=h, t_star=float(t_star), g_tilde_star=g_star, residual_dir_norm=a
    )


def approx_objective(g_tilde_star, g_o, t: float) -> float:
    """Objective of the frozen solution at parameter t: ||t g* - g_o||^2."""
    gs = as_impulse(g_tilde_star).values
    go = as_impulse(g_o).values
    return float(np.sum((t * gs - go) ** 2))


def duality_gap(cert: GapCertificate, g_o, t: float) -> float:
    """Certified bound on the frozen solution's excess objective at t.

    Evaluates ||t g* - g_o||^2 - <h, t g* - g_o>^2 / ||h||^2, i.e. the squared
    norm of the residual component orthogonal to h, clamped below at zero
    against roundoff.  The bound certifies the interval only for t at or
    above the certificate's own t_star.
    """
    if cert.degenerate:
        raise DegenerateCertificateError(
            "certificate has h = 0 (g* = 0); the gap is undefined"
        )
    res = t * cert.g_tilde_star.values - as_impulse(g_o).values
    h = cert.h
    raw = float(np.sum(res**2) - np.dot(h, res) ** 2 / np.dot(h, h))
    return max(raw, 0.0)


def next_breakpoint(cert: GapCertificate, g_o, eps: float, t_max: float) -> float:
    """Smallest t > t_star where the certificate's gap reaches eps, capped at t_max.

    The gap grows as (t - t_star)^2 * a^2 from an exact breakpoint, so the
    primary step is t_star + sqrt(eps) / a; if evaluating the gap there
    misses eps by more than 4 % (inexact solve upstream), a safeguarded
    root-finder on [t_star, t_max] takes over.  a = 0 means the frozen
    solution stays exact in the direction of h and the gap never reaches eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    t_star = cert.t_star
    if t_star >= t_max:
        return float(t_max)
    a = cert.residual_dir_norm
    if a == 0.0:
        return float(t_max)
    if duality_gap(cert, g_o, t_max) <= eps:
        return float(t_max)

    t_closed = t_star + np.sqrt(eps) / a
    if t_closed < t_max and abs(duality_gap(cert, g_o, t_closed) - eps) <= 0.04 * eps:
        return float(t_closed)

    gap_at_start = duality_gap(cert, g_o, t_star)
    if gap_at_start >= eps:
        raise RuntimeError(
            f"certificate gap at its own breakpoint t*={t_star:.6g} is already "
            f"{gap_at_start:.3g} >= eps={eps:.3g}; the owning solve was too inexact"
        )
    return float(
        brentq(lambda x: duality_gap(cert, g_o, x) - eps, t_star, t_max, xtol=1e-12)
    )
