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

dual_bounds prices any solver state instead: the objective at the rescaled,
exactly feasible point bounds the optimum from above, and the solver's dual
matrix gives a half-space containing the feasible set, hence a lower bound,
however inexact the solve.

One matched certificate costs one n x n SVD, one k_max x n x n tensor of
anti-diagonal sums (O(n^4), from which every cut's least-squares matrix is
sliced), and per cut r one ridge solve of size min((n - r)^2, k_max).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hankel import (
    ImpulseResponse,
    adjoint_fast,
    as_impulse,
    embed_indices,
    hankel_adjoint,
    hankel_embed,
    hankel_singular_values,
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


def _numerical_rank(S: np.ndarray) -> int:
    """Number of singular values above the noise floor n * sigma_1 * machine
    epsilon (at least one when sigma_1 > 0; S is sorted descending)."""
    return int(np.sum(S > np.finfo(float).eps * S.size * S[0]))


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
    best_gap, best_h = np.inf, None
    for cut in range(1, _numerical_rank(S) + 1):
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


def subgradient_vector(g_tilde_star, t_star: float, g_o=None) -> GapCertificate:
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
        the certificate is the literal W = 0 form h = adjoint(U_r V_r^T),
        cut at the same noise floor as the matched search.

    Returns
    -------
    GapCertificate
        Degenerate (h = 0) iff g_tilde_star = 0.
    """
    g_star = as_impulse(g_tilde_star)
    k_max = g_star.k_max
    U, S, Vh = np.linalg.svd(hankel_embed(g_star).entries)
    if S[0] == 0.0:
        return GapCertificate(np.zeros(k_max), float(t_star), g_star, 0.0)

    res = None if g_o is None else float(t_star) * g_star.values - as_impulse(g_o).values
    if res is not None and np.linalg.norm(res) > 1e-15:
        h, _ = _match_subgradient(U, S, Vh, res, k_max)
    else:
        rank = _numerical_rank(S)
        h = hankel_adjoint(U[:, :rank] @ Vh[:rank, :])

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

    upper is the objective ||t g_hat - g_o||^2 of the exactly feasible point
    g_hat = g / max(1, ||H(g)||_*); nuclear_norm, when given, is that Hankel
    nuclear norm of g, so a caller that has it saves one eigvalsh.

    lower prices a dual point: with S the symmetric part of U and
    h = adjoint(S) / ||S||_2, every feasible g has
    h^T g = <S, H(g)> / ||S||_2 <= ||H(g)||_* <= 1, so t g stays in the
    half-space h^T x <= t and f*(t) >= max(0, h^T g_o - t)^2 / ||h||^2.  That
    holds for any U, however inexact the solve it came from; at an optimum,
    with U the solver's scaled dual, the bound is tight.  U = None, or an S
    with adjoint(S) = 0 (S = 0 among them), gives lower = 0.
    """
    go = np.asarray(g_o, dtype=float)
    gv = np.asarray(g, dtype=float)
    if nuclear_norm is None:
        nuclear_norm = float(hankel_singular_values(gv).sum())
    upper = float(np.sum((t * (gv / max(1.0, nuclear_norm)) - go) ** 2))
    if U is None:
        return 0.0, upper
    U = np.asarray(U, dtype=float)
    S = 0.5 * (U + U.T)
    a = adjoint_fast(S, embed_indices(S.shape[0]).ravel(), go.size)
    aa = float(a.dot(a))
    if aa == 0.0:
        return 0.0, upper
    spectral = float(np.abs(np.linalg.eigvalsh(S)).max())
    # h = a / spectral, so (h^T g_o - t)^2 / ||h||^2 = (a^T g_o - t spectral)^2 / a^T a
    excess = max(0.0, float(a.dot(go)) - t * spectral)
    return excess * excess / aa, upper


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

    With p and r the components of g* and of the residual t* g* - g_o
    orthogonal to h, the gap is the exact quadratic ||s p + r||^2 in the step
    s = t - t*, so the crossing is the positive root of
    a^2 s^2 + 2 b s - c = 0 with a = ||p||, b = <p, r> and c = eps - ||r||^2,
    taken in the form that does not cancel.  a = 0 means the frozen solution
    stays exact in the direction of h and the gap never reaches eps; a gap
    that already reaches eps at t* (c <= 0) raises RuntimeError.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
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
