"""Independent oracles used to freeze expected values.

Nothing here shares code with the implementation paths it checks: adjoint
values come from explicit double sums, 2x2 singular values from the closed
form, the k_max = 3 solver oracle from a dense feasible-set grid refined by
projected gradient steps with an exact two-block projection, and breakpoints
from plain interval bisection.  The exceptions are the plain ADMM loop, which
reuses the library's projection and adjoint and so checks only the
accelerated loop around them, and the matched-certificate search, which
builds each cut's least-squares matrix by scattering an n^2 x m^2 outer
product and solves the m^2 x m^2 ridge normal equations; it checks the
library's anti-diagonal-tensor construction of the same certificate.
"""

import math

import numpy as np

import hankelpath as hp
from hankelpath.certificates import RIDGE_REL, SNAP_TOL
from hankelpath.hankel import adjoint_fast, embed_indices, hankel_adjoint


def adjoint_double_sum(M):
    """Anti-diagonal sums of a square matrix by explicit double loop."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    out = np.zeros(2 * n - 1)
    for i in range(n):
        for j in range(n):
            out[i + j] += M[i, j]
    return out


def inner_product_pair(g, M):
    """(<H(g), M>_F, computed by double sum) for the adjoint identity."""
    g = np.asarray(g, dtype=float)
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += g[i + j] * M[i, j]
    return total


def svd_2x2_singular_values(M):
    """Closed-form singular values of a 2x2 matrix, descending."""
    a, b = M[0]
    c, d = M[1]
    q = a * a + b * b + c * c + d * d
    det = a * d - b * c
    root = math.sqrt(max(q * q - 4.0 * det * det, 0.0))
    s1 = math.sqrt(max((q + root) / 2.0, 0.0))
    s2 = math.sqrt(max((q - root) / 2.0, 0.0))
    return np.array([s1, s2])


def nuclear_norm_k3(g):
    """Nuclear norm of [[g1,g2],[g2,g3]]: max(|g1+g3|, hypot(g1-g3, 2 g2))."""
    return max(abs(g[0] + g[2]), math.hypot(g[0] - g[2], 2.0 * g[1]))


def project_feasible_k3(z):
    """Euclidean projection onto {g in R^3 : nuclear_norm_k3(g) <= 1}.

    In coordinates s = g1+g3, d = g1-g3, b = g2 the set splits into the slab
    |s| <= 1 and the cylinder d^2 + 4 b^2 <= 1 living in orthogonal
    subspaces, so the projection factors: clamp s, then project (d, b) under
    the metric (d-d0)^2/2 + (b-b0)^2 by a one-dimensional dual bisection.
    """
    z = np.asarray(z, dtype=float)
    s0, d0, b0 = z[0] + z[2], z[0] - z[2], z[1]
    s = min(max(s0, -1.0), 1.0)
    if d0 * d0 + 4.0 * b0 * b0 <= 1.0:
        d, b = d0, b0
    else:
        def constraint(mu):
            return (d0 / (1.0 + 2.0 * mu)) ** 2 + 4.0 * (b0 / (1.0 + 4.0 * mu)) ** 2 - 1.0

        lo, hi = 0.0, 1.0
        while constraint(hi) > 0.0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if constraint(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        mu = 0.5 * (lo + hi)
        d = d0 / (1.0 + 2.0 * mu)
        b = b0 / (1.0 + 4.0 * mu)
    return np.array([(s + d) / 2.0, b, (s - d) / 2.0])


def solve_k3_oracle(g_o, t, grid_points=21, refine_iters=200):
    """Constrained fit oracle for k_max = 3: dense feasible grid + projected
    gradient refinement.  Returns (g_tilde, objective)."""
    g_o = np.asarray(g_o, dtype=float)
    axis = np.linspace(-1.0, 1.0, grid_points)
    best, best_val = np.zeros(3), float(np.sum(g_o**2))
    for g1 in axis:
        for g2 in axis:
            for g3 in axis:
                g = np.array([g1, g2, g3])
                if nuclear_norm_k3(g) <= 1.0:
                    val = float(np.sum((t * g - g_o) ** 2))
                    if val < best_val:
                        best, best_val = g, val
    g = best
    step = 1.0 / (2.0 * t * t)
    for _ in range(refine_iters):
        grad = 2.0 * t * (t * g - g_o)
        g = project_feasible_k3(g - step * grad)
    return g, float(np.sum((t * g - g_o) ** 2))


def theta_scan_simplex(s, radius, points=2_000_001):
    """Brute-force threshold search for the budgeted nonnegative projection."""
    s = np.asarray(s, dtype=float)
    if s.sum() <= radius:
        return s
    thetas = np.linspace(0.0, s.max(), points)
    sums = np.maximum(s[None, :] - thetas[:, None], 0.0).sum(axis=1)
    idx = int(np.argmin(np.abs(sums - radius)))
    return np.maximum(s - thetas[idx], 0.0)


def simplex_sort_loop(s, radius):
    """Sort-based threshold for the budgeted nonnegative projection, one
    sorted entry at a time in plain Python floats."""
    values = [float(v) for v in s]
    if math.fsum(values) <= radius:
        return np.array(values)
    running = 0.0
    theta = 0.0
    for k, v in enumerate(sorted(values, reverse=True), start=1):
        running += v
        if v > (running - radius) / k:
            theta = (running - radius) / k
    return np.array([max(v - theta, 0.0) for v in values])


def bisect_gap_crossing(gap_fn, eps, lo, hi, iters=100):
    """Plain bisection for the smallest t in [lo, hi] with gap_fn(t) = eps."""
    if gap_fn(hi) <= eps:
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if gap_fn(mid) < eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def plain_admm(g_o, t, opts=None):
    """The unaccelerated ADMM loop of solve_constrained, from a cold start:
    one splitting step per iteration, the same residual test and the same
    residual balancing (one sqrt(r_pri / r_dual) step, Wohlberg 2017).
    Only for t below ||H(g_o)||_*.  Returns (g_tilde, objective, iterations,
    converged)."""
    if opts is None:
        opts = hp.SolverOptions()
    g_o = hp.as_impulse(g_o)
    gvec = g_o.values
    k_max = gvec.size
    n = g_o.n
    X = np.zeros((n, n))
    U_dual = np.zeros((n, n))
    rho = float(opts.rho)

    norm_go = np.linalg.norm(gvec)
    primal_tol = opts.primal_tol if opts.primal_tol is not None else 1e-9 * (1 + norm_go)
    dual_tol = opts.dual_tol if opts.dual_tol is not None else 1e-9 * (1 + norm_go)
    scale = n * min(1.0, 2.0 * t * t)
    floor = 4e-15 * n * (1 + norm_go)
    eps_pri = max(primal_tol * scale, floor)
    eps_dual = max(dual_tol * scale, floor)

    idx = embed_indices(n)
    flat_idx = idx.ravel()
    w = hp.multiplicities(n)
    fit_rhs = 2.0 * t * gvec
    fit_curv = 2.0 * t * t
    denom = fit_curv + rho * w

    g_tilde = np.zeros(k_max)
    converged = False
    it = 0
    for it in range(1, opts.max_iters + 1):
        g_tilde = (fit_rhs + rho * adjoint_fast(X - U_dual, flat_idx, k_max)) / denom
        Hg = g_tilde[idx]
        X_new = hp.project_nuclear_ball(Hg + U_dual, 1.0)
        step = Hg - X_new
        U_dual += step
        r_pri = float(np.linalg.norm(step))
        r_dual = rho * float(np.linalg.norm(X_new - X))
        X = X_new
        if r_pri <= eps_pri and r_dual <= eps_dual:
            converged = True
            break
        if (r_pri > 10.0 * r_dual and rho < 1e8) or (r_dual > 10.0 * r_pri and rho > 1e-8):
            # rho scaled by sqrt(r_pri / r_dual) clipped to [0.1, 10], and by
            # 10 when r_dual is zero, then kept inside [1e-8, 1e8]
            factor = 10.0 if r_dual == 0.0 else min(max(math.sqrt(r_pri / r_dual), 0.1), 10.0)
            rho_new = min(max(rho * factor, 1e-8), 1e8)
            U_dual *= rho / rho_new
            rho = rho_new
            denom = fit_curv + rho * w
    return g_tilde, float(np.sum((t * g_tilde - gvec) ** 2)), it, converged


def match_subgradient_reference(U, S, Vh, res, idx, k_max):
    """Best certificate direction over candidate truncation ranks.

    For each cut r the direction adjoint(U_r V_r^T + W) with W supported on
    the discarded subspace is fitted to be anti-parallel to the residual
    (ridge least squares, spectral norm of W capped at 1).  Every candidate is
    a valid subgradient pullback; the one with the smallest raw gap at t*
    wins.  Returns (h, raw_gap).
    """
    n = U.shape[0]
    rhat = res / np.linalg.norm(res)

    def raw_gap(h):
        return float(np.sum(res**2) - np.dot(h, res) ** 2 / np.dot(h, h))

    noise_floor = np.finfo(float).eps * S[0] * n
    best_gap, best_h = np.inf, None
    for cut in range(1, n + 1):
        if cut > 1 and S[cut - 1] <= noise_floor:
            break
        h0 = hankel_adjoint(U[:, :cut] @ Vh[:cut, :])
        candidates = [h0]
        if cut < n:
            U2 = U[:, cut:]
            V2 = Vh[cut:, :].T
            m = n - cut
            # columns are the anti-diagonal sums of u_i v_j^T
            cols = np.einsum("ik,jl->ijkl", U2, V2).reshape(n * n, m * m)
            A = np.zeros((k_max, m * m))
            np.add.at(A, idx.ravel(), cols)
            PA = A - np.outer(rhat, rhat @ A)
            Ph0 = h0 - rhat * np.dot(rhat, h0)
            AtA = PA.T @ PA
            mu = RIDGE_REL * (np.trace(AtA) / max(1, AtA.shape[0]))
            try:
                z = np.linalg.solve(AtA + mu * np.eye(AtA.shape[0]), -PA.T @ Ph0)
            except np.linalg.LinAlgError:
                z = None
            if z is not None:
                Z = z.reshape(m, m)
                spectral = np.linalg.norm(Z, 2)
                if spectral > 1.0:
                    Z = Z / spectral
                candidates.append(h0 + hankel_adjoint(U2 @ Z @ V2.T))
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
