"""Independent oracles used to freeze expected values.

Nothing here shares code with the implementation paths it checks: adjoint
values come from explicit double sums, 2x2 singular values from the closed
form, the k_max = 3 solver oracle from a dense feasible-set grid refined by
projected gradient steps with an exact two-block projection, and breakpoints
from plain interval bisection.  The exceptions are the plain ADMM loop, which
reuses the library's projection and adjoint and so checks only the
accelerated loop around them, and the np.linalg.eigh nuclear-ball
projection, which reuses the library's simplex projection and so checks only
the direct LAPACK eigendecomposition around it.  The *_frozen functions
keep the arithmetic of earlier library kernels and of the earlier solver
loop, so that the current ones are pinned to them bit for bit; the frozen
loop calls the library's cold start, projection, adjoint and bounds.
"""

import math

import numpy as np
from numpy.linalg._umath_linalg import solve1

import hankelpath as hp
from hankelpath.hankel import adjoint_fast, embed_indices, symmetric_singular_values


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


def simplex_cumsum_frozen(s, radius):
    """The budgeted nonnegative projection as the library computed it before
    its threshold became a scan: candidate thresholds from a cumsum of the
    descending entries, the last entry above its candidate by flatnonzero."""
    s = np.asarray(s, dtype=float)
    if s.sum() <= radius:
        return s
    d = np.sort(s)[::-1]
    theta = d.cumsum()
    theta -= radius
    theta /= np.arange(1, d.size + 1)
    k = np.flatnonzero(d > theta)[-1]
    return np.maximum(s - theta[k], 0.0)


def simplex_scan_frozen(s, radius):
    """The budgeted nonnegative projection as the library computed it before
    its scan stopped at the first entry that drops out: every sorted entry
    is scanned, and theta is the candidate of the last one above its own."""
    s = np.asarray(s, dtype=float)
    if s.sum() <= radius:
        return s
    d = sorted(s.ravel().tolist(), reverse=True)
    running = d[0]
    theta = running - radius
    for k in range(1, len(d)):
        running += d[k]
        candidate = (running - radius) / (k + 1)
        if d[k] > candidate:
            theta = candidate
    x = s - theta
    return np.maximum(x, 0.0, out=x)


def project_nuclear_ball_frozen(M, radius):
    """Symmetric nuclear-ball projection as the library computed it before
    its simplex threshold became a scan: np.linalg.eigh, the cumsum simplex
    above, and 0.5 * (P + P.T)."""
    lam, Q = np.linalg.eigh(M)
    mag = np.abs(lam)
    if mag.sum() <= radius:
        return M
    P = (Q * np.copysign(simplex_cumsum_frozen(mag, radius), lam)) @ Q.T
    return 0.5 * (P + P.T)


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


def project_nuclear_ball_eigh(M, radius):
    """Nuclear-ball projection of a symmetric matrix through np.linalg.eigh:
    shrink |lambda| on the simplex, keep the signs, symmetrize."""
    lam, Q = np.linalg.eigh(M)
    mag = np.abs(lam)
    if mag.sum() <= radius:
        return M
    P = (Q * np.copysign(hp.project_simplex_l1(mag, radius), lam)) @ Q.T
    return 0.5 * (P + P.T)


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

    # the fit divided by s^2 = ||g_o||^2, from rho at its curvature
    s2 = float(gvec @ gvec)
    fit_rhs = (2.0 * t / s2) * gvec
    fit_curv = 2.0 * t * t / s2
    rho = fit_curv
    primal_tol = opts.primal_tol if opts.primal_tol is not None else 2e-9
    dual_tol = opts.dual_tol if opts.dual_tol is not None else 2e-9
    scale = n * min(1.0, fit_curv)
    floor = 8e-15 * n
    eps_pri = max(primal_tol * scale, floor)
    eps_dual = max(dual_tol * scale, floor)

    idx = embed_indices(n)
    w = hp.multiplicities(n)
    denom = fit_curv + rho * w

    g_tilde = np.zeros(k_max)
    converged = False
    it = 0
    for it in range(1, opts.max_iters + 1):
        g_tilde = (fit_rhs + rho * adjoint_fast(X - U_dual)) / denom
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
        if (r_pri > 10.0 * r_dual and rho < 1e8 * fit_curv) or (
            r_dual > 10.0 * r_pri and rho > 1e-8 * fit_curv
        ):
            # rho scaled by sqrt(r_pri / r_dual) clipped to [0.1, 10], and by
            # 10 when r_dual is zero, then kept inside [1e-8, 1e8] fit_curv
            factor = 10.0 if r_dual == 0.0 else min(max(math.sqrt(r_pri / r_dual), 0.1), 10.0)
            rho_new = min(max(rho * factor, 1e-8 * fit_curv), 1e8 * fit_curv)
            U_dual *= rho / rho_new
            rho = rho_new
            denom = fit_curv + rho * w
    return g_tilde, float(np.sum((t * g_tilde - gvec) ** 2)), it, converged


def solve_constrained_cadence_frozen(g_o, t, opts=None, *, warm_start=None, test_every=4):
    """solve_constrained, without stop_inside, as the library ran it before a
    cadence iteration kept its plain step: every test_every-th iteration
    projects T(z) for the residual test and residual balancing and then,
    with an extrapolation at hand, discards that state and projects the
    Anderson point z_aa too.  The constants are those of that loop (16
    differences, 1e-10 Tikhonov weight, balancing steps clipped to
    [0.1, 10]) and its normalized problem: the fit divided by ||g_o||^2, rho
    and the stopping thresholds in those units, and rho reported in the
    original ones; the cold start, projection, adjoint and bounds are the
    library's."""
    aa_mem, aa_reg, balance_max = 16, 1e-10, 10.0
    if opts is None:
        opts = hp.SolverOptions()
    g_o = hp.as_impulse(g_o)
    gvec = g_o.values
    n = g_o.n
    rho = None
    if warm_start is not None:
        X0, U0, rho = warm_start
        # a scalar stands for the constant n-by-n matrix, as in the library
        X, U_dual = (
            np.full((n, n), float(a)) if np.ndim(a) == 0 else np.array(a, dtype=float)
            for a in (X0, U0)
        )
        rho = float(rho)

    nuc0 = g_o.hankel_nuclear_norm
    if nuc0 <= t:
        g_tilde = hp.ImpulseResponse(gvec / t)
        lam = g_o.hankel_eigh[0] / t
        return hp.SolveResult(
            g_tilde=g_tilde,
            t=float(t),
            objective=float(np.sum((t * g_tilde.values - gvec) ** 2)),
            nuclear_norm_value=nuc0 / t,
            iterations=0,
            primal_residual=0.0,
            dual_residual=0.0,
            converged=True,
            bounds=hp.dual_bounds(gvec, t, g_tilde.values, nuclear_norm=nuc0 / t),
            singular_values=np.sort(np.abs(lam))[::-1],
        )

    def norm(a):
        v = a.ravel()
        return math.sqrt(v.dot(v))

    s2 = float(gvec @ gvec)
    fit_rhs = (2.0 * t / s2) * gvec
    fit_curv = 2.0 * t * t / s2
    rho = fit_curv if rho is None else rho / s2
    rho_lo, rho_hi = 1e-8 * fit_curv, 1e8 * fit_curv
    primal_tol = opts.primal_tol if opts.primal_tol is not None else 2e-9
    dual_tol = opts.dual_tol if opts.dual_tol is not None else 2e-9
    scale = n * min(1.0, fit_curv)
    floor = 8e-15 * n
    eps_pri = max(primal_tol * scale, floor)
    eps_dual = max(dual_tol * scale, floor)

    idx = embed_indices(n)
    w = hp.multiplicities(n)
    denom = fit_curv + rho * w
    if warm_start is None:
        X, U_dual, _ = hp.solver._cold_start(g_o, t, idx, w)

    g_tilde = np.zeros(gvec.size)
    r_pri = r_dual = np.inf
    converged = False
    dT = np.empty((aa_mem, n * n))
    dF = np.empty((aa_mem, n * n))
    gram = np.empty((aa_mem, aa_mem))
    eye = np.eye(aa_mem)
    filled = slot = 0
    prev = None
    f_ref = np.inf
    z = X + U_dual
    it = 0
    for it in range(1, opts.max_iters + 1):
        g_tilde = (fit_rhs + rho * adjoint_fast(X - U_dual)) / denom
        Hg = g_tilde[idx]
        Tz = Hg + U_dual
        f = Tz - z
        fnorm = norm(f)
        Tz_flat = Tz.ravel()
        f_flat = f.ravel()
        if fnorm > f_ref:
            filled = slot = 0
            f_ref = np.inf
        elif prev is not None:
            np.subtract(Tz_flat, prev[0], out=dT[slot])
            np.subtract(f_flat, prev[1], out=dF[slot])
            filled = min(filled + 1, aa_mem)
            row = dF[:filled] @ dF[slot]
            gram[slot, :filled] = row
            gram[:filled, slot] = row
            slot = (slot + 1) % aa_mem
        prev = (Tz_flat, f_flat)
        z_aa = None
        if filled:
            G = gram[:filled, :filled]
            tr = G.trace()
            if tr > 0:
                gamma = solve1(G + aa_reg * tr * eye[:filled, :filled], dF[:filled] @ f_flat)
                z_aa = Tz - (gamma @ dT[:filled]).reshape(n, n)
                z_aa = 0.5 * (z_aa + z_aa.T)
        if z_aa is None or it % test_every == 0 or fnorm <= eps_pri + eps_dual / rho:
            X_new = hp.project_nuclear_ball(Tz, 1.0)
            step = Hg - X_new
            r_pri = norm(step)
            r_dual = rho * norm(X_new - X)
            X = X_new
            U_dual += step
            if r_pri <= eps_pri and r_dual <= eps_dual:
                converged = True
                break
            if (r_pri > 10.0 * r_dual and rho < rho_hi) or (r_dual > 10.0 * r_pri and rho > rho_lo):
                factor = balance_max if r_dual == 0.0 else math.sqrt(r_pri / r_dual)
                factor = min(max(factor, 1.0 / balance_max), balance_max)
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
            X = hp.project_nuclear_ball(z, 1.0)
            U_dual = z - X
            f_ref = fnorm

    sv = symmetric_singular_values(Hg)
    nuc = float(sv.sum())
    X.setflags(write=False)
    U_dual.setflags(write=False)
    return hp.SolveResult(
        g_tilde=hp.ImpulseResponse(g_tilde),
        t=float(t),
        objective=float(np.sum((t * g_tilde - gvec) ** 2)),
        nuclear_norm_value=nuc,
        iterations=it,
        primal_residual=r_pri,
        dual_residual=r_dual * s2,
        converged=converged,
        bounds=hp.dual_bounds(gvec, t, g_tilde, U_dual, nuclear_norm=nuc),
        singular_values=sv,
        admm_state=(X, U_dual, rho * s2),
    )
