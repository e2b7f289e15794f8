"""Independent oracles used to freeze expected values.

Nothing here shares code with the implementation paths it checks: adjoint
values come from explicit double sums, 2x2 singular values from the closed
form, the k_max = 3 solver oracle from a dense feasible-set grid refined by
projected gradient steps with an exact two-block projection, and breakpoints
from plain interval bisection.
"""

import math

import numpy as np


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
