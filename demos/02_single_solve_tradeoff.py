"""Fit versus complexity at a handful of constraint levels.

Solves the nuclear-norm-constrained H2 fit at several values of t between 0
and t_max = ||H(g_o)||_* and prints how the objective, the effective rank of
the fitted Hankel matrix, and the solver effort move.  At t = t_max the data
itself becomes feasible and the fit is exact.
"""

import numpy as np

import hankelpath as hp

# 6th-order system dominated by one oscillatory pole pair
spec = hp.random_system(
    6, seed=10, bands=[(2, (0.88, 0.92), 0.1), (4, (0.15, 0.3), 0.002)]
)
g_o = hp.impulse_response(spec, k_max=31)
t_max = hp.compute_t_max(g_o)
print("k_max = %d, ||g_o||^2 = %.5f, t_max = %.5f" % (g_o.k_max, g_o.norm() ** 2, t_max))

print("\n    t/t_max   objective   nuclear   rank(H)   iters")
for frac in (0.02, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
    t = frac * t_max
    res = hp.solve_constrained(g_o, t)
    sigma = hp.hankel_singular_values(res.g_tilde)
    rank = int(np.sum(sigma > 1e-6 * sigma[0]))
    print("    %7.2f   %9.6f   %7.5f   %7d   %5d"
          % (frac, res.objective, res.nuclear_norm_value, rank, res.iterations))

# the optimum at every t is certified: the residual lines up with the
# subgradient direction h read off the solver's dual, so the frozen solution
# bounds the true path
t = 0.4 * t_max
res = hp.solve_constrained(g_o, t)
cert = hp.subgradient_vector(res.g_tilde, t, g_o=g_o, h=res.dual_direction)
r = t * res.g_tilde.values - g_o.values
cosine = abs(r @ cert.h) / (np.linalg.norm(r) * np.linalg.norm(cert.h))
print("\nat t = 0.4 t_max: residual-vs-h alignment 1 - cos = %.2e" % (1 - cosine))
print("gap at the solve point itself: %.2e" % hp.duality_gap(cert, g_o, t))
print("gap 0.05 later: %.5f (= (0.05 a)^2 with a = %.4f)"
      % (hp.duality_gap(cert, g_o, t + 0.05), cert.residual_dir_norm))
