"""Order selection on a 100th-order system.

A system with ten strong modes and ninety weak ones is, for fitting purposes,
a ~10th-order system in disguise.  Sweeping the constraint level with a
coarse tolerance maps that out: the effective rank of the fitted Hankel
matrix climbs breakpoint by breakpoint, and the singular-value table shows
where each additional order stops paying for itself.  Takes a few seconds.
"""

import time

import numpy as np

import hankelpath as hp

spec = hp.random_system(
    100, seed=4, bands=[(10, (0.9, 0.96), 3.0), (90, (0.1, 0.6), 0.02)]
)
g_o = hp.impulse_response(spec, k_max=51)
sig = hp.hankel_singular_values(g_o)
print("order 100, k_max = 51, ||g_o||^2 = %.1f, t_max = %.2f"
      % (g_o.norm() ** 2, hp.compute_t_max(g_o)))
print("data sigma_j/sigma_1:", np.array2string(sig[:12] / sig[0], precision=3))

eps = 12.0
start = time.perf_counter()
path = hp.compute_path(g_o, eps=eps)
elapsed = time.perf_counter() - start
print("\neps = %g: %d exact solves in %.1f s" % (eps, path.m, elapsed))

print("\n      t*    effective rank    sigma_5/sigma_1   sigma_11/sigma_1")
for t, sv in zip(path.breakpoints, path.singular_values):
    rank = int(np.sum(sv > 1e-6 * sv[0]))
    print("  %6.2f    %14d    %13.2e   %15.2e" % (t, rank, sv[4] / sv[0], sv[10] / sv[0]))

worst = max(hp.duality_gap(c, g_o, t) for t, c in zip(path.breakpoints, path.certificates))
print("\nworst certificate gap at its own breakpoint: %.1e" % worst)
print("every sampled gap stays within eps = %g: %s"
      % (eps, path.samples.gap.max() <= 1.05 * eps))
