"""Hankel structure 101: why anti-diagonal matrices know the system order.

Builds a small stable system, embeds its impulse response as a Hankel matrix,
and shows that the numerical rank of that matrix equals the system order
while the nuclear norm tracks it smoothly, which is the fact the whole
library leans on.
"""

import numpy as np

import hankelpath as hp

# a 3rd-order system: one real mode plus a lightly damped oscillatory pair
spec = hp.SystemSpec(
    poles=(0.6, 0.8 * np.exp(1j * 1.1), 0.8 * np.exp(-1j * 1.1)),
    residues=(0.5, 0.3 - 0.2j, 0.3 + 0.2j),
)
g = hp.impulse_response(spec, k_max=51)
print("impulse response (first 8 of %d):" % g.k_max)
print(np.array2string(g.values[:8], precision=4))
print("truncation negligible at 1e-8?", hp.check_truncation(spec, 51))

H = hp.hankel_embed(g)
print("\nHankel embedding is %d x %d and symmetric:" % (H.n, H.n))
print(np.array2string(H.entries[:4, :4], precision=4))

sigma = hp.hankel_singular_values(g)
print("\nleading singular values:", np.array2string(sigma[:6], precision=3))
print("numerical rank (tol 1e-8):", int(np.sum(sigma > 1e-8 * sigma[0])),
      "== system order", spec.order)
print("nuclear norm (t_max):", hp.compute_t_max(g))

# the embedding and its adjoint form an exact transform pair
w = hp.multiplicities(H.n)
roundtrip = hp.hankel_adjoint(H.entries)
print("\nadjoint(embed(g)) == multiplicities * g exactly:",
      np.array_equal(roundtrip, w * g.values))

# random inner-product check of the adjoint identity
rng = np.random.default_rng(0)
M = rng.standard_normal((H.n, H.n))
lhs = float(np.sum(H.entries * M))
rhs = float(g.values @ hp.hankel_adjoint(M))
print("adjoint identity <H(g), M> = <g, H*(M)>: difference %.2e" % abs(lhs - rhs))
