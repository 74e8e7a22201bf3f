"""Bregman divergences and their eigenvalue sandwich.

With gamma_up / gamma_down the extreme Hessian eigenvalues along the segment
between the two points, the Bregman divergence is squeezed between quadratic
norms of the displacement, which converts to total-variation bounds on both
sides (the lower TV bound pays a support-size factor).
"""

import numpy as np

from divlab import bregman_divergence, bregman_integral, bregman_sandwich
from divlab.bregman import neg_entropy_fn, quadratic_fn
from divlab.divergence import f_divergence
from divlab.generators import make_generator

print("=" * 78)
print("Quadratic potential: B_F is half the squared Mahalanobis distance")
print("=" * 78)
Q = np.array([[2.0, 0.3], [0.3, 1.0]])
fd = quadratic_fn(Q)
x = np.array([0.8, -0.2])
y = np.array([0.1, 0.5])
print(f"  B_F(x||y) = {bregman_divergence(fd, x, y):.8f}")
print(f"  quadrature of the integral representation: "
      f"{bregman_integral(fd, x, y):.8f}")
res = bregman_sandwich(fd, x, y)
print(f"  gamma range [{res.gamma_down:.4f}, {res.gamma_up:.4f}] "
      f"(eigenvalues of Q: {np.linalg.eigvalsh(Q)})")
print(f"  chain: {res.tv_lower:.5f} <= {res.l2_lower:.5f} <= {res.value:.5f} "
      f"<= {res.l2_upper:.5f} <= {res.tv_upper:.5f}  holds={res.holds}")

print()
print("=" * 78)
print("Negative entropy: B_F is the KL divergence on equal-sum vectors")
print("=" * 78)
ent = neg_entropy_fn(3)
kl = make_generator("kl")
p = np.array([0.5, 0.2, 0.3])
q = np.array([0.3, 0.45, 0.25])
print(f"  B_F(p||q) = {bregman_divergence(ent, p, q):.8f}")
print(f"  KL(p||q)  = {f_divergence(kl, p, q):.8f}")
res = bregman_sandwich(ent, p, q)
print(f"  gamma range [{res.gamma_down:.4f}, {res.gamma_up:.4f}] "
      "(reciprocals of the segment's extreme coordinates)")
print(f"  chain: {res.tv_lower:.5f} <= {res.l2_lower:.5f} <= {res.value:.5f} "
      f"<= {res.l2_upper:.5f} <= {res.tv_upper:.5f}  holds={res.holds}")

print()
print("Any generator induces a separable potential with the same divergence:")
g = make_generator("jensen_shannon")
from divlab.bregman import SmoothConvexFn

fq = SmoothConvexFn(
    dim=3,
    F=lambda x: float(np.sum(q * g.f(x / q))),
    grad=lambda x: g.f1(x / q),
    hess=lambda x: g.f2(x / q) / q,  # a diagonal Hessian, given as its diagonal
    in_domain=lambda x: bool(np.all(np.asarray(x) > 0)),
)
print(f"  B_(f_q)(p||q) = {bregman_divergence(fq, p, q):.10f}")
print(f"  D_js(p||q)    = {f_divergence(g, p, q):.10f}")
