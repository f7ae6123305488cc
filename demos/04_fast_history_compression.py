"""Compress the memory tail of the weakly singular weight into exponentials.

A certified sum of decaying exponentials replaces the O(N) solution history
by a fixed vector of per-node states, turning the O(N^2) direct convolution
into O(N * Nq) work with O(Nq) memory.
"""

import numpy as np

from fracstep import (
    SingleModeProblem,
    build_soe,
    l1_kernel,
    soe_eval,
    solve_single_mode,
    uniform_mesh,
)
from fracstep.specialfn import omega

alpha, eps, delta_t, T = 0.5, 1e-8, 1e-3, 1.0
approx = build_soe(alpha, eps, delta_t, T)
print(f"compression: Nq = {approx.Nq} nodes, certified residual "
      f"{approx.cert_residual:.2e} <= eps = {eps:g}")

ts = np.geomspace(delta_t, T, 7)
print(f"{'t':>10} {'exact weight':>14} {'compressed':>14} {'error':>10}")
for t in ts:
    w = omega(1.0 - alpha, t)
    s = soe_eval(approx, t)
    print(f"{t:>10.2e} {w:>14.8f} {s:>14.8f} {abs(w - s):>10.2e}")

print("\nsingle-mode decay problem, direct vs compressed history:")
print(f"{'N':>6} {'max drift':>12} {'state size':>11}")
for N in (128, 256, 512):
    mesh = uniform_mesh(N, T)
    problem = SingleModeProblem(alpha=alpha, lambda_L=1.0)
    direct = solve_single_mode(problem, mesh, l1_kernel(mesh, alpha))
    fast = solve_single_mode(problem, mesh, approx)
    drift = float(np.max(np.abs(direct.us - fast.us)))
    print(f"{N:>6} {drift:>12.2e} {approx.Nq:>11}")
print("The state size never grows with N; that is the entire point.")
