"""Energy inequalities and the end-to-end stability envelope.

The per-step energy split certifies the finite-difference scheme's stability
hypothesis; feeding its data into the Gronwall machinery yields a closed-form
envelope that every computed trajectory norm must respect.
"""

import numpy as np

from fracstep import (
    FDProblem1D,
    build_complementary,
    check_energy_lemmas,
    check_stability_envelope,
    l1_kernel,
    solve_fd1d,
    uniform_mesh,
)

alpha = 0.5
mesh = uniform_mesh(64, 1.0)
table = l1_kernel(mesh, alpha)

rep = check_energy_lemmas(table, dim=8, trials=2000, rng=11)
print("energy audit over 2000 random vector sequences:")
print(f"  worst residuals: {rep.worst_resid_first:.2e} (vs u^n), "
      f"{rep.worst_resid_second:.2e} (vs u^(n-1)), "
      f"{rep.worst_resid_weighted:.2e} (weighted)")
print(f"  coefficient ranges: d_n > 0: {rep.d_positive}, "
      f"A0 d_n > 1: {rep.d_times_diag_above_one}, "
      f"theta_n < 1/2 for n >= 2: {rep.theta_below_half_from_row2}")

problem = FDProblem1D(
    length=1.0, M=48, kappa=1.0,
    psi=lambda x, t: np.sin(np.pi * x) * np.cos(2.0 * t),
    u0=lambda x: np.sin(np.pi * x))
res = solve_fd1d(problem, mesh, table)
ctable = build_complementary(table)
stab = check_stability_envelope(table, mesh, res, problem, ctable, pi_A=1.0)

print("\nreaction-subdiffusion run with kappa = 1 and bounded forcing:")
print(f"  per-step hypothesis holds: {stab.hypothesis_ok} "
      f"(worst residual {stab.worst_hypothesis_resid:.2e})")
print(f"  max step {mesh.max_step():.4f} vs step restriction "
      f"{stab.step_restriction_threshold:.4f}: {stab.step_restriction_ok}")
print(f"  envelope holds: {stab.envelope_ok} "
      f"(minimal margin {stab.min_envelope_margin:.3f})")
print(f"  final norm {res.l2_norms[-1]:.4f} vs envelope {stab.envelope[-1]:.4f}")
