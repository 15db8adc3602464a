"""Initial-condition control of viscous Burgers' flow.

The control is the initial state; the tracked quantity is the final-time
profile.  The forward solver is the explicit two-stage scheme with its
stability bound checked every step, and the gradient comes from the exact
discrete adjoint (reverse sweep through the stored trajectory).
"""

import numpy as np

from mgmlmc import (
    BurgersInitialControl,
    BurgersProblemSpec,
    GridHierarchy,
    OptimizerConfig,
    RngStream,
    norm,
    robust_optimize,
)
from mgmlmc.burgers import stability_bound

hier = GridHierarchy(dim=1, n0=17, levels=3)  # 17 -> 33 -> 65 nodes
problem = BurgersInitialControl(hier, BurgersProblemSpec(nt=201))
print(f"time grid: {problem.nt} points on [0, {problem.spec.T}], "
      f"convection s = {problem.spec.s}")

# Stability of the explicit scheme for a typical field realization.
field = problem.field(RngStream(5, 1, 2, 0), 2)
dx = hier.h(2)
dt = problem.spec.T / (problem.nt - 1)
bound = stability_bound(0.25 * np.ones(hier.nodes(2)), field.values, dx)
print(f"stability: dt = {dt:.2e} <= bound {bound:.2e} "
      f"(margin {bound / dt:.1f}x)")

u0 = problem.control_from_function(2, lambda x: 0.2 * np.sin(np.pi * x))
states = problem.state(u0, field)
print(f"forward trajectory: {states.shape}, "
      f"max |y| = {np.abs(states).max():.3f}")

print("\noptimizing the initial condition toward the final-time target...")
config = OptimizerConfig(tau=5e-3, K=2, eps1=0.1, i_max=6,
                         global_seed=5, warmup=20)
u_opt, report = robust_optimize(problem, config)
print(f"{report.status} after {len(report.rows)} cycles, "
      f"{report.total_solves:.0f} equivalent fine solves")
print(f"fresh-sample J = {report.final_J:.3e}, |g| = {report.final_g_norm:.2e}")

# Compare the achieved mean final state against the target profile.
z = problem.target(2)
residuals = []
for i in range(32):
    f = problem.field(RngStream(5, 7, 2, i), 2)
    yT = problem.state(u_opt, f)[-1][1:-1]
    residuals.append(yT - z.values)
mean_resid = np.mean(residuals, axis=0)
print(f"\nmean final-time tracking residual: "
      f"max |E[y(T)] - z| = {np.abs(mean_resid).max():.3e} "
      f"(target peak {z.values.max():.3f})")
print(f"optimized control norm: {norm(u_opt):.3f}")
