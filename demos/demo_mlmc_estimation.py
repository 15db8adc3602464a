"""Multilevel Monte Carlo estimation: variance decay and sample allocation.

Estimates the per-level variances of the coupled gradient differences on
the source-control problem, fits the decay rate, evaluates the
variance-optimal sample counts for a range of accuracy budgets, and prices
everything in equivalent fine-grid solves.
"""

import numpy as np

from mgmlmc import (
    GridHierarchy,
    LaplaceSourceControl,
    SolveLedger,
    build_sample_sets,
    equivalent_fine_solves,
    estimate_level_stats,
    mlmc_gradient,
    norm,
    optimal_allocation,
)

problem = LaplaceSourceControl(GridHierarchy(dim=2, n0=9, levels=4))
u = problem.zero_control(3)

print("warm-up estimation of the level statistics (60 samples/level)...")
stats = estimate_level_stats(problem, u, 60, range(4), global_seed=3,
                             set_id=8, extrapolate_finest=0)
print(f"{'level':>5} {'V_l':>12} {'C_l':>8}")
for level in stats.levels:
    print(f"{level:>5} {stats.V[level]:>12.3e} {stats.C[level]:>8.1f}")
print(f"fitted variance decay rate: {stats.phi:.2f}  (V_l ~ 2^(-phi l))")
if stats.rho is not None:
    print(f"fitted bias decay rate:     {stats.rho:.2f}")

print("\nvariance-optimal counts n_l = ceil(sqrt(V_l/C_l) sum_i sqrt(V_i C_i)"
      " / (theta eps^2)):")
print(f"{'eps':>9} {'n_0':>7} {'n_1':>6} {'n_2':>6} {'n_3':>6} {'cost':>9}")
for eps in (2e-3, 1e-3, 5e-4, 2.5e-4):
    alloc = optimal_allocation(stats, eps, 0.5)
    cost = float(np.dot(alloc.n, stats.C)) / stats.C[-1]
    print(f"{eps:>9.1e} {alloc.n[0]:>7} {alloc.n[1]:>6} {alloc.n[2]:>6} "
          f"{alloc.n[3]:>6} {cost:>9.1f}")

print("\ncoarser optimization levels keep a fraction q^(K-k) of the samples:")
alloc = optimal_allocation(stats, 5e-4, 0.5)
sets = build_sample_sets(3, alloc, 1.0 / 16.0, True, 3, 8)
for k in range(3, -1, -1):
    print(f"  level k={k}: counts {sets.counts[k]}")

ledger = SolveLedger()
est = mlmc_gradient(problem, u, sets, 3, ledger=ledger)
print(f"\nestimated |gradient| at the zero control: {norm(est.value):.4e}")
print(f"matched cost estimate:                    {est.cost_value:.4e}")
print(f"equivalent fine-grid solves spent:        "
      f"{equivalent_fine_solves(ledger.events, 3, problem.kappa_default):.1f}")
