"""Exact discrete adjoints, verified by central differences.

For each model problem the per-sample gradient is the transpose of the
assembled forward map, so the directional derivative of the per-sample
cost matches the gradient inner product to solver accuracy.  The same
check applies to the multilevel estimator: its gradient is the exact
gradient of its matched cost functional.
"""

import numpy as np

from mgmlmc import (
    BurgersInitialControl,
    BurgersProblemSpec,
    DtNBoundaryControl,
    GridHierarchy,
    LaplaceSourceControl,
    RngStream,
    build_sample_sets,
    inner_product,
    mlmc_gradient,
    norm,
)

rng = np.random.default_rng(7)


def check(problem, u, stream, eps=1e-5, directions=3):
    g = problem.gradient_sample(u, stream)
    worst = 0.0
    for _ in range(directions):
        d = u.with_values(rng.standard_normal(u.values.shape))
        d = d * (1.0 / norm(d))
        jp = problem.cost_sample(u + eps * d, stream)
        jm = problem.cost_sample(u - eps * d, stream)
        fd = (jp - jm) / (2 * eps)
        gd = inner_product(g, d)
        worst = max(worst, abs(fd - gd) / abs(gd))
    return worst


stream = RngStream(11, 1, 2, 0)

p1 = LaplaceSourceControl(GridHierarchy(dim=2, n0=9, levels=3))
u1 = p1.control_from_function(2, lambda a, b: np.sin(np.pi * a) * np.sin(np.pi * b))
print(f"source control      per-sample FD error: {check(p1, u1, stream):.2e}")

p2 = DtNBoundaryControl(GridHierarchy(dim=2, n0=9, levels=3))
u2 = p2.control_from_function(2, lambda x: 0.3 * np.sin(np.pi * x))
print(f"boundary control    per-sample FD error: {check(p2, u2, stream):.2e}")

p3 = BurgersInitialControl(GridHierarchy(dim=1, n0=17, levels=3),
                           BurgersProblemSpec(nt=201))
u3 = p3.control_from_function(2, lambda x: 0.1 * np.sin(np.pi * x))
print(f"initial condition   per-sample FD error: {check(p3, u3, stream):.2e}")

# The multilevel estimator: gradient and cost assembled from the same
# coupled samples form an exact gradient/functional pair.
sets = build_sample_sets((8, 4, 2), 0.25, True, 11, 8)
est = mlmc_gradient(p1, u1, sets)
eps = 1e-5
worst = 0.0
for _ in range(3):
    d = u1.with_values(rng.standard_normal(u1.values.shape))
    d = d * (1.0 / norm(d))
    jp = mlmc_gradient(p1, u1 + eps * d, sets).cost_value
    jm = mlmc_gradient(p1, u1 - eps * d, sets).cost_value
    fd = (jp - jm) / (2 * eps)
    worst = max(worst, abs(fd - inner_product(est.value, d)) / abs(fd))
print(f"\nmultilevel estimator FD error:          {worst:.2e}")
print("(elliptic tolerance 1e-5, time-dependent tolerance 1e-4)")
