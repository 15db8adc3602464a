"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All tolerances are fixed here; nothing is calibrated at runtime.
"""

import itertools
import math
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from mgmlmc import (
    BurgersInitialControl,
    BurgersProblemSpec,
    CovarianceSpec,
    DtNBoundaryControl,
    GridHierarchy,
    LaplaceSourceControl,
    OptimizerConfig,
    RngStream,
    SmoothingSchedule,
    baseline_optimize,
    build_embedding,
    build_sample_sets,
    estimate_level_stats,
    inner_product,
    mlmc_gradient,
    norm,
    optimal_allocation,
    robust_optimize,
    run_vcycle,
)
from mgmlmc.elliptic import LaplaceProblemSpec
from mgmlmc.mgopt import LevelObjective, ncg_smooth
from mgmlmc.mlmc import PURPOSE_OPT, PURPOSE_USER, make_set_id
from mgmlmc.random_fields import FieldSample, sample_gaussian

from conftest import unit_direction


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# -- 1. transfer adjointness --------------------------------------------------

def test_c01_transfer_adjointness():
    t0 = time.perf_counter()
    worst = 0.0
    for dim in (1, 2):
        hier = GridHierarchy(dim=dim, n0=5, levels=4)
        rng = np.random.default_rng(1000 + dim)
        for level in range(hier.finest):
            for _ in range(100):
                uc = hier.vector(level, rng.standard_normal(hier.shape(level)))
                uf = hier.vector(level + 1, rng.standard_normal(hier.shape(level + 1)))
                lhs = inner_product(hier.prolong(uc), uf)
                rhs = inner_product(uc, hier.restrict(uf))
                dev = abs(lhs - rhs) / (norm(uc) * norm(uf))
                worst = max(worst, dev)
                assert abs(lhs - rhs) <= 1e-12 * norm(uc) * norm(uf)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("1 transfer adjointness",
           f"max normalized deviation {worst:.2e} <= 1e-12, {elapsed:.2f}s")


# -- 2. MLMC gradient exactness ----------------------------------------------

def _exactness_case(problem, tol, seed):
    K = 2
    hier = problem.hierarchy
    if problem.control_role == "gamma" or hier.dim == 1:
        u = problem.control_from_function(K, lambda x: 0.1 * np.sin(np.pi * x))
    else:
        u = problem.control_from_function(
            K, lambda a, b: np.sin(np.pi * a) * np.sin(np.pi * b))
    sets = build_sample_sets((8, 4, 2), 0.25, True, seed, make_set_id(0, PURPOSE_USER))
    est = mlmc_gradient(problem, u, sets)
    rng = np.random.default_rng(seed + 1)
    eps = 1e-5
    worst = 0.0
    for _ in range(5):
        d = unit_direction(rng, u)
        jp = mlmc_gradient(problem, u + eps * d, sets).cost_value
        jm = mlmc_gradient(problem, u - eps * d, sets).cost_value
        fd = (jp - jm) / (2 * eps)
        gd = inner_product(est.value, d)
        worst = max(worst, abs(fd - gd) / max(abs(gd), 1e-14))
    assert worst <= tol
    return worst


def test_c02_mlmc_gradient_exactness(laplace_desk, dtn_small, burgers_small):
    t0 = time.perf_counter()
    w1 = _exactness_case(laplace_desk, 1e-5, 2100)
    w2 = _exactness_case(dtn_small, 1e-5, 2200)
    w3 = _exactness_case(burgers_small, 1e-4, 2300)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("2 MLMC gradient exactness",
           f"max rel FD errors {w1:.1e}/{w2:.1e}/{w3:.1e} "
           f"<= 1e-5/1e-5/1e-4, {elapsed:.1f}s")


# -- 3. coarse/fine gradient coherence across 20 V-cycles ----------------------

def test_c03_coherence_identity(laplace_small):
    p = laplace_small
    v = p.zero_control(2)
    schedule = SmoothingSchedule.default(2)
    worst = 0.0
    checked = 0
    for cycle in range(20):
        sets = build_sample_sets((12, 6, 2), 0.25, True, 3000 + cycle,
                                 make_set_id(cycle, PURPOSE_OPT))
        v, rep = run_vcycle(p, v, sets, schedule)
        devs = [e["value"] for e in rep.events if e["kind"] == "coherence"]
        assert len(devs) == 2
        worst = max(worst, max(devs))
        checked += len(devs)
    assert worst <= 1e-10
    report("3 coarse gradient coherence",
           f"{checked} level checks over 20 V-cycles, max deviation {worst:.2e}")


# -- 4. telescoping collapse ---------------------------------------------------

@dataclass(frozen=True)
class _SharedStreams:
    K: int
    n: int
    global_seed: int
    nested: bool = False
    counts: tuple = ()

    def count(self, k, level):
        return self.n

    def streams(self, k, level):
        return [RngStream(self.global_seed, 5, 0, i) for i in range(self.n)]

    def _effective_set_id(self, k):
        return 5


def test_c04_telescoping_collapse(laplace_small):
    p = laplace_small
    u = p.control_from_function(2, lambda a, b: np.sin(np.pi * a) * np.sin(np.pi * b))
    shared = _SharedStreams(K=2, n=6, global_seed=4100)
    est = mlmc_gradient(p, u, shared)
    acc = None
    jt = 0.0
    for s in shared.streams(2, 2):
        f = p.field(s, 2)
        j, q = p.tracking_cost_grad(u, f)
        acc = q if acc is None else acc + q
        jt += j
    mc_grad = (1.0 / shared.n) * acc + p.alpha * u
    mc_cost = jt / shared.n + p.regularization(u)
    dev_g = norm(est.value - mc_grad) / norm(mc_grad)
    dev_j = abs(est.cost_value - mc_cost) / abs(mc_cost)
    assert dev_g <= 1e-12 and dev_j <= 1e-12
    report("4 telescoping collapse",
           f"gradient dev {dev_g:.2e}, cost dev {dev_j:.2e} <= 1e-12")


# -- 5. field sampler statistics -----------------------------------------------

def test_c05_field_sampler_statistics():
    t0 = time.perf_counter()
    spec = CovarianceSpec(sigma2=0.1, lam=0.3)
    n_nodes, h = 33, 1.0 / 32
    emb = build_embedding(n_nodes, h, 1, spec)
    n_samples = 20000
    zs = np.empty((n_samples, n_nodes))
    for i in range(n_samples):
        zs[i] = sample_gaussian(emb, RngStream(5100, 5, 0, i))
    x = np.arange(n_nodes) * h
    pairs = [(0, 0), (0, 8), (0, 16), (8, 24), (0, 32)]
    details = []
    for a, b in pairs:
        want = spec.sigma2 * np.exp(-abs(x[a] - x[b]) / spec.lam)
        got = float(np.mean(zs[:, a] * zs[:, b]))
        se = np.sqrt((spec.sigma2**2 + want**2) / n_samples)
        assert abs(got - want) <= 4.0 * se
        details.append(f"{abs(got - want) / se:.1f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report("5 field sampler statistics",
           f"|dev|/SE at 5 pairs: {', '.join(details)} (all <= 4), {elapsed:.1f}s")


# -- 6. discretization orders --------------------------------------------------

def test_c06_discretization_orders():
    t0 = time.perf_counter()
    errors = []
    for n in (17, 33, 65):
        hier = GridHierarchy(dim=2, n0=n, levels=1)
        x = hier.interior_coords(0)
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        rhs = 2 * np.pi**2 * np.sin(np.pi * x1) * np.sin(np.pi * x2)
        field = FieldSample(level=0, values=np.ones((n, n)))
        state = LaplaceSourceControl(hier).state(hier.vector(0, rhs), field)
        errors.append(np.max(np.abs(state[1:-1, 1:-1] - np.sin(np.pi * x1) * np.sin(np.pi * x2))))
    laplace_orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in laplace_orders:
        assert order == pytest.approx(2.0, abs=0.1)

    from mgmlmc.burgers import maccormack_step

    def run(nx, nt):
        xs = np.linspace(0, 1, nx)
        y = 0.1 * np.sin(np.pi * xs)
        k = np.full(nx, 1e-3)
        dx, dt = 1.0 / (nx - 1), 0.5 / (nt - 1)
        for _ in range(nt - 1):
            y = maccormack_step(y, k, dt, dx, -1.0)
        return y

    sols = {nx: run(nx, nt) for nx, nt in
            [(65, 513), (129, 1025), (257, 2049), (513, 4097)]}
    diffs = [np.max(np.abs(sols[nx] - sols[2 * (nx - 1) + 1][::2]))
             for nx in (65, 129, 257)]
    mac_orders = [np.log2(diffs[i] / diffs[i + 1]) for i in range(2)]
    for order in mac_orders:
        assert order == pytest.approx(2.0, abs=0.2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("6 discretization orders",
           f"diffusion {laplace_orders[0]:.2f}/{laplace_orders[1]:.2f} (2.0+-0.1), "
           f"time stepping {mac_orders[0]:.2f}/{mac_orders[1]:.2f} (2.0+-0.2), "
           f"{elapsed:.1f}s")


# -- 7. NCG equals classical CG on a fixed-sample quadratic --------------------

def test_c07_ncg_cg_equivalence():
    problem = LaplaceSourceControl(
        GridHierarchy(dim=2, n0=9, levels=3), LaplaceProblemSpec(alpha=2e-2))
    sets = build_sample_sets((6, 3), 0.25, True, 7100, make_set_id(0, PURPOSE_USER))
    v0 = problem.zero_control(1)
    res = ncg_smooth(LevelObjective(problem, sets, 1), v0, 10,
                     record_iterates=True, explicit_gradients=False)

    obj = LevelObjective(problem, sets, 1)
    _, g0 = obj.evaluate(v0)
    v = v0
    r = -g0
    d = r.copy()
    rr = inner_product(r, r)
    cg_iterates = []
    for _ in range(10):
        _, g_vd = obj.evaluate(v + d)
        Hd = g_vd - obj.evaluate(v)[1]
        a = rr / inner_product(d, Hd)
        v = v + a * d
        r = r - a * Hd
        rr_new = inner_product(r, r)
        d = r + (rr_new / rr) * d
        rr = rr_new
        cg_iterates.append(v)

    worst = 0.0
    for (v_ncg, _, _), v_cg in zip(res.iterates[1:], cg_iterates):
        worst = max(worst, norm(v_ncg - v_cg) / max(norm(v_cg), 1e-30))
    assert worst <= 1e-8
    report("7 NCG/CG equivalence", f"max iterate deviation {worst:.2e} <= 1e-8")


# -- 8. allocation within 1% of the integer optimum -----------------------------

def test_c08_allocation_optimality():
    from mgmlmc.mlmc import LevelStats

    V = np.array([2.0, 0.5, 0.12])
    C = np.array([1.0, 4.0, 16.0])
    theta, eps = 1.0, 0.12
    stats = LevelStats(V=V, C=C,
                       n_used=np.zeros(3, dtype=int), mean_norms=np.zeros(3))
    n = optimal_allocation(stats, eps, theta)
    formula_cost = float(np.dot(n, C))
    budget = theta * eps**2
    assert float(np.sum(V / np.asarray(n))) <= budget + 1e-12
    best = math.inf
    for n1, n2 in itertools.product(range(1, 2 * n[1] + 3),
                                    range(1, 2 * n[2] + 3)):
        rest = budget - V[1] / n1 - V[2] / n2
        if rest <= 0:
            continue
        n0 = math.ceil(V[0] / rest - 1e-12)
        best = min(best, n0 * C[0] + n1 * C[1] + n2 * C[2])
    assert formula_cost <= 1.01 * best
    report("8 allocation optimality",
           f"formula {formula_cost:.0f} vs integer optimum {best:.0f} "
           f"({formula_cost / best - 1:+.2%} <= +1%)")


# -- 9. variance decay on Problem 1 ---------------------------------------------

def test_c09_variance_decay():
    problem = LaplaceSourceControl(GridHierarchy(dim=2, n0=17, levels=4))
    u = problem.zero_control(3)
    stats = estimate_level_stats(problem, u, 100, global_seed=9100,
                                 set_id=make_set_id(0, PURPOSE_USER),
                                 extrapolate_finest=0)
    for level in (2, 3):
        assert stats.V[level] < stats.V[level - 1]
    assert stats.phi is not None and stats.phi > 0
    report("9 variance decay",
           "V = [" + ", ".join(f"{v:.2e}" for v in stats.V)
           + f"], fitted phi {stats.phi:.2f} > 0")


# -- 10. desk-scale head-to-head -------------------------------------------------

@pytest.fixture(scope="module")
def head_to_head():
    problem = LaplaceSourceControl(GridHierarchy(dim=2, n0=17, levels=3))
    cfg = OptimizerConfig(tau=5e-4, K=2, eps1=0.1, i_max=15,
                          global_seed=77, warmup=50)
    t0 = time.perf_counter()
    _, mg = robust_optimize(problem, cfg)
    _, base = baseline_optimize(problem, cfg)
    return mg, base, cfg, time.perf_counter() - t0


def test_c10_head_to_head(head_to_head):
    mg, base, cfg, elapsed = head_to_head
    assert elapsed < 600.0
    assert mg.converged and mg.final_g_norm <= cfg.tau
    assert base.converged and base.final_g_norm <= cfg.tau
    ratio = mg.total_solves / base.total_solves
    assert ratio <= 0.6
    report("10 head-to-head",
           f"confirmed |g| {mg.final_g_norm:.2e}/{base.final_g_norm:.2e} <= {cfg.tau:.0e}; "
           f"solves {mg.total_solves:.0f} vs {base.total_solves:.0f}, "
           f"ratio {ratio:.2f} <= 0.6, {elapsed:.0f}s")


# -- 11. full-scale reference (documented, not gating) ---------------------------

@pytest.mark.skipif(
    not os.environ.get("MGMLMC_FULL_SCALE"),
    reason="documented reference run, not CI-enforced; "
    "set MGMLMC_FULL_SCALE=1 to execute (expect a long run). "
    "Observed values are recorded in the README.",
)
def test_c11_full_scale_reference(tmp_path):
    problem = LaplaceSourceControl(GridHierarchy(dim=2, n0=17, levels=5))
    cfg = OptimizerConfig(tau=5e-5, K=4, eps1=0.1, i_max=8,
                          global_seed=2026, warmup=100)
    t0 = time.perf_counter()
    u, rep = robust_optimize(problem, cfg)
    elapsed = time.perf_counter() - t0
    lines = [
        f"status={rep.status} cycles={len(rep.rows)}",
        f"final J={rep.final_J} |g|={rep.final_g_norm}",
        f"total solves={rep.total_solves:.0f} time={elapsed:.0f}s",
        "reference: J ~ 1.36e-2, |g| <= 5e-5 within 2-4 cycles",
    ]
    (tmp_path / "full_scale_reference.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print("FULL-SCALE", line)
