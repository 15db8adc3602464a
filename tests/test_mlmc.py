import dataclasses
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from mgmlmc import (
    GridHierarchy,
    LaplaceSourceControl,
    LevelStats,
    MgoptSampleSets,
    RngStream,
    SampleAllocation,
    SolveLedger,
    build_sample_sets,
    equivalent_fine_solves,
    estimate_level_stats,
    inner_product,
    mlmc_cost,
    mlmc_gradient,
    norm,
    optimal_allocation,
)
from mgmlmc.elliptic import LaplaceProblemSpec
from mgmlmc.errors import InsufficientSamples, InvalidQ, LevelMismatch
from mgmlmc.mlmc import (
    PURPOSE_OPT,
    PURPOSE_USER,
    _LevelSums,
    _decay_rate,
    _grid_sweep,
    _telescope,
    make_set_id,
    refresh_level_stats,
)
from mgmlmc.random_fields import CovarianceSpec

from conftest import predicted_gradient_cost, unit_direction


def stats_from(V, C):
    V = np.asarray(V, dtype=float)
    C = np.asarray(C, dtype=float)
    return LevelStats(levels=tuple(range(len(V))), V=V, C=C,
                      n_used=np.zeros(len(V), dtype=int),
                      mean_norms=np.zeros(len(V)))


class TestOptimalAllocation:
    def test_hand_computed_two_levels(self):
        # V = (1, 1/4), C = (1, 4), theta = 1, eps = 1/2:
        # sum sqrt(VC) = 2, n0 = ceil(4 * 1 * 2) = 8, n1 = ceil(4 * 1/4 * 2) = 2
        alloc = optimal_allocation(stats_from([1.0, 0.25], [1.0, 4.0]), 0.5, 1.0)
        assert alloc.n == (8, 2)

    def test_zero_variance_clamps_to_one(self):
        alloc = optimal_allocation(stats_from([1.0, 0.0, 0.25], [1, 2, 4]), 0.5, 1.0)
        assert alloc.n[1] == 1

    def test_all_zero_variance(self):
        alloc = optimal_allocation(stats_from([0.0, 0.0], [1, 4]), 0.1, 0.5)
        assert alloc.n == (1, 1)

    def test_floor_applies(self):
        alloc = optimal_allocation(stats_from([1.0, 0.25], [1.0, 4.0]), 0.5, 1.0,
                                   floor=[50, 1])
        assert alloc.n == (50, 2)

    def test_invalid_inputs(self):
        stats = stats_from([1.0], [1.0])
        with pytest.raises(ValueError):
            optimal_allocation(stats, 0.0, 0.5)
        with pytest.raises(ValueError):
            optimal_allocation(stats, 0.1, 1.5)

    def test_within_one_percent_of_integer_optimum(self):
        # exhaustive integer search oracle on a 3-level instance subject to
        # the stochastic budget sum V_l / n_l <= theta eps^2: n1, n2 are
        # enumerated and the cheapest feasible n0 follows directly since the
        # cost is increasing in n0
        V = np.array([2.0, 0.5, 0.12])
        C = np.array([1.0, 4.0, 16.0])
        theta, eps = 1.0, 0.12
        alloc = optimal_allocation(stats_from(V, C), eps, theta)
        formula_cost = float(np.dot(alloc.n, C))
        budget = theta * eps**2
        assert float(np.sum(V / np.asarray(alloc.n))) <= budget + 1e-12

        best = math.inf
        for n1 in range(1, 2 * alloc.n[1] + 3):
            for n2 in range(1, 2 * alloc.n[2] + 3):
                rest = budget - V[1] / n1 - V[2] / n2
                if rest <= 0:
                    continue
                n0 = math.ceil(V[0] / rest - 1e-12)
                best = min(best, n0 * C[0] + n1 * C[1] + n2 * C[2])
        assert formula_cost <= 1.01 * best

    def test_rmse_halving_scales_cost_far_above_clamp(self):
        # phi = 1 < kappa = 2 and every count far above the n >= 1 clamp:
        # halving eps at fixed L at least quadruples the predicted cost
        # sum n_l C_l, up to the slack for the ceilings
        stats = stats_from([4e-2, 2e-2, 1e-2], [1.0, 4.0, 16.0])
        cost = lambda alloc: float(np.dot(alloc.n, stats.C))
        coarse = optimal_allocation(stats, 4e-3, 0.5)
        fine = optimal_allocation(stats, 2e-3, 0.5)
        assert min(coarse.n) >= 100
        assert cost(fine) >= 4.0 * cost(coarse) * 0.9


class TestSampleSets:
    def test_reference_scaling(self):
        # K = 3, q = 1/4, finest counts (2106, 440, 92, 20):
        # level 2 keeps (ceil(526.5), 110, 23) = (527, 110, 23)
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(2106, 440, 92, 20), finest=3)
        sets = build_sample_sets(3, alloc, 0.25, True, 1, make_set_id(0, PURPOSE_OPT))
        assert sets.counts[2] == (527, 110, 23)
        assert sets.counts[3] == alloc.n

    def test_top_level_identical_to_allocation(self):
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(9, 5, 2), finest=2)
        sets = build_sample_sets(2, alloc, 1 / 16, True, 1, 4)
        assert sets.counts[2] == (9, 5, 2)

    def test_q_near_half_boundary(self):
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(11, 4), finest=1)
        sets = build_sample_sets(1, alloc, 0.499999, True, 1, 4)
        assert sets.counts[0] == (math.ceil(11 * 0.499999),)

    def test_invalid_q(self):
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(4, 2), finest=1)
        for q in (0.0, 0.5, 0.7):
            with pytest.raises(InvalidQ):
                build_sample_sets(1, alloc, q, True, 1, 4)

    def test_disjoint_across_levels(self):
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(6, 4, 2), finest=2)
        sets = build_sample_sets(2, alloc, 0.25, True, 9, 4)
        all_ids = set()
        for level in range(3):
            for s in sets.streams(2, level):
                assert s.seed_id not in all_ids
                all_ids.add(s.seed_id)

    def test_nested_across_k(self):
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(32, 17, 6), finest=2)
        sets = build_sample_sets(2, alloc, 0.25, True, 9, 4)
        for k in range(1, 3):
            for level in range(k):
                coarse = {s.seed_id for s in sets.streams(k - 1, level)}
                fine = {s.seed_id for s in sets.streams(k, level)}
                assert coarse <= fine

    def test_not_nested_when_disabled(self):
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(32, 17, 6), finest=2)
        sets = build_sample_sets(2, alloc, 0.25, False, 9, 4)
        coarse = {s.seed_id for s in sets.streams(1, 0)}
        fine = {s.seed_id for s in sets.streams(2, 0)}
        assert not coarse & fine


class TestEquivalentFineSolves:
    def test_single_fine_sample(self):
        assert equivalent_fine_solves([(2, 1, 1.0)], 2, 2.0) == 1.0

    def test_pair_adjacent_levels(self):
        # kappa = 2: one sample each at K and K-1 costs 1 + 1/4
        assert equivalent_fine_solves([(2, 1, 1.0), (1, 1, 1.0)], 2, 2.0) == pytest.approx(1.25)

    def test_reference_vcycle_magnitude(self):
        # counts from a published 5-level run: a V-cycle at q = 1/16 with two
        # evaluations per smoothing step lands near 132 equivalent solves
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(2106, 440, 92, 20, 4),
                                 finest=4)
        sets = build_sample_sets(4, alloc, 1 / 16, True, 1, 4)
        c_g = [predicted_gradient_cost(sets, k, 2.0) for k in range(5)]
        c_vcycle = sum((2 * 2 ** (4 - k) + 1) * c_g[k] for k in range(5))
        assert 132 / 2 <= c_vcycle <= 132 * 2

    def test_ledger_accumulates(self):
        led = SolveLedger()
        led.add(2, 3, 1.0)
        led.add(1, 4, 0.5)
        assert equivalent_fine_solves(led.events, 2, 2.0) == pytest.approx(3 + 0.5)


class TestLevelStats:
    def test_deterministic_problem_zero_variance(self):
        hier = GridHierarchy(dim=2, n0=9, levels=3)
        p = LaplaceSourceControl(
            hier, LaplaceProblemSpec(covariance=CovarianceSpec(0.0, 0.3)))
        stats = estimate_level_stats(
            p, p.zero_control(2), 5, range(3), global_seed=1, set_id=4,
            extrapolate_finest=0)
        # identical samples: variance at the floating-point noise floor
        assert np.all(stats.V <= 1e-30)

    def test_warmup_and_gradient_variance_agree_bitwise(self, laplace_small):
        # both estimators reduce a level the same way: over the same streams
        # and control the warm-up V equals the gradient estimate's V exactly
        p = laplace_small
        u = p.control_from_function(2, lambda a, b: np.sin(np.pi * a) * b)
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(6, 6, 6), finest=2)
        sets = build_sample_sets(2, alloc, 0.25, True, 13, 4)
        est = mlmc_gradient(p, u, sets, 2)
        stats = estimate_level_stats(
            p, u, 6, range(3), global_seed=13,
            set_id=MgoptSampleSets.stream_set_id(4, True, 2),
            extrapolate_finest=0)
        assert np.array_equal(stats.V, est.stats.V)
        assert np.array_equal(stats.mean_norms, est.stats.mean_norms)

    def test_insufficient_samples(self, laplace_small):
        with pytest.raises(InsufficientSamples):
            estimate_level_stats(laplace_small, laplace_small.zero_control(2),
                                 1, range(3), global_seed=1, set_id=4)

    def test_synthetic_decay_recovers_phi(self, monkeypatch):
        # inject Y_l with V_l = 4^-l through a fake level evaluation; fitted phi = 2
        hier = GridHierarchy(dim=1, n0=5, levels=5)

        class SyntheticProblem:
            hierarchy = hier
            control_role = "interior"
            alpha = 1e-6
            kappa_default = 1.0

        import mgmlmc.mlmc as mlmc_mod

        def fake_sweep(problem, u_at, streams, **options):
            # pointwise sd 2^-l -> integrated V_l ~ 4^-l
            for level, level_streams in streams.items():
                for i, s in enumerate(level_streams):
                    yield level, i, (0.0, 2.0 ** (-level)
                                     * s.generator().standard_normal(hier.shape(level)))

        monkeypatch.setattr(mlmc_mod, "_gradient_sweep", fake_sweep)
        stats = estimate_level_stats(
            SyntheticProblem(), hier.zeros(4), 400, range(5),
            global_seed=3, set_id=4, extrapolate_finest=0)
        # V_l = h * m * 4^-l exactly in expectation; the h factor halves per
        # level, so the measured decay rate is phi = 2 + 1 - (node growth) = 2
        assert stats.phi == pytest.approx(2.0, abs=0.1)

    def test_problem1_variance_decays(self, laplace_small):
        p = laplace_small
        stats = estimate_level_stats(
            p, p.zero_control(2), 60, range(3), global_seed=7, set_id=4,
            extrapolate_finest=0)
        assert stats.V[2] < stats.V[1]
        assert stats.phi is not None and stats.phi > 0

    def test_extrapolation_uses_fitted_decay(self, laplace_small):
        p = laplace_small
        full = estimate_level_stats(
            p, p.zero_control(2), 40, range(3), global_seed=7, set_id=4,
            extrapolate_finest=0)
        extra = estimate_level_stats(
            p, p.zero_control(2), 40, range(3), global_seed=7, set_id=4,
            extrapolate_finest=1)
        assert extra.n_used[2] == 0
        # extrapolated value within an order of magnitude of the measured one
        assert 0.1 * full.V[2] <= extra.V[2] <= 10 * full.V[2]

    def test_refresh_touches_only_unsampled_levels(self):
        base = dataclasses.replace(stats_from([1.0, 0.5, 0.25], [1, 4, 16]),
                                   n_used=np.array([10, 10, 0]))
        sample = LevelStats(levels=(0, 1, 2), V=np.array([9.0, 9.0, 9.0]),
                            C=base.C, n_used=np.array([10, 10, 10]),
                            mean_norms=np.zeros(3))
        out = refresh_level_stats(base, sample)
        assert out.V[0] == 1.0 and out.V[1] == 0.5 and out.V[2] == 9.0
        assert list(out.n_used) == [10, 10, 0]

    @pytest.mark.parametrize("v_new,n_new", [(np.nan, 10), (9.0, 1)])
    def test_refresh_keeps_unmeasured_variance(self, v_new, n_new):
        # a NaN variance or fewer than two samples measure nothing
        base = dataclasses.replace(stats_from([1.0, 0.5, 0.25], [1, 4, 16]),
                                   n_used=np.array([10, 10, 0]))
        sample = LevelStats(levels=(0, 1, 2), V=np.array([9.0, 9.0, v_new]),
                            C=base.C, n_used=np.array([10, 10, n_new]),
                            mean_norms=np.zeros(3))
        out = refresh_level_stats(base, sample)
        assert list(out.V) == [1.0, 0.5, 0.25]

    @pytest.mark.parametrize("values", [
        [0.0, 0.0, 3.0],  # one positive value
        [0.0, 0.0, 0.0],  # none
        [1.0, 2.0, 8.0],  # growing
    ])
    def test_decay_rate_none_when_unmeasurable(self, values):
        assert _decay_rate([1, 2, 3], values) is None

    @pytest.mark.parametrize("levels,values", [
        ([1, 2], [0.5, 0.125]),
        ([1, 2, 3], [0.3, 0.07, 0.02]),
        ([1, 2, 3, 4], [1.0, 0.0, 0.2, 0.013]),
    ])
    def test_decay_rate_is_negated_slope(self, levels, values):
        # the slope of log2 over the positive values, negated bit for bit
        keep = np.asarray(values) > 0
        slope = float(np.polyfit(np.asarray(levels, dtype=float)[keep],
                                 np.log2(np.asarray(values)[keep]), 1)[0])
        assert slope < 0
        assert _decay_rate(levels, values) == -slope


@dataclass(frozen=True)
class SharedStreamSets:
    """Every level draws the same stream list: forces shared realizations."""

    K: int
    n: int
    global_seed: int
    nested: bool = False
    counts: tuple = ()

    def count(self, k, level):
        return self.n

    def streams(self, k, level):
        return [RngStream(self.global_seed, 5, 0, i) for i in range(self.n)]


class TestMlmcGradient:
    def test_deterministic_problem_exact(self):
        hier = GridHierarchy(dim=2, n0=9, levels=3)
        p = LaplaceSourceControl(
            hier, LaplaceProblemSpec(covariance=CovarianceSpec(0.0, 0.3)))
        u = p.control_from_function(2, lambda a, b: np.sin(np.pi * a) * b)
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(5, 3, 2), finest=2)
        sets = build_sample_sets(2, alloc, 0.25, True, 3, 4)
        est1 = mlmc_gradient(p, u, sets, 2)
        est2 = mlmc_gradient(p, u, sets, 2)
        assert np.array_equal(est1.value.values, est2.value.values)
        direct = p.gradient_sample(u, RngStream(3, 99, 2, 0))
        assert norm(est1.value - direct) <= 1e-12 * norm(direct)

    def test_telescoping_collapse_with_shared_streams(self, laplace_small):
        p = laplace_small
        u = p.control_from_function(2, lambda a, b: np.sin(np.pi * a) * np.sin(np.pi * b))
        shared = SharedStreamSets(K=2, n=5, global_seed=17)
        est = mlmc_gradient(p, u, shared, 2)
        acc = None
        jt_total = 0.0
        for s in shared.streams(2, 2):
            f = p.field(s, 2)
            jt, q = p.tracking_cost_grad(u, f)
            acc = q if acc is None else acc + q
            jt_total += jt
        mc = (1.0 / shared.n) * acc + p.alpha * u
        j_mc = jt_total / shared.n + p.regularization(u)
        assert norm(est.value - mc) <= 1e-12 * norm(mc)
        assert abs(est.cost_value - j_mc) <= 1e-12 * abs(j_mc)

    def test_exact_gradient_of_matched_cost(self, laplace_small):
        p = laplace_small
        u = p.control_from_function(2, lambda a, b: np.sin(np.pi * a) * np.sin(np.pi * b))
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(8, 4, 2), finest=2)
        sets = build_sample_sets(2, alloc, 0.25, True, 23, 4)
        est = mlmc_gradient(p, u, sets, 2)
        rng = np.random.default_rng(3)
        eps = 1e-5
        for _ in range(5):
            d = unit_direction(rng, u)
            jp = mlmc_gradient(p, u + eps * d, sets, 2).cost_value
            jm = mlmc_gradient(p, u - eps * d, sets, 2).cost_value
            fd = (jp - jm) / (2 * eps)
            gd = inner_product(est.value, d)
            assert abs(fd - gd) / max(abs(gd), 1e-14) <= 1e-5

    @pytest.mark.parametrize("name", ["laplace_small", "dtn_small", "burgers_small"])
    def test_cost_only_matches_gradient_cost(self, request, name):
        # bitwise: the smoother's interpolated curvature subtracts a
        # gradient estimate's cost from a cost-only one
        p = request.getfixturevalue(name)
        u = p.zero_control(1)
        u = u.with_values(0.1 * np.random.default_rng(7).standard_normal(u.values.shape))
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(6, 3), finest=1)
        for seed in (29, 30, 31):
            sets = build_sample_sets(1, alloc, 0.25, True, seed, 4)
            assert mlmc_cost(p, u, sets, 1) == mlmc_gradient(p, u, sets, 1).cost_value

    def test_ledger_counts_pairs(self, laplace_small):
        p = laplace_small
        u = p.zero_control(2)
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(4, 3, 2), finest=2)
        sets = build_sample_sets(2, alloc, 0.25, True, 31, 4)
        led = SolveLedger()
        mlmc_gradient(p, u, sets, 2, ledger=led)
        counts = {}
        for level, n, weight in led.events:
            counts[level] = counts.get(level, 0.0) + n * weight
        # level 2 appears 2 times as a pair fine member; level 1 as pair
        # coarse member (2) plus its own fine member (3), etc.
        assert counts[2] == 2
        assert counts[1] == 2 + 3
        assert counts[0] == 3 + 4

    def test_prefix_subestimate_matches_direct(self, laplace_small):
        p = laplace_small
        u = p.control_from_function(2, lambda a, b: np.sin(np.pi * a) * b)
        alloc = SampleAllocation(eps=0.05, theta=0.5, n=(40, 18, 6), finest=2)
        sets = build_sample_sets(2, alloc, 0.25, True, 37, 4)
        est = mlmc_gradient(p, u, sets, 2)
        u1 = p.hierarchy.restrict(u)
        sub = est.coarse
        direct = mlmc_gradient(p, u1, sets, 1)
        assert norm(sub.value - direct.value) <= 1e-12 * max(norm(direct.value), 1e-30)
        assert sub.cost_value == pytest.approx(direct.cost_value, rel=1e-12)

    def test_unbiased_against_fine_mc(self, laplace_small):
        # mean of repeated MLMC estimates matches a large-n single-level MC
        # estimate within 4 combined standard errors
        p = laplace_small
        k = 1
        u = p.control_from_function(k, lambda a, b: np.sin(np.pi * a) * np.sin(np.pi * b))
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(6, 3), finest=k)
        reps = 200
        vals = np.empty(reps)
        probe = None
        for rep in range(reps):
            sets = build_sample_sets(k, alloc, 0.25, True, 1000 + rep, 4)
            est = mlmc_gradient(p, u, sets, k)
            if probe is None:
                rngp = np.random.default_rng(0)
                probe = unit_direction(rngp, u)
            vals[rep] = inner_product(est.value, probe)

        n_mc = 800
        mc_vals = np.empty(n_mc)
        for i in range(n_mc):
            s = RngStream(555, 6, k, i)
            g = p.gradient_sample(u, s)
            mc_vals[i] = inner_product(g, probe)
        se = np.sqrt(vals.var(ddof=1) / reps + mc_vals.var(ddof=1) / n_mc)
        assert abs(vals.mean() - mc_vals.mean()) <= 4 * se

    def test_stochastic_budget_holds(self, laplace_small):
        # allocation from measured stats keeps sum V_hat / n within 1.1 theta eps^2
        p = laplace_small
        u = p.zero_control(2)
        theta, eps = 0.5, 0.02
        stats = estimate_level_stats(p, u, 80, range(3), global_seed=71,
                                     set_id=4, extrapolate_finest=0)
        alloc = optimal_allocation(stats, eps, theta)
        fresh = estimate_level_stats(p, u, 80, range(3), global_seed=72,
                                     set_id=4, extrapolate_finest=0)
        lhs = float(np.sum(fresh.V / np.asarray(alloc.n)))
        assert lhs <= 1.1 * theta * eps**2

    def test_rmse_halving_scales_cost(self, laplace_small):
        # when phi < kappa, halving eps at fixed L at least quadruples the
        # predicted cost sum n_l C_l
        p = laplace_small
        stats = estimate_level_stats(p, p.zero_control(2), 60, range(3),
                                     global_seed=73, set_id=4,
                                     extrapolate_finest=0)
        if not (stats.phi is not None and stats.phi < stats.kappa):
            pytest.skip("variance decays faster than cost grows here")
        cost = lambda alloc: float(np.dot(alloc.n, stats.C))
        c1 = cost(optimal_allocation(stats, 4e-3, 0.5))
        c2 = cost(optimal_allocation(stats, 2e-3, 0.5))
        assert c2 >= 4.0 * c1 * 0.9  # ceiling effects allowed 10% slack

    def test_level_mismatch(self, laplace_small):
        p = laplace_small
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(2, 2, 2), finest=2)
        sets = build_sample_sets(2, alloc, 0.25, True, 3, 4)
        with pytest.raises(LevelMismatch):
            mlmc_gradient(p, p.zero_control(1), sets, 2)


def restrictions(p, u):
    u_at = {u.level: u}
    for level in range(u.level - 1, -1, -1):
        u_at[level] = p.hierarchy.restrict(u_at[level + 1])
    return u_at


def per_sample_estimate(p, u, streams, *, cost_only=False, cache=None,
                        snaps=None):
    """Level by level, each sample's fields drawn and evaluated alone.

    Returns the level sums, the per-sample values, the prefix sums after
    ``snaps[level]`` samples and the ledger events of the uncached pairs.
    """
    u_at = restrictions(p, u)
    cache, snaps = cache or {}, snaps or {}
    evaluate = p.tracking_cost if cost_only else p.tracking_cost_grad
    weight = 0.5 if cost_only else 1.0
    sums, values, prefix, led = [], {}, {}, SolveLedger()
    for level in sorted(streams):
        s, fresh = _LevelSums(), 0
        for i, stream in enumerate(streams[level]):
            if (level, i) in cache:
                value = cache[(level, i)]
            else:
                fresh += 1
                if level == 0:
                    value = evaluate(u_at[0], p.field(stream, 0))
                else:
                    f_fine, f_coarse = p.field_pair(stream, level)
                    fine = evaluate(u_at[level], f_fine)
                    coarse = evaluate(u_at[level - 1], f_coarse)
                    value = (fine - coarse if cost_only else
                             (fine[0] - coarse[0], fine[1] - p.hierarchy.prolong(coarse[1])))
                if not cost_only:
                    value = (value[0], value[1].values)
            values[(level, i)] = value
            if not cost_only:
                s.add(value[1], value[0])
                if s.n == snaps.get(level):
                    prefix[level] = (s.sum_y.copy(), s.sum_jt)
        sums.append(s)
        led.add(level, fresh, weight)
        if level > 0:
            led.add(level - 1, fresh, weight)
    return sums, values, prefix, led.events


def record_batches(monkeypatch, cls, name):
    """Wrap ``cls.name`` to record the fields of each call."""
    calls = []
    original = getattr(cls, name)

    def recorded(self, u_at, fields):
        fields = list(fields)
        calls.append(fields)
        return original(self, u_at, fields)

    monkeypatch.setattr(cls, name, recorded)
    return calls


def unit_fields(p, streams):
    """An estimate's fields in unit order: each level's (fine, coarse) pairs
    from the top, in stream order, then the lowest level's own fields."""
    lo, top = min(streams), max(streams)
    fields = []
    for level in range(top, lo - 1, -1):
        for stream in streams[level]:
            if level == lo:
                fields.append(p.field(stream, level))
            else:
                fields += p.field_pair(stream, level)
    return fields


def same_fields(got, want):
    return (len(got) == len(want)
            and all(a.level == b.level and np.array_equal(a.values, b.values)
                    for a, b in zip(got, want)))


class TestGridSweep:
    """One batch per estimate, with results equal to a per-sample loop."""

    @pytest.fixture(params=["laplace_small", "burgers_small"])
    def problem(self, request):
        return request.getfixturevalue(request.param)

    @staticmethod
    def control(p, level):
        if p.hierarchy.dim == 1:
            return p.control_from_function(level, lambda x: 0.2 * np.sin(np.pi * x))
        return p.control_from_function(level, lambda a, b: np.sin(np.pi * a) * b)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("cached", [False, True], ids=["fresh", "cached"])
    def test_gradient_equals_per_sample_loop(self, problem, workers, cached,
                                             monkeypatch):
        p = problem
        monkeypatch.setattr(p, "workers", workers)
        u = self.control(p, 2)
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(7, 5, 3), finest=2)
        sets = build_sample_sets(2, alloc, 0.25, True, 43, 4)
        streams = {level: sets.streams(2, level) for level in range(3)}
        snaps = dict(enumerate(sets.counts[1]))
        cache = None
        if cached:
            # values unlike any evaluation, so a reused entry shows in the sums
            _, values, _, _ = per_sample_estimate(p, u, streams)
            cache = {key: (values[key][0] + 1.0, values[key][1] + 1.0)
                     for key in [(0, 1), (0, 4), (1, 0), (1, 2), (1, 4), (2, 1)]}
        sums, _, prefix, events = per_sample_estimate(p, u, streams, cache=cache,
                                                      snaps=snaps)
        grad, cost = _telescope(p, u, [(s.sum_y, s.sum_jt, s.n) for s in sums])
        grad1, cost1 = _telescope(p, p.hierarchy.restrict(u), [
            (*prefix[level], n) for level, n in snaps.items()])

        led = SolveLedger()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the worker threads often
        try:
            est = mlmc_gradient(p, u, sets, 2, ledger=led, sample_cache=cache)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(est.value.values, grad.values)
        assert est.cost_value == cost
        assert np.array_equal(est.stats.V, [s.level_variance(p.hierarchy.h(l))
                                            for l, s in enumerate(sums)])
        assert list(est.stats.n_used) == [7, 5, 3]
        # the nested level-1 estimate, from the first counts[1] samples
        assert sorted(prefix) == [0, 1]
        assert np.array_equal(est.coarse.value.values, grad1.values)
        assert est.coarse.cost_value == cost1
        assert led.events == events

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_cost_equals_per_sample_loop(self, problem, workers, monkeypatch):
        p = problem
        monkeypatch.setattr(p, "workers", workers)
        u = self.control(p, 2)
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(6, 4, 2), finest=2)
        sets = build_sample_sets(2, alloc, 0.25, True, 47, 4)
        streams = {level: sets.streams(2, level) for level in range(3)}
        _, values, _, events = per_sample_estimate(p, u, streams, cost_only=True)
        total = 0.0
        for level in range(3):
            n = len(streams[level])
            total += sum(values[(level, i)] for i in range(n)) / n
        led = SolveLedger()
        cost = mlmc_cost(p, u, sets, 2, ledger=led)
        assert cost == total + p.regularization(u)
        assert led.events == events

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_level_stats_equal_per_sample_loop(self, problem, workers,
                                               monkeypatch):
        p = problem
        monkeypatch.setattr(p, "workers", workers)
        u = self.control(p, 2)
        streams = {level: [RngStream(13, 4, level, i) for i in range(6)]
                   for level in range(2)}
        sums, values, _, events = per_sample_estimate(p, u, streams)
        led, collect = SolveLedger(), {}
        stats = estimate_level_stats(p, u, 6, range(3), global_seed=13, set_id=4,
                                     extrapolate_finest=1, ledger=led,
                                     collect=collect)
        hier = p.hierarchy
        for level, s in enumerate(sums):
            assert stats.V[level] == s.level_variance(hier.h(level))
            assert stats.mean_norms[level] == norm(
                hier.vector(level, s.mean(), p.control_role))
        assert list(stats.n_used) == [6, 6, 0]
        assert sorted(collect) == sorted(values)
        for key, (jt, y) in values.items():
            assert collect[key][0] == jt and np.array_equal(collect[key][1], y)
        assert led.events == events

    def test_lowest_level_units_charge_no_coarser_level(self, problem):
        # on a sweep's lowest level a unit is one field, so a sweep over
        # levels 1 and 2 neither evaluates nor charges any level-0 member
        p = problem
        u_at = restrictions(p, self.control(p, 2))
        streams = {level: [RngStream(61, 4, level, i) for i in range(n)]
                   for level, n in ((1, 3), (2, 2))}
        evaluated = []

        def evaluate(u_at, fields):
            fields = list(fields)
            evaluated.extend(f.level for f in fields)
            return p.tracking_cost_batch(u_at, fields)

        led = SolveLedger()
        list(_grid_sweep(p, u_at, streams, evaluate, lambda fine, coarse: fine,
                         ledger=led, weight=0.5))
        assert sorted(evaluated) == [1, 1, 1, 1, 1, 2, 2]
        assert led.events == [(1, 3, 0.5), (2, 2, 0.5), (1, 2, 0.5)]

    def test_one_batch_per_estimate(self, burgers_small, monkeypatch):
        from mgmlmc import BurgersInitialControl
        from mgmlmc.mlmc import state_moments

        p = burgers_small
        grads = record_batches(monkeypatch, BurgersInitialControl,
                               "tracking_cost_grad_batch")
        costs = record_batches(monkeypatch, BurgersInitialControl,
                               "tracking_cost_batch")
        states = record_batches(monkeypatch, BurgersInitialControl, "state_batch")
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(7, 5, 3), finest=2)
        sets = build_sample_sets(2, alloc, 0.25, True, 53, 4)
        for k in range(3):
            u = self.control(p, k)
            want = unit_fields(p, {level: sets.streams(k, level)
                                   for level in range(k + 1)})
            grads.clear()
            mlmc_gradient(p, u, sets, k)
            assert len(grads) == 1 and same_fields(grads[0], want)
            costs.clear()
            mlmc_cost(p, u, sets, k)
            assert len(costs) == 1 and same_fields(costs[0], want)

        grads.clear()
        estimate_level_stats(p, self.control(p, 2), 4, range(3), global_seed=3,
                             set_id=4, extrapolate_finest=1)
        want = unit_fields(p, {level: [RngStream(3, 4, level, i) for i in range(4)]
                               for level in range(2)})
        assert len(grads) == 1 and same_fields(grads[0], want)
        u = self.control(p, 2)
        streams = [RngStream(3, 4, 2, i) for i in range(5)]
        state_moments(p, u, streams)
        assert len(states) == 1 and same_fields(states[0], unit_fields(p, {2: streams}))

    def test_failed_estimate_charges_like_a_successful_one(self, burgers_small,
                                                           monkeypatch):
        # the ledger is charged before any sample is evaluated, so the
        # solves a failed estimate spent are not free
        from mgmlmc import BurgersInitialControl
        from mgmlmc.errors import StabilityViolation

        p = burgers_small
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(7, 5, 3), finest=2)
        sets = build_sample_sets(2, alloc, 0.25, True, 59, 4)
        ok = SolveLedger()
        mlmc_gradient(p, self.control(p, 2), sets, 2, ledger=ok)
        original = BurgersInitialControl.tracking_cost_grad_batch

        def fails_on_grid_2(self, u_at, fields):
            fields = list(fields)
            if any(f.level == 2 for f in fields):
                raise StabilityViolation("unstable", step=1)
            return original(self, u_at, fields)

        monkeypatch.setattr(BurgersInitialControl, "tracking_cost_grad_batch",
                            fails_on_grid_2)
        # with workers > 1 only the chunk holding level 2's pairs fails; the
        # others finish, and the charge is the same at every worker count
        for workers in (1, 2, 3):
            monkeypatch.setattr(p, "workers", workers)
            led = SolveLedger()
            with pytest.raises(StabilityViolation):
                mlmc_gradient(p, self.control(p, 2), sets, 2, ledger=led)
            assert led.events == ok.events != []
