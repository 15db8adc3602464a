import dataclasses
import json

import numpy as np
import pytest

from mgmlmc import (
    GridHierarchy,
    LaplaceSourceControl,
    SampleAllocation,
    SmoothingSchedule,
    SolveLedger,
    build_sample_sets,
    inner_product,
    mlmc_cost,
    mlmc_gradient,
    norm,
    run_vcycle,
)
from mgmlmc.elliptic import LaplaceProblemSpec
from mgmlmc.errors import StabilityViolation
from mgmlmc.mgopt import (
    ARMIJO_C,
    BACKTRACK_FACTOR,
    LevelObjective,
    _line_search_step,
    coarse_correction_linesearch,
    dai_yuan_beta,
    ncg_smooth,
)
from mgmlmc.mlmc import PURPOSE_OPT, make_set_id
from mgmlmc.random_fields import CovarianceSpec


def small_sets(problem, K, n, seed=51, q=0.25, set_id=4):
    alloc = SampleAllocation(eps=0.1, theta=0.5, n=n, finest=K)
    return build_sample_sets(K, alloc, q, True, seed, set_id)


def backtracks(report):
    """The coarse-correction backtracks of a V-cycle, from its events."""
    return sum(e["backtracks"] for e in report.events if e["kind"] == "linesearch")


def estimate_charges(problem, sets, k):
    """The ledger events of one level-k gradient estimate on ``sets`` and
    of one cost-only estimate, which charges the same samples at weight
    0.5; neither depends on the point."""
    ledger = SolveLedger()
    mlmc_gradient(problem, problem.zero_control(k), sets, k, ledger=ledger)
    return ledger.events, [(level, n, 0.5) for level, n, _ in ledger.events]


def conditioned_quadratic():
    """Fixed-sample quadratic with a moderate condition number.

    The float-level NCG/CG identity is only trackable while the sampled
    Hessian spectrum stays well above the evaluation noise floor; at the
    production alpha = 1e-6 the regularization-floor modes decouple the two
    recursions after a few iterations even though they agree exactly in
    exact arithmetic.
    """
    return LaplaceSourceControl(
        GridHierarchy(dim=2, n0=9, levels=3), LaplaceProblemSpec(alpha=2e-2)
    )


def cg_oracle(objective, v0, steps):
    """Textbook conjugate gradient on the sampled optimality system.

    The operator action H p is recovered exactly as g(v + p) - g(v) because
    the fixed-sample problem is quadratic.  Inner products are the weighted
    ones of the level.
    """
    J0, g0 = objective.evaluate(v0)
    v = v0
    r = -g0
    p = r.copy()
    iterates = [v]
    rr = inner_product(r, r)
    for _ in range(steps):
        if rr == 0.0:
            break
        _, g_vp = objective.evaluate(v + p)
        Hp = g_vp - objective.evaluate(v)[1]
        alpha = rr / inner_product(p, Hp)
        v = v + alpha * p
        r = r - alpha * Hp
        rr_new = inner_product(r, r)
        p = r + (rr_new / rr) * p
        rr = rr_new
        iterates.append(v)
    return iterates


class TestLevelObjective:
    @pytest.mark.parametrize("name", ["laplace_small", "burgers_small"])
    def test_no_tau_is_the_unshifted_functional(self, request, name):
        # the top level's shift is zero, and a zero shift changes no bit
        p = request.getfixturevalue(name)
        sets = small_sets(p, 2, (12, 6, 2))
        u = p.zero_control(2)
        u = u.with_values(0.1 * np.random.default_rng(3).standard_normal(u.values.shape))
        obj = LevelObjective(p, sets, 2)
        assert not obj.tau.values.any()
        J, g = obj.evaluate(u)
        est = mlmc_gradient(p, u, sets, 2)
        assert J == est.cost_value
        assert g.values.tobytes() == est.value.values.tobytes()
        assert obj.cost(u) == mlmc_cost(p, u, sets, 2)


class TestNcgSmoother:
    def test_zero_steps_keeps_point(self, laplace_small):
        p = laplace_small
        sets = small_sets(p, 2, (4, 2, 1))
        obj = LevelObjective(p, sets, 2)
        v = p.control_from_function(2, lambda a, b: a * b)
        res = ncg_smooth(obj, v, 0)
        assert res.v is v
        # without an initial pair the smoother evaluates v, so the result
        # always holds the pair at its point
        J, g = obj.evaluate(v)
        assert res.at[0] == J
        assert np.array_equal(res.at[1].values, g.values)

    def test_matches_classical_cg(self):
        p = conditioned_quadratic()
        sets = small_sets(p, 1, (6, 3))
        obj = LevelObjective(p, sets, 1)
        v0 = p.zero_control(1)
        res = ncg_smooth(obj, v0, 10, record_iterates=True,
                         explicit_gradients=False)
        cg_iterates = cg_oracle(LevelObjective(p, sets, 1), v0, 10)
        assert len(res.iterates) == len(cg_iterates)
        for (v_ncg, _, _), v_cg in zip(res.iterates[1:], cg_iterates[1:]):
            dev = norm(v_ncg - v_cg) / max(norm(v_cg), 1e-30)
            assert dev <= 1e-8

    def test_explicit_gradients_same_path(self):
        p = conditioned_quadratic()
        sets = small_sets(p, 1, (6, 3))
        v0 = p.zero_control(1)
        r1 = ncg_smooth(LevelObjective(p, sets, 1), v0, 5, explicit_gradients=True)
        r2 = ncg_smooth(LevelObjective(p, sets, 1), v0, 5, explicit_gradients=False)
        assert norm(r1.v - r2.v) <= 1e-8 * max(norm(r1.v), 1e-30)

    def test_dai_yuan_denominator_identity(self):
        # with exact line searches <d_{j-1}, g_j> = 0, so the Dai-Yuan beta
        # equals |g_j|^2 / (-<d_{j-1}, g_{j-1}>) and is positive
        p = conditioned_quadratic()
        sets = small_sets(p, 1, (5, 2))
        obj = LevelObjective(p, sets, 1)
        res = ncg_smooth(obj, p.zero_control(1), 6, record_iterates=True,
                         explicit_gradients=False)
        its = res.iterates
        d_prev = -its[0][2]
        for j in range(1, len(its) - 1):
            g_prev, g_j = its[j - 1][2], its[j][2]
            exact_ls = abs(inner_product(d_prev, g_j))
            assert exact_ls <= 1e-10 * norm(d_prev) * max(norm(its[0][2]), norm(g_j))
            beta = dai_yuan_beta(g_j, g_prev, d_prev)
            alt = inner_product(g_j, g_j) / (-inner_product(d_prev, g_prev))
            if norm(g_j) > 1e-14:
                assert beta > 0
                assert beta == pytest.approx(alt, rel=1e-6)
            d_prev = -g_j + beta * d_prev

    @pytest.mark.parametrize("name", ["laplace_small", "dtn_small"])
    def test_step_costs_a_cost_and_a_gradient_and_lands_on_interpolation_step(
            self, request, name):
        # each step takes a cost-only estimate Jt at v + d and then the
        # gradient at v + s* d, s* = -<g,d> / curv with the interpolated
        # curvature curv = 2 (Jt - J - <g,d>); on the fixed-sample quadratic
        # that is the gradient secant's step, up to the cancellation in
        # Jt - J
        p = request.getfixturevalue(name)
        sets = small_sets(p, 2, (10, 4, 2))
        v = p.zero_control(2)
        gradient, cost = estimate_charges(p, sets, 2)
        at = LevelObjective(p, sets, 2).evaluate(v)
        J, g = at
        steps = 3
        ledger = SolveLedger()
        res = ncg_smooth(LevelObjective(p, sets, 2, ledger=ledger), v, steps,
                         initial=at, record_iterates=True)
        assert res.steps_taken == steps
        assert ledger.events == (cost + gradient) * steps
        obj = LevelObjective(p, sets, 2)
        d = -g  # the first direction
        gd = inner_product(g, d)
        s_star = -gd / (2.0 * (obj.cost(v + d) - J - gd))
        assert np.array_equal(res.iterates[1][0].values, (v + s_star * d).values)
        _, g_trial = obj.evaluate(v + d)
        s_secant = -gd / inner_product(g_trial - g, d)
        assert s_star == pytest.approx(s_secant, rel=1e-10)

    def test_reduces_gradient(self, laplace_small):
        p = laplace_small
        sets = small_sets(p, 2, (10, 4, 2))
        obj = LevelObjective(p, sets, 2)
        v0 = p.zero_control(2)
        _, g0 = start = obj.evaluate(v0)
        res = ncg_smooth(obj, v0, 5, initial=start)
        assert norm(res.at[1]) < norm(g0)

    def test_burgers_smoother_descends(self, burgers_small):
        p = burgers_small
        sets = small_sets(p, 1, (6, 3))
        obj = LevelObjective(p, sets, 1)
        v0 = p.zero_control(1)
        J0, g0 = start = obj.evaluate(v0)
        res = ncg_smooth(obj, v0, 3, initial=start)
        J, g = res.at
        assert J < J0
        assert norm(g) < norm(g0)


class TestLineSearchStep:
    """The exits of the smoother's step other than the interpolation step,
    on Burgers, which is not quadratic, and the estimates each charges."""

    def _setup(self, problem, amplitude, scale):
        sets = small_sets(problem, 1, (6, 3))
        ledger = SolveLedger()
        obj = LevelObjective(problem, sets, 1, ledger=ledger)
        v = problem.control_from_function(
            1, lambda x: amplitude * np.sin(np.pi * x))
        at = LevelObjective(problem, sets, 1).evaluate(v)
        d = -scale * at[1]
        gradient, cost = estimate_charges(problem, sets, 1)
        return obj, v, at, d, inner_product(at[1], d), ledger, gradient, cost

    def test_armijo_fallback_evaluates_the_gradient_at_the_unit_step(
            self, burgers_small):
        # along this d the interpolated curvature is negative, so no s* is
        # tried, and the cost-only probe passes Armijo at s = 1: the step
        # lands there and takes the gradient there
        obj, v, at, d, gd, ledger, gradient, cost = self._setup(
            burgers_small, 0.05, 10.0)
        J = at[0]
        Jt = LevelObjective(burgers_small, obj.sets, 1).cost(v + d)
        assert Jt - J - gd < 0.0 and Jt <= J + ARMIJO_C * gd
        v_new, pair = _line_search_step(obj, v, at, d, gd)
        assert np.array_equal(v_new.values, (v + d).values)
        J_new, g_new = LevelObjective(burgers_small, obj.sets, 1).evaluate(v + d)
        assert pair[0] == J_new == Jt
        assert np.array_equal(pair[1].values, g_new.values)
        assert pair.est is not None
        assert ledger.events == cost + gradient

    def test_backtracks_after_a_rejected_trial(self, burgers_small):
        # the gradient at s* fails Armijo, and so does the probe at s = 1;
        # two cost-only backtracks later s = 1/16 passes
        obj, v, at, d, gd, ledger, gradient, cost = self._setup(
            burgers_small, 0.15, 10.0)
        v_new, pair = _line_search_step(obj, v, at, d, gd)
        s = 1.0 / BACKTRACK_FACTOR**2
        assert np.array_equal(v_new.values, (v + s * d).values)
        assert pair[0] <= at[0] + ARMIJO_C * s * gd
        assert pair.est is not None
        assert ledger.events == cost + gradient + cost + cost + gradient

    def test_unstable_probe_backtracks(self, burgers_small):
        # the march from the probe v + d leaves the stability bound, so the
        # probe gives no cost, though it is charged, and the backtracks
        # take over; s = 1/4 and 1/16 are stable but fail Armijo, and 1/64
        # passes
        obj, v, at, d, gd, ledger, gradient, cost = self._setup(
            burgers_small, 0.05, 30.0)
        with pytest.raises(StabilityViolation):
            LevelObjective(burgers_small, obj.sets, 1).cost(v + d)
        v_new, pair = _line_search_step(obj, v, at, d, gd)
        s = 1.0 / BACKTRACK_FACTOR**3
        assert np.array_equal(v_new.values, (v + s * d).values)
        assert pair[0] <= at[0] + ARMIJO_C * s * gd
        assert ledger.events == cost * 4 + gradient


class TestCoarseCorrectionLinesearch:
    """The coarse correction's Armijo search from s = 1, which backtracks
    through the smoother's loop, and the estimates each exit charges."""

    def _setup(self, problem,
               fn=lambda a, b: 0.5 * np.sin(np.pi * a) * np.sin(np.pi * b)):
        sets = small_sets(problem, 1, (6, 3))
        v = problem.control_from_function(1, fn)
        at = LevelObjective(problem, sets, 1).evaluate(v)
        obj = LevelObjective(problem, sets, 1, ledger=SolveLedger())
        return obj, v, at

    def test_descent_direction_accepts_unit_step(self, laplace_small):
        obj, v, at = self._setup(laplace_small)
        J, g = at
        d = -0.01 * g
        s, v2, at2, bt = coarse_correction_linesearch(obj, v, d, at)
        assert s == 1.0 and bt == 0 and at2.est is not None

    def test_zero_direction_returns_zero(self, laplace_small):
        obj, v, at = self._setup(laplace_small)
        s, v2, at2, bt = coarse_correction_linesearch(obj, v, 0.0 * at[1], at)
        assert s == 0.0 and bt == 0 and v2 is v and at2 is at
        assert obj.ledger.events == []

    def test_ascent_direction_returns_zero(self, laplace_small):
        obj, v, at = self._setup(laplace_small)
        J, g = at
        d = g.copy()  # synthetic ascent direction, <g, d> > 0
        s, v2, at2, bt = coarse_correction_linesearch(obj, v, d, at)
        assert s == 0.0 and bt == 0 and v2 is v and at2 is at
        assert obj.ledger.events == []

    def test_backtracks_on_overlong_descent(self, laplace_small):
        obj, v, at = self._setup(laplace_small)
        J, g = at
        # descent direction but far too long at s = 1: the flattest Hessian
        # modes sit at the alpha floor, so the scale must exceed ~2/alpha
        d = -1e8 * g
        s, v2, at2, bt = coarse_correction_linesearch(obj, v, d, at)
        assert bt >= 1 and s == BACKTRACK_FACTOR ** -bt
        assert at2[0] <= J + ARMIJO_C * s * inner_product(g, d)
        # the pair at the accepted step is evaluated, not model-formed
        assert at2.est is not None
        J2, g2 = LevelObjective(laplace_small, obj.sets, 1).evaluate(v2)
        assert at2[0] == J2 and np.array_equal(at2[1].values, g2.values)

    def test_backtracks_on_overlong_descent_cost_only(self, burgers_small):
        # Burgers is not quadratic: at this scale the march from v + d
        # breaks the stability bound, so the unit trial is a rejected
        # gradient estimate, still charged; then come the cost-only
        # backtracks and the gradient at the accepted step
        obj, v, at = self._setup(burgers_small,
                                 lambda x: 0.15 * np.sin(np.pi * x))
        J, g = at
        d = -100.0 * g
        with pytest.raises(StabilityViolation):
            LevelObjective(burgers_small, obj.sets, 1).cost(v + d)
        s, v2, at2, bt = coarse_correction_linesearch(obj, v, d, at)
        assert bt >= 1 and s == BACKTRACK_FACTOR ** -bt
        assert at2[0] < J and at2.est is not None
        gradient, cost = estimate_charges(burgers_small, obj.sets, 1)
        assert obj.ledger.events == gradient + cost * bt + gradient


class TestVCycle:
    def test_fixed_point_property(self):
        # deterministic coefficient: the sampled problem has an exact
        # minimizer (dense oracle); the V-cycle leaves it untouched
        hier = GridHierarchy(dim=2, n0=9, levels=3)
        p = LaplaceSourceControl(
            hier, LaplaceProblemSpec(covariance=CovarianceSpec(0.0, 0.3)))
        sets = small_sets(p, 2, (2, 1, 1))
        from test_elliptic import dense_operator  # dense KKT oracle

        field = p.field(sets.streams(2, 2)[0], 2)
        h = hier.h(2)
        A = dense_operator(field.values, h)
        z = p.target(2).values.ravel()
        m2 = A.shape[0]
        H = p.alpha * np.eye(m2) + np.linalg.solve(A, np.linalg.solve(A, np.eye(m2)))
        u_star = hier.vector(2, np.linalg.solve(H, np.linalg.solve(A, z)).reshape(
            hier.shape(2)))
        g_star = mlmc_gradient(p, u_star, sets, 2).value
        assert norm(g_star) <= 1e-10

        v_new, report = run_vcycle(p, u_star, sets, SmoothingSchedule.default(2))
        assert norm(v_new - u_star) <= 1e-9 * max(1.0, norm(u_star))
        for e in report.events:
            if e["kind"] == "linesearch":
                d_norm = abs(e["direction_inner"])
                assert d_norm <= 1e-12

    def test_coherence_identity_every_level(self, laplace_small):
        p = laplace_small
        sets = small_sets(p, 2, (20, 8, 3))
        _, report = run_vcycle(p, p.zero_control(2), sets,
                               SmoothingSchedule.default(2))
        devs = [e["value"] for e in report.events if e["kind"] == "coherence"]
        assert len(devs) == 2  # levels 2 and 1
        assert all(d <= 1e-10 for d in devs)

    def test_descent_of_prolonged_correction(self, laplace_small):
        # whenever the recursive call strictly reduced the coarse objective,
        # the prolonged direction has negative inner product with the fine
        # gradient
        p = laplace_small
        rng = np.random.default_rng(123)
        checked = 0
        for rep in range(8):
            sets = small_sets(p, 2, (14, 6, 2), seed=600 + rep,
                              set_id=make_set_id(rep, PURPOSE_OPT))
            v0 = p.hierarchy.vector(
                2, 0.5 * rng.standard_normal(p.hierarchy.shape(2)))
            _, report = run_vcycle(p, v0, sets, SmoothingSchedule.default(2))
            summaries = {e["level"]: e for e in report.events
                         if e["kind"] == "summary"}
            for e in report.events:
                if e["kind"] != "linesearch":
                    continue
                coarse_level = e["level"] - 1
                if coarse_level not in summaries:
                    continue
                start_J = summaries[coarse_level]["start"][0]
                end_J = summaries[coarse_level]["end"][0]
                if end_J < start_J:
                    assert e["direction_inner"] < 0.0
                    checked += 1
        assert checked >= 8  # the property was actually exercised

    def test_monotone_cost_with_fixed_samples(self, laplace_small):
        p = laplace_small
        sets = small_sets(p, 2, (10, 5, 2))
        v = p.zero_control(2)
        obj = LevelObjective(p, sets, 2)
        J_prev = obj.evaluate(v)[0]
        for _ in range(3):
            v, report = run_vcycle(p, v, sets, SmoothingSchedule.default(2))
            J_now = obj.evaluate(v)[0]
            assert J_now <= J_prev + 1e-14
            J_prev = J_now

    def test_nested_shortcut_costs_no_extra_solves(self, laplace_small):
        # with no presmoothing and nested sets, the coarse gradient at line 6
        # comes from prefix sums: the nested estimate charges exactly what
        # the same counts charge without nesting, where no coarse estimate
        # is formed
        p = laplace_small
        n = (16, 8, 4)
        sets = small_sets(p, 2, n)
        v = p.control_from_function(2, lambda a, b: np.sin(np.pi * a) * b)

        ledger = SolveLedger()
        est = mlmc_gradient(p, v, sets, 2, ledger=ledger)
        direct = mlmc_gradient(p, p.hierarchy.restrict(v), sets, 1)
        assert norm(est.coarse.value - direct.value) <= 1e-12 * max(norm(direct.value), 1e-30)

        flat_ledger = SolveLedger()
        flat = mlmc_gradient(p, v, dataclasses.replace(sets, nested=False), 2,
                             ledger=flat_ledger)
        assert flat.coarse is None
        assert ledger.events == flat_ledger.events

    @pytest.mark.parametrize("name", ["laplace_small", "burgers_small"])
    def test_no_point_evaluated_twice(self, request, monkeypatch, name):
        # a coarse level starts from the estimate its parent already holds,
        # so no (level, point) is estimated twice in one V-cycle, whether
        # the cycle takes its entry estimate itself or is handed it
        import mgmlmc.mgopt as mgopt

        p = request.getfixturevalue(name)
        v = p.zero_control(2)
        sets = small_sets(p, 2, (12, 6, 2))
        real = mgopt.mlmc_gradient
        seen = []

        def record(u, est):
            seen.append((u.level, u.values.tobytes()))
            if est.coarse is not None:
                # a nested estimate also estimates (k-1, restrict(u)); the
                # default schedule presmooths at level 1, so the smoother's
                # last estimate there carries level 0's start
                seen.append((u.level - 1,
                             p.hierarchy.restrict(u).values.tobytes()))
            return est

        def recording(problem, u, *args, **kwargs):
            return record(u, real(problem, u, *args, **kwargs))

        monkeypatch.setattr(mgopt, "mlmc_gradient", recording)
        for pass_entry in (False, True):
            seen.clear()
            entry = None
            if pass_entry:
                entry = record(v, real(p, v, sets, 2))
                assert entry.coarse is not None
            run_vcycle(p, v, sets, SmoothingSchedule.default(2), entry=entry)
            assert {level for level, _ in seen} == {0, 1, 2}
            assert len(seen) == len(set(seen))

    def test_non_nested_sets_take_coarse_estimates_afresh(self, laplace_small,
                                                          monkeypatch):
        # without nesting no estimate carries a coarse one, so each coarse
        # level takes its start estimate at the restricted presmoothed point
        # and is charged for it; the coherence identity still holds
        import mgmlmc.mgopt as mgopt

        p = laplace_small
        sets = dataclasses.replace(small_sets(p, 2, (12, 6, 2)), nested=False)
        v = p.control_from_function(2, lambda a, b: a * b)
        real, real_cost = mgopt.mlmc_gradient, mgopt.mlmc_cost
        calls = []

        def recording(problem, u, *args, **kwargs):
            est = real(problem, u, *args, **kwargs)
            assert est.coarse is None
            calls.append((real, u))
            return est

        def recording_cost(problem, u, *args, **kwargs):
            j = real_cost(problem, u, *args, **kwargs)
            calls.append((real_cost, u))
            return j

        monkeypatch.setattr(mgopt, "mlmc_gradient", recording)
        monkeypatch.setattr(mgopt, "mlmc_cost", recording_cost)
        ledger = SolveLedger()
        _, report = run_vcycle(p, v, sets, SmoothingSchedule.default(2),
                               ledger=ledger)
        devs = [e["value"] for e in report.events if e["kind"] == "coherence"]
        assert len(devs) == 2 and all(d <= 1e-10 for d in devs)

        # level 1 starts at restrict(v) (no presmoothing at the top), and
        # level 0 at the restriction of a level-1 point estimated before it
        estimates = [u for estimate, u in calls if estimate is real]
        first = {}
        for i, u in enumerate(estimates):
            first.setdefault(u.level, i)
        restrict = p.hierarchy.restrict
        assert np.array_equal(estimates[first[1]].values, restrict(v).values)
        assert any(np.array_equal(estimates[first[0]].values, restrict(u).values)
                   for u in estimates[first[1]:first[0]] if u.level == 1)

        # every charge is one of the recorded estimates, gradient or
        # cost-only (each smoothing step's probe, charged at weight 0.5),
        # each charged once
        assert any(estimate is real_cost for estimate, _ in calls)
        replay = SolveLedger()
        for estimate, u in calls:
            estimate(p, u, sets, u.level, ledger=replay)
        assert ledger.events == replay.events

    @pytest.mark.parametrize("name", ["laplace_small", "burgers_small"])
    def test_given_entry_matches_own(self, request, name):
        # an entry estimate handed in replaces the cycle's own: same iterate,
        # report and ledger, the entry charged once
        p = request.getfixturevalue(name)
        sets = small_sets(p, 2, (12, 6, 2))
        v = p.zero_control(2)
        schedule = SmoothingSchedule.default(2)
        own_ledger, given_ledger = SolveLedger(), SolveLedger()
        v_own, own = run_vcycle(p, v, sets, schedule, ledger=own_ledger)
        entry = mlmc_gradient(p, v, sets, 2, ledger=given_ledger)
        v_given, given = run_vcycle(p, v, sets, schedule, ledger=given_ledger,
                                    entry=entry)
        assert np.array_equal(v_given.values, v_own.values)
        assert (given.entry.cost_value, given.end[0], given.entry.gradient_norm,
                norm(given.end[1]), backtracks(given)) \
            == (own.entry.cost_value, own.end[0], own.entry.gradient_norm,
                norm(own.end[1]), backtracks(own))
        assert given.events == own.events
        assert np.array_equal(given.end.est.stats.V, own.end.est.stats.V)
        assert np.array_equal(given.end.est.stats.n_used, own.end.est.stats.n_used)
        assert given_ledger.events == own_ledger.events

    def test_unmoved_entry_reports_its_statistics(self, laplace_small):
        # no smoothing step at all: the top level takes no estimate of its
        # own, and the report carries the entry's statistics
        p = laplace_small
        sets = small_sets(p, 0, (8,))
        v = p.control_from_function(0, lambda a, b: a * b)
        entry = mlmc_gradient(p, v, sets, 0)
        ledger = SolveLedger()
        v_new, report = run_vcycle(p, v, sets, SmoothingSchedule((0,), (0,), 0),
                                   ledger=ledger, entry=entry)
        assert v_new is v and ledger.events == []
        assert report.end.est.stats is entry.stats
        assert (report.entry.cost_value, report.end[0]) \
            == (entry.cost_value, entry.cost_value)

    @pytest.mark.parametrize("name", ["laplace_small", "burgers_small"])
    def test_end_is_the_evaluation_at_the_returned_point(self, request, name):
        # the report's end pair and statistics are those of a fresh
        # evaluation of the top level's functional at the returned point
        p = request.getfixturevalue(name)
        sets = small_sets(p, 2, (12, 6, 2))
        v_new, report = run_vcycle(p, p.zero_control(2), sets,
                                   SmoothingSchedule.default(2))
        J, g = fresh = LevelObjective(p, sets, 2).evaluate(v_new)
        assert report.end[0] == J
        assert np.array_equal(report.end[1].values, g.values)
        end, want = report.end.est.stats, fresh.est.stats
        for f in dataclasses.fields(end):
            assert np.array_equal(getattr(end, f.name), getattr(want, f.name))

    def test_events_are_plain_json(self, laplace_small):
        # the report is built from values, so the event log holds only
        # numbers and flags and can be written out line by line as JSON
        p = laplace_small
        sets = small_sets(p, 2, (12, 6, 2))
        _, report = run_vcycle(p, p.zero_control(2), sets,
                               SmoothingSchedule.default(2))
        assert json.loads(json.dumps(report.events))
        assert {e["kind"] for e in report.events} == {
            "coherence", "linesearch", "summary"}

    def test_schedule_default_counts(self):
        s = SmoothingSchedule.default(3)
        assert s.nu == (0, 2, 1, 0)
        assert s.mu == (0, 2, 1, 1)
        assert s.coarsest_steps == 8
        with pytest.raises(ValueError):
            SmoothingSchedule(nu=(0, -1), mu=(0, 0), coarsest_steps=2)

    def test_vcycle_burgers_descends(self, burgers_small):
        p = burgers_small
        sets = small_sets(p, 2, (12, 6, 2))
        v = p.zero_control(2)
        v1, report = run_vcycle(p, v, sets, SmoothingSchedule.default(2))
        assert report.end[0] < report.entry.cost_value
        assert norm(report.end[1]) < report.entry.gradient_norm
