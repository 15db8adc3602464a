import contextlib
from collections import Counter

import numpy as np
import pytest

from mgmlmc import (
    GridHierarchy,
    LaplaceSourceControl,
    OptimizerConfig,
    SmoothingSchedule,
    SolveLedger,
    baseline_optimize,
    next_rmse,
    norm,
    robust_optimize,
    run_vcycle,
    update_eta,
)
from mgmlmc.driver import (_plan_cycle, report_columns, row_to_record,
                           state_statistics)
from mgmlmc.elliptic import LaplaceProblemSpec
from mgmlmc.errors import DegenerateStart
from mgmlmc.mlmc import (
    PURPOSE_CONFIRM,
    PURPOSE_OPT,
    LevelStats,
    SampleAllocation,
    build_sample_sets,
    equivalent_fine_solves,
    make_set_id,
    refresh_level_stats,
)
from mgmlmc.problems import ControlProblem
from mgmlmc.random_fields import CovarianceSpec, FieldSampler, RngStream

from conftest import predicted_gradient_cost


class TestRmseSchedule:
    def test_next_rmse_reference_value(self):
        assert next_rmse(0.5, 1e-2, 0.5, 1e-4) == pytest.approx(2.5e-3)

    def test_floor_active(self):
        # r eta |g| below r tau: the floor wins
        assert next_rmse(0.1, 1e-5, 0.5, 1e-3) == 0.5 * 1e-3

    def test_cap_with_gradient_at_tolerance(self):
        tau = 2e-3
        assert next_rmse(0.5, tau, 0.5, tau) == 0.5 * tau

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            next_rmse(0.0, 1.0, 0.5, 1e-3)

    def test_update_eta_cap(self):
        assert update_eta(0.9, 1.0) == 0.5

    def test_update_eta_ratio(self):
        assert update_eta(0.1, 1.0) == pytest.approx(0.1)

    def test_update_eta_zero_gradient(self):
        assert update_eta(0.0, 1.0) == 0.0

    def test_update_eta_degenerate(self):
        with pytest.raises(DegenerateStart):
            update_eta(1.0, 0.0)


def deterministic_problem(K=1, alpha=1e-6):
    hier = GridHierarchy(dim=2, n0=9, levels=K + 1)
    return LaplaceSourceControl(
        hier, LaplaceProblemSpec(alpha=alpha, covariance=CovarianceSpec(0.0, 0.3)))


class TestRobustOptimize:
    def test_deterministic_quadratic_converges_fast(self):
        # a well-conditioned quadratic without sampling noise: one or two
        # cycles reach the tolerance and the fresh-sample confirmation
        # reproduces the cheap gradient exactly
        p = deterministic_problem(K=1, alpha=1e-2)
        cfg = OptimizerConfig(tau=1e-6, K=1, eps1=0.1, i_max=6,
                              global_seed=3, warmup=2)
        u, report = robust_optimize(p, cfg)
        assert report.converged
        assert len(report.rows) <= 2
        assert report.final_g_norm == pytest.approx(
            report.rows[-1].g_norm, rel=1e-10, abs=1e-16)

    def test_desk_problem_converges(self, laplace_small):
        cfg = OptimizerConfig(tau=2e-3, K=2, eps1=0.1, i_max=8,
                              global_seed=11, warmup=30)
        u, report = robust_optimize(laplace_small, cfg)
        assert report.converged
        assert len(report.rows) <= 5
        assert report.final_g_norm <= cfg.tau

    def test_rmse_coupling_invariant(self, laplace_small):
        # eps_i = max(r tau, r eta_{i-1} |g_{i-1}|) for every cycle i >= 2
        cfg = OptimizerConfig(tau=5e-4, K=2, eps1=0.1, i_max=8,
                              global_seed=12, warmup=30)
        _, report = robust_optimize(laplace_small, cfg)
        assert len(report.rows) >= 2
        for prev, row in zip(report.rows, report.rows[1:]):
            eta = min(0.5, prev.g_norm / prev.g0_norm)
            expected = max(cfg.r * cfg.tau, cfg.r * eta * prev.g_norm)
            assert row.eps == pytest.approx(expected, rel=1e-12)

    def test_totals_are_column_sums(self, laplace_small):
        cfg = OptimizerConfig(tau=2e-3, K=2, eps1=0.1, i_max=8,
                              global_seed=13, warmup=30)
        _, report = robust_optimize(laplace_small, cfg)
        assert report.total_solves == pytest.approx(
            sum(r.solves for r in report.rows))

    def test_row_sink_called_per_cycle(self, laplace_small):
        rows = []
        cfg = OptimizerConfig(tau=2e-3, K=2, eps1=0.1, i_max=8,
                              global_seed=14, warmup=30)
        _, report = robust_optimize(laplace_small, cfg, row_sink=rows.append)
        assert len(rows) == len(report.rows)

    def test_max_cycles_returns_best_iterate(self, laplace_small):
        cfg = OptimizerConfig(tau=1e-9, K=2, eps1=0.1, i_max=2,
                              global_seed=15, warmup=30)
        u, report = robust_optimize(laplace_small, cfg)
        assert report.status == "max_cycles"
        assert u.level == 2
        assert report.final_J is None

    def test_report_record_layout(self):
        assert report_columns(2) == (
            "i", "eps", "n0", "n1", "n2", "J0", "J", "g0_norm", "g_norm",
            "solves", "time")
        from mgmlmc.driver import CycleRow

        row = CycleRow(1, 0.1, (5, 2, 1), 1.0, 0.5, 0.2, 0.1, 12.0, 0.3)
        rec = row_to_record(row)
        assert rec == (1, 0.1, 5, 2, 1, 1.0, 0.5, 0.2, 0.1, 12.0, 0.3)


class TestBaselineOptimize:
    def test_deterministic_matches_plain_ncg(self):
        p = deterministic_problem(K=1, alpha=1e-3)
        cfg = OptimizerConfig(tau=1e-6, K=1, eps1=0.1, i_max=5,
                              global_seed=4, warmup=2, baseline_max_steps=200)
        u, report = baseline_optimize(p, cfg)
        assert report.converged
        # the deterministic sampled problem has a dense-oracle minimizer
        from test_elliptic import dense_operator

        field = p.field(build_sample_sets(
            1, SampleAllocation(eps=1.0, theta=0.5, n=(1, 1), finest=1),
            0.25, True, cfg.global_seed, make_set_id(1, PURPOSE_OPT),
        ).streams(1, 1)[0], 1)
        h = p.hierarchy.h(1)
        A = dense_operator(field.values, h)
        z = p.target(1).values.ravel()
        m2 = A.shape[0]
        H = p.alpha * np.eye(m2) + np.linalg.solve(A, np.linalg.solve(A, np.eye(m2)))
        u_star = np.linalg.solve(H, np.linalg.solve(A, z))
        dev = np.linalg.norm(u.values.ravel() - u_star) / np.linalg.norm(u_star)
        assert dev <= 1e-3  # tau-level accuracy in the control

    def test_stochastic_desk_run_converges(self, laplace_small):
        cfg = OptimizerConfig(tau=2e-3, K=2, eps1=0.1, i_max=8,
                              global_seed=16, warmup=30, baseline_max_steps=300)
        u, report = baseline_optimize(laplace_small, cfg)
        assert report.converged
        assert report.final_g_norm <= cfg.tau
        assert all(len(r.n) == 3 for r in report.rows)

    def test_step_budget_ends_the_run(self, laplace_small):
        # tau is out of reach; the NCG steps run out before the phases do
        cfg = OptimizerConfig(tau=1e-9, K=2, eps1=3e-3,
                              global_seed=18, warmup=10, baseline_max_steps=3)
        u, report = baseline_optimize(laplace_small, cfg)
        assert report.status == "max_steps"
        assert 1 <= len(report.rows) < cfg.baseline_max_steps
        assert report.final_J is None and u.level == 2

    def test_entry_within_budget_takes_no_step(self, laplace_small,
                                               monkeypatch):
        # eps/r is far above the entry's gradient norm, so each phase takes
        # no NCG step, reports its entry estimate unchanged and hands the
        # entry's statistics to the next phase's planner
        import mgmlmc.driver as driver_mod

        plans = []
        real = driver_mod._plan_cycle

        def spy(problem, v, eps, cycle, fine_stats, config, ledger):
            plan = real(problem, v, eps, cycle, fine_stats, config, ledger)
            plans.append((fine_stats, plan))
            return plan

        monkeypatch.setattr(driver_mod, "_plan_cycle", spy)
        cfg = OptimizerConfig(tau=1e-9, K=2, eps1=1e3, global_seed=18,
                              warmup=10, baseline_max_steps=2)
        u, report = baseline_optimize(laplace_small, cfg)
        assert len(report.rows) == 2 and report.status == "max_steps"
        (first_fine, first), (second_fine, _) = plans
        assert first_fine is None and second_fine is first.entry.stats
        for row, (_, plan) in zip(report.rows, plans):
            assert row.J == row.J0 == plan.entry.cost_value
            assert row.g_norm == row.g0_norm == plan.entry.gradient_norm
        assert not u.values.any()


STEP_ENDS = pytest.mark.parametrize("driver, inner, end_of", [
    (robust_optimize, "run_vcycle", lambda result: result[1].end),
    (baseline_optimize, "ncg_smooth", lambda result: result.at)])


class TestStepEnd:
    """Each cycle reports the (J, g) pair its inner optimizer ends at."""

    # a failed confirmation on the way at this seed, with either driver
    CONFIG = OptimizerConfig(tau=1e-3, K=2, eps1=0.1, i_max=4, global_seed=14,
                             warmup=10, baseline_max_steps=40)

    def recorded_run(self, problem, monkeypatch, driver, inner, end_of):
        """Runs ``driver`` on CONFIG; returns its report, each step's end
        Evaluation, each cycle's (fine_stats, plan) and each confirmation's
        (cycle, stats)."""
        import mgmlmc.driver as driver_mod

        real_inner = getattr(driver_mod, inner)
        real_plan, real_confirm = driver_mod._plan_cycle, driver_mod._confirmation
        ends, plans, confirmations = [], [], []

        def recorded(*args, **kwargs):
            result = real_inner(*args, **kwargs)
            ends.append(end_of(result))
            return result

        def plan(problem, v, eps, cycle, fine_stats, config, ledger):
            plans.append((fine_stats, real_plan(problem, v, eps, cycle,
                                                fine_stats, config, ledger)))
            return plans[-1][1]

        def confirmation(problem, v, stats, config, cycle, ledger):
            confirmations.append((cycle, stats))
            return real_confirm(problem, v, stats, config, cycle, ledger)

        monkeypatch.setattr(driver_mod, inner, recorded)
        monkeypatch.setattr(driver_mod, "_plan_cycle", plan)
        monkeypatch.setattr(driver_mod, "_confirmation", confirmation)
        _, report = driver(problem, self.CONFIG)
        return report, ends, plans, confirmations

    @STEP_ENDS
    def test_rows_end_at_the_step_evaluation(self, laplace_small, monkeypatch,
                                             driver, inner, end_of):
        report, ends, plans, _ = self.recorded_run(
            laplace_small, monkeypatch, driver, inner, end_of)
        assert len(ends) == len(report.rows) >= 2
        for row, (J, g) in zip(report.rows, ends):
            assert (row.J, row.g_norm) == (J, norm(g))
        # a cycle that ran no confirmation plans the next from its end estimate
        for row, end, (stats, _) in zip(report.rows, ends, plans[1:]):
            if row.g_norm > self.CONFIG.tau:
                assert stats is end.est.stats

    @STEP_ENDS
    def test_confirmation_sized_from_refreshed_plan_stats(
            self, laplace_small, monkeypatch, driver, inner, end_of):
        # one rule for both drivers: a confirmation is allocated from the
        # cycle's planning statistics, their extrapolated levels refreshed
        # by the step's end estimate
        _, ends, plans, confirmations = self.recorded_run(
            laplace_small, monkeypatch, driver, inner, end_of)
        K = self.CONFIG.K
        assert confirmations
        for cycle, stats in confirmations:
            (_, plan), end = plans[cycle - 1], ends[cycle - 1]
            # the end estimate measured the extrapolated finest level
            assert plan.stats.n_used[K] == 0 and plan.alloc.n[K] >= 2
            refreshed = refresh_level_stats(plan.stats, end.est.stats)
            np.testing.assert_array_equal(stats.V, refreshed.V)


class TestSingleLevel:
    """K = 0: the V-cycle is the coarsest level's smoothing alone."""

    @pytest.fixture(scope="class")
    def problem(self):
        return LaplaceSourceControl(GridHierarchy(dim=2, n0=17, levels=1))

    @pytest.mark.parametrize("driver", [robust_optimize, baseline_optimize])
    def test_driver_converges(self, problem, driver):
        cfg = OptimizerConfig(tau=5e-3, K=0, warmup=10)
        u, report = driver(problem, cfg)
        assert report.converged and report.final_g_norm <= cfg.tau
        assert u.level == 0
        assert all(len(row.n) == 1 for row in report.rows)

    def test_vcycle_reports_level_stats(self, problem):
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(12,), finest=0)
        sets = build_sample_sets(0, alloc, 0.25, True, 7, 4)
        _, report = run_vcycle(problem, problem.zero_control(0), sets,
                               SmoothingSchedule.default(0))
        assert report.end.est.stats.levels == (0,)
        assert report.end.est.stats.n_used[0] == 12
        assert report.end[0] < report.entry.cost_value


class TestPlanCycle:
    def test_extrapolated_level_floored_at_one(self, laplace_small):
        # level 2 is extrapolated: it takes the previous cycle's statistics,
        # but only the warm-up counts of measured levels floor the allocation
        cfg = OptimizerConfig(tau=1e-3, K=2, warmup=6, global_seed=5)
        previous = LevelStats(
            levels=(0, 1, 2), V=np.array([1.0, 1.0, 1e-30]),
            C=np.array([1.0, 4.0, 16.0]), n_used=np.array([6, 6, 1000]),
            mean_norms=np.zeros(3))
        plan = _plan_cycle(laplace_small, laplace_small.zero_control(2), 0.1,
                           1, previous, cfg, SolveLedger())
        assert list(plan.stats.n_used) == [6, 6, 0]
        assert plan.stats.V[2] == 1e-30
        assert plan.alloc.n[2] < 1000
        assert min(plan.alloc.n[:2]) >= cfg.warmup

    @pytest.mark.parametrize("driver", [robust_optimize, baseline_optimize])
    def test_row_starts_from_the_plan_entry(self, monkeypatch, driver):
        # each cycle moves the iterate, and its row's start values are the
        # entry estimate's bit for bit: both drivers start from it
        import mgmlmc.driver as driver_mod

        plans = []
        real = driver_mod._plan_cycle

        def spy(*args):
            plans.append(real(*args))
            return plans[-1]

        monkeypatch.setattr(driver_mod, "_plan_cycle", spy)
        cfg = OptimizerConfig(tau=1e-9, K=2, eps1=3e-3, i_max=3, global_seed=18,
                              warmup=10, baseline_max_steps=6)
        _, report = driver(deterministic_problem(K=2), cfg)
        assert len(report.rows) == len(plans) == 3
        for row, plan in zip(report.rows, plans):
            assert row.J0 == plan.entry.cost_value
            assert row.g0_norm == plan.entry.gradient_norm
            assert row.J != row.J0


class TestWarmupReuse:
    @pytest.mark.parametrize("driver", [robust_optimize, baseline_optimize])
    def test_first_gradient_skips_warmup_samples(self, laplace_small,
                                                 monkeypatch, driver):
        # the warm-up runs on the cycle's own streams at the same control,
        # so the cycle's first gradient, the planner's entry estimate,
        # charges only the samples the warm-up did not evaluate: each
        # warm-up sample is charged once
        import mgmlmc.driver as driver_mod

        first = []
        real = driver_mod.mlmc_gradient

        def spy(problem, u, sets, k, *, ledger=None, **kwargs):
            mark = len(ledger.events)
            est = real(problem, u, sets, k, ledger=ledger, **kwargs)
            if not first:
                first.append((sets, ledger.events[mark:]))
            return est

        monkeypatch.setattr(driver_mod, "mlmc_gradient", spy)
        warmup = 12
        cfg = OptimizerConfig(tau=1e-9, K=2, i_max=1, global_seed=19,
                              warmup=warmup, baseline_max_steps=1)
        driver(laplace_small, cfg)
        sets, events = first[0]
        kappa = laplace_small.kappa_default
        unit = [2.0 ** (kappa * (level - 2)) for level in range(3)]
        # levels 0 and 1 are warmed up; level 2 is extrapolated
        warm = warmup * (unit[0] + unit[1] + unit[0])
        assert equivalent_fine_solves(events, 2, kappa) == pytest.approx(
            predicted_gradient_cost(sets, 2, kappa) - warm, rel=1e-12)


def _run_fingerprint(u, report):
    """Everything a run reports except wall times."""
    rows = [row_to_record(r)[:-1] for r in report.rows]
    return (u.values.tobytes(), rows, report.status, report.final_J,
            report.final_g_norm, report.ledger.events)


class TestSampleBank:
    DRIVERS = [robust_optimize, baseline_optimize]

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_cycle_draws_each_field_once(self, laplace_small, monkeypatch,
                                         driver):
        # one cycle and an unreachable tau: every draw happens inside the
        # cycle, whose evaluations revisit the same fixed samples
        draws = Counter()
        real = FieldSampler.sample

        def spy(self, stream, level):
            draws[stream.seed_id] += 1
            return real(self, stream, level)

        monkeypatch.setattr(FieldSampler, "sample", spy)
        cfg = OptimizerConfig(tau=1e-9, K=2, i_max=1, global_seed=41,
                              warmup=6, baseline_max_steps=1)
        driver(laplace_small, cfg)
        assert draws and set(draws.values()) == {1}

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_results_equal_unbanked_and_threaded(self, laplace_small,
                                                 monkeypatch, driver):
        cfg = OptimizerConfig(tau=2e-3, K=2, eps1=0.1, i_max=8,
                              global_seed=11, warmup=20)
        banked = _run_fingerprint(*driver(laplace_small, cfg))
        with monkeypatch.context() as m:
            m.setattr(laplace_small, "workers", 2)
            threaded = _run_fingerprint(*driver(laplace_small, cfg))
        with monkeypatch.context() as m:
            m.setattr(ControlProblem, "sample_bank",
                      lambda self: contextlib.nullcontext())
            unbanked = _run_fingerprint(*driver(laplace_small, cfg))
        assert banked[2] == "converged"
        assert banked == unbanked
        assert banked == threaded

    @staticmethod
    def _assert_no_bank_open(problem):
        s = RngStream(43, 1, 1, 0)
        assert problem.field(s, 1) is not problem.field(s, 1)
        with problem.sample_bank():
            pass

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_bank_closed_after_driver(self, laplace_small, driver):
        cfg = OptimizerConfig(tau=1e-9, K=2, i_max=1, global_seed=42,
                              warmup=4, baseline_max_steps=1)
        driver(laplace_small, cfg)
        self._assert_no_bank_open(laplace_small)

    @pytest.mark.parametrize("driver, inner", [
        (robust_optimize, "run_vcycle"), (baseline_optimize, "ncg_smooth")])
    def test_bank_closed_after_raising_step(self, laplace_small, monkeypatch,
                                            driver, inner):
        import mgmlmc.driver as driver_mod

        def boom(*args, **kwargs):
            raise RuntimeError("inner optimizer failed")

        monkeypatch.setattr(driver_mod, inner, boom)
        cfg = OptimizerConfig(tau=1e-9, K=2, i_max=1, global_seed=42,
                              warmup=4, baseline_max_steps=1)
        with pytest.raises(RuntimeError, match="inner optimizer failed"):
            driver(laplace_small, cfg)
        self._assert_no_bank_open(laplace_small)

    def test_banked_fields_are_read_only_draws(self, laplace_small):
        p = laplace_small
        s = RngStream(44, 1, 2, 3)
        fresh_fine, fresh_coarse = p.field_pair(s, 2)
        with p.sample_bank():
            fine, coarse = p.field_pair(s, 2)
            assert p.field_pair(s, 2) == (fine, coarse)
            assert p.field(s, 2) is fine and p.field(s, 1) is coarse
            for f in (fine, coarse):
                with pytest.raises(ValueError):
                    f.values[0, 0] = 0.0
        assert np.array_equal(fine.values, fresh_fine.values)
        assert np.array_equal(coarse.values, fresh_coarse.values)
        assert fresh_fine.values.flags.writeable

    def test_banks_do_not_nest(self, laplace_small):
        with laplace_small.sample_bank():
            with pytest.raises(RuntimeError):
                with laplace_small.sample_bank():
                    pass


class TestConfirmationDiscipline:
    def test_confirmation_streams_disjoint_from_optimization(self):
        alloc = SampleAllocation(eps=0.1, theta=0.5, n=(8, 4, 2), finest=2)
        for cycle in (1, 2, 5):
            opt = build_sample_sets(2, alloc, 0.25, True, 9,
                                    make_set_id(cycle, PURPOSE_OPT))
            conf = build_sample_sets(2, alloc, 0.25, True, 9,
                                     make_set_id(cycle, PURPOSE_CONFIRM))
            opt_ids = {s.seed_id for level in range(3)
                       for s in opt.streams(2, level)}
            conf_ids = {s.seed_id for level in range(3)
                        for s in conf.streams(2, level)}
            assert not opt_ids & conf_ids

    def test_confirmed_norm_below_tolerance(self, laplace_small):
        cfg = OptimizerConfig(tau=2e-3, K=2, eps1=0.1, i_max=8,
                              global_seed=17, warmup=30)
        _, report = robust_optimize(laplace_small, cfg)
        assert report.converged and report.final_g_norm <= cfg.tau


class TestStateStatistics:
    def test_deterministic_variance_vanishes(self):
        p = deterministic_problem(K=1)
        u = p.control_from_function(1, lambda a, b: np.sin(np.pi * a) * b)
        mean, var = state_statistics(p, u, 4, global_seed=21)
        assert np.all(var <= 1e-28)
        assert mean.shape == (17, 17)

    @pytest.mark.parametrize("fixture, agreed", [
        ("burgers_small", lambda var: var[0]),     # t = 0: the initial control
        ("dtn_small", lambda var: var[:, 0]),      # Gamma: the boundary control
    ], ids=["burgers-t0", "dtn-gamma"])
    def test_variance_exactly_zero_where_samples_agree(self, request, fixture,
                                                        agreed):
        # every sample holds the control there: the variance must be 0, not
        # the round-off of a cancelling one-pass formula
        p = request.getfixturevalue(fixture)
        u = p.zero_control(1)
        u = u.with_values(0.2 * np.sin(np.linspace(1.0, 3.0, u.values.size)))
        mean, var = state_statistics(p, u, 16, global_seed=23)
        assert np.all(agreed(var) == 0.0)
        assert var.max() > 0.0

    def test_stochastic_variance_positive(self, laplace_small):
        u = laplace_small.control_from_function(
            2, lambda a, b: np.sin(np.pi * a) * np.sin(np.pi * b))
        mean, var = state_statistics(laplace_small, u, 8, global_seed=22)
        assert var.max() > 0.0
        assert np.all(var >= 0.0)


class TestCostRegime:
    def test_cost_grows_no_faster_than_theory(self, laplace_small):
        # over a sequence of tightening tolerances the total solve count is
        # bounded by the theoretical rate with 50% slack; the exponent uses
        # the fitted decay rates, with the cheap-regime cap at tau^-2
        from mgmlmc import estimate_level_stats

        p = laplace_small
        stats = estimate_level_stats(p, p.zero_control(2), 60, range(3),
                                     global_seed=31, set_id=4,
                                     extrapolate_finest=0)
        phi = stats.phi if stats.phi is not None else 2.0
        kappa = stats.kappa
        rho = stats.rho if stats.rho is not None else 2.0
        exponent = 2.0 if phi >= kappa else 2.0 + (kappa - phi) / rho

        taus = [4e-3, 2e-3, 1e-3]
        solves = []
        for tau in taus:
            cfg = OptimizerConfig(tau=tau, K=2, eps1=0.1, i_max=10,
                                  global_seed=32, warmup=30)
            _, report = robust_optimize(p, cfg)
            assert report.converged
            solves.append(report.total_solves)
        scale = solves[0] * taus[0] ** exponent
        for tau, total in zip(taus[1:], solves[1:]):
            bound = scale * tau ** (-exponent)
            assert total <= 1.5 * bound
