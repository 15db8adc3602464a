"""Outer robust-optimization loops and run reports.

``robust_optimize`` wraps V-cycles in an adaptive-accuracy loop: every
cycle draws fresh sample sets sized for the current gradient RMSE budget
eps, tests convergence cheaply with the cycle's own samples, and only
declares success after an expensive confirmation gradient computed with
brand-new samples at RMSE r*tau.  Between cycles the budget follows

    eta = min(1/2, |g|/|g0|),   eps_next = max(r*tau, r * eta * |g|).

``baseline_optimize`` is the single-level comparator: NCG on the finest
level with MLMC gradients, iterating on fixed samples until the gradient
norm drops below the RMSE it was computed with, then resampling with the
RMSE multiplied by 0.25.  Both drivers share stream families keyed by the
cycle index, so paired comparisons reuse the same randomness, and both
emit the same per-cycle report rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import DegenerateStart
from .grids import LevelVector, norm
from .mgopt import LevelObjective, SmoothingSchedule, ncg_smooth, run_vcycle
from .mlmc import (
    PURPOSE_CONFIRM,
    PURPOSE_OPT,
    PURPOSE_STATE,
    MgoptSampleSets,
    SolveLedger,
    build_sample_sets,
    equivalent_fine_solves,
    estimate_level_stats,
    make_set_id,
    mlmc_gradient,
    optimal_allocation,
    refresh_level_stats,
    sample_states,
)
from .problems import ControlProblem
from .random_fields import RngStream


def update_eta(g_norm: float, g0_norm: float) -> float:
    """Estimated convergence factor of the next cycle, capped at 1/2."""
    if g0_norm == 0.0:
        raise DegenerateStart("starting gradient norm is zero")
    return min(0.5, g_norm / g0_norm)


def next_rmse(eta: float, g_norm: float, r: float, tau: float) -> float:
    """RMSE budget for the next cycle: max(r*tau, r*eta*|g|)."""
    if min(eta, g_norm, r, tau) <= 0.0:
        raise ValueError("next_rmse expects positive inputs")
    return max(r * tau, r * eta * g_norm)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the outer loops (both drivers share one config)."""

    tau: float
    K: int
    eps1: float = 0.1
    r: float = 0.5
    i_max: int = 20
    q: float = 1.0 / 16.0
    theta: float = 0.5
    nested: bool = True
    warmup: int = 100
    extrapolate_finest: int = 2
    global_seed: int = 0
    schedule: SmoothingSchedule | None = None
    kappa: float | None = None
    workers: int = 1
    verify_coherence: bool = True
    baseline_max_steps: int = 500
    baseline_rmse_factor: float = 0.25
    baseline_eps1: float | None = None

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if not 0.0 < self.r < 1.0:
            raise ValueError("r must be in (0, 1)")
        if self.eps1 <= 0:
            raise ValueError("eps1 must be > 0")
        if not 0.0 < self.q < 0.5:
            raise ValueError("q must be in (0, 1/2)")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must be in (0, 1]")
        if self.i_max < 1 or self.baseline_max_steps < 1:
            raise ValueError("iteration budgets must be >= 1")
        if self.K < 0:
            raise ValueError("K must be >= 0")


@dataclass(frozen=True)
class CycleRow:
    i: int
    eps: float
    n: tuple
    J0: float
    J: float
    g0_norm: float
    g_norm: float
    solves: float
    time: float


REPORT_BASE_COLUMNS = ("i", "eps")
REPORT_TAIL_COLUMNS = ("J0", "J", "g0_norm", "g_norm", "solves", "time")


def report_columns(K: int) -> tuple:
    return REPORT_BASE_COLUMNS + tuple(f"n{l}" for l in range(K + 1)) + REPORT_TAIL_COLUMNS


def row_to_record(row: CycleRow) -> tuple:
    return (row.i, row.eps) + tuple(row.n) + (
        row.J0, row.J, row.g0_norm, row.g_norm, row.solves, row.time,
    )


@dataclass
class RunReport:
    """Per-cycle records plus the fresh-sample final values and totals."""

    K: int
    rows: list = dataclass_field(default_factory=list)
    status: str = "max_cycles"
    final_J: float | None = None
    final_g_norm: float | None = None
    ledger: SolveLedger = dataclass_field(default_factory=SolveLedger)

    @property
    def total_solves(self) -> float:
        return sum(r.solves for r in self.rows)

    @property
    def total_time(self) -> float:
        return sum(r.time for r in self.rows)

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def totals(self) -> dict:
        return {"solves": self.total_solves, "time": self.total_time}


class _CycleClock:
    """Tracks per-cycle wall time and ledger-based solve deltas."""

    def __init__(self, K, kappa):
        self.K = K
        self.kappa = kappa
        self._t0 = None
        self._mark = 0

    def start(self, ledger):
        self._t0 = time.perf_counter()
        self._mark = len(ledger.events)

    def stop(self, ledger):
        elapsed = time.perf_counter() - self._t0
        solves = equivalent_fine_solves(
            ledger.events[self._mark:], self.K, self.kappa
        )
        return solves, elapsed


def _confirmation(problem, v, stats, config, cycle, ledger):
    """Fresh-sample gradient at RMSE r*tau (the expensive test)."""
    alloc = optimal_allocation(stats, config.r * config.tau, config.theta)
    sets = build_sample_sets(
        config.K, alloc, config.q, config.nested, config.global_seed,
        make_set_id(cycle, PURPOSE_CONFIRM),
    )
    return mlmc_gradient(problem, v, sets, config.K, ledger=ledger,
                         eps_used=config.r * config.tau, workers=config.workers)


def robust_optimize(problem: ControlProblem, config: OptimizerConfig,
                    row_sink=None):
    """Adaptive-RMSE V-cycle loop; returns (control, RunReport)."""
    K = config.K
    kappa = config.kappa if config.kappa is not None else problem.kappa_default
    schedule = config.schedule or SmoothingSchedule.default(K)
    report = RunReport(K=K)
    ledger = report.ledger
    clock = _CycleClock(K, kappa)
    v = problem.zero_control(K)
    eps = config.eps1

    fine_stats = None  # sample statistics from the previous cycle's estimates
    for i in range(1, config.i_max + 1):
        clock.start(ledger)
        # warm-up at the current iterate on the coarse (measured) levels;
        # the warm-up streams are the cycle's own sample streams, so the
        # solves are reused by the first gradient evaluation below
        opt_set_id = make_set_id(i, PURPOSE_OPT)
        stream_sid = MgoptSampleSets.stream_set_id(opt_set_id, config.nested, K)
        cache: dict = {}
        stats = estimate_level_stats(
            problem, v, config.warmup, range(K + 1),
            global_seed=config.global_seed, set_id=stream_sid,
            stream_factory=lambda level, j: RngStream(
                config.global_seed, stream_sid, level, j),
            kappa=kappa, extrapolate_finest=config.extrapolate_finest,
            ledger=ledger, collect=cache, workers=config.workers,
        )
        extrapolated = [l for l in range(K + 1) if stats.n_used[l] == 0]
        if fine_stats is not None:
            stats = refresh_level_stats(stats, fine_stats, only_levels=extrapolated)
        floor = np.where(stats.n_used > 0, stats.n_used, 1)
        alloc = optimal_allocation(stats, eps, config.theta, floor=floor)
        sets = build_sample_sets(
            K, alloc, config.q, config.nested, config.global_seed, opt_set_id,
        )
        v, cycle_report = run_vcycle(
            problem, v, sets, schedule, ledger=ledger,
            workers=config.workers, verify_coherence=config.verify_coherence,
            initial_sample_cache=cache,
        )
        if cycle_report.level_stats is not None:
            fine_stats = cycle_report.level_stats
            stats = refresh_level_stats(stats, fine_stats, only_levels=extrapolated)

        confirmed = False
        if cycle_report.g_norm <= config.tau:
            est = _confirmation(problem, v, stats, config, i, ledger)
            fine_stats = est.stats
            if est.gradient_norm <= config.tau:
                confirmed = True
                report.status = "converged"
                report.final_J = est.cost_value
                report.final_g_norm = est.gradient_norm
            else:
                eps = config.r * config.tau

        solves, elapsed = clock.stop(ledger)
        # the eps column reports the budget this cycle's allocation used
        row = CycleRow(i, alloc.eps, alloc.n, cycle_report.J0, cycle_report.J,
                       cycle_report.g0_norm, cycle_report.g_norm, solves, elapsed)
        report.rows.append(row)
        if row_sink is not None:
            row_sink(row)
        if confirmed:
            break
        if cycle_report.g_norm > config.tau:
            eta = update_eta(cycle_report.g_norm, cycle_report.g0_norm)
            eps = next_rmse(eta, cycle_report.g_norm, config.r, config.tau)
    return v, report


def baseline_optimize(problem: ControlProblem, config: OptimizerConfig,
                      row_sink=None):
    """Finest-level NCG with MLMC gradients and 0.25-factor RMSE refinement."""
    K = config.K
    kappa = config.kappa if config.kappa is not None else problem.kappa_default
    report = RunReport(K=K, status="max_steps")
    ledger = report.ledger
    clock = _CycleClock(K, kappa)
    v = problem.zero_control(K)
    eps = config.baseline_eps1 if config.baseline_eps1 is not None else config.eps1
    steps_used = 0
    phase = 0

    fine_stats = None
    while steps_used < config.baseline_max_steps and phase < config.baseline_max_steps:
        phase += 1
        clock.start(ledger)
        opt_set_id = make_set_id(phase, PURPOSE_OPT)
        stream_sid = MgoptSampleSets.stream_set_id(opt_set_id, config.nested, K)
        cache: dict = {}
        stats = estimate_level_stats(
            problem, v, config.warmup, range(K + 1),
            global_seed=config.global_seed, set_id=stream_sid,
            stream_factory=lambda level, j: RngStream(
                config.global_seed, stream_sid, level, j),
            kappa=kappa, extrapolate_finest=config.extrapolate_finest,
            ledger=ledger, collect=cache, workers=config.workers,
        )
        extrapolated = [l for l in range(K + 1) if stats.n_used[l] == 0]
        if fine_stats is not None:
            stats = refresh_level_stats(stats, fine_stats, only_levels=extrapolated)
        floor = np.where(stats.n_used > 0, stats.n_used, 1)
        alloc = optimal_allocation(stats, eps, config.theta, floor=floor)
        sets = build_sample_sets(
            K, alloc, config.q, config.nested, config.global_seed, opt_set_id,
        )
        objective = LevelObjective(problem, sets, K, tau=None,
                                   ledger=ledger, workers=config.workers)
        est0 = objective.evaluate_unshifted(v, sample_cache=cache)
        # iterate on fixed samples while eps <= r * |g| still holds
        res = ncg_smooth(
            objective, v, steps=config.baseline_max_steps - steps_used,
            initial=(est0.cost_value, est0.value),
            gradient_tol=eps / config.r,
        )
        v = res.v
        steps_used += res.steps_taken
        g_norm = norm(res.g)
        if objective.last_estimate is not None:
            fine_stats = objective.last_estimate.stats

        confirmed = False
        if g_norm <= config.tau:
            est = _confirmation(problem, v, stats, config, phase, ledger)
            fine_stats = est.stats
            if est.gradient_norm <= config.tau:
                confirmed = True
                report.status = "converged"
                report.final_J = est.cost_value
                report.final_g_norm = est.gradient_norm

        solves, elapsed = clock.stop(ledger)
        row = CycleRow(
            i=phase, eps=eps, n=alloc.n,
            J0=res.J_initial, J=res.J,
            g0_norm=norm(res.g_initial), g_norm=g_norm,
            solves=solves, time=elapsed,
        )
        report.rows.append(row)
        if row_sink is not None:
            row_sink(row)
        if confirmed:
            break
        eps = max(config.baseline_rmse_factor * eps, config.r * config.tau)
    return v, report


def state_statistics(problem: ControlProblem, u: LevelVector, n_samples: int,
                     *, global_seed: int, cycle: int = 0, workers: int = 1):
    """Plain-MC mean and variance of the state at the control's level.

    Fresh streams, disjoint from every optimization set; the variance is the
    unbiased per-node sample variance.
    """
    set_id = make_set_id(cycle, PURPOSE_STATE)
    streams = [RngStream(global_seed, set_id, u.level, i) for i in range(n_samples)]
    total = None
    total_sq = None
    for state in sample_states(problem, u, streams, workers=workers):
        if total is None:
            total = np.zeros_like(state)
            total_sq = np.zeros_like(state)
        total += state
        total_sq += state * state
    mean = total / n_samples
    if n_samples >= 2:
        var = np.clip((total_sq - n_samples * mean**2) / (n_samples - 1), 0.0, None)
    else:
        var = np.zeros_like(mean)
    return mean, var
