"""The adaptive-accuracy outer loop and run reports.

Both drivers run one loop.  Every cycle warms up on its own sample
streams at the current iterate, allocates MLMC samples for the current
gradient RMSE budget eps, takes the cycle's entry estimate (the level-K
gradient at the iterate, which reuses the warm-up samples), optimizes
from it on those fixed samples to the :class:`~mgmlmc.mgopt.Evaluation`
the inner optimizer ends at, whose (J, g) the cycle reports, and only
declares success after a confirmation gradient computed with brand-new
samples at RMSE r*tau, taken when that gradient's norm is at most tau.
Both drivers size the confirmation by one rule: the cycle's planning
statistics, their extrapolated levels refreshed by the step's end
estimate.  The two drivers differ in two places:

* inner optimizer: ``robust_optimize`` runs one MG/OPT V-cycle from the
  entry estimate; ``baseline_optimize`` runs NCG on the finest level from
  it until the gradient norm drops below eps/r, under a total step budget.
* next budget: the V-cycle driver follows

      eta = min(1/2, |g|/|g0|),   eps_next = max(r*tau, r * eta * |g|),

  or r*tau after a failed confirmation; the baseline multiplies eps by
  0.25, down to r*tau.

Stream families are keyed by the cycle index, so paired comparisons reuse
the same randomness, and both drivers emit the same per-cycle report rows.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field as dataclass_field, fields
from typing import NamedTuple

from .errors import DegenerateStart
from .grids import LevelVector, norm
from .mgopt import Evaluation, LevelObjective, SmoothingSchedule, ncg_smooth, run_vcycle
from .mlmc import (
    MAX_CYCLES,
    PURPOSE_CONFIRM,
    PURPOSE_OPT,
    PURPOSE_STATE,
    GradientEstimate,
    LevelStats,
    MgoptSampleSets,
    SampleAllocation,
    SolveLedger,
    build_sample_sets,
    equivalent_fine_solves,
    estimate_level_stats,
    make_set_id,
    mlmc_gradient,
    optimal_allocation,
    refresh_level_stats,
    state_moments,
)
from .problems import ControlProblem
from .random_fields import RngStream

BASELINE_RMSE_FACTOR = 0.25  # the baseline's eps shrinks by this per phase


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
    global_seed: int = 0
    baseline_max_steps: int = 500

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
        if not (0 < self.i_max < MAX_CYCLES
                and 0 < self.baseline_max_steps < MAX_CYCLES):
            raise ValueError(f"iteration budgets must be in [1, {MAX_CYCLES})")
        if self.warmup < 2:
            raise ValueError("warmup must be >= 2")
        if self.K < 0:
            raise ValueError("K must be >= 0")
        if not 0 <= self.global_seed < 2**64:  # stream keys hold 64 bits
            raise ValueError("global_seed must be in [0, 2**64)")


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


def report_columns(K: int) -> tuple:
    """The fields of :class:`CycleRow`, with ``n`` as one column per level."""
    i, eps, _, *tail = (f.name for f in fields(CycleRow))
    return (i, eps, *(f"n{l}" for l in range(K + 1)), *tail)


def row_to_record(row: CycleRow) -> tuple:
    i, eps, n, *tail = astuple(row)
    return (i, eps, *n, *tail)


@dataclass
class RunReport:
    """Per-cycle records plus the fresh-sample final values and totals."""

    rows: list = dataclass_field(default_factory=list)
    status: str = "max_cycles"
    final_J: float | None = None
    final_g_norm: float | None = None
    ledger: SolveLedger = dataclass_field(default_factory=SolveLedger)

    @property
    def total_solves(self) -> float:
        return sum(r.solves for r in self.rows)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class _CyclePlan(NamedTuple):
    """Sample statistics, allocation and sets of one cycle, planned at v."""

    stats: LevelStats  # warm-up estimates, extrapolated levels refreshed
    alloc: SampleAllocation
    sets: MgoptSampleSets
    entry: GradientEstimate  # the level-K estimate at v on ``sets``


class _Step(NamedTuple):
    """A driver step's end point ``v`` and the :class:`Evaluation` ``at``
    it; the step starts at the plan's entry."""

    v: LevelVector
    at: Evaluation
    budget_spent: bool = False


def _plan_cycle(problem, v, eps, cycle, fine_stats, config, ledger) -> _CyclePlan:
    """Warm-up, refresh, allocation, sets and entry estimate of one cycle.

    The warm-up runs at v on the measured levels with the cycle's own
    optimization streams, so the entry estimate, the cycle's one level-K
    gradient at v, reuses its samples.  Extrapolated levels
    (``n_used == 0``) take the previous cycle's sample variances when there
    are any; the refresh leaves ``n_used`` as the warm-up counts.  These
    floor the allocation: no measured level gets fewer samples than it
    warmed up with, and every level gets at least one.
    """
    K = config.K
    opt_set_id = make_set_id(cycle, PURPOSE_OPT)
    cache: dict = {}
    stats = estimate_level_stats(
        problem, v, config.warmup, range(K + 1),
        global_seed=config.global_seed,
        set_id=MgoptSampleSets.stream_set_id(opt_set_id, config.nested, K),
        ledger=ledger, collect=cache,
    )
    if fine_stats is not None:
        stats = refresh_level_stats(stats, fine_stats)
    alloc = optimal_allocation(stats, eps, config.theta, floor=stats.n_used)
    sets = build_sample_sets(
        K, alloc, config.q, config.nested, config.global_seed, opt_set_id,
    )
    entry = mlmc_gradient(problem, v, sets, K, ledger=ledger, sample_cache=cache)
    return _CyclePlan(stats, alloc, sets, entry)


def _confirmation(problem, v, stats, config, cycle, ledger):
    """Fresh-sample gradient at RMSE r*tau (the expensive test), allocated
    from ``stats``: the cycle's planning statistics with their extrapolated
    levels refreshed by the step's end estimate."""
    alloc = optimal_allocation(stats, config.r * config.tau, config.theta)
    sets = build_sample_sets(
        config.K, alloc, config.q, config.nested, config.global_seed,
        make_set_id(cycle, PURPOSE_CONFIRM),
    )
    return mlmc_gradient(problem, v, sets, config.K, ledger=ledger)


def _adaptive_loop(problem, config, *, max_cycles, status, step, next_eps,
                   row_sink):
    """The outer loop of both drivers; returns (control, RunReport).

    The first cycle's RMSE budget is ``config.eps1``.  Each cycle plans its
    samples at the current iterate, runs the driver's ``step(v, plan,
    ledger)`` on them, confirms with fresh samples when the cheap gradient
    norm is at most tau, and reports one row, which starts from the plan's
    entry estimate (both drivers start there) and ends at the step's point.
    Planning and step share one sample bank, so each of the cycle's fields
    is drawn once; the confirmation's fresh fields are used once and are
    not banked.  The loop ends on a confirmed gradient, after
    ``max_cycles`` cycles or when the step has spent its budget; otherwise
    ``next_eps(eps, row)`` sets the next cycle's RMSE budget.
    """
    report = RunReport(status=status)
    ledger = report.ledger
    v = problem.zero_control(config.K)
    eps = config.eps1
    fine_stats = None  # sample statistics of the previous cycle's estimates
    for i in range(1, max_cycles + 1):
        t0 = time.perf_counter()
        mark = len(ledger.events)
        with problem.sample_bank():
            plan = _plan_cycle(problem, v, eps, i, fine_stats, config, ledger)
            out = step(v, plan, ledger)
        v = out.v
        J, g = out.at
        g_norm = norm(g)
        fine_stats = out.at.est.stats

        confirmed = False
        if g_norm <= config.tau:
            stats = refresh_level_stats(plan.stats, out.at.est.stats)
            est = _confirmation(problem, v, stats, config, i, ledger)
            fine_stats = est.stats
            if est.gradient_norm <= config.tau:
                confirmed = True
                report.status = "converged"
                report.final_J = est.cost_value
                report.final_g_norm = est.gradient_norm

        solves = equivalent_fine_solves(ledger.events[mark:], config.K,
                                        problem.kappa_default)
        row = CycleRow(i, eps, plan.alloc.n, plan.entry.cost_value, J,
                       plan.entry.gradient_norm, g_norm, solves,
                       time.perf_counter() - t0)
        report.rows.append(row)
        if row_sink is not None:
            row_sink(row)
        if confirmed or out.budget_spent:
            break
        eps = next_eps(eps, row)
    return v, report


def robust_optimize(problem: ControlProblem, config: OptimizerConfig,
                    row_sink=None):
    """Adaptive-RMSE V-cycle loop; returns (control, RunReport)."""
    schedule = SmoothingSchedule.default(config.K)

    def step(v, plan, ledger):
        v, cycle = run_vcycle(problem, v, plan.sets, schedule, ledger=ledger,
                              entry=plan.entry)
        return _Step(v, cycle.end)

    def next_eps(eps, row):
        if row.g_norm <= config.tau:  # the confirmation failed
            return config.r * config.tau
        eta = update_eta(row.g_norm, row.g0_norm)
        return next_rmse(eta, row.g_norm, config.r, config.tau)

    return _adaptive_loop(problem, config, max_cycles=config.i_max,
                          status="max_cycles", step=step, next_eps=next_eps,
                          row_sink=row_sink)


def baseline_optimize(problem: ControlProblem, config: OptimizerConfig,
                      row_sink=None):
    """Finest-level NCG with MLMC gradients and 0.25-factor RMSE refinement."""
    steps_used = 0

    def step(v, plan, ledger):
        nonlocal steps_used
        objective = LevelObjective(problem, plan.sets, config.K, ledger=ledger)
        # iterate on fixed samples while eps <= r * |g| still holds
        res = ncg_smooth(
            objective, v, steps=config.baseline_max_steps - steps_used,
            initial=objective.shifted(v, plan.entry),
            gradient_tol=plan.alloc.eps / config.r,
        )
        steps_used += res.steps_taken
        return _Step(res.v, res.at,
                     budget_spent=steps_used >= config.baseline_max_steps)

    def next_eps(eps, row):
        return max(BASELINE_RMSE_FACTOR * eps, config.r * config.tau)

    return _adaptive_loop(problem, config, max_cycles=config.baseline_max_steps,
                          status="max_steps", step=step, next_eps=next_eps,
                          row_sink=row_sink)


def state_statistics(problem: ControlProblem, u: LevelVector, n_samples: int,
                     *, global_seed: int):
    """Plain-MC mean and variance of the state at the control's level.

    Fresh streams, disjoint from every optimization set; the variance is the
    unbiased per-node sample variance, zero where every sample agrees.
    """
    set_id = make_set_id(0, PURPOSE_STATE)
    streams = [RngStream(global_seed, set_id, u.level, i) for i in range(n_samples)]
    return state_moments(problem, u, streams)
