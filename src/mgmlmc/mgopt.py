"""MG/OPT V-cycle with tau-correction and a Dai-Yuan NCG smoother.

Each optimization level k carries the shifted functional

    J_k(u) = Jhat_k(u) - <tau_k, u>_k,

where Jhat_k is the sampled (MLMC) cost at level k and tau_k aligns the
coarse problem with the fine one: after presmoothing to v_{k,1} the
correction

    tau_{k-1} = I tau_k + grad Jhat_{k-1}(v_{k-1}) - I grad Jhat_k(v_{k,1})

makes the coarse shifted gradient match the restricted fine one exactly.
The prolonged coarse update is applied through an Armijo line search
from s = 1, then postsmoothing runs.  Level k presmooths ``nu[k]`` and
postsmooths ``mu[k]`` steps of the :class:`SmoothingSchedule`; the
coarsest level, with no correction between the two, runs their sum in
one smoother call.  Sample sets stay fixed for the whole cycle.

Every level is one call of :func:`vcycle` with the level's objective and
the shifted (J, g) pair at its entry point, which travels with the
estimate it came from, and returns the pair at its exit point.  The top
level starts from the entry estimate handed to :func:`run_vcycle`.  On
nested sets a level-k estimate carries the level-(k-1) estimate at the
restricted control (``GradientEstimate.coarse``), so the presmoothed
pair's estimate holds the coarse estimate the tau-correction needs, and
the child starts from the pair formed with it for the coherence check:
no point is estimated twice.  The cycle's report is built from these
values; its events hold only numbers and flags.

The smoother is nonlinear conjugate gradient with the Dai-Yuan direction
mix and one line-search step for every problem: an interpolation step from
a cost-only trial at s = 1, evaluated afresh and checked by Armijo, with
backtracking as the fallback.  On fixed-sample quadratic problems the
interpolation step is the exact line search.  Both searches share one
backtracking loop and one acceptance rule (Armijo), and the march's
stability check is the only guard on a trial step, so every pair in a
cycle carries its estimate.  The ``explicit_gradients=False`` reference
instead propagates gradients by affine combination on quadratic problems,
which makes it step-for-step equivalent to classical CG on the sampled
optimality system.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (CoherenceViolation, LevelMismatch, LineSearchFailure,
                     StabilityViolation)
from .grids import LevelVector, inner_product, norm
from .mlmc import GradientEstimate, MgoptSampleSets, mlmc_cost, mlmc_gradient
from .problems import ControlProblem

# Largest relative deviation of the coarse shifted gradient from the
# restricted fine one that the V-cycle accepts (the coherence identity).
COHERENCE_TOL = 1e-10

# Line searches: Armijo sufficient-decrease constant, the step divisor of
# the smoother's backtracking, and the most backtracks before giving up.
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 4.0
MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class SmoothingSchedule:
    """Pre/postsmoothing step counts ``nu[k]``/``mu[k]`` per optimization
    level k.  Level 0 has no coarse correction between the two, so it runs
    ``nu[0] + mu[0]`` smoother steps in one go.
    """

    nu: tuple
    mu: tuple

    def __post_init__(self):
        if len(self.nu) != len(self.mu):
            raise ValueError("nu and mu must cover the same levels")
        if any(x < 0 for x in self.nu + self.mu):
            raise ValueError("smoothing counts must be >= 0")

    @staticmethod
    def default(K: int) -> "SmoothingSchedule":
        """No presmoothing at level K, counts doubling toward the coarse end.

        Total smoothing work at level k is 2**(K-k) steps: one postsmoothing
        step at level K and nu = mu = 2**(K-1-k) below it, so level 0 runs
        2**K steps (one when K = 0).
        """
        nu = tuple(2 ** (K - 1 - k) if k < K else 0 for k in range(K + 1))
        return SmoothingSchedule(nu=nu, mu=nu[:K] + (1,))


class Evaluation(tuple):
    """A level objective's shifted (J, g) pair that also holds ``est``, the
    unshifted estimate it came from (None only for the affine pairs of
    :func:`ncg_smooth`'s ``explicit_gradients=False`` reference)."""

    def __new__(cls, J: float, g: LevelVector, est: GradientEstimate | None):
        pair = super().__new__(cls, (J, g))
        pair.est = est
        return pair


class LevelObjective:
    """Sampled shifted functional J_k = Jhat_k - <tau_k, .> at one level.

    Without ``tau`` the shift is zero: the top level's unshifted functional.
    Its estimates charge their samples to ``problem.ledger``.
    """

    def __init__(self, problem: ControlProblem, sets: MgoptSampleSets, k: int,
                 tau: LevelVector | None = None):
        self.problem = problem
        self.sets = sets
        self.k = k
        self.tau = problem.zero_control(k) if tau is None else tau

    def shifted(self, u: LevelVector, est: GradientEstimate) -> Evaluation:
        """The shifted pair at u from the level-k estimate ``est`` at u."""
        return Evaluation(est.cost_value - inner_product(self.tau, u),
                          est.value - self.tau, est)

    def evaluate(self, u: LevelVector) -> Evaluation:
        return self.shifted(u, mlmc_gradient(self.problem, u, self.sets))

    def cost(self, u: LevelVector) -> float:
        j = mlmc_cost(self.problem, u, self.sets)
        return j - inner_product(self.tau, u)


def dai_yuan_beta(g: LevelVector, g_prev: LevelVector, d_prev: LevelVector) -> float:
    denom = inner_product(d_prev, g - g_prev)
    if denom <= 0.0:
        return 0.0  # degenerate curvature: restart with steepest descent
    return inner_product(g, g) / denom


@dataclass
class SmootherResult:
    """The final point ``v``, the :class:`Evaluation` ``at`` it, the iterates."""

    v: LevelVector
    at: Evaluation
    iterates: list
    steps_taken: int


def ncg_smooth(objective: LevelObjective, v: LevelVector, steps: int, *,
               initial: Evaluation | None = None, gradient_tol: float = 0.0,
               explicit_gradients: bool = True,
               record_iterates: bool = False) -> SmootherResult:
    """Run NCG steps on the level objective from v.

    ``initial`` may carry an already-evaluated pair at v; without it the
    smoother evaluates v first.  The result's ``at`` is the pair at the
    final point, also after zero steps; ``iterates[0]`` records the start.

    Each step is :func:`_line_search_step` along the Dai-Yuan direction d,
    a cost-only probe at v + d and one gradient evaluation (1.5 gradient
    units) unless a fallback runs; a step with no Armijo point raises
    :class:`LineSearchFailure`.
    With ``explicit_gradients=False`` a quadratic objective takes the
    classical CG step instead: one gradient at v + d gives the exact step s,
    and the gradient at v + s d is the affine combination
    (1-s) g(v) + s g(v+d), a model-formed pair with no estimate, the only
    such pair.  The affine value and the evaluated one agree to solver
    accuracy.
    """
    at = objective.evaluate(v) if initial is None else initial
    iterates = [(v, *at)] if record_iterates else []
    d_prev = g_prev = None
    steps_taken = 0

    for _ in range(steps):
        J, g = at
        if norm(g) <= gradient_tol:
            break
        d = -g if d_prev is None else -g + dai_yuan_beta(g, g_prev, d_prev) * d_prev
        gd = inner_product(g, d)
        if gd >= 0.0:
            d = -g
            gd = inner_product(g, d)
        g_prev, d_prev = g, d

        if objective.problem.is_quadratic and not explicit_gradients:
            Jt, gt = trial = objective.evaluate(v + d)
            curv = inner_product(gt - g, d)
            if curv > 0.0:
                s = -gd / curv
                v = v + s * d
                at = Evaluation(J + s * gd + 0.5 * s * s * curv,
                                (1.0 - s) * g + s * gt, None)
            elif Jt < J:
                v, at = v + d, trial
            else:
                break
        else:
            v, at = _line_search_step(objective, v, at, d, gd)
        steps_taken += 1
        if record_iterates:
            iterates.append((v, *at))
    return SmootherResult(v, at, iterates, steps_taken)


def _stable(evaluate, point):
    """``evaluate(point)``, or None where it fails the stability check."""
    try:
        return evaluate(point)
    except StabilityViolation:
        return None


def _line_search_step(objective, v, at, d, gd):
    """Interpolation step with Armijo fallback.

    A cost-only probe Jt at v + d fixes the quadratic through J, <g,d> and
    Jt; its curvature 2 (Jt - J - <g,d>) gives the minimizer s* (Nocedal &
    Wright, 2006, sec. 3.5), where the pair is evaluated and accepted if it
    passes Armijo.  Otherwise the step falls back to s = 1 when Jt passes
    Armijo there, and to :func:`_backtrack` from 1/4.  On a
    positive-definite quadratic s* is the exact minimizer along d, which
    satisfies the Armijo condition.  A trial that fails the problem's
    stability check counts as rejected.
    """
    J = at[0]
    Jt = _stable(objective.cost, v + d)
    if Jt is not None:
        curv = 2.0 * (Jt - J - gd)
        if curv > 0.0:
            s_star = -gd / curv
            trial = _stable(objective.evaluate, v + s_star * d)
            if trial is not None and trial[0] <= J + ARMIJO_C * s_star * gd:
                return v + s_star * d, trial
        if Jt <= J + ARMIJO_C * gd:
            return v + d, objective.evaluate(v + d)

    found = _backtrack(objective, v, J, d, gd, 1.0 / BACKTRACK_FACTOR)
    if found is None:
        raise LineSearchFailure(
            f"no Armijo step after {MAX_BACKTRACKS} backtracks (gd={gd:.3e})"
        )
    return found[1:3]


def _backtrack(objective, v, J, d, gd, s):
    """Cost-only trials at s, s/4, s/16, ... along d from v, where the
    pair is J; returns ``(s, v + s d, evaluation, trials)`` at the first
    step that passes Armijo, or None after ``MAX_BACKTRACKS`` trials."""
    for b in range(1, MAX_BACKTRACKS + 1):
        Js = _stable(objective.cost, v + s * d)
        if Js is not None and Js <= J + ARMIJO_C * s * gd:
            return s, v + s * d, objective.evaluate(v + s * d), b
        s /= BACKTRACK_FACTOR
    return None


def coarse_correction_linesearch(objective: LevelObjective, v: LevelVector,
                                 d: LevelVector, at_v: Evaluation):
    """Armijo line search from s = 1 along the prolonged correction d.

    Returns ``(s, v_new, at_new, backtracks)`` with ``at_new`` the
    evaluation at ``v_new``.  A direction that is not one of descent,
    <g,d> >= 0 (the zero direction included), returns s = 0 and the
    incoming point with ``at_v`` unevaluated.  Otherwise the pair at v + d
    is kept if it passes Armijo, and failing that :func:`_backtrack` runs
    from 1/4; a search that finds no step returns s = 0.
    """
    J_v, g_v = at_v
    gd = inner_product(g_v, d)
    if gd >= 0.0:
        return 0.0, v, at_v, 0
    full = _stable(objective.evaluate, v + d)
    if full is not None and full[0] <= J_v + ARMIJO_C * gd:
        return 1.0, v + d, full, 0
    found = _backtrack(objective, v, J_v, d, gd, 1.0 / BACKTRACK_FACTOR)
    return found or (0.0, v, at_v, MAX_BACKTRACKS)


@dataclass
class VCycleReport:
    """The estimate ``entry`` a cycle starts from, the top level's
    :class:`Evaluation` ``end`` at the returned point, and the events."""

    entry: GradientEstimate
    end: Evaluation
    events: list


def vcycle(obj: LevelObjective, v: LevelVector, start: Evaluation,
           schedule: SmoothingSchedule, events: list):
    """One V-cycle at level ``obj.k`` from ``start``, the evaluation of
    ``obj`` at v; returns the last smoother's result at the exit point.

    The level-(k-1) estimate at restrict(v1) is the ``coarse`` one the
    presmoothed pair's estimate carries, taken afresh only where there is
    none: on non-nested sets, or below the top at a level that does not
    presmooth.  The child objective gets the tau-correction and the pair
    formed from that estimate for the coherence check, so no level
    evaluates its entry point.  Events are appended to ``events``.
    """
    k = obj.k
    steps = schedule.nu[k] if k > 0 else schedule.nu[0] + schedule.mu[0]
    pre = ncg_smooth(obj, v, steps, initial=start)
    post = pre
    if k > 0:
        problem, tau = obj.problem, obj.tau
        hier = problem.hierarchy
        v1, gJ1 = pre.v, pre.at[1]
        ghat1 = gJ1 + tau
        v_coarse = hier.restrict(v1)
        coarse = pre.at.est.coarse or mlmc_gradient(problem, v_coarse,
                                                     obj.sets)
        tau_coarse = hier.restrict(tau) + (coarse.value - hier.restrict(ghat1))
        child = LevelObjective(problem, obj.sets, k - 1, tau_coarse)
        coarse_start = child.shifted(v_coarse, coarse)

        dev = norm(coarse_start[1] - hier.restrict(gJ1)) / (1.0 + norm(gJ1))
        events.append({"level": k, "kind": "coherence", "value": dev})
        if dev > COHERENCE_TOL:
            raise CoherenceViolation(
                f"coarse gradient deviates from the restricted fine gradient: "
                f"{dev:.3e} > {COHERENCE_TOL:.1e} at level {k}"
            )

        v_coarse_new = vcycle(child, v_coarse, coarse_start, schedule, events).v
        d = hier.prolong(v_coarse_new - v_coarse)

        s, v2, at2, backtracks = coarse_correction_linesearch(obj, v1, d, pre.at)
        events.append({
            "level": k, "kind": "linesearch", "s": s, "backtracks": backtracks,
            "direction_inner": inner_product(gJ1, d),
            "coarse_J_before": coarse_start[0],
        })
        post = ncg_smooth(obj, v2, schedule.mu[k], initial=at2)

    events.append({
        "level": k, "kind": "summary",
        "start": (start[0], norm(start[1])),
        "end": (post.at[0], norm(post.at[1])),
    })
    return post


def run_vcycle(problem: ControlProblem, v: LevelVector, sets: MgoptSampleSets,
               schedule: SmoothingSchedule, *,
               entry: GradientEstimate | None = None) -> tuple:
    """One V-cycle from the top level K = v.level; returns (v', VCycleReport).

    The sample sets stay fixed throughout, and the cycle's sample
    evaluations are charged to ``problem.ledger``.  ``entry`` is the level-K
    estimate at v on ``sets``; only a caller that holds none leaves it to
    be taken here; it travels with the top level's start pair, and the
    report's ``entry`` is it either way.  The report's ``end`` is the
    top level's evaluation at the returned point.
    """
    K = v.level
    if K > sets.K:
        raise LevelMismatch(f"sample sets end at level {sets.K}, iterate on {K}")
    if len(schedule.nu) < K + 1:
        raise LevelMismatch("schedule does not cover the requested levels")
    obj = LevelObjective(problem, sets, K)
    if entry is None:
        entry = mlmc_gradient(problem, v, sets)
    events: list = []
    end = vcycle(obj, v, obj.shifted(v, entry), schedule, events)
    return end.v, VCycleReport(entry, end.at, events)
