"""Multilevel Monte Carlo estimation of cost and gradient.

The estimator at optimization level k telescopes over discretization
levels 0..k: the level-0 term is a plain MC average, each level l >= 1
contributes the average of coupled differences

    Y_l(omega) = Q_l(u_l, omega) - P Q_{l-1}(u_{l-1}, omega),

where both members share the stochastic realization omega, u_l are the
successive restrictions of the input control, and P is prolongation.  The
deterministic regularization gradient alpha*u passes through the telescoping
unchanged, so it is added once at the output level.  The matching cost
estimate is accumulated from the same samples, which makes the returned
gradient the exact gradient of the returned cost functional.

Sample counts per level follow the variance-optimal allocation

    n_l = ceil( 1/(theta eps^2) * sqrt(V_l / C_l) * sum_i sqrt(V_i C_i) ),

and coarser optimization levels retain a fraction q^(K-k) of the samples.

All estimators (gradient, cost, warm-up statistics, state moments) evaluate
their samples through one sweep.  The uncached samples of an estimate (a
field on the lowest level, a (fine, coarse) pair on each level above) go
to one call of the problem's batch methods with the controls u_l of every
level, so a level-k estimate makes one batch call instead of one per grid
(k+1).  Warm-up results cached for the same control are reused, and with
``problem.workers > 1``, the problem's thread count for one estimate's
samples, contiguous chunks of whole samples run on a thread pool.  Running
sums are still accumulated sample by sample in stream order, so the
estimates do not depend on batch size or ``problem.workers``.  The sweep
charges its fresh samples to ``problem.ledger``, so the cost of an
estimate, V-cycle or run is the slice of the ledger it appended.

Every per-level reduction (gradient, warm-up statistics, state moments)
goes through one accumulator.  Means come from plain running sums; V_l
and the state variance come from running sums of the samples shifted by
the level's first sample, so no sample is stored and the variance is
exactly zero where all samples agree.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples, InvalidQ, LevelMismatch
from .grids import LevelVector, norm
from .problems import ControlProblem
from .random_fields import RngStream

# Purposes carving up the stream id space; combined with the cycle index
# they keep optimization, confirmation and state sample sets disjoint.
# The values are part of every stream key, so they stay as they are.
PURPOSE_OPT = 0
PURPOSE_CONFIRM = 2
PURPOSE_STATE = 3
PURPOSE_USER = 4

# Cycle indices a set id can hold; the drivers' cycle budgets stay below it.
MAX_CYCLES = 1 << 13


def make_set_id(cycle: int, purpose: int) -> int:
    if not 0 <= purpose < 8:
        raise ValueError("purpose outside [0, 8)")
    if not 0 <= cycle < MAX_CYCLES:
        raise ValueError(f"cycle outside [0, {MAX_CYCLES})")
    return (cycle << 3) | purpose


def equivalent_fine_solves(events, finest_level: int, kappa: float) -> float:
    """Total cost in units of one finest-level sample evaluation.

    ``events`` are ``(level, n, weight)`` triples, any slice of a
    problem's ``ledger``: n solves on grid l, weighing 1 for a gradient
    sample and 0.5 for a cost-only or state one, at ``2**(kappa*(l - L))``
    fine-solve units each.  Both members of a pair are charged, so a
    level-l sample (l >= 1) costs ``(1 + 2**-kappa) * 2**(kappa*l)`` level-0
    solves, where :func:`optimal_allocation` prices it at ``C[l]``, the
    fine member's ``2**(kappa*l)``.
    """
    total = 0.0
    for level, n, weight in events:
        total += weight * n * 2.0 ** (kappa * (level - finest_level))
    return total


@dataclass(frozen=True)
class LevelStats:
    """Per-level variance/cost estimates and fitted decay rates.

    The levels are 0..len(V)-1.  ``V[l]`` integrates the pointwise sample
    variance of Y_l over the domain; ``C[l]`` is the per-sample cost in
    relative units 2**(kappa*l).
    ``n_used[l]`` counts the samples behind this estimate's own ``V[l]``;
    it is zero where ``V[l]`` is extrapolated or was refreshed from other
    statistics.  ``phi``/``kappa``/``rho`` are fitted decay exponents
    (variance, cost, bias); a rate is None when not measurable.
    """

    V: np.ndarray
    C: np.ndarray
    n_used: np.ndarray
    mean_norms: np.ndarray
    phi: float | None = None
    kappa: float | None = None
    rho: float | None = None

    @property
    def levels(self) -> tuple:
        return tuple(range(len(self.V)))


@dataclass(frozen=True)
class MgoptSampleSets:
    """Sample sets Omega_{l,k} for every optimization level k <= K.

    Level k uses MLMC levels 0..k with counts ceil(q**(K-k) * n_l), clamped
    to at least one sample, so ``counts[K]`` is the allocation n itself.
    Streams for different MLMC levels l never coincide (the level enters
    the stream key); when ``nested`` the sets of level k are prefixes of
    those of level k+1.
    """

    counts: tuple  # counts[k][l], l <= k
    nested: bool
    global_seed: int
    set_id: int

    @property
    def K(self) -> int:
        return len(self.counts) - 1

    def count(self, k: int, level: int) -> int:
        return self.counts[k][level]

    @staticmethod
    def stream_set_id(set_id: int, nested: bool, k: int) -> int:
        return (set_id << 8) | (0 if nested else k + 1)

    def streams(self, k: int, level: int) -> list:
        sid = self.stream_set_id(self.set_id, self.nested, k)
        return [
            RngStream(self.global_seed, sid, level, i)
            for i in range(self.count(k, level))
        ]


def build_sample_sets(n: tuple, q: float, nested: bool, global_seed: int,
                      set_id: int) -> MgoptSampleSets:
    """Scale the allocation n (levels 0..K, K = len(n) - 1) down the
    optimization hierarchy."""
    if not 0.0 < q < 0.5:
        raise InvalidQ(f"q={q} outside (0, 1/2)")
    K = len(n) - 1
    counts = tuple(
        tuple(max(1, math.ceil(q ** (K - k) * n[level] - 1e-9))
              for level in range(k + 1))
        for k in range(K + 1))
    return MgoptSampleSets(counts=counts, nested=nested,
                           global_seed=global_seed, set_id=set_id)


def optimal_allocation(stats: LevelStats, eps: float, theta: float,
                       floor=None) -> tuple:
    """The variance-optimal sample counts n, one per level, rounded up.

    Levels with zero variance are clamped to one sample so their bias
    correction still enters the telescoped estimate.  ``floor`` raises the
    count per level, typically to the warm-up count so that warm-up samples
    are never discarded.  A level whose variance is NaN (measured from
    fewer than two samples) raises :class:`InsufficientSamples`.

    A level-l sample is priced at ``stats.C[l] = 2**(kappa*l)``, its fine
    member alone; the ledger charges both members, ``(1 + 2**-kappa)`` times
    that for l >= 1 (x1.25 at kappa = 2, x1.5 at kappa = 1).
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must be in (0, 1]")
    V = np.asarray(stats.V, dtype=float)
    C = np.asarray(stats.C, dtype=float)
    if np.isnan(V).any():
        level = int(np.argmax(np.isnan(V)))
        raise InsufficientSamples(f"level {level} has no variance (< 2 samples)")
    s = float(np.sum(np.sqrt(V * C)))
    n = []
    for level, (v, c) in enumerate(zip(V, C)):
        if v <= 0.0 or s == 0.0:
            n_l = 1
        else:
            n_l = max(1, math.ceil(np.sqrt(v / c) * s / (theta * eps**2) - 1e-9))
        if floor is not None:
            n_l = max(n_l, int(floor[level]))
        n.append(n_l)
    return tuple(n)


def _restriction_chain(problem: ControlProblem, u_k: LevelVector) -> dict:
    u_at = {u_k.level: u_k}
    for level in range(u_k.level - 1, -1, -1):
        u_at[level] = problem.hierarchy.restrict(u_at[level + 1])
    return u_at


def _in_chunks(evaluate, units: list, workers: int):
    """Results of ``evaluate(units)``, in order.

    ``workers`` is the estimate's thread count, ``problem.workers``.  With
    ``workers > 1`` the units are split into contiguous chunks, one per
    worker, evaluated on a thread pool and concatenated in order, so
    results do not depend on ``workers``.
    """
    if not units:
        return iter(())
    if workers <= 1:
        return iter(evaluate(units))
    size = math.ceil(len(units) / workers)
    chunks = [units[j:j + size] for j in range(0, len(units), size)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(lambda chunk: list(evaluate(chunk)), chunks))
    return itertools.chain.from_iterable(parts)


def _grid_sweep(problem, u_at, streams, evaluate, combine, *, cached=None,
                weight=1.0):
    """Per-sample values of every level's streams, one batch per estimate.

    ``streams`` maps the contiguous levels lo..top to their streams.  A
    unit is one sample: on level lo one field, on a level l > lo a pair,
    its fine member on grid l followed by its coarse member on grid l-1.
    The uncached units, level by level from the top and in stream order,
    go to one ``evaluate(u_at, fields)`` call, split over
    ``problem.workers`` threads: each thread gets one contiguous chunk of
    whole units, so a pair never straddles two threads.  Fields are drawn
    lazily as the batch takes them, and worker threads draw disjoint
    streams, so no two of them look up the same bank key.

    Yields ``(level, index, combine(fine, coarse))``, coarse None on level
    lo, level by level from the top and in stream order within a level.
    Indices found in ``cached`` ((level, index) -> value) are yielded from
    it, and neither member of their pair is evaluated.  No other code
    charges samples: before any unit is evaluated, a level's n > 0 uncached
    units append ``(grid, n, weight)`` to ``problem.ledger`` for each
    member's grid, so a failed estimate costs what a successful one does.
    """
    cached = cached or {}
    lo, top = min(streams), max(streams)
    levels = range(top, lo - 1, -1)
    units = [(level, i) for level in levels for i in range(len(streams[level]))
             if (level, i) not in cached]
    # each fresh unit solved at its level and, above level lo, one below
    fresh = Counter(level for level, _ in units)
    for level in reversed(levels):
        if fresh[level]:
            problem.ledger.append((level, fresh[level], weight))
            if level > lo:
                problem.ledger.append((level - 1, fresh[level], weight))

    def fields(chunk):
        for level, i in chunk:
            if level == lo:
                yield problem.field(streams[level][i], level)
            else:
                yield from problem.field_pair(streams[level][i], level)

    results = _in_chunks(lambda chunk: evaluate(u_at, fields(chunk)), units,
                         problem.workers)
    for level in levels:
        for i in range(len(streams[level])):
            if (level, i) in cached:
                yield level, i, cached[(level, i)]
            else:
                fine = next(results)
                yield level, i, combine(fine, None if level == lo else next(results))


class _LevelSums:
    """Running sums of one level's samples, added in stream order.

    ``sum_y`` and ``sum_jt`` are plain sums of the samples and of their
    tracking-cost differences, so means do not depend on how the variance
    is formed.  The variance uses the sums of ``y - y_first``: no sample is
    stored, the shift keeps ``sum d^2 - (sum d)^2 / n`` from cancelling
    when the spread is small against the mean, and nodes where every
    sample agrees get exactly zero.
    """

    def __init__(self):
        self.n = 0
        self.sum_jt = 0.0
        self.sum_y = None
        self._first = self._sum_d = self._sum_d2 = None

    def add(self, y: np.ndarray, jt: float = 0.0) -> None:
        if self.n == 0:
            self._first = y.copy()
            self.sum_y = np.zeros_like(y)
            self._sum_d = np.zeros_like(y)
            self._sum_d2 = np.zeros_like(y)
        self.sum_y += y
        d = y - self._first
        self._sum_d += d
        d *= d
        self._sum_d2 += d
        self.sum_jt += jt
        self.n += 1

    def mean(self) -> np.ndarray:
        return self.sum_y / self.n

    def var(self) -> np.ndarray:
        """Unbiased per-node sample variance; zero below two samples."""
        n = self.n
        if n < 2:
            return np.zeros_like(self.sum_y)
        return np.maximum((self._sum_d2 - self._sum_d**2 / n) / (n - 1), 0.0)

    def level_variance(self, h: float) -> float:
        """V_l: the per-node variance integrated with weight h**dim; NaN
        below two samples, where no variance is measurable."""
        if self.n < 2:
            return np.nan
        return h ** self.sum_y.ndim * float(np.sum(self.var()))


def _level_summary(problem: ControlProblem, level_sums, n_levels: int):
    """``(V, n_used, mean_norms)`` over levels 0..n_levels-1 from the sums
    of the sampled levels 0..len(level_sums)-1; the other levels read 0."""
    hier = problem.hierarchy
    V = np.zeros(n_levels)
    n_used = np.zeros(n_levels, dtype=int)
    mean_norms = np.zeros(n_levels)
    for level, sums in enumerate(level_sums):
        V[level] = sums.level_variance(hier.h(level))
        n_used[level] = sums.n
        mean_norms[level] = norm(hier.vector(level, sums.mean(), problem.control_role))
    return V, n_used, mean_norms


def _telescope(problem: ControlProblem, u: LevelVector, parts):
    """Gradient and matched cost at u from per-level ``(sum_y, sum_jt, n)``,
    levels 0..level(u) in order: the level means are prolonged and added
    up the hierarchy, then the regularization is added once."""
    hier = problem.hierarchy
    acc = None
    cost_track = 0.0
    for level, (sum_y, sum_jt, n) in enumerate(parts):
        mv = hier.vector(level, sum_y / n, problem.control_role)
        cost_track += sum_jt / n
        acc = mv if acc is None else hier.prolong(acc) + mv
    return acc + problem.alpha * u, cost_track + problem.regularization(u)


def _gradient_sweep(problem: ControlProblem, u_at, streams, **options):
    """:func:`_grid_sweep` of the (tracking-cost difference, Y_l values) of
    each sample, from its members' (T, Q) results."""
    prolong = problem.hierarchy.prolong

    def combine(fine, coarse):
        if coarse is None:
            return fine[0], fine[1].values
        return fine[0] - coarse[0], (fine[1] - prolong(coarse[1])).values

    return _grid_sweep(problem, u_at, streams, problem.tracking_cost_grad_batch,
                       combine, **options)


def state_moments(problem: ControlProblem, u: LevelVector, streams):
    """Per-node mean and unbiased variance of the full-grid states at
    control u, one per stream's field on u's level; each state is a
    forward solve, charged at weight 0.5."""
    sums = _LevelSums()
    for _, _, state in _grid_sweep(
            problem, {u.level: u}, {u.level: streams}, problem.state_batch,
            lambda fine, coarse: fine, weight=0.5):
        sums.add(state)
    return sums.mean(), sums.var()


@dataclass(frozen=True)
class GradientEstimate:
    """MLMC gradient at an optimization level with its matched cost.

    ``coarse`` is the level-(k-1) estimate at the restricted control that
    a nested level-k estimate (k >= 1) carries; otherwise it is None.
    """

    value: LevelVector
    cost_value: float
    stats: LevelStats
    coarse: GradientEstimate | None = None

    @property
    def gradient_norm(self) -> float:
        return norm(self.value)


def mlmc_gradient(problem: ControlProblem, u: LevelVector,
                  sets: MgoptSampleSets, *,
                  sample_cache: dict | None = None) -> GradientEstimate:
    """Estimate cost and gradient at the optimization level k = u.level.

    On nested sets with k >= 1 the level-(k-1) sets are prefixes of the
    level-k ones, so running-sum snapshots after ``sets.count(k-1, l)``
    samples of each level l < k give the level-(k-1) estimate at the
    restricted control without further solves (``coarse``).  Any failed
    sample propagates; nothing is silently dropped or resampled.  A
    control above ``sets.K`` raises :class:`LevelMismatch`.

    ``sample_cache`` maps (level, index) to already-computed sample values
    for the *same* control; cached samples are reused without solves or
    charges to ``problem.ledger``.  Callers must only pass caches collected
    at u.
    """
    k = u.level
    if k > sets.K:
        raise LevelMismatch(f"sample sets end at level {sets.K}, control on {k}")
    u_at = _restriction_chain(problem, u)
    streams = {level: sets.streams(k, level) for level in range(k + 1)}
    nested = sets.nested and k >= 1
    snaps = {level: sets.count(k - 1, level) for level in range(k)} if nested else {}

    level_sums = [_LevelSums() for _ in range(k + 1)]
    prefix: list = [None] * len(snaps)
    for level, _, (jt, yv) in _gradient_sweep(
            problem, u_at, streams, cached=sample_cache):
        sums = level_sums[level]
        sums.add(yv, jt)
        if sums.n == snaps.get(level):
            prefix[level] = (sums.sum_y.copy(), sums.sum_jt, sums.n)

    grad, cost = _telescope(problem, u,
                            [(s.sum_y, s.sum_jt, s.n) for s in level_sums])
    kappa = problem.kappa_default
    V, n_used, mean_norms = _level_summary(problem, level_sums, k + 1)
    stats = LevelStats(V=V, C=2.0 ** (kappa * np.arange(k + 1)),
                       n_used=n_used, mean_norms=mean_norms, kappa=kappa)
    coarse = (subestimate_from_prefix(problem, u_at[k - 1], prefix, stats)
              if nested else None)
    return GradientEstimate(value=grad, cost_value=cost, stats=stats,
                            coarse=coarse)


def subestimate_from_prefix(problem: ControlProblem, u_km1: LevelVector,
                            parts, stats: LevelStats) -> GradientEstimate:
    """The level-(k-1) estimate at u_km1 from the ``(sum_y, sum_jt, n)``
    snapshots of a nested level-k estimate's first n samples per level.

    Valid because nested sets make Omega_{l,k-1} the prefix of Omega_{l,k}
    and the control restrictions compose; zero additional solves are spent.
    """
    grad, cost = _telescope(problem, u_km1, parts)
    return GradientEstimate(value=grad, cost_value=cost, stats=stats)


def mlmc_cost(problem: ControlProblem, u: LevelVector,
              sets: MgoptSampleSets) -> float:
    """Cost-only MLMC estimate at level u.level from the same sample sets
    (forward solves); a control above ``sets.K`` raises LevelMismatch."""
    k = u.level
    if k > sets.K:
        raise LevelMismatch(f"sample sets end at level {sets.K}, control on {k}")
    u_at = _restriction_chain(problem, u)
    streams = {level: sets.streams(k, level) for level in range(k + 1)}
    sums = [0.0] * (k + 1)
    for level, _, jt in _grid_sweep(
            problem, u_at, streams, problem.tracking_cost_batch,
            lambda fine, coarse: fine if coarse is None else fine - coarse,
            weight=0.5):
        sums[level] += jt
    total = 0.0
    for level in range(k + 1):
        total += sums[level] / len(streams[level])
    return total + problem.regularization(u)


def _decay_rate(levels, values):
    """Rate r of values ~ 2**(-r*level), from the least-squares slope of
    log2(values) over the positive ones; None below two positive values or
    when they do not decay."""
    levels = np.asarray(levels, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > 0
    if keep.sum() < 2:
        return None
    slope = float(np.polyfit(levels[keep], np.log2(values[keep]), 1)[0])
    return -slope if slope < 0 else None


def estimate_level_stats(problem: ControlProblem, u: LevelVector,
                         warmup_n: int, *,
                         global_seed: int, set_id: int,
                         extrapolate_finest: int = 2,
                         collect: dict | None = None) -> LevelStats:
    """Warm-up variance estimation on levels 0..u.level, with
    extrapolation on the finest levels.

    The last ``extrapolate_finest`` levels are not sampled: their
    variance follows the fitted decay of the measured ones (at least two
    levels stay measured; the rate 2 is used when no decay can be fitted).

    Sample i of a level uses ``RngStream(global_seed, set_id, level, i)``,
    so warm-up samples can share the streams of a subsequent estimator.
    When ``collect`` is a dict, the per-sample values are stored under
    ``(level, index)`` for reuse as a sample cache at the same control.
    """
    if warmup_n < 2:
        raise InsufficientSamples("need at least 2 warm-up samples per level")
    levels = tuple(range(u.level + 1))
    u_at = _restriction_chain(problem, u)
    n_extrapolated = min(max(extrapolate_finest, 0), max(len(levels) - 2, 0))
    measured = levels[: len(levels) - n_extrapolated]

    streams = {level: [RngStream(global_seed, set_id, level, i)
                       for i in range(warmup_n)] for level in measured}
    level_sums = [_LevelSums() for _ in measured]
    for level, i, (jt, yv) in _gradient_sweep(problem, u_at, streams):
        level_sums[level].add(yv, jt)
        if collect is not None:
            collect[(level, i)] = (jt, yv)
    V, n_used, mean_norms = _level_summary(problem, level_sums, len(levels))

    fit_levels = [l for l in measured if l >= 1]
    phi = _decay_rate(fit_levels, V[fit_levels])
    rate = phi if phi is not None else 2.0
    last = measured[-1]
    for level in levels[len(measured):]:
        V[level] = V[last] * 2.0 ** (-rate * (level - last))

    kappa = problem.kappa_default
    C = 2.0 ** (kappa * np.asarray(levels, dtype=float))
    rho = _decay_rate(fit_levels, mean_norms[fit_levels])
    return LevelStats(V=V, C=C, n_used=n_used, mean_norms=mean_norms,
                      phi=phi, kappa=kappa, rho=rho)


def refresh_level_stats(stats: LevelStats, sample_stats: LevelStats) -> LevelStats:
    """``stats`` with ``V`` taken from ``sample_stats`` on the levels that
    ``stats`` holds no samples for (``n_used == 0``, the extrapolated ones).

    ``sample_stats`` usually comes from a gradient estimate's own samples
    and must cover those levels; a level it measured with fewer than two
    samples (NaN variance) keeps the old value.  ``n_used`` is unchanged,
    so it still tells which levels the refresh may replace.
    """
    V = np.asarray(stats.V, dtype=float).copy()
    for level in np.flatnonzero(np.asarray(stats.n_used) == 0):
        v_new = sample_stats.V[level]
        if np.isfinite(v_new) and sample_stats.n_used[level] >= 2:
            V[level] = v_new
    return dataclasses.replace(stats, V=V)

