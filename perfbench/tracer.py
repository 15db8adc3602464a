"""Outside-in tracer for one ``mgmlmc run`` process.

The tracer replaces selected public functions and methods of the
``mgmlmc`` modules with timing wrappers, from outside the package: no file
under ``src/`` knows about it.  :meth:`Tracer.install` patches every module
attribute that refers to a wrapped function (``driver`` imports
``run_vcycle`` by name, so patching ``mgopt`` alone would miss it), and
:meth:`Tracer.uninstall` puts the originals back.

Three kinds of wrapper, by how coarse the boundary is:

* ``span``: coarse boundaries (command, driver, cycle, V-cycle level,
  smoother, estimator call).  Each call records a span with its name,
  start, end and parent, kept in memory and written out at the end.
* ``timed``: fine boundaries called thousands of times (field draws,
  operator assembly, factorizations, solves, grid transfers, per-sample
  problem calls).  They aggregate count and time and charge their time to
  the enclosing call, so self times stay exact, but record no span.
* ``count``: the MacCormack time steps, called hundreds of thousands of
  times inside one layer; only counted.

A layer is the module that defines the wrapped function.  Its self time is
the time inside its wrapped calls minus the time of wrapped calls nested
in them.  Spans for level batches and single MLMC samples are built from
the ``problem.field``/``field_pair``/``tracking_cost*`` calls made inside an
estimator call.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

import scipy.sparse.linalg as spla

MARK = "__perfbench_wrapped__"
ESTIMATORS = ("mlmc.mlmc_gradient", "mlmc.mlmc_cost", "mlmc.estimate_level_stats")
DRIVERS = ("driver.robust_optimize", "driver.baseline_optimize")

# (module, attribute path, kind); a dotted path names a method.
TARGETS = (
    ("cli", "cmd_run", "span"),
    ("driver", "robust_optimize", "span"),
    ("driver", "baseline_optimize", "span"),
    ("driver", "state_statistics", "span"),
    ("mgopt", "run_vcycle", "span"),
    ("mgopt", "vcycle", "span"),
    ("mgopt", "ncg_smooth", "span"),
    ("mgopt", "coarse_correction_linesearch", "span"),
    ("mlmc", "mlmc_gradient", "span"),
    ("mlmc", "mlmc_cost", "span"),
    ("mlmc", "estimate_level_stats", "span"),
    ("mlmc", "subestimate_from_prefix", "timed"),
    ("mlmc", "optimal_allocation", "timed"),
    ("mlmc", "build_sample_sets", "timed"),
    ("mlmc", "refresh_level_stats", "timed"),
    ("problems", "ControlProblem.field", "timed"),
    ("problems", "ControlProblem.field_pair", "timed"),
    ("random_fields", "FieldSampler.sample", "timed"),
    ("random_fields", "build_embedding", "timed"),
    ("grids", "GridHierarchy.prolong", "timed"),
    ("grids", "GridHierarchy.restrict", "timed"),
    ("elliptic", "LaplaceSourceControl.tracking_cost", "timed"),
    ("elliptic", "LaplaceSourceControl.tracking_cost_grad", "timed"),
    ("elliptic", "LaplaceSourceControl.state", "timed"),
    ("elliptic", "DiffusionOperator.__init__", "timed"),
    ("elliptic", "DiffusionOperator.solve", "timed"),
    ("burgers", "BurgersInitialControl.tracking_cost", "timed"),
    ("burgers", "BurgersInitialControl.tracking_cost_grad", "timed"),
    ("burgers", "BurgersInitialControl.state", "timed"),
    ("burgers", "maccormack_step", "count"),
    ("burgers", "maccormack_step_adjoint", "count"),
    ("burgers", "maccormack_predictor", "count"),
)


class _Frame:
    __slots__ = ("span_id", "child")

    def __init__(self, span_id):
        self.span_id = span_id
        self.child = 0.0


class Tracer:
    """Wrappers, spans and per-name aggregates of one traced process."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, attrs]
        self.count = Counter()
        self.total = defaultdict(float)  # wall seconds per wrapped name
        self.self_s = defaultdict(float)  # self seconds per (region, layer)
        self.seed_ids = set()
        self.operator_keys = set()
        self.smoother_steps = 0
        self.backtracks = 0
        self.samples = defaultdict(lambda: [0, 0.0])  # (kind, level) -> [n, s]
        self.region = "setup"
        self._stack = [_Frame(None)]
        self._patched = []  # (owner, attribute, original)
        self._sample = None  # [estimator span id, level, kind, start, end, seconds]
        self._batch = None  # [span record, estimator span id, level]

    # -- spans ---------------------------------------------------------------

    def _open_span(self, name):
        parent = self._current_span()
        record = [len(self.spans), parent, name, time.perf_counter(), None, {}]
        self.spans.append(record)
        self._stack.append(_Frame(record[0]))
        return record

    def _current_span(self):
        for frame in reversed(self._stack):
            if frame.span_id is not None:
                return frame.span_id
        return None

    def _close(self, layer, name, t0, t1):
        frame = self._stack.pop()
        dur = t1 - t0
        self._stack[-1].child += dur
        self.self_s[(self.region, layer)] += dur - frame.child
        self.total[name] += dur
        self.count[name] += 1

    @contextlib.contextmanager
    def region_span(self, name):
        """Root span (``setup`` or ``run``) whose layer self times add up apart."""
        self.region = name
        record = self._open_span(name)
        try:
            yield record
        finally:
            t1 = time.perf_counter()
            self._flush_sample()
            record[4] = t1
            self._close("root", name, record[3], t1)

    # -- MLMC samples ----------------------------------------------------------

    def _estimator_span(self):
        sid = self._current_span()
        if sid is not None and self.spans[sid][2] in ESTIMATORS:
            return sid
        return None

    def _start_sample(self, level, t0, t1):
        self._flush_sample()
        est = self._estimator_span()
        if est is not None:
            self._sample = [est, level, None, t0, t1, t1 - t0]

    def _extend_sample(self, kind, t0, t1):
        s = self._sample
        if s is not None and s[0] == self._current_span():
            s[2] = s[2] or kind
            s[4] = t1
            s[5] += t1 - t0

    def _flush_sample(self):
        s, self._sample = self._sample, None
        if s is None or s[2] is None:
            return
        est, level, kind, start, end, seconds = s
        cell = self.samples[(kind, level)]
        cell[0] += 1
        cell[1] += seconds
        b = self._batch
        if b is None or b[1] != est or b[2] != level:
            record = [len(self.spans), est, "batch", start, end, {"level": level}]
            self.spans.append(record)
            self._batch = b = [record, est, level]
        b[0][4] = end
        self.spans.append([len(self.spans), b[0][0], "sample", start, end,
                           {"level": level, "kind": kind}])

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, layer, name, fn, kind):
        tracer = self
        clock = time.perf_counter

        if kind == "count":
            count = self.count

            def counted(*args, **kwargs):
                count[name] += 1
                return fn(*args, **kwargs)

            setattr(counted, MARK, True)
            return counted

        after = _AFTER.get(name)
        if kind == "timed":

            def timed(*args, **kwargs):
                tracer._stack.append(_Frame(None))
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    tracer._close(layer, name, t0, t1)
                if after is not None:
                    after(tracer, args, result, t0, t1)
                return result

            setattr(timed, MARK, True)
            return timed

        def spanned(*args, **kwargs):
            record = tracer._open_span(name)
            if name in DRIVERS and kwargs.get("row_sink") is not None:
                kwargs["row_sink"] = tracer._cycle_sink(kwargs["row_sink"], record)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if name in ESTIMATORS:
                    tracer._flush_sample()
                record[4] = t1
                tracer._close(layer, name, record[3], t1)
            if after is not None:
                after(tracer, args, result, record[3], t1)
            return result

        setattr(spanned, MARK, True)
        return spanned

    def _cycle_sink(self, sink, driver_span):
        """Row sink that closes a ``cycle`` span at each report row."""
        tracer = self
        last = [driver_span[3]]

        def row_sink(row):
            now = time.perf_counter()
            tracer.spans.append([len(tracer.spans), driver_span[0], "cycle",
                                 last[0], now, {"i": row.i, "time": row.time}])
            tracer.count["driver.cycles"] += 1
            tracer.total["driver.cycle_s"] += row.time
            last[0] = now
            return sink(row)

        return row_sink

    # -- install / uninstall -----------------------------------------------------

    def install(self):
        import mgmlmc.cli  # noqa: F401  (loads every module of the package)

        modules = {n: m for n, m in sys.modules.items()
                   if n == "mgmlmc" or n.startswith("mgmlmc.")}
        for mod_name, path, kind in TARGETS:
            module = modules[f"mgmlmc.{mod_name}"]
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, original,
                          self._wrap(mod_name, name, original, kind))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(mod_name, name, original, kind)
            for other in modules.values():
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, attr, original, wrapper)
        self._set(spla, "splu", spla.splu,
                  self._wrap("elliptic", "elliptic.splu", spla.splu, "timed"))
        return self

    def _set(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @staticmethod
    def leftover_wrappers():
        """Names of wrappers still reachable from mgmlmc or scipy after uninstall."""
        found = []
        owners = [m for n, m in sys.modules.items()
                  if n == "mgmlmc" or n.startswith("mgmlmc.")]
        owners += [v for m in list(owners) for v in vars(m).values()
                   if isinstance(v, type)]
        owners.append(spla)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if getattr(value, MARK, False):
                    found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return found

    # -- output ----------------------------------------------------------------

    def finished_spans(self):
        """Spans with cycle spans adopting the driver children they enclose."""
        cycles = [s for s in self.spans if s[2] == "cycle"]
        for s in self.spans:
            if s[2] == "cycle":
                continue
            for c in cycles:
                if s[1] == c[1] and c[3] <= s[3] and s[4] is not None and s[4] <= c[4]:
                    s[1] = c[0]
                    break
        return self.spans


def _after_sample_draw(tracer, args, result, t0, t1):
    tracer.seed_ids.add(args[1].seed_id)


def _after_field(tracer, args, result, t0, t1):
    tracer._start_sample(args[2], t0, t1)


def _after_tracking(kind, elliptic):
    def after(tracer, args, result, t0, t1):
        if elliptic:
            _after_operator_use(tracer, args, result, t0, t1)
        tracer._extend_sample(kind, t0, t1)
    return after


def _after_operator_use(tracer, args, result, t0, t1):
    field = args[2]
    tracer.operator_keys.add((field.level, field.seed_id))


def _after_smoother(tracer, args, result, t0, t1):
    tracer.smoother_steps += result.steps_taken


def _after_linesearch(tracer, args, result, t0, t1):
    tracer.backtracks += result[3]


_AFTER = {
    "random_fields.FieldSampler.sample": _after_sample_draw,
    "problems.ControlProblem.field": _after_field,
    "problems.ControlProblem.field_pair": _after_field,
    "elliptic.LaplaceSourceControl.tracking_cost_grad": _after_tracking("grad", True),
    "elliptic.LaplaceSourceControl.tracking_cost": _after_tracking("cost", True),
    "elliptic.LaplaceSourceControl.state": _after_operator_use,
    "burgers.BurgersInitialControl.tracking_cost_grad": _after_tracking("grad", False),
    "burgers.BurgersInitialControl.tracking_cost": _after_tracking("cost", False),
    "mgopt.ncg_smooth": _after_smoother,
    "mgopt.coarse_correction_linesearch": _after_linesearch,
}


# Layers named in the benchmark; the rest of the run's time is the remainder.
LAYERS = ("random_fields", "elliptic", "burgers", "grids", "mlmc", "mgopt",
          "driver", "cli")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, run_span, problem, K: int) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``.

    Self times are those of the ``run`` region; counts and call times cover
    the process, whose set-up calls only ``build_embedding``.  A ratio whose
    base is zero (a layer that does not run on the workload) reads 0.
    """
    c, t = tracer.count, tracer.total
    self_s = {layer: tracer.self_s[("run", layer)] for layer in LAYERS}
    wall = run_span[4] - run_span[3]
    m = {}
    draws = c["random_fields.FieldSampler.sample"]
    m["random_fields.draws"] = (draws, "count")
    m["random_fields.distinct"] = (len(tracer.seed_ids), "count")
    m["random_fields.redraw_ratio"] = (_ratio(draws, len(tracer.seed_ids)), "ratio")
    m["random_fields.draw_s"] = (t["random_fields.FieldSampler.sample"], "s")
    m["random_fields.embedding_s"] = (t["random_fields.build_embedding"], "s")
    m["random_fields.self_s"] = (self_s["random_fields"], "s")

    ops = c["elliptic.DiffusionOperator.__init__"]
    m["elliptic.operators"] = (ops, "count")
    m["elliptic.assembly_s"] = (t["elliptic.DiffusionOperator.__init__"], "s")
    m["elliptic.factorizations"] = (c["elliptic.splu"], "count")
    m["elliptic.factor_s"] = (t["elliptic.splu"], "s")
    m["elliptic.solves"] = (c["elliptic.DiffusionOperator.solve"], "count")
    m["elliptic.solve_s"] = (
        t["elliptic.DiffusionOperator.solve"] - t["elliptic.splu"], "s")
    m["elliptic.reuse_ratio"] = (_ratio(len(tracer.operator_keys), ops), "ratio")
    m["elliptic.self_s"] = (self_s["elliptic"], "s")

    fwd = c["burgers.maccormack_step"]
    adj = c["burgers.maccormack_step_adjoint"]
    sample_s = (t["burgers.BurgersInitialControl.tracking_cost_grad"]
                + t["burgers.BurgersInitialControl.tracking_cost"])
    m["burgers.forward_steps"] = (fwd, "count")
    m["burgers.adjoint_steps"] = (adj, "count")
    m["burgers.predictor_calls"] = (c["burgers.maccormack_predictor"], "count")
    m["burgers.sample_s"] = (sample_s, "s")
    m["burgers.step_us"] = (_ratio(
        1e6 * (sample_s + t["burgers.BurgersInitialControl.state"]), fwd + adj), "us")
    m["burgers.self_s"] = (self_s["burgers"], "s")

    m["grids.prolongs"] = (c["grids.GridHierarchy.prolong"], "count")
    m["grids.restricts"] = (c["grids.GridHierarchy.restrict"], "count")
    m["grids.transfer_s"] = (
        t["grids.GridHierarchy.prolong"] + t["grids.GridHierarchy.restrict"], "s")
    m["grids.self_s"] = (self_s["grids"], "s")

    kappa = problem.kappa_default
    c_fine = _ratio(*reversed(tracer.samples[("grad", K)]))
    for level in range(K + 1):
        n, secs = tracer.samples[("grad", level)]
        c_meas = _ratio(secs, n)
        m[f"mlmc.samples.L{level}"] = (n, "count")
        m[f"mlmc.C_meas.L{level}"] = (c_meas, "s")
        m[f"mlmc.C_ratio.L{level}"] = (
            _ratio(_ratio(c_meas, c_fine), 2.0 ** (kappa * (level - K))), "ratio")
        m[f"mlmc.cost_samples.L{level}"] = (tracer.samples[("cost", level)][0], "count")
    m["mlmc.grad_evals"] = (c["mlmc.mlmc_gradient"], "count")
    m["mlmc.cost_evals"] = (c["mlmc.mlmc_cost"], "count")
    m["mlmc.warmup_s"] = (t["mlmc.estimate_level_stats"], "s")
    m["mlmc.self_s"] = (self_s["mlmc"], "s")

    m["mgopt.vcycles"] = (c["mgopt.run_vcycle"], "count")
    m["mgopt.smoother_steps"] = (tracer.smoother_steps, "count")
    m["mgopt.backtracks"] = (tracer.backtracks, "count")
    m["mgopt.self_s"] = (self_s["mgopt"], "s")

    m["driver.cycles"] = (c["driver.cycles"], "count")
    m["driver.cycle_s"] = (_ratio(t["driver.cycle_s"], c["driver.cycles"]), "s")
    m["driver.state_stats_s"] = (t["driver.state_statistics"], "s")
    m["driver.self_s"] = (self_s["driver"], "s")

    m["cli.output_s"] = (self_s["cli"], "s")

    m["trace.wall_s"] = (wall, "s")
    m["trace.remainder_s"] = (wall - sum(self_s.values()), "s")
    return m
