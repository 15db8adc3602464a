"""Common interface of the sampled control problems.

Each problem owns a control grid hierarchy, a regularization weight alpha
and a lognormal coefficient field.  For one field realization ``omega`` the
per-sample cost splits as

    J(u; omega) = T(u; omega) + (alpha/2) ||u||^2,

where T is the tracking term.  Subclasses implement T and its exact
discrete gradient Q(u; omega) with respect to the control; the multilevel
estimators only ever consume (T, Q) pairs and add the deterministic
regularization part themselves.

The estimators evaluate all samples of an estimate through the batch
methods, which take the estimate's controls by level and many fields on
mixed levels; by default they loop over the per-sample methods.

Fields come from :meth:`ControlProblem.field` and
:meth:`ControlProblem.field_pair`, the package's one route to
:meth:`FieldSampler.sample`.  Outside a sample bank each call draws
afresh.  While :meth:`ControlProblem.sample_bank` is open, every level-sized
realization is kept under ``(stream.seed_id, level)`` and later calls for
the same stream and level return it without drawing: the optimization of
one cycle evaluates the same fixed sample sets many times.  Banked arrays
are read-only, so no evaluation can alter what a later one reads.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import LevelMismatch
from .grids import INTERIOR, GridHierarchy, LevelVector, inner_product
from .random_fields import (
    CovarianceSpec,
    FieldSample,
    FieldSampler,
    RngStream,
    restrict_field,
)


class ControlProblem:
    """Base class wiring a hierarchy, a field sampler and the cost split.

    ``mlmc._grid_sweep`` alone evaluates samples: it reads ``workers`` and
    appends to ``ledger``, whose slices price a run, a cycle or an estimate.
    """

    name = "problem"
    control_role = INTERIOR
    kappa_default = 2.0
    is_quadratic = False

    def __init__(self, hierarchy: GridHierarchy, alpha: float,
                 covariance: CovarianceSpec):
        if alpha <= 0:
            raise ValueError("alpha must be > 0")
        self.hierarchy = hierarchy
        self.alpha = alpha
        self.sampler = FieldSampler(hierarchy, covariance)
        self._bank: dict | None = None  # (seed_id, level) -> FieldSample
        self.workers = 1  # threads that evaluate one estimate's samples
        self.ledger: list = []  # (level, n, weight) events, append-only

    # -- controls ------------------------------------------------------------

    def zero_control(self, level: int) -> LevelVector:
        return self.hierarchy.zeros(level, self.control_role)

    def control_from_function(self, level: int, fn) -> LevelVector:
        return self.hierarchy.from_function(level, fn, self.control_role)

    # -- fields --------------------------------------------------------------

    @contextlib.contextmanager
    def sample_bank(self):
        """Keep every field drawn inside the block; drop them all on exit.

        Within the block a stream's realization at a level is drawn once.
        The coarse member of a pair is banked at level - 1 under the same
        stream, where it equals the stream's own draw at that level bit for
        bit, since both are injections of one finest-grid draw.
        """
        if self._bank is not None:
            raise RuntimeError("a sample bank is already open")
        self._bank = {}
        try:
            yield
        finally:
            self._bank = None

    def _banked(self, key: tuple, make) -> FieldSample:
        """``make()``, kept read-only under ``key`` while a bank is open."""
        if self._bank is None:
            return make()
        # worker threads evaluate disjoint streams, so no two of them look
        # up the same key
        sample = self._bank.get(key)
        if sample is None:
            sample = make()
            sample.values.flags.writeable = False
            self._bank[key] = sample
        return sample

    def field(self, stream: RngStream, level: int) -> FieldSample:
        return self._banked((stream.seed_id, level),
                            lambda: self.sampler.sample(stream, level))

    def field_pair(self, stream: RngStream, level: int):
        """Coupled (level, level-1) realizations from one draw of the stream."""
        fine = self._banked((stream.seed_id, level),
                            lambda: self.sampler.sample(stream, level))
        coarse = self._banked((stream.seed_id, level - 1),
                              lambda: restrict_field(fine, level - 1))
        return fine, coarse

    def _check(self, u: LevelVector, field: FieldSample):
        """Raise unless u is a control vector on the field's level."""
        if u.level != field.level or u.role != self.control_role:
            raise LevelMismatch(
                f"control must be a {self.control_role} vector on the field level")

    # -- per-sample cost pieces (subclass responsibility) ---------------------

    def tracking_cost(self, u: LevelVector, field: FieldSample) -> float:
        raise NotImplementedError

    def tracking_cost_grad(self, u: LevelVector, field: FieldSample):
        """Return (T(u; omega), Q(u; omega)) for one realization."""
        raise NotImplementedError

    def state(self, u: LevelVector, field: FieldSample) -> np.ndarray:
        """Full-grid state (boundary included) for reporting/figures."""
        raise NotImplementedError

    # -- batches: many fields, each on its own level ---------------------------
    #
    # ``u_at`` maps levels to controls and ``fields`` is any iterable of
    # realizations, consumed once; each field is evaluated at the control
    # of its level.  Results come in the same order and equal the
    # per-sample results bit for bit.  The defaults loop over the
    # per-sample methods; problems that can evaluate many samples in one
    # pass override them.

    def tracking_cost_batch(self, u_at: dict, fields) -> list:
        return [self.tracking_cost(u_at[f.level], f) for f in fields]

    def tracking_cost_grad_batch(self, u_at: dict, fields) -> list:
        """[(T(u; omega), Q(u; omega))] for each realization."""
        return [self.tracking_cost_grad(u_at[f.level], f) for f in fields]

    def state_batch(self, u_at: dict, fields):
        """States for each realization, yielded one at a time: they are
        large, and callers reduce them as they come."""
        return (self.state(u_at[f.level], f) for f in fields)

    # -- assembled per-sample cost/gradient ------------------------------------

    def regularization(self, u: LevelVector) -> float:
        return 0.5 * self.alpha * inner_product(u, u)

    def cost_sample(self, u: LevelVector, stream: RngStream) -> float:
        field = self.field(stream, u.level)
        return self.tracking_cost(u, field) + self.regularization(u)

    def gradient_sample(self, u: LevelVector, stream: RngStream) -> LevelVector:
        field = self.field(stream, u.level)
        _, q = self.tracking_cost_grad(u, field)
        return self.alpha * u + q
