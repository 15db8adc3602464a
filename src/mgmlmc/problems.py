"""Common interface of the sampled control problems.

Each problem owns a control grid hierarchy, a regularization weight alpha
and a lognormal coefficient field.  For one field realization ``omega`` the
per-sample cost splits as

    J(u; omega) = T(u; omega) + (alpha/2) ||u||^2,

where T is the tracking term.  Subclasses implement T and its exact
discrete gradient Q(u; omega) with respect to the control; the multilevel
estimators only ever consume (T, Q) pairs and add the deterministic
regularization part themselves.

The estimators evaluate a level's samples through the batch methods, which
take one control and many fields; by default they loop over the per-sample
methods.
"""

from __future__ import annotations

import numpy as np

from .grids import INTERIOR, GridHierarchy, LevelVector, inner_product
from .random_fields import CovarianceSpec, FieldSample, FieldSampler, RngStream


class ControlProblem:
    """Base class wiring a hierarchy, a field sampler and the cost split."""

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
        self.covariance = covariance
        self.sampler = FieldSampler(hierarchy, covariance)

    # -- controls ------------------------------------------------------------

    def zero_control(self, level: int) -> LevelVector:
        return self.hierarchy.zeros(level, self.control_role)

    def control_from_function(self, level: int, fn) -> LevelVector:
        return self.hierarchy.from_function(level, fn, self.control_role)

    # -- fields --------------------------------------------------------------

    def field(self, stream: RngStream, level: int) -> FieldSample:
        return self.sampler.sample(stream, level)

    def field_pair(self, stream: RngStream, level: int):
        return self.sampler.pair(stream, level)

    # -- per-sample cost pieces (subclass responsibility) ---------------------

    def tracking_cost(self, u: LevelVector, field: FieldSample) -> float:
        raise NotImplementedError

    def tracking_cost_grad(self, u: LevelVector, field: FieldSample):
        """Return (T(u; omega), Q(u; omega)) for one realization."""
        raise NotImplementedError

    def state(self, u: LevelVector, field: FieldSample) -> np.ndarray:
        """Full-grid state (boundary included) for reporting/figures."""
        raise NotImplementedError

    # -- per-level batches: one control, many fields ----------------------------
    #
    # ``fields`` is any iterable of realizations on the control's level,
    # consumed once; results come in the same order and equal the per-sample
    # results bit for bit.  The defaults loop over the per-sample methods;
    # problems that can evaluate many samples in one pass override them.

    def tracking_cost_batch(self, u: LevelVector, fields) -> list:
        return [self.tracking_cost(u, f) for f in fields]

    def tracking_cost_grad_batch(self, u: LevelVector, fields) -> list:
        """[(T(u; omega), Q(u; omega))] for each realization."""
        return [self.tracking_cost_grad(u, f) for f in fields]

    def state_batch(self, u: LevelVector, fields):
        """States for each realization, yielded one at a time: they are
        large, and callers reduce them as they come."""
        return (self.state(u, f) for f in fields)

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

    def cost_and_gradient_sample(self, u: LevelVector, stream: RngStream):
        field = self.field(stream, u.level)
        jt, q = self.tracking_cost_grad(u, field)
        return jt + self.regularization(u), self.alpha * u + q
