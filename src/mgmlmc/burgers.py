"""Viscous Burgers' initial-condition control with MacCormack stepping.

The forward PDE

    dy/dt = (s/2) d(y^2)/dx + d/dx (k dy/dx),   y = 0 at x in {0, 1},
    y(., 0) = u,

is advanced by the explicit two-stage MacCormack scheme (forward flux
difference in the predictor, backward in the corrector), second order in
space and time.  The scheme is stable while

    dt <= dx^2 / (max|y| dx + 2 max k).

Gradients with respect to the initial condition are exact discrete
adjoints: a reverse sweep applies the transpose of the linearized step,
linearized about the stored states and predictors, so the result is the
gradient of the discrete per-sample cost to machine precision.  A
forward-mode (tangent) sweep is provided for dot-product verification.

A level's samples are marched together: the step functions act on the
last axis, so an ``(n_samples, nodes)`` array advances all samples of one
control in a single call per time step, with one stability check for the
whole batch.  Each row goes through exactly the elementwise operations of
a single-sample march, so batched results equal per-sample ones bit for
bit.  Batches are split into chunks whose stored states and predictors
stay under ``BATCH_BYTES``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import LevelMismatch, StabilityViolation
from .grids import INTERIOR, GridHierarchy, LevelVector
from .problems import ControlProblem
from .random_fields import CovarianceSpec, FieldSample

# Bytes of states and predictors one batched march may store; a level's
# samples are split into chunks under it (at least one sample per chunk).
# It bounds the memory batching adds: a few MB holds a 20-sample batch of
# 33-node samples over 201 time points, while one full-scale sample (513
# nodes, 10001 steps) alone stores about 82 MB.
BATCH_BYTES = 2_500_000


def stability_bound(y: np.ndarray, k: np.ndarray, dx: float) -> float:
    """Largest stable time step for the current state and diffusion field."""
    denom = np.max(np.abs(y)) * dx + 2.0 * np.max(k)
    if denom <= 0.0:
        return np.inf
    return dx**2 / denom


def maccormack_predictor(y, k, dt, dx, s):
    psi = 0.5 * s * y * y
    r = dt / dx**2 * k
    yp = np.zeros_like(y)
    yp[..., 1:-1] = (
        y[..., 1:-1]
        + dt / dx * (psi[..., 2:] - psi[..., 1:-1])
        + r[..., 1:-1] * (y[..., 2:] - 2.0 * y[..., 1:-1] + y[..., :-2])
    )
    return yp


def maccormack_step(y, k, dt, dx, s, yp=None):
    """One predictor/corrector step; endpoints held at zero.

    ``yp`` is the step's predictor when the caller has already computed it.
    """
    if yp is None:
        yp = maccormack_predictor(y, k, dt, dx, s)
    psip = 0.5 * s * yp * yp
    r = dt / dx**2 * k
    yn = np.zeros_like(y)
    yn[..., 1:-1] = 0.5 * (
        y[..., 1:-1]
        + yp[..., 1:-1]
        + dt / dx * (psip[..., 1:-1] - psip[..., :-2])
        + r[..., 1:-1] * (yp[..., 2:] - 2.0 * yp[..., 1:-1] + yp[..., :-2])
    )
    return yn


def maccormack_step_tangent(y, yp, dy, k, dt, dx, s):
    """Directional derivative of one step at state y (predictor yp)."""
    c = dt / dx
    r = dt / dx**2 * k
    dyp = np.zeros_like(dy)
    dpsi = s * y * dy
    dyp[1:-1] = (
        dy[1:-1]
        + c * (dpsi[2:] - dpsi[1:-1])
        + r[1:-1] * (dy[2:] - 2.0 * dy[1:-1] + dy[:-2])
    )
    dpsip = s * yp * dyp
    dyn = np.zeros_like(dy)
    dyn[1:-1] = 0.5 * (
        dy[1:-1]
        + dyp[1:-1]
        + c * (dpsip[1:-1] - dpsip[:-2])
        + r[1:-1] * (dyp[2:] - 2.0 * dyp[1:-1] + dyp[:-2])
    )
    return dyn


def maccormack_step_adjoint(y, yp, w, k, dt, dx, s):
    """Transpose of the linearized step: pull w back one time level."""
    c = dt / dx
    r = dt / dx**2 * k
    b = np.zeros_like(w)
    b[..., 1:-1] = (
        w[..., 1:-1] * (0.5 + 0.5 * c * s * yp[..., 1:-1] - r[..., 1:-1])
        + w[..., 2:] * (-0.5 * c * s * yp[..., 1:-1] + 0.5 * r[..., 2:])
        + w[..., :-2] * (0.5 * r[..., :-2])
    )
    a = np.zeros_like(w)
    a[..., 1:-1] = (
        0.5 * w[..., 1:-1]
        + b[..., 1:-1] * (1.0 - c * s * y[..., 1:-1] - 2.0 * r[..., 1:-1])
        + b[..., :-2] * (c * s * y[..., 1:-1] + r[..., :-2])
        + b[..., 2:] * r[..., 2:]
    )
    return a


@dataclass(frozen=True)
class Trajectory:
    """Full space-time history of one forward solve."""

    level: int
    dt: float
    states: np.ndarray = dataclass_field(repr=False)  # (nt, nodes)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _march(y0, k, dt, dx, s, steps, *, states=None, predictors=None):
    """Advance ``steps`` steps from y0, checking stability before each.

    y0 and k hold one sample or a batch of rows; the check covers the whole
    batch and raises at the first step where any row is unstable.  When
    given, ``states[j + 1]`` and ``predictors[j]`` receive the state after
    and the predictor of step ``j``.
    """
    y = y0
    k_term = 2.0 * np.max(k, axis=-1)
    for j in range(steps):
        # stability_bound per row; the smallest bound has the largest
        # denominator, so one division decides for the whole batch
        denom = float(np.max(np.max(np.abs(y), axis=-1) * dx + k_term))
        if denom > 0.0 and dt > dx**2 / denom:
            raise StabilityViolation(
                f"dt={dt:.3e} exceeds the stability bound at step {j}",
                step=j,
            )
        yp = maccormack_predictor(y, k, dt, dx, s)
        y = maccormack_step(y, k, dt, dx, s, yp)
        if states is not None:
            states[j + 1] = y
        if predictors is not None:
            predictors[j] = yp
    return y


def solve_forward(u: LevelVector, field: FieldSample, nt: int, T: float,
                  s: float) -> Trajectory:
    """Forward solve storing all nt states; raises on instability."""
    if u.level != field.level:
        raise LevelMismatch("control and field must live on the same level")
    n = field.nodes
    dx = 1.0 / (n - 1)
    dt = T / (nt - 1)
    states = np.zeros((nt, n))
    states[0, 1:-1] = u.values
    _march(states[0], field.values, dt, dx, s, nt - 1, states=states)
    return Trajectory(level=u.level, dt=dt, states=states)


def burgers_target(x: np.ndarray) -> np.ndarray:
    """Final-time target: a raised-cosine bump supported on [2/5, 4/5]."""
    return np.where(
        (x >= 0.4) & (x <= 0.8), 0.125 * (1.0 - np.cos(5.0 * np.pi * x)), 0.0
    )


def diffusion_bound(covariance: CovarianceSpec) -> float:
    """Bound on the diffusion field: scale * exp(4 sigma), a four-standard-
    deviation excursion of the log field."""
    return covariance.scale * np.exp(4.0 * np.sqrt(covariance.sigma2))


def suggested_time_steps(hierarchy: GridHierarchy, covariance: CovarianceSpec,
                         T: float = 1.0, *, safety: float = 4.0,
                         y_bound: float = 1.0) -> int:
    """Time grid points so the finest level is stable with margin ``safety``,
    for diffusion fields under :func:`diffusion_bound`."""
    dx = hierarchy.h(hierarchy.finest)
    dt_max = dx**2 / (y_bound * dx + 2.0 * diffusion_bound(covariance))
    return int(np.ceil(T / (dt_max / safety))) + 1


@dataclass(frozen=True)
class BurgersProblemSpec:
    """Configuration of the initial-condition control problem."""

    alpha: float = 1e-6
    s: float = -1.0
    T: float = 1.0
    nt: int | None = None  # None: derived from the stability bound
    target: callable = burgers_target
    covariance: CovarianceSpec = dataclass_field(
        default_factory=lambda: CovarianceSpec(sigma2=0.1, lam=0.3, scale=1e-3)
    )


class BurgersInitialControl(ControlProblem):
    """Track a final-time profile by choosing the initial condition."""

    name = "burgers"
    control_role = INTERIOR
    kappa_default = 1.0  # time grid shared by all levels; cost scales with nx

    def __init__(self, hierarchy: GridHierarchy,
                 spec: BurgersProblemSpec | None = None):
        if hierarchy.dim != 1:
            raise LevelMismatch("the Burgers problem needs a 1-D hierarchy")
        spec = spec or BurgersProblemSpec()
        super().__init__(hierarchy, spec.alpha, spec.covariance)
        self.spec = spec
        self.nt = (spec.nt if spec.nt is not None
                   else suggested_time_steps(hierarchy, spec.covariance, spec.T))
        if self.nt < 2:
            raise ValueError("nt must be at least 2")
        self.dt = spec.T / (self.nt - 1)
        self._targets = {}

    def target(self, level: int) -> LevelVector:
        if level not in self._targets:
            self._targets[level] = self.hierarchy.from_function(level, self.spec.target)
        return self._targets[level]

    def _check(self, u: LevelVector, field: FieldSample):
        if u.level != field.level or u.role != INTERIOR:
            raise LevelMismatch("control and field must share an interior level")

    def solve_forward(self, u: LevelVector, field: FieldSample) -> Trajectory:
        self._check(u, field)
        return solve_forward(u, field, self.nt, self.spec.T, self.spec.s)

    def tracking_cost(self, u, field):
        return self.tracking_cost_batch(u, [field])[0]

    def tracking_cost_grad(self, u, field):
        return self.tracking_cost_grad_batch(u, [field])[0]

    # -- per-level batches ---------------------------------------------------

    def _chunks(self, u, fields, rows):
        """(initial states, diffusion fields) of the batch, stacked in chunks
        that store at most BATCH_BYTES at ``rows`` stored states per sample."""
        fields = list(fields)
        for f in fields:
            self._check(u, f)
        size = max(1, BATCH_BYTES // (rows * self.hierarchy.nodes(u.level) * 8))
        for start in range(0, len(fields), size):
            k = np.stack([f.values for f in fields[start:start + size]])
            y0 = np.zeros(k.shape)
            y0[:, 1:-1] = u.values
            yield y0, k

    def _advance(self, level, y0, k, steps, **record):
        return _march(y0, k, self.dt, self.hierarchy.h(level), self.spec.s,
                      steps, **record)

    def _costs(self, u, final):
        """Per-sample tracking costs and final-time residuals of a batch."""
        r = final[:, 1:-1] - self.target(u.level).values
        return [0.5 * u.h * float(np.vdot(row, row)) for row in r], r

    def tracking_cost_batch(self, u, fields):
        out = []
        for y0, k in self._chunks(u, fields, rows=1):
            final = self._advance(u.level, y0, k, self.nt - 1)
            out += self._costs(u, final)[0]
        return out

    def tracking_cost_grad_batch(self, u, fields):
        nsteps = self.nt - 1
        out = []
        # stored rows per sample: every state and every predictor
        for y0, k in self._chunks(u, fields, rows=2 * nsteps + 1):
            out += self._cost_grad_chunk(u, y0, k)
        return out

    def _cost_grad_chunk(self, u, y0, k):
        """Forward march storing states and predictors, then the reverse
        sweep of the discrete adjoint."""
        nsteps = self.nt - 1
        states = np.empty((nsteps + 1,) + k.shape)
        states[0] = y0
        predictors = np.empty((nsteps,) + k.shape)
        self._advance(u.level, y0, k, nsteps, states=states, predictors=predictors)
        costs, r = self._costs(u, states[-1])
        w = np.zeros(k.shape)
        w[:, 1:-1] = r
        dx = self.hierarchy.h(u.level)
        for j in range(nsteps - 1, -1, -1):
            w = maccormack_step_adjoint(states[j], predictors[j], w, k,
                                        self.dt, dx, self.spec.s)
        return [(jt, u.with_values(row[1:-1])) for jt, row in zip(costs, w)]

    def state_batch(self, u, fields):
        for y0, k in self._chunks(u, fields, rows=self.nt):
            states = np.empty((self.nt,) + k.shape)
            states[0] = y0
            self._advance(u.level, y0, k, self.nt - 1, states=states)
            # copies, so no yielded state keeps the whole chunk alive
            for i in range(k.shape[0]):
                yield states[:, i].copy()
            del states  # before the next chunk is marched

    def initial_step_cap(self, u: LevelVector, d: LevelVector) -> float:
        """Largest line-search step keeping the initial state inside the
        stability bound for diffusion fields under :func:`diffusion_bound`."""
        dmax = float(np.max(np.abs(d.values)))
        if dmax == 0.0:
            return np.inf
        dx = self.hierarchy.h(u.level)
        y_allowed = (dx**2 / self.dt - 2.0 * diffusion_bound(self.covariance)) / dx
        headroom = y_allowed - float(np.max(np.abs(u.values)))
        if headroom <= 0.0:
            return 1e-6
        return headroom / dmax

    def final_state_tangent(self, traj: Trajectory, du: LevelVector,
                            field: FieldSample) -> np.ndarray:
        """Forward-mode derivative of the final state along du."""
        k = field.values
        dx = self.hierarchy.h(traj.level)
        dt = traj.dt
        s = self.spec.s
        dy = np.zeros(field.nodes)
        dy[1:-1] = du.values
        for j in range(traj.states.shape[0] - 1):
            yj = traj.states[j]
            yp = maccormack_predictor(yj, k, dt, dx, s)
            dy = maccormack_step_tangent(yj, yp, dy, k, dt, dx, s)
        return dy

    def state(self, u, field):
        return self.solve_forward(u, field).states
