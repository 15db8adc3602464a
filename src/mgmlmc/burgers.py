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
gradient of the discrete per-sample cost to machine precision.

A batch of samples, on one grid or several, is marched as one flat array:
the samples lie end to end along one axis, so every spatial slice is
contiguous, the coefficients ``dt/dx`` and ``dt/dx^2 k`` are per node, and
the inner endpoints where two samples meet are re-zeroed after each stage
(:class:`Layout`).  One stability check per time step covers the whole
batch.  This batch march is the only forward solve: the per-sample
``state``, ``tracking_cost`` and ``tracking_cost_grad`` run it on a batch
of one.  The forward march is one loop over preallocated buffers: its
coefficients are formed once before the loop, and each step writes its
predictor and new state in place.  The adjoint sweep forms the
state-dependent coefficients of ``ADJOINT_BLOCK`` steps at once, so each
step runs only the multiply-adds on the adjoint variable.  The per-step
functions (:func:`maccormack_predictor`, :func:`maccormack_step` and
:func:`maccormack_step_adjoint`) are the reference: every element of the
fused loops goes through their operations in their order, so the loops
reproduce them bit for bit and batched results equal per-sample ones.
Batches are split into chunks whose stored states and predictors stay
under ``BATCH_BYTES``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import LevelMismatch, StabilityViolation
from .grids import INTERIOR, GridHierarchy, LevelVector
from .problems import ControlProblem
from .random_fields import CovarianceSpec

# Bytes of states and predictors one batched march may store; a batch is
# split into the fewest chunks under it.  It bounds the memory batching
# adds, and sits just above the largest estimate of the desk Burgers config
# (n0=17, K=2, nt=201), so each of its gradient and cost estimates is one
# march: a level-2 estimate of one level-2 pair (65 + 33 nodes), 20 level-1
# pairs (33 + 17) and 20 level-0 samples (17) stores 1438 nodes x 401
# rows, 4.6 MB.  One full-scale sample (513 nodes, 10001 steps) alone
# stores about 82 MB.
BATCH_BYTES = 4_700_000

# Time steps whose adjoint coefficients are formed at once.  The four
# coefficient blocks add 4 * ADJOINT_BLOCK / (2 nsteps + 1) of a chunk's
# stored states and predictors on top of BATCH_BYTES: under 0.8 MB for the
# 4.6 MB chunk above, where blocks of 16 steps sweep as fast as blocks of
# 64 (about 20 ms per gradient batch either way).
ADJOINT_BLOCK = 16


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


def maccormack_step(y, k, dt, dx, s):
    """One predictor/corrector step; endpoints held at zero."""
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


class Layout:
    """Samples of ``sizes`` nodes and spacings ``dx`` laid end to end along
    one axis: the layout of :func:`_march` and :func:`_sweep_adjoint`.

    ``spans`` holds each sample's ``(first node, end)`` and ``edges`` the
    inner endpoints, where one sample's last node meets the next one's
    first.  The fused loops write every node but the two outer ones, so
    they re-zero ``edges`` after each stage: every sample keeps its zero
    boundary values, and its neighbours' nodes never reach it.
    """

    def __init__(self, sizes, dx):
        ends = np.cumsum(sizes)
        starts = ends - sizes
        self.sizes = np.asarray(sizes)
        self.dx = [float(d) for d in dx]
        self.spans = list(zip(starts.tolist(), ends.tolist()))
        self.edges = np.concatenate([starts[1:], ends[:-1] - 1])

    def per_node(self, per_sample) -> np.ndarray:
        """Each sample's value repeated over its nodes."""
        return np.repeat(per_sample, self.sizes)


def _unstable(y, k, dt, layout) -> bool:
    """Whether dt exceeds any sample's :func:`stability_bound`."""
    return any(dt > stability_bound(y[a:b], k[a:b], dx)
               for (a, b), dx in zip(layout.spans, layout.dx))


def _march(y0, k, dt, layout, s, steps, *, states=None, predictors=None):
    """Advance ``steps`` steps from y0, checking stability before each.

    y0 and k are flat arrays in the :class:`Layout` ``layout``, so every
    slice below is contiguous and the coefficients ``dt/dx`` and
    ``dt/dx^2 k`` are per node.  The check covers the whole batch and
    raises at the first step where any sample is unstable.  When given,
    ``states[j + 1]`` and ``predictors[j]`` receive the state after and the
    predictor of step ``j``; without them the march cycles through two
    state buffers and one predictor buffer.  Every element goes through the
    operations of :func:`maccormack_predictor` and :func:`maccormack_step`
    in their order.
    """
    if states is None:
        states = np.zeros((2,) + np.shape(y0))
    if predictors is None:
        predictors = np.zeros((1,) + np.shape(y0))
    # outer endpoints held at zero: only interiors are written below
    states[1:, 0] = states[1:, -1] = 0.0
    predictors[:, 0] = predictors[:, -1] = 0.0
    edges, half_s = layout.edges, 0.5 * s
    c_all = layout.per_node([dt / dx for dx in layout.dx])
    r_all = layout.per_node([dt / dx**2 for dx in layout.dx]) * k
    c, r = c_all[1:-1], r_all[1:-1]
    # a sample is unstable when dt (max|y| dx + 2 max k) / dx^2 > 1, its
    # endpoints' k included; the batch-wide sum below bounds every sample's
    # from above, up to a few roundings that the margin covers: while it
    # passes, all pass
    k_max = 2.0 * float(np.max(r_all))
    psi = np.empty(np.shape(y0))
    t1, t2 = np.empty(r.shape), np.empty(r.shape)
    y = y0
    for j in range(steps):
        np.abs(y, out=psi)
        psi *= c_all
        if float(psi.max()) + k_max > 1.0 - 1e-12 and _unstable(y, k, dt, layout):
            raise StabilityViolation(
                f"dt={dt:.3e} exceeds the stability bound at step {j}",
                step=j,
            )
        yp = predictors[j % len(predictors)]
        yn = states[(j + 1) % len(states)]
        y_in, yp_in = y[1:-1], yp[1:-1]
        # predictor: y + c (psi+ - psi) + r (y+ - 2 y + y-)
        np.multiply(y, half_s, out=psi)
        psi *= y
        np.subtract(psi[2:], psi[1:-1], out=t1)
        t1 *= c
        t1 += y_in
        np.multiply(y_in, 2.0, out=t2)
        np.subtract(y[2:], t2, out=t2)
        t2 += y[:-2]
        t2 *= r
        np.add(t1, t2, out=yp_in)
        yp[edges] = 0.0
        # corrector: (y + yp + c (psip - psip-) + r (yp+ - 2 yp + yp-)) / 2
        np.multiply(yp, half_s, out=psi)
        psi *= yp
        np.subtract(psi[1:-1], psi[:-2], out=t1)
        t1 *= c
        np.add(y_in, yp_in, out=t2)
        t1 += t2
        np.multiply(yp_in, 2.0, out=t2)
        np.subtract(yp[2:], t2, out=t2)
        t2 += yp[:-2]
        t2 *= r
        t1 += t2
        np.multiply(t1, 0.5, out=yn[1:-1])
        yn[edges] = 0.0
        y = yn
    return y


def _sweep_adjoint(states, predictors, w, k, dt, layout, s):
    """Reverse sweep of the discrete adjoint over all recorded steps.

    Arrays are laid out as in :func:`_march`; ``states[j]`` and
    ``predictors[j]`` are the state before and the predictor of step ``j``,
    and w is zero at every sample's endpoints.  w is pulled back from the
    last step to the first and returned.  The coefficients of
    :func:`maccormack_step_adjoint` that depend on the state are formed
    ADJOINT_BLOCK steps at a time, so each step runs only the multiply-adds
    on w, in that function's order for every element.
    """
    nsteps = predictors.shape[0]
    c = [dt / dx for dx in layout.dx]
    cs = layout.per_node([ci * s for ci in c])[1:-1]
    half_cs = layout.per_node([0.5 * ci * s for ci in c])[1:-1]
    neg_half_cs = layout.per_node([-0.5 * ci * s for ci in c])[1:-1]
    r = layout.per_node([dt / dx**2 for dx in layout.dx]) * k
    r_in, r_next, r_prev = r[1:-1], r[2:], r[:-2]
    half_r_next, half_r_prev, two_r = 0.5 * r_next, 0.5 * r_prev, 2.0 * r_in
    edges = layout.edges
    # b's coefficients on w and w+ (A, B); a's on b and b- (D, E)
    block = (min(ADJOINT_BLOCK, nsteps),) + r_in.shape
    A, B, D, E = (np.empty(block) for _ in range(4))
    w = w.copy()
    a, b = np.zeros_like(w), np.zeros_like(w)
    b_in, t = b[1:-1], np.empty(r_in.shape)
    for hi in range(nsteps, 0, -ADJOINT_BLOCK):
        lo = max(0, hi - ADJOINT_BLOCK)
        yp, y = predictors[lo:hi, 1:-1], states[lo:hi, 1:-1]
        Ab, Bb, Db, Eb = A[:hi - lo], B[:hi - lo], D[:hi - lo], E[:hi - lo]
        np.multiply(yp, half_cs, out=Ab)  # 0.5 + 0.5 c s yp - r
        Ab += 0.5
        Ab -= r_in
        np.multiply(yp, neg_half_cs, out=Bb)  # -0.5 c s yp + 0.5 r+
        Bb += half_r_next
        np.multiply(y, cs, out=Eb)  # c s y + r-
        np.subtract(1.0, Eb, out=Db)  # 1 - c s y - 2 r
        Db -= two_r
        Eb += r_prev
        for i in range(hi - lo - 1, -1, -1):
            w_in, a_in = w[1:-1], a[1:-1]
            np.multiply(w_in, Ab[i], out=b_in)
            np.multiply(w[2:], Bb[i], out=t)
            b_in += t
            np.multiply(w[:-2], half_r_prev, out=t)
            b_in += t
            b[edges] = 0.0
            np.multiply(w_in, 0.5, out=a_in)
            np.multiply(b_in, Db[i], out=t)
            a_in += t
            np.multiply(b[:-2], Eb[i], out=t)
            a_in += t
            np.multiply(b[2:], r_next, out=t)
            a_in += t
            a[edges] = 0.0
            w, a = a, w
    return w


def burgers_target(x: np.ndarray) -> np.ndarray:
    """Final-time target: a raised-cosine bump supported on [2/5, 4/5]."""
    return np.where(
        (x >= 0.4) & (x <= 0.8), 0.125 * (1.0 - np.cos(5.0 * np.pi * x)), 0.0
    )


def diffusion_bound(covariance: CovarianceSpec) -> float:
    """Bound on the diffusion field: scale * exp(4 sigma), a four-standard-
    deviation excursion of the log field."""
    return covariance.scale * np.exp(4.0 * np.sqrt(covariance.sigma2))


# Margin of the suggested time step below the finest level's stability
# bound, and the bound on |y| that the bound assumes.
TIME_STEP_SAFETY = 4.0
STATE_BOUND = 1.0


def suggested_time_steps(hierarchy: GridHierarchy, covariance: CovarianceSpec,
                         T: float = 1.0) -> int:
    """Time grid points so the finest level is stable with margin
    ``TIME_STEP_SAFETY``, for |y| <= ``STATE_BOUND`` and diffusion fields
    under :func:`diffusion_bound`."""
    dx = hierarchy.h(hierarchy.finest)
    dt_max = dx**2 / (STATE_BOUND * dx + 2.0 * diffusion_bound(covariance))
    return int(np.ceil(T / (dt_max / TIME_STEP_SAFETY))) + 1


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
        self._targets = [hierarchy.from_function(level, spec.target)
                         for level in range(hierarchy.levels)]

    def target(self, level: int) -> LevelVector:
        return self._targets[level]

    def tracking_cost(self, u, field):
        return self.tracking_cost_batch({field.level: u}, [field])[0]

    def tracking_cost_grad(self, u, field):
        return self.tracking_cost_grad_batch({field.level: u}, [field])[0]

    # -- batches: one flat array per chunk -------------------------------------

    def _chunks(self, u_at, fields, rows):
        """(layout, initial state, diffusion field, controls) of the batch,
        in the fewest chunks that store at most BATCH_BYTES at ``rows``
        stored states per node (at least one sample per chunk): each chunk
        takes samples in order while they fit.  Each chunk lays its samples
        end to end as a :class:`Layout`."""
        fields = list(fields)
        for f in fields:
            self._check(u_at[f.level], f)
        if not fields:
            return
        budget = max(1, BATCH_BYTES // (rows * 8))  # nodes per chunk
        chunk, nodes = [], 0
        for f in fields:
            if chunk and nodes + f.nodes > budget:
                yield self._flat(u_at, chunk)
                chunk, nodes = [], 0
            chunk.append(f)
            nodes += f.nodes
        yield self._flat(u_at, chunk)

    def _flat(self, u_at, fields):
        layout = Layout([f.nodes for f in fields],
                        [self.hierarchy.h(f.level) for f in fields])
        k = np.concatenate([f.values for f in fields])
        controls = [u_at[f.level] for f in fields]
        y0 = np.zeros(k.shape)
        for (a, b), u in zip(layout.spans, controls):
            y0[a + 1:b - 1] = u.values
        return layout, y0, k, controls

    def _residuals(self, layout, controls, final):
        """Per-sample final-time residuals and tracking costs."""
        out = []
        for (a, b), u in zip(layout.spans, controls):
            r = final[a + 1:b - 1] - self.target(u.level).values
            out.append((r, 0.5 * u.h * float(np.vdot(r, r))))
        return out

    def tracking_cost_batch(self, u_at, fields):
        out = []
        for layout, y0, k, controls in self._chunks(u_at, fields, rows=1):
            final = _march(y0, k, self.dt, layout, self.spec.s, self.nt - 1)
            out += [jt for _, jt in self._residuals(layout, controls, final)]
        return out

    def tracking_cost_grad_batch(self, u_at, fields):
        nsteps = self.nt - 1
        out = []
        # stored rows per node: every state and every predictor
        for chunk in self._chunks(u_at, fields, rows=2 * nsteps + 1):
            out += self._cost_grad_chunk(*chunk)
        return out

    def _cost_grad_chunk(self, layout, y0, k, controls):
        """Forward march storing states and predictors, then the reverse
        sweep of the discrete adjoint."""
        nsteps = self.nt - 1
        states = np.empty((nsteps + 1,) + k.shape)
        states[0] = y0
        predictors = np.empty((nsteps,) + k.shape)
        _march(y0, k, self.dt, layout, self.spec.s, nsteps,
               states=states, predictors=predictors)
        residuals = self._residuals(layout, controls, states[-1])
        w = np.zeros(k.shape)
        for (a, b), (r, _) in zip(layout.spans, residuals):
            w[a + 1:b - 1] = r
        w = _sweep_adjoint(states, predictors, w, k, self.dt, layout, self.spec.s)
        return [(jt, u.with_values(w[a + 1:b - 1].copy()))
                for (a, b), u, (_, jt) in zip(layout.spans, controls, residuals)]

    def state_batch(self, u_at, fields):
        for layout, y0, k, _ in self._chunks(u_at, fields, rows=self.nt):
            states = np.empty((self.nt,) + k.shape)
            states[0] = y0
            _march(y0, k, self.dt, layout, self.spec.s, self.nt - 1,
                   states=states)
            # copies, so no yielded state keeps the whole chunk alive
            for a, b in layout.spans:
                yield states[:, a:b].copy()
            del states  # before the next chunk is marched

    def state(self, u, field):
        """All nt states, shaped (nt, nodes); one batch of one sample."""
        return next(self.state_batch({field.level: u}, [field]))
