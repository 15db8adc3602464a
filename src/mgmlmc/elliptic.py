"""Steady diffusion solves and the two elliptic control problems.

The PDE -div(k grad y) = f on the unit square with Dirichlet boundary data
is discretized by the 5-point variable-coefficient scheme; the coefficient
at a cell face is the arithmetic mean of the two adjacent node values.
Systems are SPD and banded: in the row-major order of the interior nodes
the only nonzero diagonals are at offsets 0, 1 and m (m interior nodes per
side).  :class:`DiffusionOperator` factors each one by LAPACK banded
Cholesky (``dpbtrf``/``dpbtrs`` from ``scipy.linalg.lapack``) and checks
every solve's residual against the 5-point stencil applied from the face
coefficients, independently of the band storage.

Two control problems are built on top, and their ``state`` methods are the
one full-grid state solve:

* :class:`LaplaceSourceControl` - the interior heat source is the control,
  the state is tracked against a target in the domain.
* :class:`DtNBoundaryControl` - Dirichlet data on the bottom edge Gamma is
  the control, the normal flux ``k dy/dn`` on Gamma is tracked against a
  target flux.

Per-sample gradients are exact discrete adjoints: the adjoint maps are the
transposes of the assembled forward (and flux extraction) maps, so central
finite differences of the per-sample cost reproduce them to solver accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import LevelMismatch, LinearSolveFailure
from .grids import GAMMA, INTERIOR, GridHierarchy, LevelVector
from .problems import ControlProblem
from .random_fields import Box, CovarianceSpec, FieldSample

RESIDUAL_TOL = 1e-9  # relative residual every solve must reach


def _lapack():
    """``scipy.linalg.lapack``, imported on first use: the import takes
    about 0.3 s, which a process that solves no elliptic problem skips."""
    from scipy.linalg import lapack

    return lapack


def _face_coefficients(k: np.ndarray):
    """Arithmetic-mean coefficients on the faces west/east/south/north of
    each interior node."""
    kw = 0.5 * (k[:-2, 1:-1] + k[1:-1, 1:-1])
    ke = 0.5 * (k[1:-1, 1:-1] + k[2:, 1:-1])
    ks = 0.5 * (k[1:-1, :-2] + k[1:-1, 1:-1])
    kn = 0.5 * (k[1:-1, 1:-1] + k[1:-1, 2:])
    return kw, ke, ks, kn


class DiffusionOperator:
    """Banded 5-point operator for one field realization.

    The operator acts on flattened interior values (row-major over the
    (x1, x2) interior grid).  It is symmetric positive definite; ``solve``
    therefore serves for both the forward and the adjoint equation.  The
    first ``solve`` factors the operator by banded Cholesky; later solves
    reuse the factor.
    """

    def __init__(self, k: np.ndarray, h: float):
        n = k.shape[0]
        if k.ndim != 2 or k.shape[1] != n:
            raise ValueError("field must be a square full-node array")
        self.m = n - 2
        self.h = h
        self._faces = kw, ke, ks, kn = _face_coefficients(k)
        self._ks_bottom = ks[:, 0].copy()
        self._k_gamma = k[1:-1, 0].copy()
        m = self.m
        inv_h2 = 1.0 / h**2
        # upper band storage with m superdiagonals, ab[m + r - c, c] = A[r, c],
        # in Fortran order so that dpbtrf factors it in place; it is filled
        # through its (i, j, band row) view, column c = i * m + j
        ab = np.zeros((m, m, m + 1))
        ab[:, :, m] = (kw + ke + ks + kn) * inv_h2
        ab[:, 1:, m - 1] = -kn[:, :-1] * inv_h2  # offset 1, zero at each j = 0
        ab[1:, :, 0] = -ke[:-1, :] * inv_h2      # offset m
        self._band = ab.reshape(m * m, m + 1).T
        self._factor = None

    def apply(self, y: np.ndarray) -> np.ndarray:
        """A y for interior values shaped (m, m), by the 5-point stencil.

        It reads the face coefficients, not the band, so a solve whose
        band storage is wrong fails the residual check.
        """
        kw, ke, ks, kn = self._faces
        ay = (kw + ke + ks + kn) * y
        ay[1:, :] -= kw[1:, :] * y[:-1, :]
        ay[:-1, :] -= ke[:-1, :] * y[1:, :]
        ay[:, 1:] -= ks[:, 1:] * y[:, :-1]
        ay[:, :-1] -= kn[:, :-1] * y[:, 1:]
        ay /= self.h**2
        return ay

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A y = rhs for interior values shaped (m, m)."""
        b = np.asarray(rhs, dtype=float).ravel()
        lapack = _lapack()
        if self._factor is None:
            factor, info = lapack.dpbtrf(self._band, lower=0, overwrite_ab=1)
            if info != 0:
                raise LinearSolveFailure(
                    f"operator is not positive definite (dpbtrf info {info})")
            self._factor = factor
        # dpbtrs reports only illegal arguments; the residual check below
        # catches any solve that went wrong
        y = lapack.dpbtrs(self._factor, b, lower=0)[0].reshape(self.m, self.m)
        nb = np.linalg.norm(b)
        if nb > 0:
            res = np.linalg.norm(self.apply(y).ravel() - b) / nb
            if not res <= RESIDUAL_TOL:  # a NaN residual fails too
                raise LinearSolveFailure(f"relative residual {res:.3e} too large")
        return y

    # -- boundary lift for Dirichlet data on Gamma (bottom edge) -------------

    def lift_gamma(self, u: np.ndarray) -> np.ndarray:
        """Right-hand side induced by Dirichlet values u on the bottom edge."""
        rhs = np.zeros((self.m, self.m))
        rhs[:, 0] = self._ks_bottom / self.h**2 * u
        return rhs

    def lift_gamma_transpose(self, r: np.ndarray) -> np.ndarray:
        return self._ks_bottom / self.h**2 * r[:, 0]

    # -- one-sided second-order flux k dy/dn on Gamma -------------------------

    def gamma_flux(self, u: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Flux k dy/dn at the Gamma nodes; outward normal is -x2."""
        return self._k_gamma * (3.0 * u - 4.0 * y[:, 0] + y[:, 1]) / (2.0 * self.h)

    def gamma_flux_transpose_state(self, w: np.ndarray) -> np.ndarray:
        """Adjoint of y -> flux, landing on interior values."""
        r = np.zeros((self.m, self.m))
        r[:, 0] = -4.0 * self._k_gamma * w / (2.0 * self.h)
        r[:, 1] = self._k_gamma * w / (2.0 * self.h)
        return r

    def gamma_flux_transpose_control(self, w: np.ndarray) -> np.ndarray:
        return 3.0 * self._k_gamma * w / (2.0 * self.h)


def indicator_box_target(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Unit indicator of the centered square [1/4, 3/4]^2."""
    return np.where(
        (x1 >= 0.25) & (x1 <= 0.75) & (x2 >= 0.25) & (x2 <= 0.75), 1.0, 0.0
    )


def sine_target_flux(x: np.ndarray) -> np.ndarray:
    return np.sin(np.pi * x)


@dataclass(frozen=True)
class LaplaceProblemSpec:
    """Configuration of the interior source control problem."""

    alpha: float = 1e-6
    target: callable = indicator_box_target
    covariance: CovarianceSpec = dataclass_field(
        default_factory=lambda: CovarianceSpec(sigma2=0.1, lam=0.3)
    )


def default_dtn_covariance() -> CovarianceSpec:
    """Lognormal field forced to 1 on the strip touching the controlled edge."""
    return CovarianceSpec(
        sigma2=0.1, lam=0.3,
        region=Box(lo=(0.0, 0.0), hi=(1.0, 0.25)), region_value=1.0,
    )


@dataclass(frozen=True)
class DtNProblemSpec:
    """Configuration of the boundary flux control problem."""

    alpha: float = 1e-6
    target_flux: callable = sine_target_flux
    covariance: CovarianceSpec = dataclass_field(default_factory=default_dtn_covariance)


class _EllipticBase(ControlProblem):
    kappa_default = 2.0
    is_quadratic = True  # linear PDE + quadratic cost for fixed samples

    def __init__(self, hierarchy: GridHierarchy, spec):
        if hierarchy.dim != 2:
            raise LevelMismatch("elliptic problems need a 2-D hierarchy")
        super().__init__(hierarchy, spec.alpha, spec.covariance)
        self.spec = spec
        _lapack()  # import during set-up, not in the first solve

    def _forward(self, u: LevelVector, field: FieldSample):
        """(operator, interior state) of one realization: the problem's one
        forward solve, with the right-hand side ``_rhs`` builds."""
        self._check(u, field)
        op = DiffusionOperator(field.values, self.hierarchy.h(field.level))
        return op, op.solve(self._rhs(op, u.values))


class LaplaceSourceControl(_EllipticBase):
    """Track an interior target with a distributed heat source control."""

    name = "laplace"
    control_role = INTERIOR

    def __init__(self, hierarchy, spec: LaplaceProblemSpec | None = None):
        super().__init__(hierarchy, spec or LaplaceProblemSpec())
        self._targets = [hierarchy.from_function(level, self.spec.target)
                         for level in range(hierarchy.levels)]

    def target(self, level: int) -> LevelVector:
        return self._targets[level]

    @staticmethod
    def _rhs(op, u):
        return u

    def _residual(self, u, field):
        """(operator, state residual, tracking cost) of one realization."""
        op, y = self._forward(u, field)
        r = y - self.target(u.level).values
        return op, r, 0.5 * u.h**2 * float(np.vdot(r, r))

    def tracking_cost(self, u, field):
        return self._residual(u, field)[2]

    def tracking_cost_grad(self, u, field):
        op, r, jt = self._residual(u, field)
        return jt, u.with_values(op.solve(r))

    def state(self, u, field):
        n = field.nodes
        full = np.zeros((n, n))
        full[1:-1, 1:-1] = self._forward(u, field)[1]
        return full


class DtNBoundaryControl(_EllipticBase):
    """Track a target normal flux on Gamma with Dirichlet boundary control."""

    name = "dtn"
    control_role = GAMMA

    def __init__(self, hierarchy, spec: DtNProblemSpec | None = None):
        if hierarchy.n0 < 5:
            raise ValueError("the DtN problem needs n0 >= 5")
        super().__init__(hierarchy, spec or DtNProblemSpec())
        self._target_fluxes = [np.asarray(self.spec.target_flux(x), dtype=float)
                               for x in map(hierarchy.interior_coords,
                                            range(hierarchy.levels))]

    def target_flux(self, level: int) -> np.ndarray:
        return self._target_fluxes[level]

    @staticmethod
    def _rhs(op, u):
        return op.lift_gamma(u)

    def _residual(self, u, field):
        """(operator, flux residual on Gamma, tracking cost) of one
        realization."""
        op, y = self._forward(u, field)
        w = op.gamma_flux(u.values, y) - self.target_flux(u.level)
        return op, w, 0.5 * u.h * float(np.vdot(w, w))

    def tracking_cost(self, u, field):
        return self._residual(u, field)[2]

    def tracking_cost_grad(self, u, field):
        op, w, jt = self._residual(u, field)
        p = op.solve(op.gamma_flux_transpose_state(w))
        q = op.gamma_flux_transpose_control(w) + op.lift_gamma_transpose(p)
        return jt, u.with_values(q)

    def state(self, u, field):
        n = field.nodes
        full = np.zeros((n, n))
        full[1:-1, 1:-1] = self._forward(u, field)[1]
        full[1:-1, 0] = u.values
        return full
