"""Nested uniform grid hierarchy on (0,1)^d with weighted inner products.

Levels are indexed 0 (coarsest) to K (finest).  Level ``l`` has
``(n0 - 1) * 2**l + 1`` nodes per axis including the boundary, so the grids
are nested and ``h_l = h_0 / 2**l``.  Vectors of unknowns hold interior
values only; Dirichlet boundary values are fixed to zero for all domain
vectors.  Boundary-segment vectors (role ``"gamma"``) hold values on the
interior nodes of one edge of the square and always use the 1-D weight.

Prolongation is linear (1-D) / bilinear (2-D) interpolation; restriction is
its exact adjoint under the mesh-weighted inner products, i.e. full
weighting (1/4)[1 2 1] in 1-D and (1/16)[1 2 1; 2 4 2; 1 2 1] in 2-D.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import LevelMismatch

INTERIOR = "interior"
GAMMA = "gamma"


@dataclass(frozen=True)
class LevelVector:
    """Values attached to one level of the hierarchy.

    ``values`` has shape (m, m) for 2-D interior vectors and shape (m,) for
    1-D interior and gamma vectors, where m is the interior node count per
    axis.  ``h`` is the grid spacing of the level; the quadrature weight of
    the inner product is ``h ** values.ndim``.
    """

    level: int
    role: str
    h: float
    values: np.ndarray = field(repr=False)

    def copy(self) -> "LevelVector":
        return replace(self, values=self.values.copy())

    def with_values(self, values: np.ndarray) -> "LevelVector":
        return replace(self, values=np.asarray(values, dtype=float))

    def __add__(self, other: "LevelVector") -> "LevelVector":
        _check_same_space(self, other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "LevelVector") -> "LevelVector":
        _check_same_space(self, other)
        return self.with_values(self.values - other.values)

    def __mul__(self, a: float) -> "LevelVector":
        return self.with_values(self.values * a)

    __rmul__ = __mul__

    def __neg__(self) -> "LevelVector":
        return self.with_values(-self.values)


def _check_same_space(a: LevelVector, b: LevelVector) -> None:
    if a.level != b.level or a.role != b.role or a.values.shape != b.values.shape:
        raise LevelMismatch(
            f"vectors live on different spaces: "
            f"(level={a.level}, role={a.role}, shape={a.values.shape}) vs "
            f"(level={b.level}, role={b.role}, shape={b.values.shape})"
        )


def inner_product(a: LevelVector, b: LevelVector) -> float:
    """Mesh-weighted inner product h^d * sum(a_i b_i) over shared nodes."""
    _check_same_space(a, b)
    return a.h ** a.values.ndim * float(np.vdot(a.values, b.values))


def norm(a: LevelVector) -> float:
    return float(np.sqrt(inner_product(a, a)))


def _prolong_1d(c: np.ndarray) -> np.ndarray:
    """Linear interpolation of interior values along axis 0, zero Dirichlet
    boundary."""
    mc = c.shape[0]
    f = np.zeros((2 * mc + 1,) + c.shape[1:])
    f[1::2] = c
    zero = np.zeros((1,) + c.shape[1:])
    padded = np.concatenate((zero, c, zero))
    f[0::2] = 0.5 * (padded[:-1] + padded[1:])
    return f


def _restrict_1d(f: np.ndarray) -> np.ndarray:
    """Full weighting (1/4)[1 2 1] along axis 0; adjoint of _prolong_1d up to
    the h ratio."""
    return 0.25 * (f[0:-2:2] + 2.0 * f[1::2] + f[2::2])


# The 2-D transfers apply the 1-D stencil along axis 0, then along axis 1
# (through the transpose): the same arithmetic, in the same order, as
# applying it to every column and then to every row.

def _prolong_values(values: np.ndarray) -> np.ndarray:
    if values.ndim == 1:
        return _prolong_1d(values)
    return np.ascontiguousarray(_prolong_1d(_prolong_1d(values).T).T)


def _restrict_values(values: np.ndarray) -> np.ndarray:
    if values.ndim == 1:
        return _restrict_1d(values)
    return np.ascontiguousarray(_restrict_1d(_restrict_1d(values).T).T)


@dataclass(frozen=True)
class GridHierarchy:
    """Family of nested uniform grids on the unit interval/square.

    Parameters
    ----------
    dim : 1 or 2.
    n0 : nodes per axis on the coarsest level, boundary included (>= 3).
    levels : number of levels K + 1.
    """

    dim: int
    n0: int
    levels: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.n0 < 3:
            raise ValueError("need at least one interior node on the coarsest grid")
        if self.levels < 1:
            raise ValueError("need at least one level")

    @property
    def finest(self) -> int:
        return self.levels - 1

    def nodes(self, level: int) -> int:
        """Nodes per axis including the boundary."""
        self._check_level(level)
        return (self.n0 - 1) * 2**level + 1

    def interior(self, level: int) -> int:
        return self.nodes(level) - 2

    def h(self, level: int) -> float:
        return 1.0 / (self.nodes(level) - 1)

    def shape(self, level: int, role: str = INTERIOR) -> tuple:
        m = self.interior(level)
        if role == GAMMA:
            if self.dim != 2:
                raise LevelMismatch("gamma vectors exist only on 2-D hierarchies")
            return (m,)
        return (m,) * self.dim

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.levels:
            raise LevelMismatch(f"level {level} outside 0..{self.levels - 1}")

    def vector(self, level: int, values, role: str = INTERIOR) -> LevelVector:
        values = np.asarray(values, dtype=float)
        if values.shape != self.shape(level, role):
            raise LevelMismatch(
                f"expected shape {self.shape(level, role)} at level {level}, "
                f"got {values.shape}"
            )
        return LevelVector(level=level, role=role, h=self.h(level), values=values)

    def zeros(self, level: int, role: str = INTERIOR) -> LevelVector:
        return self.vector(level, np.zeros(self.shape(level, role)), role)

    def node_coords(self, level: int) -> np.ndarray:
        """Coordinates of all nodes (boundary included) along one axis."""
        return np.linspace(0.0, 1.0, self.nodes(level))

    def interior_coords(self, level: int) -> np.ndarray:
        return self.node_coords(level)[1:-1]

    def from_function(self, level: int, fn, role: str = INTERIOR) -> LevelVector:
        """Sample fn on the interior nodes (or on the gamma segment)."""
        x = self.interior_coords(level)
        if role == GAMMA or self.dim == 1:
            return self.vector(level, fn(x), role)
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        return self.vector(level, fn(x1, x2), role)

    # -- transfer operators -------------------------------------------------

    def prolong(self, v: LevelVector) -> LevelVector:
        """Interpolate one level finer (distribution stencil, max weight 1)."""
        if v.level >= self.finest:
            raise LevelMismatch(f"cannot prolong beyond finest level {self.finest}")
        return self.vector(v.level + 1, _prolong_values(v.values), v.role)

    def restrict(self, v: LevelVector) -> LevelVector:
        """Full-weighting restriction, the exact adjoint of :meth:`prolong`."""
        if v.level <= 0:
            raise LevelMismatch("cannot restrict below level 0")
        return self.vector(v.level - 1, _restrict_values(v.values), v.role)
