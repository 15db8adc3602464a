"""Lognormal random fields on regular grids via circulant embedding.

A mean-zero Gaussian field z with exponential covariance

    Cov[z(x), z(x')] = sigma2 * exp(-||x - x'||_2 / lam)

is sampled exactly at the nodes of a uniform grid by embedding the
(block-)Toeplitz covariance matrix into a (block-)circulant one, which the
FFT diagonalizes.  The returned field is ``scale * exp(z)``, optionally
overridden by a constant inside an axis-aligned box.

Sampling is driven by counter-based Philox streams keyed on
``(global_seed, set_id, level, index)``: the same key always reproduces the
same draw, distinct keys are independent.  :meth:`FieldSampler.sample` is
the one lognormal draw: it draws the Gaussian field once on the finest grid
of a hierarchy and injects it to coarser grids, so coupled samples on
adjacent levels agree exactly at shared nodes.  The sampler draws on every
call; the problems reach it through ``ControlProblem.field`` and
``field_pair``, which keep a cycle's draws inside ``sample_bank``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmbeddingNotPSD, LevelMismatch
from .grids import GridHierarchy

# padding schedule and eigenvalue clipping tolerance of build_embedding
INITIAL_PADDING = 2
MAX_PADDING = 8
TOL_EMBED = 1e-12


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo_i, hi_i] inside the unit domain."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise ValueError("box corners need the same dimension")
        for a, b in zip(lo, hi):
            if not (0.0 <= a <= b <= 1.0):
                raise ValueError("box must lie inside the unit domain")

    def mask(self, axes: list) -> np.ndarray:
        """Boolean mask of grid nodes inside the box.

        ``axes`` holds the node coordinates along each axis; the mask is
        their tensor product, inclusive at the box faces.
        """
        eps = 1e-12
        masks = [
            (ax >= self.lo[d] - eps) & (ax <= self.hi[d] + eps)
            for d, ax in enumerate(axes)
        ]
        out = masks[0]
        for m in masks[1:]:
            out = np.logical_and.outer(out, m)
        return out


@dataclass(frozen=True)
class CovarianceSpec:
    """Exponential covariance with optional deterministic override region.

    sigma2 : variance of the Gaussian field
    lam : correlation length
    scale : multiplicative factor applied to the lognormal field
    region, region_value : where present, the final field is set to
        ``region_value`` on all nodes inside ``region``.
    """

    sigma2: float
    lam: float
    scale: float = 1.0
    region: Box | None = None
    region_value: float = 1.0

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.scale <= 0:
            raise ValueError("scale must be > 0")


def covariance(x, x2, spec: CovarianceSpec) -> float:
    """Evaluate sigma2 * exp(-||x - x2|| / lam) for two points."""
    d = np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))
                       - np.atleast_1d(np.asarray(x2, dtype=float)))
    return spec.sigma2 * float(np.exp(-d / spec.lam))


@dataclass(frozen=True)
class RngStream:
    """Counter-based stream identity (global_seed, set_id, level, index)."""

    global_seed: int
    set_id: int
    level: int
    index: int

    def __post_init__(self):
        if not 0 <= self.global_seed < (1 << 64):
            raise ValueError("global_seed outside [0, 2^64)")
        if not 0 <= self.set_id < (1 << 24):
            raise ValueError("set_id outside [0, 2^24)")
        if not 0 <= self.level < (1 << 8):
            raise ValueError("level outside [0, 2^8)")
        if not 0 <= self.index < (1 << 32):
            raise ValueError("index outside [0, 2^32)")

    @property
    def seed_id(self) -> tuple:
        return (self.global_seed, self.set_id, self.level, self.index)

    def generator(self) -> np.random.Generator:
        key1 = (self.set_id << 40) | (self.level << 32) | self.index
        # an explicit dtype: a list holding a word >= 2^63 would become float64
        key = np.array([self.global_seed, key1], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class FieldSample:
    """One field realization on the full node grid of a level."""

    level: int
    values: np.ndarray = field(repr=False)
    seed_id: tuple = ()

    @property
    def nodes(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CirculantEmbedding:
    """FFT-diagonalized factor of the padded circulant embedding.

    ``sqrt_eig`` holds the square roots of the circulant eigenvalues on the
    extended periodic grid of shape ``ext_shape``, one axis per grid
    dimension; the physical grid is the leading ``n`` nodes per axis.
    """

    n: int
    sqrt_eig: np.ndarray = field(repr=False)

    @property
    def ext_shape(self) -> tuple:
        return self.sqrt_eig.shape


def build_embedding(n: int, h: float, dim: int,
                    spec: CovarianceSpec) -> CirculantEmbedding:
    """Embed the covariance of an n-nodes-per-axis grid into a circulant.

    The extended period per axis is ``2 * padding * (n - 1)`` points, so all
    physical lags are represented without wraparound.  Eigenvalues in
    ``[-tol, 0)`` with ``tol = TOL_EMBED * max eigenvalue`` are clipped to
    zero; if any eigenvalue is more negative the padding is doubled, up to
    ``MAX_PADDING`` before :class:`EmbeddingNotPSD` is raised.
    """
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    padding = INITIAL_PADDING
    while True:
        m = 2 * padding * (n - 1)
        lag = h * np.minimum(np.arange(m), m - np.arange(m))
        if dim == 1:
            dist = lag
        else:
            dist = np.sqrt(lag[:, None] ** 2 + lag[None, :] ** 2)
        symbol = spec.sigma2 * np.exp(-dist / spec.lam)
        eig = np.fft.fftn(symbol).real
        top = max(eig.max(), 0.0)
        tol = TOL_EMBED * top
        if eig.min() >= -tol:
            eig = np.clip(eig, 0.0, None)
            return CirculantEmbedding(n=n, sqrt_eig=np.sqrt(eig))
        if padding >= MAX_PADDING:
            raise EmbeddingNotPSD(
                f"embedding eigenvalue {eig.min():.3e} < -{tol:.3e} "
                f"at padding {padding}"
            )
        padding *= 2


def sample_gaussian(embedding: CirculantEmbedding, stream: RngStream) -> np.ndarray:
    """Draw one mean-zero Gaussian field on the embedding's grid nodes."""
    rng = stream.generator()
    xi = rng.standard_normal((2,) + embedding.ext_shape)
    m_total = float(np.prod(embedding.ext_shape))
    # y = sqrt_eig * (xi[0] + i xi[1]), written part by part into one
    # complex array: sqrt_eig is real, so each part is the real product a
    # complex multiply would form, bit for bit
    y = np.empty(embedding.ext_shape, dtype=complex)
    np.multiply(embedding.sqrt_eig, xi[0], out=y.real)
    np.multiply(embedding.sqrt_eig, xi[1], out=y.imag)
    # ifftn axis by axis, last axis first as ifftn runs them; each axis is
    # cut to the grid's n nodes before the next one is transformed
    for axis in reversed(range(embedding.sqrt_eig.ndim)):
        y = np.fft.ifft(y, axis=axis)[(slice(None),) * axis + (slice(0, embedding.n),)]
    # only the real part is scaled; the product is a new contiguous array
    return np.multiply(y.real, np.sqrt(m_total))


def lognormal_from_gaussian(z: np.ndarray, spec: CovarianceSpec) -> np.ndarray:
    """Map a Gaussian field to scale * exp(z) and apply the region override."""
    k = spec.scale * np.exp(z)
    if spec.region is not None:
        axes = [np.linspace(0.0, 1.0, nax) for nax in k.shape]
        k[spec.region.mask(axes)] = spec.region_value
    return k


def inject(values: np.ndarray) -> np.ndarray:
    """Pointwise injection of full-node values to the next coarser grid."""
    sl = (slice(None, None, 2),) * values.ndim
    return values[sl].copy()


def restrict_field(fine: FieldSample, to_level: int) -> FieldSample:
    """Coarsen a field by injection at shared nodes; the seed_id is kept."""
    if to_level != fine.level - 1:
        raise LevelMismatch(
            f"can only restrict one level: {fine.level} -> {to_level}"
        )
    return FieldSample(
        level=to_level, values=inject(fine.values), seed_id=fine.seed_id
    )


class FieldSampler:
    """Level-coupled lognormal sampler over a grid hierarchy.

    The Gaussian field for a stream is drawn once on the hierarchy's finest
    grid and injected down, so for any two levels the realizations of one
    stream coincide at shared nodes.  This makes coupled multilevel
    differences consistent: the coarse member of a level-l pair is exactly
    the fine member of the level-(l-1) pair for the same stream.
    """

    def __init__(self, hierarchy: GridHierarchy, spec: CovarianceSpec):
        self.hierarchy = hierarchy
        self.spec = spec
        self._embedding: CirculantEmbedding | None = None

    @property
    def embedding(self) -> CirculantEmbedding:
        if self._embedding is None:
            top = self.hierarchy.finest
            self._embedding = build_embedding(
                self.hierarchy.nodes(top), self.hierarchy.h(top),
                self.hierarchy.dim, self.spec,
            )
        return self._embedding

    def sample(self, stream: RngStream, level: int) -> FieldSample:
        """Lognormal field at ``level``, injected from the finest draw."""
        z = sample_gaussian(self.embedding, stream)
        values = lognormal_from_gaussian(z, self.spec)
        for _ in range(self.hierarchy.finest - level):
            values = inject(values)
        return FieldSample(level=level, values=values, seed_id=stream.seed_id)
