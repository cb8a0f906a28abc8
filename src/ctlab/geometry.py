"""Closed-form model geometries: Euclidean space, round spheres,
hyperbolic space (hyperboloid model) and Euclidean space with a linear
confining drift.

Points and tangent vectors are plain numpy arrays in the canonical
embedding, with any number of leading batch axes:

* Euclidean / drift spaces: shape (..., m)
* Sphere(m, radius rho):    shape (..., m+1) with |x| = rho
* Hyperbolic(m, c):         shape (..., m+1) on the upper hyperboloid
  sheet of Minkowski space, <x, x> = 1/c, x[..., 0] > 0

The sphere and the hyperboloid share one constant-curvature
implementation of the exp map with the transport along its geodesic
(exp_transport: exp_map is its first half, parallel_transport it along
the one log map), the two projections and the tangent frame, written
once on ModelSpace in terms of each model's inner product (Euclidean or
Minkowski), scale (rho or R), sign of <x, x>, trigonometric pair (cos,
sin or cosh, sinh) and frame axes; the flat spaces override it.  The log
map and the distance stay per model: the sphere's carries the antipodal
tie-break.

All operations broadcast over batch axes; embedding constraints are
renormalized after every move so accumulated drift stays below 1e-12.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .comparison import CurvatureDimension

__all__ = [
    "ModelSpace",
    "Euclidean",
    "EuclideanOU",
    "Sphere",
    "Hyperbolic",
    "UnsupportedParameterError",
]

_ANTIPODAL_COS = 1.0 - 1e-12   # cos-threshold for the sphere tie-break
_NEAR_ANTIPODAL_COS = 1.0 - 1e-7  # looser threshold for event counting


class UnsupportedParameterError(ValueError):
    """A curvature-dimension query the space cannot honour."""


class ModelSpace(ABC):
    """A model Riemannian manifold with an optional drift field.

    The metric operations written here are the constant-curvature
    formulas shared by the sphere and the hyperboloid; the flat spaces
    override them.  A curved model supplies its inner product `_inner`
    (Euclidean by default), its scale `_scale` (rho or R), the sign
    `_sign` of <x, x> = _sign * _scale^2, its trigonometric pair `_trig`
    (cos, sin or cosh, sinh) and the first axis `_frame_start` of its frame.
    """

    #: intrinsic dimension m
    dim: int
    #: dimension of the embedding coordinates
    emb_dim: int
    kind: str = "abstract"
    #: the native Ricci lower bound K and the sectional curvature
    _K: float
    sectional_curvature: float
    #: the space's name in reports, formatted with kind and the attributes
    _label = "{kind}{dim}"

    # -- curvature-dimension -------------------------------------------------

    @property
    def label(self) -> str:
        return self._label.format(kind=self.kind, **vars(self))

    def curvature_dimension(self, N: float | None = None) -> CurvatureDimension:
        """The (K, N) bound this space satisfies; N=None picks the native N = m."""
        if N is None:
            return CurvatureDimension(self._K, float(self.dim))
        if N < self.dim:
            raise UnsupportedParameterError(f"N must be >= m = {self.dim}")
        return CurvatureDimension(self._K, float(N))

    @property
    def cd(self) -> CurvatureDimension:
        return self.curvature_dimension()

    # -- metric operations ---------------------------------------------------

    @staticmethod
    def _inner(u, v):
        # np.sum without its Python wrapper, as np.linalg.norm reduces
        return np.add.reduce(u * v, axis=-1)

    def _norm(self, v):
        """sqrt(<v, v>) over the last axis, kept as a unit axis."""
        return np.sqrt(np.maximum(self._inner(v, v), 0.0))[..., None]

    @abstractmethod
    def distance(self, x, y):
        ...

    def exp_map(self, x, v):
        return self.exp_transport(x, v, None)[0]

    def exp_transport(self, x, v, w):
        """exp_x(v), and the tangents w at x transported along the same
        geodesic t -> exp_x(t v) (None for w = None).  With theta = |v| /
        scale and v^ = v / |v|, the part of w along v^ turns toward x:

            PT(w) = w + <w, v^> ((cos theta - 1) v^ - sign sin theta x / scale)
        """
        x = np.asarray(x, float)
        v = np.asarray(v, float)
        nv = self._norm(v)
        theta = nv / self._scale
        small = nv < 1e-300
        unit = np.where(small, 0.0, v / np.where(small, 1.0, nv))
        cos, sin = self._trig
        c, s = cos(theta), sin(theta)
        y = self.project_point(c * x + self._scale * s * unit)
        if w is None:
            return y, None
        turn = (c - 1.0) * unit - (self._sign * s / self._scale) * x
        return y, self.project_tangent(y, w + self._inner(w, unit)[..., None] * turn)

    @abstractmethod
    def log_map(self, x, y):
        ...

    def parallel_transport(self, x, y, v):
        """Transport along the minimal geodesic from x to y: one log map,
        then the transport of exp_transport along it."""
        return self.project_tangent(y, self.exp_transport(x, self.log_map(x, y), v)[1])

    def geodesic_point(self, x, y, r: float):
        """The point at parameter r on the minimal geodesic from x to y."""
        return self.exp_map(x, r * self.log_map(x, y))

    # -- drift, frames, bookkeeping -------------------------------------------

    def drift(self, x):
        """The vector field Z of the generator (Laplacian + Z); zero by default."""
        return np.zeros_like(np.asarray(x, dtype=float))

    def frame(self, x):
        """A deterministic orthonormal tangent frame, shape (..., m, emb).

        Gram-Schmidt on the tangential projections of the embedding axes
        from `_frame_start` on, skipping an axis that degenerates at the
        point.  A batch in which only some points degenerate on an axis
        is framed point by point, so no point's frame depends on the rest
        of its batch."""
        x = np.asarray(x, float)
        batch = x.shape[:-1]
        vecs = []
        for j in range(self._frame_start, self.emb_dim):
            e = np.zeros(self.emb_dim)
            e[j] = 1.0
            w = np.broadcast_to(e, batch + (self.emb_dim,)).astype(float).copy()
            w = self.project_tangent(x, w)
            for prev in vecs:
                w = w - self._inner(w, prev)[..., None] * prev
            n = self._norm(w)
            ok = n > 1e-8
            if ok.all():
                vecs.append(w / n)
            elif batch and ok.any():
                rows = [self.frame(p) for p in x.reshape(-1, self.emb_dim)]
                return np.stack(rows).reshape(batch + (self.dim, self.emb_dim))
            if len(vecs) == self.dim:
                break
        if len(vecs) < self.dim:
            raise RuntimeError("frame construction failed")  # pragma: no cover
        return np.stack(vecs, axis=-2)

    def project_point(self, x):
        """Renormalize embedding constraints."""
        x = np.asarray(x, dtype=float)
        return x * (self._scale / np.sqrt(self._sign * self._inner(x, x))[..., None])

    def project_tangent(self, x, v):
        """Project v onto the tangent space at x."""
        x = np.asarray(x, float)
        v = np.asarray(v, float)
        return v - (self._inner(x, v) / (self._sign * self._scale**2))[..., None] * x

    def is_near_cut(self, x, y):
        """Whether (x, y) is within the tie-break neighbourhood of the cut locus."""
        return np.zeros(np.broadcast(
            np.asarray(x)[..., 0], np.asarray(y)[..., 0]).shape, dtype=bool)

    def check_point(self, x, tol: float = 1e-9) -> None:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.emb_dim:
            raise ValueError(
                f"expected embedding dimension {self.emb_dim}, got {x.shape[-1]}")
        err = self._constraint_error(x)
        if np.any(err > tol):
            raise ValueError(f"point violates embedding constraint by {float(np.max(err)):.2e}")

    def _constraint_error(self, x):
        return np.zeros(np.asarray(x).shape[:-1])

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


# ---------------------------------------------------------------------------


class Euclidean(ModelSpace):
    """Flat R^m with the drift-free generator; K = 0, N = m."""

    kind = "euclidean"
    _K = sectional_curvature = 0.0

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim
        self.emb_dim = dim

    def distance(self, x, y):
        return np.linalg.norm(np.asarray(y, float) - np.asarray(x, float), axis=-1)

    def exp_transport(self, x, v, w):
        return np.asarray(x, float) + np.asarray(v, float), w

    def log_map(self, x, y):
        return np.asarray(y, float) - np.asarray(x, float)

    def frame(self, x):
        x = np.asarray(x, dtype=float)
        eye = np.eye(self.dim)
        return np.broadcast_to(eye, x.shape[:-1] + (self.dim, self.dim)).copy()

    def project_point(self, x):
        return np.asarray(x, dtype=float)

    def project_tangent(self, x, v):
        return np.asarray(v, dtype=float)


class EuclideanOU(Euclidean):
    """R^m with the linear confining drift Z(x) = -lam * x.

    Satisfies the curvature-dimension bound with K = lam and N = inf
    only: Ric = 0 and the symmetrized drift Jacobian is -lam * I, while
    the Z (x) Z / (N - m) correction is unbounded for finite N, so
    finite-N queries are rejected.
    """

    kind = "euclidean_ou"
    _label = "{kind}{dim}(lam={lam:g})"

    def __init__(self, dim: int, lam: float):
        super().__init__(dim)
        if lam <= 0:
            raise ValueError("drift rate lam must be positive")
        self.lam = lam

    def curvature_dimension(self, N=None) -> CurvatureDimension:
        if N is not None and math.isfinite(N):
            raise UnsupportedParameterError(
                "the linear-drift space satisfies the bound for N = inf only")
        return CurvatureDimension(self.lam, math.inf)

    def drift(self, x):
        return -self.lam * np.asarray(x, dtype=float)


# ---------------------------------------------------------------------------


class Sphere(ModelSpace):
    """Round sphere of radius rho in R^{m+1}; K = (m-1)/rho^2, N = m."""

    kind = "sphere"
    _label = "{kind}{dim}(r={radius:g})"
    _sign = 1
    _trig = (np.cos, np.sin)
    _frame_start = 0

    def __init__(self, dim: int, radius: float = 1.0):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.dim = dim
        self.emb_dim = dim + 1
        self.radius = self._scale = radius
        self.sectional_curvature = 1.0 / radius**2
        self._K = (dim - 1) / radius**2  # not (dim - 1) * (1 / rho^2): rounds differently

    @property
    def diameter(self) -> float:
        return math.pi * self.radius

    def swc_diameter_ok(self, cd: CurvatureDimension) -> bool:
        """Strict diameter condition diam < pi sqrt((N-1)/K) of the
        comparison-function control.  With the native (K, N) the round
        sphere sits exactly at equality, so a slightly lowered K' < K
        must be used instead."""
        if cd.K <= 0:
            return True
        if cd.N <= 1:
            return False
        return self.diameter < math.pi * math.sqrt((cd.N - 1) / cd.K)

    def _constraint_error(self, x):
        return np.abs(np.linalg.norm(x, axis=-1) - self.radius)

    def distance(self, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        rho2 = self.radius**2
        c = np.sum(x * y, axis=-1) / rho2
        u = y - c[..., None] * x
        s = np.linalg.norm(u, axis=-1) / self.radius
        return self.radius * np.arctan2(s, c)

    def _tiebreak_direction(self, x):
        """Deterministic unit tangent at x used at antipodal pairs: the
        coordinate axis with the largest tangential projection, ties
        resolved by the lowest axis index."""
        x = np.asarray(x, float)
        rho2 = self.radius**2
        batch = x.shape[:-1]
        proj = np.broadcast_to(np.eye(self.emb_dim), batch + (self.emb_dim, self.emb_dim))
        proj = proj - (x[..., None, :] * x[..., :, None]) / rho2
        # proj[..., j, :] is the projection of axis e_j onto T_x
        norms = np.linalg.norm(proj, axis=-1)
        # argmax returns the first (lowest-index) maximizer
        best = np.argmax(np.round(norms, 12), axis=-1)
        sel = np.take_along_axis(proj, best[..., None, None].repeat(self.emb_dim, -1), -2)
        sel = np.squeeze(sel, axis=-2)
        return sel / np.linalg.norm(sel, axis=-1, keepdims=True)

    def log_map(self, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        rho2 = self.radius**2
        c = np.sum(x * y, axis=-1) / rho2
        u = y - c[..., None] * x
        nu = np.linalg.norm(u, axis=-1)
        d = self.radius * np.arctan2(nu / self.radius, c)
        antipodal = c < -_ANTIPODAL_COS
        degenerate = (nu < 1e-300) | antipodal
        safe = np.where(degenerate[..., None], 1.0, nu[..., None])
        v = (d[..., None] / safe) * u
        if np.any(antipodal):
            tie = self._tiebreak_direction(x)
            v = np.where(antipodal[..., None], math.pi * self.radius * tie, v)
        coincident = (nu < 1e-300) & ~antipodal
        if np.any(coincident):
            v = np.where(coincident[..., None], 0.0, v)
        return v

    def is_near_cut(self, x, y):
        c = np.sum(np.asarray(x, float) * np.asarray(y, float), axis=-1) / self.radius**2
        return c < -_NEAR_ANTIPODAL_COS


# ---------------------------------------------------------------------------


def _mink(u, v):
    """Minkowski product with signature (-, +, ..., +)."""
    return np.sum(u[..., 1:] * v[..., 1:], axis=-1) - u[..., 0] * v[..., 0]


class Hyperbolic(ModelSpace):
    """Hyperbolic space of constant sectional curvature c < 0 on the
    hyperboloid sheet <x, x> = 1/c, x0 > 0; K = c (m-1), N = m."""

    kind = "hyperbolic"
    _label = "{kind}{dim}(c={curvature:g})"
    _inner = staticmethod(_mink)
    _sign = -1
    _trig = (np.cosh, np.sinh)
    _frame_start = 1

    def __init__(self, dim: int, curvature: float = -1.0):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if curvature >= 0:
            raise ValueError("curvature must be negative")
        self.dim = dim
        self.emb_dim = dim + 1
        self.curvature = self.sectional_curvature = curvature
        self._K = curvature * (dim - 1)
        self.R = self._scale = 1.0 / math.sqrt(-curvature)

    def origin(self):
        x = np.zeros(self.emb_dim)
        x[0] = self.R
        return x

    def embed(self, spatial):
        """Lift spatial coordinates (..., m) onto the hyperboloid."""
        spatial = np.asarray(spatial, dtype=float)
        x0 = np.sqrt(self.R**2 + np.sum(spatial**2, axis=-1, keepdims=True))
        return np.concatenate([x0, spatial], axis=-1)

    def _constraint_error(self, x):
        # relative to the squared point scale: the absolute defect of
        # far-out points is dominated by roundoff in <x, x> itself
        scale = np.maximum(1.0, np.sum(np.asarray(x) ** 2, axis=-1))
        return np.abs(_mink(x, x) + self.R**2) / scale

    def distance(self, x, y):
        return self._norm(self.log_map(x, y))[..., 0]

    def log_map(self, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        u = y + (_mink(x, y) / self.R**2)[..., None] * x
        nu = np.sqrt(np.maximum(_mink(u, u), 0.0))
        d = self.R * np.arcsinh(nu / self.R)
        tiny = nu < 1e-300
        return np.where(tiny[..., None], 0.0,
                        (d / np.where(tiny, 1.0, nu))[..., None] * u)
