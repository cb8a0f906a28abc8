"""Closed-form model geometries: Euclidean space, round spheres,
hyperbolic space (hyperboloid model) and Euclidean space with a linear
confining drift.

Points and tangent vectors are plain numpy arrays in the canonical
embedding, with any number of leading batch axes:

* Euclidean / drift spaces: shape (..., m)
* Sphere(m, radius rho):    shape (..., m+1) with |x| = rho
* Hyperbolic(m, c):         shape (..., m+1) on the upper hyperboloid
  sheet of Minkowski space, <x, x> = 1/c, x[..., 0] > 0

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
    """A model Riemannian manifold with an optional drift field."""

    #: intrinsic dimension m
    dim: int
    #: dimension of the embedding coordinates
    emb_dim: int
    kind: str = "abstract"

    # -- curvature-dimension -------------------------------------------------

    @abstractmethod
    def curvature_dimension(self, N: float | None = None) -> CurvatureDimension:
        """The (K, N) bound this space satisfies; N=None picks the native one."""

    @property
    def cd(self) -> CurvatureDimension:
        return self.curvature_dimension()

    # -- metric operations ---------------------------------------------------

    @abstractmethod
    def distance(self, x, y):
        ...

    @abstractmethod
    def exp_map(self, x, v):
        ...

    @abstractmethod
    def log_map(self, x, y):
        ...

    @abstractmethod
    def parallel_transport(self, x, y, v):
        ...

    def geodesic_point(self, x, y, r: float):
        """The point at parameter r on the minimal geodesic from x to y."""
        return self.exp_map(x, r * self.log_map(x, y))

    def transport_frame(self, x, y, frame):
        """Parallel transport of a frame, one row per basis vector."""
        return self.parallel_transport(x[..., None, :], y[..., None, :], frame)

    # -- drift, frames, bookkeeping -------------------------------------------

    def drift(self, x):
        """The vector field Z of the generator (Laplacian + Z); zero by default."""
        return np.zeros_like(np.asarray(x, dtype=float))

    @abstractmethod
    def frame(self, x):
        """A deterministic orthonormal tangent frame, shape (..., m, emb)."""

    @abstractmethod
    def project_point(self, x):
        """Renormalize embedding constraints."""

    def project_tangent(self, x, v):
        """Project v onto the tangent space at x (identity on flat spaces)."""
        return np.asarray(v, dtype=float)

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

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim
        self.emb_dim = dim

    def curvature_dimension(self, N=None) -> CurvatureDimension:
        if N is None:
            return CurvatureDimension(0.0, float(self.dim))
        if N < self.dim:
            raise UnsupportedParameterError(f"N must be >= m = {self.dim}")
        return CurvatureDimension(0.0, float(N))

    def distance(self, x, y):
        return np.linalg.norm(np.asarray(y, float) - np.asarray(x, float), axis=-1)

    def exp_map(self, x, v):
        return np.asarray(x, float) + np.asarray(v, float)

    def log_map(self, x, y):
        return np.asarray(y, float) - np.asarray(x, float)

    def parallel_transport(self, x, y, v):
        out = np.asarray(v, dtype=float)
        shape = np.broadcast(np.asarray(x), np.asarray(y), out).shape
        return np.broadcast_to(out, shape).copy() if out.shape != shape else out

    def frame(self, x):
        x = np.asarray(x, dtype=float)
        eye = np.eye(self.dim)
        return np.broadcast_to(eye, x.shape[:-1] + (self.dim, self.dim)).copy()

    def project_point(self, x):
        return np.asarray(x, dtype=float)


class EuclideanOU(Euclidean):
    """R^m with the linear confining drift Z(x) = -lam * x.

    Satisfies the curvature-dimension bound with K = lam and N = inf
    only: Ric = 0 and the symmetrized drift Jacobian is -lam * I, while
    the Z (x) Z / (N - m) correction is unbounded for finite N, so
    finite-N queries are rejected.
    """

    kind = "euclidean_ou"

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

    def __init__(self, dim: int, radius: float = 1.0):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.dim = dim
        self.emb_dim = dim + 1
        self.radius = radius

    def curvature_dimension(self, N=None) -> CurvatureDimension:
        K = (self.dim - 1) / self.radius**2
        if N is None:
            return CurvatureDimension(K, float(self.dim))
        if N < self.dim:
            raise UnsupportedParameterError(f"N must be >= m = {self.dim}")
        return CurvatureDimension(K, float(N))

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

    def project_point(self, x):
        x = np.asarray(x, dtype=float)
        return x * (self.radius / np.linalg.norm(x, axis=-1, keepdims=True))

    def project_tangent(self, x, v):
        x = np.asarray(x, float)
        v = np.asarray(v, float)
        return v - (np.sum(x * v, axis=-1, keepdims=True) / self.radius**2) * x

    def distance(self, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        rho2 = self.radius**2
        c = np.sum(x * y, axis=-1) / rho2
        u = y - c[..., None] * x
        s = np.linalg.norm(u, axis=-1) / self.radius
        return self.radius * np.arctan2(s, c)

    def exp_map(self, x, v):
        x = np.asarray(x, float)
        v = np.asarray(v, float)
        nv = np.linalg.norm(v, axis=-1, keepdims=True)
        theta = nv / self.radius
        small = nv < 1e-300
        unit = np.where(small, 0.0, v / np.where(small, 1.0, nv))
        y = np.cos(theta) * x + self.radius * np.sin(theta) * unit
        return self.project_point(y)

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

    def parallel_transport(self, x, y, v):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        v = np.asarray(v, float)
        u = self.log_map(x, y)
        d = np.linalg.norm(u, axis=-1, keepdims=True)
        tiny = d < 1e-300
        uhat = np.where(tiny, 0.0, u / np.where(tiny, 1.0, d))
        w = -self.log_map(y, x)
        dw = np.linalg.norm(w, axis=-1, keepdims=True)
        what = np.where(tiny, 0.0, w / np.where(dw < 1e-300, 1.0, dw))
        alpha = np.sum(v * uhat, axis=-1, keepdims=True)
        out = v - alpha * uhat + alpha * what
        out = np.where(tiny, v, out)
        return self.project_tangent(y, out)

    def frame(self, x):
        """Gram-Schmidt on the tangential projections of the coordinate
        axes, skipping an axis that degenerates at the point.  A batch in
        which only some points degenerate on an axis is framed point by
        point, so no point's frame depends on the rest of its batch."""
        x = np.asarray(x, float)
        batch = x.shape[:-1]
        vecs = []
        for j in range(self.emb_dim):
            e = np.zeros(self.emb_dim)
            e[j] = 1.0
            w = np.broadcast_to(e, batch + (self.emb_dim,)).astype(float).copy()
            w = self.project_tangent(x, w)
            for prev in vecs:
                w = w - np.sum(w * prev, axis=-1, keepdims=True) * prev
            n = np.linalg.norm(w, axis=-1, keepdims=True)
            ok = n > 1e-8
            if np.all(ok):
                vecs.append(w / n)
            elif batch and np.any(ok):
                rows = [self.frame(p) for p in x.reshape(-1, self.emb_dim)]
                return np.stack(rows).reshape(batch + (self.dim, self.emb_dim))
            if len(vecs) == self.dim:
                break
        if len(vecs) < self.dim:
            raise RuntimeError("frame construction failed")  # pragma: no cover
        return np.stack(vecs, axis=-2)


# ---------------------------------------------------------------------------


def _mink(u, v):
    """Minkowski product with signature (-, +, ..., +)."""
    return np.sum(u[..., 1:] * v[..., 1:], axis=-1) - u[..., 0] * v[..., 0]


class Hyperbolic(ModelSpace):
    """Hyperbolic space of constant sectional curvature c < 0 on the
    hyperboloid sheet <x, x> = 1/c, x0 > 0; K = c (m-1), N = m."""

    kind = "hyperbolic"

    def __init__(self, dim: int, curvature: float = -1.0):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if curvature >= 0:
            raise ValueError("curvature must be negative")
        self.dim = dim
        self.emb_dim = dim + 1
        self.curvature = curvature
        self.R = 1.0 / math.sqrt(-curvature)

    def curvature_dimension(self, N=None) -> CurvatureDimension:
        K = self.curvature * (self.dim - 1)
        if N is None:
            return CurvatureDimension(K, float(self.dim))
        if N < self.dim:
            raise UnsupportedParameterError(f"N must be >= m = {self.dim}")
        return CurvatureDimension(K, float(N))

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

    def project_point(self, x):
        x = np.asarray(x, dtype=float)
        scale = self.R / np.sqrt(-_mink(x, x))[..., None]
        return x * scale

    def project_tangent(self, x, v):
        x = np.asarray(x, float)
        v = np.asarray(v, float)
        return v + (_mink(x, v) / self.R**2)[..., None] * x

    def distance(self, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        u = self.log_map(x, y)
        return np.sqrt(np.maximum(_mink(u, u), 0.0))

    def exp_map(self, x, v):
        x = np.asarray(x, float)
        v = np.asarray(v, float)
        nv = np.sqrt(np.maximum(_mink(v, v), 0.0))[..., None]
        theta = nv / self.R
        small = nv < 1e-300
        unit = np.where(small, 0.0, v / np.where(small, 1.0, nv))
        y = np.cosh(theta) * x + self.R * np.sinh(theta) * unit
        return self.project_point(y)

    def log_map(self, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        u = y + (_mink(x, y) / self.R**2)[..., None] * x
        nu = np.sqrt(np.maximum(_mink(u, u), 0.0))
        d = self.R * np.arcsinh(nu / self.R)
        tiny = nu < 1e-300
        return np.where(tiny[..., None], 0.0,
                        (d / np.where(tiny, 1.0, nu))[..., None] * u)

    def parallel_transport(self, x, y, v):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        v = np.asarray(v, float)
        u = self.log_map(x, y)
        d = np.sqrt(np.maximum(_mink(u, u), 0.0))[..., None]
        tiny = d < 1e-300
        uhat = np.where(tiny, 0.0, u / np.where(tiny, 1.0, d))
        w = -self.log_map(y, x)
        dw = np.sqrt(np.maximum(_mink(w, w), 0.0))[..., None]
        what = np.where(tiny, 0.0, w / np.where(dw < 1e-300, 1.0, dw))
        alpha = _mink(v, uhat)[..., None]
        out = v - alpha * uhat + alpha * what
        out = np.where(tiny, v, out)
        return self.project_tangent(y, out)

    def frame(self, x):
        x = np.asarray(x, float)
        batch = x.shape[:-1]
        vecs = []
        for j in range(1, self.emb_dim):
            e = np.zeros(self.emb_dim)
            e[j] = 1.0
            w = np.broadcast_to(e, batch + (self.emb_dim,)).astype(float).copy()
            w = self.project_tangent(x, w)
            for prev in vecs:
                w = w - _mink(w, prev)[..., None] * prev
            n = np.sqrt(np.maximum(_mink(w, w), 0.0))[..., None]
            vecs.append(w / n)
        return np.stack(vecs, axis=-2)
