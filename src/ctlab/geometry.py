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

The inner product, the Minkowski product and the distances' squared
norms are summed over the embedding axis one coordinate at a time by
_coordinate_sum, in the order in which np.add.reduce sums a contiguous
axis, so each equals np.sum over that axis bit for bit.  A
distance matrix between n and n points (transport.CostSpec.matrix) is
thus built from (n, n) arrays alone: each coordinate's product and
tangential residual is formed from the views x[..., k] and y[..., k],
squared and added in place, and no (n, n, emb) array is ever stacked.

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


def _coordinate_sum(term, lo: int, hi: int):
    """The sum of term(k, out) over k in [lo, hi), added in the order in
    which np.add.reduce sums a contiguous axis (numpy's pairwise_sum), so
    that it equals np.sum of the stacked terms over their last axis bit
    for bit without stacking them: below 8 terms left to right; up to 128
    in 8 interleaved partial sums, combined as ((0+1)+(2+3))+((4+5)+(6+7)),
    then the remainder left to right; beyond 128 the two halves (the first
    a multiple of 8 long) each so, then added.  The reduction starts from
    its identity 0.0, so an all -0.0 sum reads 0.0.

    Every operation of term(k, out) takes out=out, so it writes the k-th
    term into the array `out` (a new array for out=None) and returns it,
    never a view of its inputs: the sum is accumulated in place in the
    terms it returns.  The result is an array, 0-d for a single point."""
    total = _pairwise_sum(term, lo, hi)
    total += 0.0
    return total


def _pairwise_sum(term, lo: int, hi: int):
    """numpy's pairwise_sum of the terms, without the identity."""
    n = hi - lo
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = _pairwise_sum(term, lo, lo + half)
        total += _pairwise_sum(term, lo + half, hi)
        return total
    parts = [np.asarray(term(lo, None))]
    scratch = np.empty_like(parts[0])
    if n >= 8:
        parts += [term(k, np.empty_like(scratch)) for k in range(lo + 1, lo + 8)]
        for k in range(lo + 8, hi - n % 8):
            parts[(k - lo) % 8] += term(k, scratch)
        for i, j in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            parts[i] += parts[j]
        lo = hi - n % 8
    else:
        lo += 1
    for k in range(lo, hi):
        parts[0] += term(k, scratch)
    return parts[0]


def _product(u, v):
    """The coordinate products u_k v_k as a _coordinate_sum term."""
    return lambda k, out: np.multiply(u[..., k], v[..., k], out=out)


def _square(coordinate):
    """The squares of coordinate(k, out) as a _coordinate_sum term."""
    def term(k, out):
        c = coordinate(k, out)
        return np.multiply(c, c, out=out)
    return term


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
        return _coordinate_sum(_product(u, v), 0, u.shape[-1])

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
        """|y - x|, as np.linalg.norm(y - x, axis=-1) gives it."""
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        step = lambda k, out: np.subtract(y[..., k], x[..., k], out=out)
        d = _coordinate_sum(_square(step), 0, self.emb_dim)
        return np.sqrt(d, out=d)[()]

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
        """rho atan2(|u| / rho, c) with c = <x, y> / rho^2 and u = y - c x
        the residual of y tangent at x, formed and squared one coordinate
        at a time."""
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        c = self._inner(x, y)
        c /= self.radius**2
        u = lambda k, out: np.subtract(y[..., k], np.multiply(c, x[..., k], out=out), out=out)
        s = _coordinate_sum(_square(u), 0, self.emb_dim)
        np.sqrt(s, out=s)
        s /= self.radius
        np.arctan2(s, c, out=s)
        s *= self.radius
        return s[()]

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
        c = self._inner(x, y) / rho2
        u = y - c[..., None] * x
        nu = np.sqrt(self._inner(u, u))
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
        c = self._inner(np.asarray(x, float), np.asarray(y, float)) / self.radius**2
        return c < -_NEAR_ANTIPODAL_COS


# ---------------------------------------------------------------------------


def _mink(u, v):
    """Minkowski product with signature (-, +, ..., +)."""
    return _minkowski_sum(_product(u, v), u.shape[-1])


def _minkowski_sum(term, emb: int):
    """The sum of the spatial terms k = 1, ..., emb - 1 less the time
    term 0, as np.sum(t[..., 1:], axis=-1) - t[..., 0] of the stacked terms."""
    total = _coordinate_sum(term, 1, emb)
    total -= term(0, None)
    return total


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
        """R arcsinh(nu / R), with nu the Minkowski norm of the residual
        u = y + (<x, y> / R^2) x of y tangent at x, formed and squared one
        coordinate at a time.  It is |log_map(x, y)| in exact arithmetic,
        and agrees with that norm's floating-point value to roundoff, not
        bit for bit: the norm rounds a second time."""
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        a = _mink(x, y)
        a /= self.R**2
        u = lambda k, out: np.add(y[..., k], np.multiply(a, x[..., k], out=out), out=out)
        d = _minkowski_sum(_square(u), self.emb_dim)
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        d /= self.R
        np.arcsinh(d, out=d)
        d *= self.R
        return d[()]

    def log_map(self, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        u = y + (_mink(x, y) / self.R**2)[..., None] * x
        nu = np.sqrt(np.maximum(_mink(u, u), 0.0))
        d = self.R * np.arcsinh(nu / self.R)
        tiny = nu < 1e-300
        return np.where(tiny[..., None], 0.0,
                        (d / np.where(tiny, 1.0, nu))[..., None] * u)
