"""Heat semigroup evaluation on the model spaces.

The generator L is Laplacian + drift throughout, so the Euclidean kernel
at time t has covariance 2tI.  Each backend takes a field f once and
evaluates, for points x of shape (..., emb) and times t > 0 (a number or
an array that broadcasts against x's batch shape), the jet
(P_t f, |grad P_t f|, L P_t f) in closed form.  f may be a family of
fields, one per point of x's batch, whose parameters carry a trailing
singleton axis (a0[:, None] for a batch (B,)) to meet each backend's nodes:

* GaussHermite  - Euclidean and linear-drift spaces of dimension <= 2:
  P_t f(x) = E f(a x + sigma Z) by tensor Gauss-Hermite quadrature, Z with
  density e^{-|z|^2} / pi^{m/2}, a = e^{-lam t} and
  sigma^2 = 2 (1 - e^{-2 lam t}) / lam (a = 1 and sigma^2 = 4t when flat).
  Gaussian integration by parts gives grad P_t f = a E[f 2Z] / sigma and
  L P_t f = -lam x . grad P_t f + (2 a^2 / sigma^2) E[f (2|Z|^2 - m)].
* CircleFourier - circles of radius rho: Fourier multipliers e^{-(k/rho)^2 t},
  ik/rho for the arclength derivative and -(k/rho)^2 for L.
* SphereZonal   - zonal functions on 2-spheres: the Legendre series
  sum c_l e^{-l(l+1) t/rho^2} P_l(u) in u = cos(polar angle), with
  |grad| = sqrt(1 - u^2) |sum c_l e^{..} P_l'(u)| / rho and L the
  multiplier -l(l+1)/rho^2, with P_l from numpy's legvander.

default_backend picks the first backend whose applies_to holds, built once
per process on first use and shared by every thread: a backend only reads
its tables.  heat_jet returns the jet from the space's backend (a space
with none raises BackendMismatch); heat_apply returns the value alone, and
f itself at t = 0.  slice_chart is the 1-D slice the gradient checks
evaluate on (a 2-sphere's meridian, the circle, the first axis of E^m).
frame_stencil evaluates a function at exp_x(+-h e_i) over the orthonormal
frame e_i at x: the geodesic central differences of fields with no
analytic gradient.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import legder, leggauss, legvander

from .geometry import Euclidean, EuclideanOU, ModelSpace, Sphere

MODES = 64   # nodes per axis or modes of every deterministic backend

__all__ = [
    "HeatBackend",
    "GaussHermite",
    "CircleFourier",
    "SphereZonal",
    "default_backend",
    "slice_chart",
    "frame_stencil",
    "heat_jet",
    "heat_apply",
]


class BackendMismatch(TypeError):
    """Backend applied to a space it does not model."""


class HeatBackend:
    #: the points at which jet evaluates each field, by the space's dimension
    field_size: dict[int, int]

    @classmethod
    def applies_to(cls, space: ModelSpace) -> bool:  # pragma: no cover
        raise NotImplementedError

    def jet(self, space, f, t, x):  # pragma: no cover
        """(P_t f, |grad P_t f|, L P_t f) at points x (..., emb), each of
        the broadcast batch shape of x and t > 0; heat_jet picks the
        backend and checks the times."""
        raise NotImplementedError


class GaussHermite(HeatBackend):
    """P_t f(x) = E f(a x + sigma Z) by tensor Gauss-Hermite quadrature: the
    Gaussian kernel of the flat or the linear-drift generator."""

    def __init__(self):
        z, w = hermgauss(MODES)
        # per dimension m: the nodes Z (n, m) and, as the columns of one
        # matrix, the weights of E[f], E[f (2|Z|^2 - m)] and E[f 2Z]
        self._tables, self.field_size = {}, {}
        for m in (1, 2):
            offs = np.stack(np.meshgrid(*(z,) * m, indexing="ij"), axis=-1).reshape(-1, m)
            self.field_size[m] = len(offs)
            wts = np.prod(np.meshgrid(*(w,) * m, indexing="ij"), axis=0).ravel()
            wts = wts / math.pi ** (m / 2)
            lap = wts * (2.0 * np.sum(offs**2, axis=-1) - m)
            self._tables[m] = offs, np.column_stack([wts, lap, 2.0 * wts[:, None] * offs])

    @classmethod
    def applies_to(cls, space):
        return isinstance(space, Euclidean) and space.dim <= 2

    def jet(self, space, f, t, x):
        offs, weights = self._tables[space.dim]
        t = t[..., None]
        lam = space.lam if isinstance(space, EuclideanOU) else 0.0
        if lam:
            a = np.exp(-lam * t)
            sigma = np.sqrt(-2.0 * np.expm1(-2.0 * lam * t) / lam)
        else:
            a, sigma = 1.0, 2.0 * np.sqrt(t)
        vals = np.asarray(f((a * x)[..., None, :] + sigma[..., None] * offs), dtype=float)
        moments = np.einsum("...n,nk->...k", vals, weights)
        scale = (a / sigma)[..., 0]
        grad = scale[..., None] * moments[..., 2:]
        gen = 2.0 * scale**2 * moments[..., 1]
        if lam:
            gen = gen - lam * (x * grad).sum(-1)
        return moments[..., 0], np.sqrt((grad**2).sum(-1)), gen


class CircleFourier(HeatBackend):
    """Fourier-multiplier semigroup on a circle of radius rho."""

    def __init__(self):
        n = 2 * MODES
        self._unit_circle = slice_chart(Sphere(1), 2.0 * math.pi * np.arange(n) / n)
        self.field_size = {1: n}
        self._ks = ks = np.arange(MODES + 1)
        # the real series c_0 + 2 Re sum_{k>=1} c_k e^{ik theta}, its first
        # and its second theta derivative, as the columns of one matrix
        twice = np.where(ks == 0, 1.0, 2.0)
        self._multipliers = np.stack([twice, 1j * ks * twice, -(ks**2) * twice], axis=-1)

    @classmethod
    def applies_to(cls, space):
        return isinstance(space, Sphere) and space.dim == 1

    def jet(self, space, f, t, x):
        rho, ks = space.radius, self._ks
        vals = np.asarray(f(rho * self._unit_circle), dtype=float)
        coeff = np.fft.rfft(vals) / vals.shape[-1]
        theta0 = np.arctan2(x[..., 1], x[..., 0])
        terms = coeff * np.exp(-(ks / rho) ** 2 * t[..., None] + 1j * ks * theta0[..., None])
        out = np.einsum("...n,nk->...k", terms, self._multipliers).real
        return out[..., 0], np.abs(out[..., 1]) / rho, out[..., 2] / rho**2


class SphereZonal(HeatBackend):
    """Legendre-multiplier semigroup for zonal functions on a 2-sphere.

    The input f must be rotationally symmetric about the axis e_z; it is
    read off along the meridian through e_x and expanded in Legendre
    polynomials with Gauss-Legendre quadrature.  A field whose values at
    two more azimuths differ from the meridian's by more than 1e-9 of its
    largest value raises ValueError.
    """

    def __init__(self):
        u, w = leggauss(2 * MODES)
        # the nodes at polar angle arccos(u) on the unit sphere: along the
        # meridian towards e_x, then at two more azimuths, where a field
        # that is not zonal about e_z differs from the meridian
        e_x, e_y, e_z = np.eye(3)
        turned = [math.cos(phi) * e_x + math.sin(phi) * e_y
                  for phi in (2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)]
        u_col = u[:, None]
        self._rings = np.stack([u_col * e_z + np.sqrt(np.maximum(1 - u_col**2, 0.0)) * d
                                for d in (e_x, *turned)])
        self.field_size = {2: self._rings[..., 0].size}
        ls = np.arange(MODES)
        self._eig = -ls * (ls + 1.0)
        # c_l = (2l+1)/2 sum_j w_j f(u_j) P_l(u_j)
        self._project = legvander(u, MODES - 1) * (w[:, None] * (ls + 0.5))
        # series coefficients -> those of the derivative series (the last is 0)
        self._deriv = np.vstack([legder(np.eye(MODES)), np.zeros(MODES)]).T

    @classmethod
    def applies_to(cls, space):
        return isinstance(space, Sphere) and space.dim == 2

    def _coefficients(self, space, f):
        vals = np.asarray(f(space.radius * self._rings[0]), dtype=float)
        turned = space.radius * self._rings[1:]
        others = np.asarray(f(turned.reshape(-1, 3)), dtype=float).reshape(*vals.shape[:-1], 2, -1)
        # each field of a family is judged against its own largest value
        tol = 1e-9 * np.max(np.abs(vals), axis=-1, keepdims=True)
        if np.any(np.abs(others - vals[..., None, :]) > tol[..., None]):
            raise ValueError("SphereZonal needs a field rotationally symmetric about its axis")
        # a 1-D product per field: a batched one sums in another order
        return np.apply_along_axis(np.matmul, -1, vals, self._project)

    def jet(self, space, f, t, x):
        rho = space.radius
        series = self._coefficients(space, f) * np.exp(self._eig * (t[..., None] / rho**2))
        u0 = np.clip(x[..., 2] / rho, -1.0, 1.0)
        P = legvander(u0, MODES - 1).reshape(u0.shape + (MODES,))  # a 0-d u0 gives (1, MODES)
        slope = (np.einsum("...n,nk->...k", series, self._deriv) * P).sum(-1)
        return ((series * P).sum(-1), np.sqrt(1.0 - u0**2) * np.abs(slope) / rho,
                (series * self._eig * P).sum(-1) / rho**2)


_BACKENDS = (GaussHermite, CircleFourier, SphereZonal)
_built: dict[type, HeatBackend] = {}
_building = threading.Lock()


def default_backend(space: ModelSpace) -> HeatBackend:
    """The first deterministic backend that models the space, built on first
    use and shared by every later call (and thread) of the process."""
    for cls in _BACKENDS:
        if cls.applies_to(space):
            with _building:
                if cls not in _built:
                    _built[cls] = cls()
                return _built[cls]
    raise BackendMismatch(f"no deterministic backend for {space!r}")


def slice_chart(space: ModelSpace, theta) -> np.ndarray:
    """The points of the 1-D slice at parameters theta (an array):
    rho (sin theta, 0, cos theta) on a 2-sphere, rho (cos theta, sin theta)
    on a circle and theta e_0 on E^m, where E^1 takes a view of theta."""
    if isinstance(space, Sphere) and space.dim == 2:
        return space.radius * np.stack(
            [np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)
    if isinstance(space, Sphere) and space.dim == 1:
        return space.radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    if isinstance(space, Euclidean):
        if space.dim == 1:
            return theta[..., None]
        pts = np.zeros(theta.shape + (space.dim,))
        pts[..., 0] = theta
        return pts
    raise ValueError(f"no 1-D slice of {space.label}")


def heat_jet(space: ModelSpace, f, t, x):
    """(P_t f, |grad P_t f|, L P_t f) at points x (..., emb) and times t > 0,
    a number or an array that broadcasts against x's batch shape."""
    backend = default_backend(space)
    t = np.asarray(t, dtype=float)
    if not (t > 0).all():
        raise ValueError("the heat jet needs t > 0")
    return backend.jet(space, f, t, np.asarray(x, dtype=float))


def heat_apply(space: ModelSpace, f, t, x):
    """P_t f(x) at points x (..., emb): f(x) itself when t is the number 0,
    else the value of heat_jet; either refuses a space with no backend."""
    if np.ndim(t) == 0 and t == 0:  # one node per point, as a family of fields expects
        default_backend(space)
        return np.asarray(f(np.asarray(x, dtype=float)[..., None, :]), dtype=float)[..., 0][()]
    return heat_jet(space, f, t, x)[0][()]


def frame_stencil(space: ModelSpace, g, x, h: float):
    """(frame, plus, minus): the orthonormal frame at x (a point or a batch)
    and, for each frame vector e_i, g(exp_x(h e_i)) in plus and
    g(exp_x(-h e_i)) in minus."""
    frame = space.frame(x)
    plus, minus = [], []
    for i in range(space.dim):
        step = h * frame[..., i, :]
        plus.append(g(space.exp_map(x, step)))
        minus.append(g(space.exp_map(x, -step)))
    return frame, plus, minus
