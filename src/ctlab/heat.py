"""Heat semigroup evaluation on the model spaces.

The generator is Laplacian + drift throughout, so the Euclidean kernel
at time t has covariance 2tI.  Deterministic backends:

* GaussHermite      - Euclidean and linear-drift spaces, tensor Gauss-Hermite
  quadrature against the Gaussian kernel: mean x and per-coordinate
  variance 2t on flat space, mean e^{-lam t} x and variance
  (1-e^{-2 lam t})/lam with drift
* CircleFourier     - circles (1-spheres), Fourier multiplier e^{-(k/rho)^2 t}
* SphereZonal       - zonal functions on 2-spheres, Legendre multiplier
  e^{-l(l+1) t / rho^2}

plus a MonteCarlo backend that reuses the geodesic walk; default_backend
picks the first deterministic one whose applies_to holds.  slice_chart is
the 1-D slice the gradient checks evaluate on (a 2-sphere's meridian, the
circle, the first axis of E^m).  frame_stencil evaluates a function at
exp_x(+-h e_i) over the orthonormal frame e_i at x: gradients, in grad_heat
and in the checks, are its geodesic central differences.  Generator values
are central differences in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .geometry import Euclidean, EuclideanOU, ModelSpace, Sphere
from .walk import WalkConfig, run_single

__all__ = [
    "HeatValue",
    "HeatBackend",
    "GaussHermite",
    "CircleFourier",
    "SphereZonal",
    "MonteCarlo",
    "default_backend",
    "slice_chart",
    "frame_stencil",
    "heat_apply",
    "grad_heat",
    "generator_heat",
]


@dataclass(frozen=True)
class HeatValue:
    value: float
    stderr: float = 0.0

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


class BackendMismatch(TypeError):
    """Backend applied to a space it does not model."""


class HeatBackend:
    @classmethod
    def applies_to(cls, space: ModelSpace) -> bool:  # pragma: no cover
        raise NotImplementedError

    def apply(self, space, f, t, x) -> HeatValue:  # pragma: no cover
        """P_t f(x) for t > 0, x a float array and a space the backend
        applies to; heat_apply checks all three."""
        raise NotImplementedError


class GaussHermite(HeatBackend):
    """P_t f(x) = E f(mean + scale Z) by tensor Gauss-Hermite quadrature, Z with
    density e^{-|z|^2} / pi^{m/2}: the Gaussian kernel of the flat or the
    linear-drift generator."""

    def __init__(self, nodes: int = 64):
        if nodes < 8:
            raise ValueError("need at least 8 nodes")
        self.nodes = nodes
        self._z, self._w = hermgauss(nodes)
        Z1, Z2 = np.meshgrid(self._z, self._z, indexing="ij")
        self._offs2 = np.stack([Z1.ravel(), Z2.ravel()], axis=-1)
        self._w2 = np.outer(self._w, self._w).ravel()

    @classmethod
    def applies_to(cls, space):
        return isinstance(space, Euclidean) and space.dim <= 2

    def apply(self, space, f, t, x):
        if isinstance(space, EuclideanOU):
            lam = space.lam
            mean = math.exp(-lam * t) * x
            sd = math.sqrt(-math.expm1(-2.0 * lam * t) / lam)  # sd^2 = (1 - e^{-2 lam t}) / lam
            scale = math.sqrt(2.0) * sd
        else:
            mean, scale = x, 2.0 * math.sqrt(t)
        if space.dim == 1:
            pts = mean[None, :] + scale * self._z[:, None]
            vals = np.asarray(f(pts), dtype=float)
            return HeatValue(float(vals @ self._w / math.sqrt(math.pi)))
        pts = mean[None, :] + scale * self._offs2
        vals = np.asarray(f(pts), dtype=float)
        return HeatValue(float(vals @ self._w2 / math.pi))


class CircleFourier(HeatBackend):
    """Fourier-multiplier semigroup on a circle of radius rho."""

    def __init__(self, n_modes: int = 64):
        if n_modes < 8:
            raise ValueError("need at least 8 modes")
        self.n_modes = n_modes

    @classmethod
    def applies_to(cls, space):
        return isinstance(space, Sphere) and space.dim == 1

    def apply(self, space, f, t, x):
        n = 2 * self.n_modes
        theta = 2.0 * math.pi * np.arange(n) / n
        vals = np.asarray(f(slice_chart(space, theta)), dtype=float)
        coeff = np.fft.rfft(vals) / n
        ks = np.arange(coeff.size)
        decay = np.exp(-((ks / space.radius) ** 2) * t)
        theta0 = math.atan2(x[1], x[0])
        phases = np.exp(1j * ks * theta0)
        val = coeff[0].real * decay[0] + 2.0 * np.sum(
            (coeff[1:] * phases[1:]).real * decay[1:])
        return HeatValue(float(val))


class SphereZonal(HeatBackend):
    """Legendre-multiplier semigroup for zonal functions on a 2-sphere.

    The input f must be rotationally symmetric about `axis`; it is read
    off along a meridian and expanded in Legendre polynomials with
    Gauss-Legendre quadrature.  A field whose values at two more
    azimuths differ from the meridian's by more than a relative 1e-9
    raises ValueError.
    """

    def __init__(self, n_modes: int = 64, axis=(0.0, 0.0, 1.0)):
        if n_modes < 8:
            raise ValueError("need at least 8 modes")
        self.n_modes = n_modes
        axis = np.asarray(axis, dtype=float)
        self.axis = a = axis / np.linalg.norm(axis)
        self._u, self._w = leggauss(2 * n_modes)
        # deterministic orthogonal direction: smallest-component axis trick
        helper = np.zeros(3)
        helper[np.argmin(np.abs(a))] = 1.0
        perp = helper - (helper @ a) * a
        perp = perp / np.linalg.norm(perp)
        # the nodes at polar angle arccos(u) on the unit sphere: along the
        # meridian towards perp, then at two more azimuths, where a field
        # that is not zonal about the axis differs from the meridian
        turned = [math.cos(phi) * perp + math.sin(phi) * np.cross(a, perp)
                  for phi in (2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)]
        u = self._u[..., None]
        self._rings = np.stack([u * a + np.sqrt(np.maximum(1 - u**2, 0.0)) * d
                                for d in (perp, *turned)])
        # P_l(u) on the quadrature nodes via the recurrence
        P = np.zeros((n_modes, self._u.size))
        P[0] = 1.0
        if n_modes > 1:
            P[1] = self._u
        for l in range(1, n_modes - 1):
            P[l + 1] = ((2 * l + 1) * self._u * P[l] - l * P[l - 1]) / (l + 1)
        self._P = P

    @classmethod
    def applies_to(cls, space):
        return isinstance(space, Sphere) and space.dim == 2

    def _coefficients(self, space, f):
        vals = np.asarray(f(space.radius * self._rings[0]), dtype=float)
        turned = space.radius * self._rings[1:]
        others = np.asarray(f(turned.reshape(-1, 3)), dtype=float).reshape(2, -1)
        if np.any(np.abs(others - vals) > 1e-9 * np.max(np.abs(vals))):
            raise ValueError("SphereZonal needs a field rotationally symmetric about its axis")
        ls = np.arange(self.n_modes)
        return (2 * ls + 1) / 2.0 * (self._P * (self._w * vals)[None, :]).sum(axis=1)

    def apply(self, space, f, t, x):
        coeff = self._coefficients(space, f)
        ls = np.arange(self.n_modes)
        decay = np.exp(-ls * (ls + 1) * t / space.radius**2)
        u0 = float(x @ self.axis) / space.radius
        u0 = min(1.0, max(-1.0, u0))
        # evaluate Legendre polynomials at u0
        vals = np.zeros(self.n_modes)
        vals[0] = 1.0
        if self.n_modes > 1:
            vals[1] = u0
        for l in range(1, self.n_modes - 1):
            vals[l + 1] = ((2 * l + 1) * u0 * vals[l] - l * vals[l - 1]) / (l + 1)
        return HeatValue(float(np.sum(coeff * decay * vals)))


class MonteCarlo(HeatBackend):
    """Walk-based backend; works on every model space."""

    def __init__(self, cfg: WalkConfig):
        self.cfg = cfg

    @classmethod
    def applies_to(cls, space):
        return True

    def apply(self, space, f, t, x):
        result = run_single(space, x, t, self.cfg)
        vals = np.asarray(f(result.terminal), dtype=float)
        n = vals.size
        return HeatValue(float(vals.mean()),
                         float(vals.std(ddof=1) / math.sqrt(n)))


def default_backend(space: ModelSpace, n_modes: int = 64) -> HeatBackend:
    """The first deterministic backend that models the space, with n_modes
    nodes or modes."""
    for backend in (GaussHermite, CircleFourier, SphereZonal):
        if backend.applies_to(space):
            return backend(n_modes)
    raise BackendMismatch(f"no deterministic backend for {space!r}; use MonteCarlo")


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


def heat_apply(space: ModelSpace, backend: HeatBackend, f, t: float, x) -> HeatValue:
    """P_t f(x)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not backend.applies_to(space):
        raise BackendMismatch(f"{type(backend).__name__} does not model {space!r}")
    x = np.asarray(x, dtype=float)
    if t == 0:
        return HeatValue(float(f(x)))
    return backend.apply(space, f, t, x)


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


def grad_heat(space: ModelSpace, backend: HeatBackend, f, t: float, x,
              h: float = 1e-3) -> HeatValue:
    """|grad P_t f|(x) from central geodesic differences.

    The directional derivative along each frame vector is the symmetric
    difference of frame_stencil, and the gradient norm is the Euclidean
    norm of the components (exact for smooth fields up to O(h^2) bias).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    _, plus, minus = frame_stencil(space, lambda p: heat_apply(space, backend, f, t, p), x, h)
    comps = np.array([(a.value - b.value) / (2 * h) for a, b in zip(plus, minus)])
    errs = np.array([math.hypot(a.stderr, b.stderr) / (2 * h) for a, b in zip(plus, minus)])
    norm = float(np.linalg.norm(comps))
    if norm == 0.0:
        return HeatValue(0.0, float(np.linalg.norm(errs)))
    stderr = float(np.sqrt(np.sum((comps / norm) ** 2 * errs**2)))
    return HeatValue(norm, stderr)


def generator_heat(space: ModelSpace, backend: HeatBackend, f, t: float, x,
                   dt: float = 1e-4) -> HeatValue:
    """(Laplacian + drift) P_t f(x) as the symmetric time difference."""
    if not 0 < dt < t:
        raise ValueError("need 0 < dt < t")
    plus = heat_apply(space, backend, f, t + dt, x)
    minus = heat_apply(space, backend, f, t - dt, x)
    return HeatValue((plus.value - minus.value) / (2 * dt),
                     math.hypot(plus.stderr, minus.stderr) / (2 * dt))
