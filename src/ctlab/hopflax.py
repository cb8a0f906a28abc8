"""Inf-convolution semigroup on finite metric spaces.

Q_s f(x) = min_y [ f(y) + (s/p) (d(x,y)/s)^p ] is evaluated by exact
minimization over all points.  On uniform 1-D grids (interval or
circle) a one-sided time difference and a neighbour-max slope give a
pointwise Hamilton-Jacobi residual d/ds Q_s f + |grad Q_s f|^{p*}/p*,
which converges at first order in the grid spacing away from kinks.
The module also exposes the regularity inequalities of Q_s and the
Kantorovich duality gap on finite spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .transport import solve_transport

__all__ = [
    "FiniteMetricSpace",
    "hopf_lax",
    "HJResidual",
    "hj_residual",
    "LipschitzReport",
    "lipschitz_properties_check",
    "kantorovich_gap",
]

_REFINE_ITERS = 2  # c-transform refinements of kantorovich_gap's LP dual potential


@dataclass
class FiniteMetricSpace:
    """A finite metric space given by its distance matrix.

    Uniform 1-D grids additionally carry the spacing h and a neighbour
    table used by the discrete slope; `circular` marks periodic grids.
    """

    D: np.ndarray
    coords: Optional[np.ndarray] = None
    h: Optional[float] = None
    circular: bool = False
    neighbors: Optional[np.ndarray] = None

    def __post_init__(self):
        self.D = np.asarray(self.D, dtype=float)
        n = self.D.shape[0]
        if self.D.shape != (n, n):
            raise ValueError("distance matrix must be square")
        if np.max(np.abs(self.D - self.D.T)) > 1e-12:
            raise ValueError("distance matrix must be symmetric")
        if np.max(np.abs(np.diag(self.D))) > 1e-12:
            raise ValueError("diagonal must vanish")

    @property
    def size(self) -> int:
        return self.D.shape[0]

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_points(cls, space, points) -> "FiniteMetricSpace":
        points = np.atleast_2d(np.asarray(points, dtype=float))
        D = space.distance(points[:, None, :], points[None, :, :])
        D = 0.5 * (D + D.T)
        np.fill_diagonal(D, 0.0)
        return cls(D=D, coords=points)

    @classmethod
    def interval_grid(cls, n: int, length: float = 1.0) -> "FiniteMetricSpace":
        _check_grid(n, length)
        xs = np.linspace(0.0, length, n)
        D = np.abs(xs[:, None] - xs[None, :])
        nb = np.stack([np.maximum(np.arange(n) - 1, 0),
                       np.minimum(np.arange(n) + 1, n - 1)], axis=1)
        return cls(D=D, coords=xs[:, None], h=length / (n - 1), circular=False,
                   neighbors=nb)

    @classmethod
    def circle_grid(cls, n: int, circumference: float = 2 * math.pi) -> "FiniteMetricSpace":
        _check_grid(n, circumference)
        idx = np.arange(n)
        gap = np.abs(idx[:, None] - idx[None, :])
        gap = np.minimum(gap, n - gap)
        h = circumference / n
        nb = np.stack([(idx - 1) % n, (idx + 1) % n], axis=1)
        return cls(D=gap * h, coords=(idx * h)[:, None], h=h, circular=True,
                   neighbors=nb)


def _check_grid(n: int, length: float) -> None:
    if n < 2:
        raise ValueError(f"a grid needs at least 2 points, got {n}")
    if not length > 0:
        raise ValueError(f"grid length must be positive, got {length}")


def hopf_lax(space: FiniteMetricSpace, f: np.ndarray, s: float, p: float) -> np.ndarray:
    """Exact inf-convolution (Q_s f)(x) = min_y f(y) + d(x,y)^p / (p s^{p-1})."""
    if s <= 0:
        raise ValueError("s must be positive")
    if p <= 1:
        raise ValueError("p must exceed 1")
    f = np.asarray(f, dtype=float)
    if f.shape != (space.size,):
        raise ValueError("field size mismatch")
    penalty = space.D**p / (p * s ** (p - 1))
    return np.min(f[None, :] + penalty, axis=1)


def local_slope(space: FiniteMetricSpace, g: np.ndarray) -> np.ndarray:
    """Discrete local Lipschitz constant: max over grid neighbours of
    |g(y) - g(x)| / d(x, y)."""
    if space.neighbors is None:
        raise ValueError("local slope requires a grid neighbour structure")
    idx = np.arange(space.size)
    out = np.zeros(space.size)
    for col in range(space.neighbors.shape[1]):
        j = space.neighbors[:, col]
        mask = j != idx
        d = space.D[idx[mask], j[mask]]
        out[mask] = np.maximum(out[mask], np.abs(g[j[mask]] - g[mask]) / d)
    return out


@dataclass
class HJResidual:
    residual: np.ndarray
    kink_mask: np.ndarray
    interior_mask: np.ndarray
    h: float

    @property
    def max_interior(self) -> float:
        keep = self.interior_mask & ~self.kink_mask
        return float(np.max(np.abs(self.residual[keep])))


def hj_residual(grid: FiniteMetricSpace, f: np.ndarray, s: float, p: float,
                ds: Optional[float] = None) -> HJResidual:
    """Pointwise residual of d/ds Q_s f = -|grad Q_s f|^{p*} / p*.

    The time derivative is the one-sided forward difference with
    ds = h^2 by default (so the time error is subordinate to the space
    error), the slope is the neighbour-max estimate.  Points where the
    left and right slopes of Q_s f differ by more than 10 h are flagged
    as kinks and excluded from the interior maximum.
    """
    if grid.h is None or grid.neighbors is None:
        raise ValueError("hj_residual requires a uniform 1-D grid")
    if grid.size < 16:
        raise ValueError("grid too coarse (need at least 16 points)")
    h = grid.h
    if ds is None:
        ds = h * h
    if not 0 < ds < s:
        raise ValueError("need 0 < ds < s")
    pstar = p / (p - 1.0)
    Q = hopf_lax(grid, f, s, p)
    Qp = hopf_lax(grid, f, s + ds, p)
    dQ = (Qp - Q) / ds
    grad = local_slope(grid, Q)
    residual = dQ + grad**pstar / pstar

    n = grid.size
    idx = np.arange(n)
    left = grid.neighbors[:, 0]
    right = grid.neighbors[:, 1]
    sl = np.where(left != idx, (Q - Q[left]) / h, 0.0)
    sr = np.where(right != idx, (Q[right] - Q) / h, 0.0)
    kink = np.abs(sl - sr) > 10.0 * h
    interior = np.ones(n, dtype=bool)
    if not grid.circular:
        interior[0] = interior[-1] = False
        # one-sided slopes under-estimate near the boundary; exclude a
        # collar where the minimizer can fall outside the grid
        collar = max(1, int(0.1 * n))
        interior[:collar] = False
        interior[-collar:] = False
    return HJResidual(residual=residual, kink_mask=kink, interior_mask=interior, h=h)


@dataclass
class LipschitzReport:
    lip_f: float
    space_slack: float      # max |Q_s f(x)-Q_s f(y)| - Lip(f) d(x,y)  (<= 0 ok)
    time_slack: float       # max |Q_s' f - Q_s f| - Lip(f)^{p*}/p* |s'-s|
    monotone_slack: float   # max Q_{s2} f - Q_{s1} f for s2 >= s1  (<= 0 ok)


def lipschitz_properties_check(space: FiniteMetricSpace, f: np.ndarray,
                               s: float, s_prime: float, p: float = 2.0) -> LipschitzReport:
    """Worst-case slack of the space/time regularity of Q_s f."""
    f = np.asarray(f, dtype=float)
    off = ~np.eye(space.size, dtype=bool)
    lip = float(np.max(np.abs(f[:, None] - f[None, :])[off] / space.D[off])) if space.size > 1 else 0.0
    Q1 = hopf_lax(space, f, s, p)
    Q2 = hopf_lax(space, f, s_prime, p)
    diff = np.abs(Q1[:, None] - Q1[None, :]) - lip * space.D
    space_slack = float(np.max(diff[off])) if space.size > 1 else 0.0
    pstar = p / (p - 1.0)
    time_slack = float(np.max(np.abs(Q2 - Q1)) - lip**pstar / pstar * abs(s_prime - s))
    lo, hi = (s, s_prime) if s <= s_prime else (s_prime, s)
    Qlo = hopf_lax(space, f, lo, p)
    Qhi = hopf_lax(space, f, hi, p)
    monotone_slack = float(np.max(Qhi - Qlo))
    return LipschitzReport(lip_f=lip, space_slack=space_slack,
                           time_slack=time_slack, monotone_slack=monotone_slack)


def kantorovich_gap(space: FiniteMetricSpace, mu: np.ndarray, nu: np.ndarray,
                    p: float = 2.0) -> float:
    """Duality gap W_p^p / p - sup_f [ int Q_1 f dnu - int f dmu ].

    The candidate potential comes from the exact LP duals and is
    refined by c-transform iteration; with cost c = d^p/p the dual
    functional is exactly int Q_1 f dnu - int f dmu.  Strong duality
    makes the gap vanish up to solver tolerance, and it is nonnegative
    up to roundoff for every candidate f.
    """
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    C = space.D**p / p  # C[i, j]: i indexes the mu side, j the nu side
    primal, _, potentials = solve_transport(C, mu, nu, want_potentials=True)
    alpha, _ = potentials
    f = -alpha

    best = -np.inf
    for _ in range(_REFINE_ITERS):
        psi = np.min(f[:, None] + C, axis=0)   # Q_1 f on the nu side
        best = max(best, float(psi @ nu - f @ mu))
        f = np.max(psi[None, :] - C, axis=1)   # c-concave envelope: lowers f, keeps psi
    psi = np.min(f[:, None] + C, axis=0)
    best = max(best, float(psi @ nu - f @ mu))
    return primal - best
