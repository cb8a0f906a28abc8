"""Coupled geodesic random walks and exact heat laws.

A walk with discretization parameter k takes k^2 steps per unit of
(rescaled) time.  Each step draws one sample zeta uniform on the unit
ball of R^m, lifts it to the tangent space through the running
orthonormal frame as zeta_tilde = sqrt(2(m+2)) * Phi zeta, and moves

    x <- exp_x( sqrt(tau)/k * zeta_tilde + tau/k^2 * Z(x) ).

The frame rides the step's own geodesic: one exp_transport call moves
the point and transports the frame along it, which realizes a
horizontal lift of the driving noise.  run_coupled drives the second
walker with the first walker's noise transported along the connecting
minimal geodesic, from one log map (identity transport when the pair
sits on the diagonal), each with its own time scale tau_i.  It is the
paper's coupling: ctl simulate dumps its paths.

Where a check needs only the heat laws P_t delta_x and no path,
sample_heat draws them exactly: a uniform direction from the start and
a radius, the scaled Gaussian norm on a flat space or one of dimension
1, and an inverse CDF of the radial law on S^d (one Gegenbauer series
for every d >= 2) and on H^2 (McKean's kernel) and H^3 (its closed-form
kernel), integrated by comparison._cumulative_simpson.  All sides of a
trajectory share its Gaussian and its uniforms, a quantile coupling of
the sides.  H^m for m >= 4 is refused.

Where a check needs only a moment E h(rho_1) of the coupled distance at
time 1, coupled_distance_moment takes it from its law: on E^m, S^m and
H^m the distance of the synchronous coupling is itself a diffusion on
[0, diam], whose backward equation is solved on a grid from h, a
transport cost as a function of the distance.  prectl's lhs is such a
moment, and so is the upper side of the two-sided transport checks: the
coupling is one of the couplings that W_p minimizes over.

One driver, _clouds, draws every cloud: it goes over the trajectories
in chunks, stacks each side's start rows and frames, and hands them to
a kernel that moves the chunk.  There are two kernels: run_coupled
walks the pair (x, y), counts near-cut events and keeps snapshots;
sample_heat makes one exact jump per side.

Reproducibility: trajectory j draws from its own counter-based Philox
stream keyed by (seed, j), its Gaussians first and then its uniforms,
so results are bit-identical for any chunk size or degree of
parallelism; aggregation happens in trajectory order.  A chunk draws its
streams through one Philox generator that is re-keyed per trajectory,
and every side of a run (the two heat clouds of a two-sided check, say)
moves on that one draw, so each stream is drawn once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .comparison import _cumulative_simpson, comp_c, comp_s, comp_s_inverse, decay_mean
from .geometry import Euclidean, EuclideanOU, Hyperbolic, ModelSpace, Sphere
from .transport import CostSpec, PthPowerDistance, _flapack

__all__ = [
    "WalkConfig",
    "CoupledState",
    "CoupledWalkPath",
    "trajectory_rng",
    "sample_unit_ball",
    "run_coupled",
    "coupled_distance_moment",
    "sample_heat",
    "write_path_csv",
]

_CHUNK = 1024
_DIAGONAL_TOL = 1e-12
_WORD = 0xFFFFFFFFFFFFFFFF
_TABLE = 2048   # intervals of a radial table of sample_heat
_TAIL = 45.0    # a radial table stops where the law's tail is about e^-_TAIL
_CELLS = 400    # cells of the coarser grid of coupled_distance_moment


def _trajectory_key(seed: int, index: int) -> np.ndarray:
    """The 128-bit Philox key (seed << 64) | index as its two uint64
    words, low word first."""
    return np.array([int(index) & _WORD, int(seed) & _WORD], dtype=np.uint64)


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """The counter-based stream for one trajectory: Philox keyed by (seed, index)."""
    return np.random.Generator(np.random.Philox(key=_trajectory_key(seed, index)))


def sample_unit_ball(m: int, rng: np.random.Generator, size: int | None = None):
    """Uniform samples from the closed unit ball of R^m.

    Direction from a normalized Gaussian, radius as U^(1/m); the
    coordinate covariance is I/(m+2).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = 1 if size is None else size
    g = rng.standard_normal((n, m))
    norm = np.linalg.norm(g, axis=-1, keepdims=True)
    norm[norm == 0.0] = 1.0
    radii = rng.random((n, 1)) ** (1.0 / m)
    out = g / norm * radii
    return out[0] if size is None else out


@dataclass(frozen=True)
class WalkConfig:
    """Sampling plan for a walk run."""

    k: int = 20
    n_trajectories: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")

    @property
    def n_steps(self) -> int:
        return self.k**2


@dataclass
class CoupledState:
    """Positions of the two walkers plus the running frame at the first."""

    x1: np.ndarray
    x2: np.ndarray
    frame1: np.ndarray


@dataclass
class Snapshot:
    step: int
    t: float
    x1: np.ndarray
    x2: np.ndarray


@dataclass
class CoupledWalkPath:
    """Trajectory bundle of a coupled run (replayable from the seed)."""

    tau1: float
    tau2: float
    config: WalkConfig
    terminal: CoupledState
    snapshots: list = field(default_factory=list)
    near_cut_events: int = 0
    terminal_distances: Optional[np.ndarray] = None


def _lift(frame: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Map ball coordinates (..., m) through frames (..., m, emb) to
    tangent vectors."""
    return math.sqrt(2.0 * (frame.shape[-2] + 2)) * np.einsum("...i,...ie->...e", zeta, frame)


def _velocity(space, x, zt, tau, k):
    """sqrt(tau)/k * zt + tau/k^2 * Z(x), projected onto the tangent space at x."""
    inv_k = 1.0 / k
    inv_k2 = inv_k * inv_k
    v = np.sqrt(tau) * inv_k * zt + tau * inv_k2 * space.drift(x)
    return space.project_tangent(x, v)


def _step_coupled_arrays(space, x1, x2, frame1, zeta, tau1, tau2, k):
    """One update of the coupled chain on batched state arrays: the first
    walker steps and carries its frame along the step's own geodesic, and
    the second steps on that lifted noise transported to it."""
    zt1 = _lift(frame1, zeta)
    v1 = _velocity(space, x1, zt1, tau1, k)[..., None, :]
    new_x1, new_frame = space.exp_transport(x1[..., None, :], v1, frame1)
    u = space.log_map(x1, x2)
    diag = space._norm(u) < _DIAGONAL_TOL
    zt2 = np.where(diag, zt1, space.exp_transport(x1, u, zt1)[1])
    return new_x1[..., 0, :], space.exp_map(x2, _velocity(space, x2, zt2, tau2, k)), new_frame


def _draws(seed, lo, hi, normal_shape, uniform_shape):
    """Gaussians (hi-lo, *normal_shape) and uniforms (hi-lo, *uniform_shape)
    for trajectories lo..hi-1: row j - lo draws its Gaussians and then its
    uniforms from trajectory_rng(seed, j), bit for bit.  One Philox
    generator serves them all: per trajectory it is re-keyed with counter
    0 and an empty buffer, the state of a fresh generator."""
    g = np.empty((hi - lo, *normal_shape))
    u = np.empty((hi - lo, *uniform_shape))
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    state = bits.state
    for j in range(lo, hi):
        state["state"]["key"][:] = _trajectory_key(seed, j)
        bits.state = state
        gen.standard_normal(out=g[j - lo])
        gen.random(out=u[j - lo])
    return g, u


def _draw_chunk_noise(seed, lo, hi, n_steps, m):
    """Ball samples for trajectories lo..hi-1, shape (hi-lo, n_steps, m).

    Row j - lo equals sample_unit_ball(m, trajectory_rng(seed, j),
    size=n_steps) bit for bit; the ball transform runs once over the
    whole chunk.
    """
    g, radii = _draws(seed, lo, hi, (n_steps, m), (n_steps, 1))
    norm = np.linalg.norm(g, axis=-1, keepdims=True)
    norm[norm == 0.0] = 1.0
    radii **= 1.0 / m
    g /= norm
    g *= radii
    return g


def _clouds(space: ModelSpace, starts: list, cfg: WalkConfig, move) -> np.ndarray:
    """The clouds of cfg.n_trajectories trajectories from each side's start,
    stacked as (sides, n, emb), in chunks of _CHUNK trajectories.

    A start is a point or per-trajectory rows.  Per chunk lo..hi-1 the
    sides' start rows are stacked as (sides, chunk, emb) and their frames,
    each built from that side's rows alone, as (sides, chunk, m, emb);
    move(lo, hi, points, frames) returns the chunk's cloud points.
    """
    n = cfg.n_trajectories
    out = np.empty((len(starts), n, space.emb_dim))
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        points = np.stack([s[lo:hi] if s.ndim == 2 else np.broadcast_to(s, (hi - lo, s.size))
                           for s in starts])
        frames = np.stack([space.frame(p) for p in points])
        out[:, lo:hi] = move(lo, hi, points, frames)
    return out


def _sides(space: ModelSpace, starts: tuple, taus: tuple, cfg: WalkConfig):
    """The starts and time scales of a run, checked: one start per time
    scale, each a point or per-trajectory rows."""
    starts = [np.asarray(s, dtype=float) for s in starts]
    if len(starts) != len(taus):
        raise ValueError("need one start per time scale")
    if any(t < 0 for t in taus):
        raise ValueError("time scales must be nonnegative")
    for s in starts:
        space.check_point(s)
        if s.ndim == 2 and s.shape[0] != cfg.n_trajectories:
            raise ValueError("per-trajectory starts must match n_trajectories")
    return starts, taus


def run_coupled(space: ModelSpace, x, y, tau1: float, tau2: float, cfg: WalkConfig,
                retain_every: Optional[int] = None) -> CoupledWalkPath:
    """Run cfg.n_trajectories independent coupled walks from (x, y).

    The terminal pair approximates a coupling of the heat distributions
    at times tau1 (from x) and tau2 (from y).  With retain_every, the
    path keeps a snapshot of both walkers at every retain_every-th step,
    plus the first and the last.
    """
    (x, y), _ = _sides(space, (x, y), (tau1, tau2), cfg)
    if retain_every is not None and retain_every < 1:
        raise ValueError("retain_every must be >= 1")
    steps = cfg.n_steps
    kept = () if retain_every is None else {0, steps, *range(0, steps + 1, retain_every)}
    retained: dict[int, list] = {s: [] for s in sorted(kept)}
    frame1 = np.empty((cfg.n_trajectories, space.dim, space.emb_dim))
    near_cut = 0

    def move(lo, hi, points, frames):
        nonlocal near_cut
        noise = _draw_chunk_noise(cfg.seed, lo, hi, steps, space.dim)
        (x1, x2), fr = points, frames[0]
        if 0 in retained:
            retained[0].append(points)
        for i in range(steps):
            near_cut += int(np.count_nonzero(space.is_near_cut(x1, x2)))
            x1, x2, fr = _step_coupled_arrays(space, x1, x2, fr, noise[:, i, :], tau1, tau2, cfg.k)
            if i + 1 in retained:
                retained[i + 1].append(np.stack([x1, x2]))
        frame1[lo:hi] = fr
        return np.stack([x1, x2])

    x1, x2 = _clouds(space, (x, y), cfg, move)
    dt = 1.0 / steps
    snapshots = [Snapshot(s, s * dt, *np.concatenate(parts, axis=1))
                 for s, parts in retained.items()]
    return CoupledWalkPath(
        tau1=tau1, tau2=tau2, config=cfg,
        terminal=CoupledState(x1=x1, x2=x2, frame1=frame1),
        snapshots=snapshots, near_cut_events=near_cut,
        terminal_distances=space.distance(x1, x2))


# ---------------------------------------------------------------------------
# the law of the coupled distance


def coupled_distance_moment(space: ModelSpace, d0: float, tau1: float, tau2: float,
                            cost: CostSpec) -> tuple[float, float]:
    """(E h(rho_1), bound) for the distance rho = d(X, Y) of the synchronous
    coupling that run_coupled realizes, started at distance d0, with X at
    time scale a = tau1 and Y at b = tau2, and h(r) the cost's function
    of the distance (r^p for PthPowerDistance(p)); bound bounds the error
    of the value.  As the law of an admissible coupling, it bounds from
    above the optimal transport cost between the heat laws P_a delta_x and
    P_b delta_y with that cost.

    On E^m, S^m and H^m the isometries act transitively on pairs at a
    given distance and the coupling is equivariant under them, so rho is
    itself a diffusion on [0, diam] (Kendall, Stochastics 19, 1986;
    Cranston, J. Funct. Anal. 99, 1991):

        d rho = (m - 1)[(a + b) c_k(rho) - 2 sqrt(ab)] / s_k(rho) du + sqrt(2D) dW

    over u in [0, 1], with D = (sqrt(a) - sqrt(b))^2 and k the sectional
    curvature.  Its generator is (1/w)(D w f')' with the speed density

        log w(r) = (m - 1)[log s_k(r) + (4 sqrt(ab)/D) log c_k(r/2)],

    so the backward equation is solved in that flux form on a
    cell-centred grid with zero flux through both ends; each flux takes
    the exact jump of log w between neighbouring cells through the
    Bernoulli weight x/(e^x - 1), which keeps it stable however strong
    the drift is against the noise.  The discrete generator conserves
    mass and needs no boundary condition: for m >= 2 both ends are
    entrance boundaries, for m = 1 rho is reflected Brownian motion.  The
    grid is [0, pi/sqrt(k)] on S^m.  On E^m and H^m the drift lies
    between 0 and (m - 1)(D/r + sqrt(-k)(a + b)), and the grid is cut
    where the law's tails are below about e^-_TAIL on either side.
    Time steps by Crank-Nicolson.  Two grids of _CELLS and 2 _CELLS cells
    give the value by Richardson extrapolation and the bound as their
    difference, which bounds the extrapolation's error whether the grids
    converge at second order (a smooth law) or at first order (noise
    small against a cell).

    Two cases are exact, with bound 0: E^m with h(r) = r^2, where
    E rho^2 = d0^2 + 2mD, and a = b, where no noise is left and
    s_k(rho/2) = s_k(d0/2) e^{-(m-1) k a}.  OU is refused: with a != b
    its coupling is not isometry-equivariant.
    """
    if isinstance(space, EuclideanOU):
        raise ValueError("the coupled distance on OU is not a diffusion of its own")
    if tau1 < 0 or tau2 < 0:
        raise ValueError("time scales must be nonnegative")
    m, kap = space.dim, space.sectional_curvature
    diam = math.pi / math.sqrt(kap) if kap > 0 else math.inf
    if not 0.0 <= d0 <= diam:
        raise ValueError(f"d0 = {d0!r} must lie in [0, {diam:.6g}]")
    D = (math.sqrt(tau1) - math.sqrt(tau2)) ** 2
    if D == 0.0:
        shrink = math.exp(-(m - 1) * kap * tau1)
        rho = 2.0 * comp_s_inverse(kap, comp_s(kap, d0 / 2.0) * shrink)
        return float(cost.of_distance(rho)), 0.0
    if kap == 0.0 and cost == PthPowerDistance(2.0):
        return d0 * d0 + 2.0 * m * D, 0.0
    if kap > 0:
        lo, hi = 0.0, diam
    else:
        spread = 2.0 * math.sqrt(D * (_TAIL + m))
        lo, hi = max(0.0, d0 - spread), d0 + (m - 1) * math.sqrt(-kap) * (tau1 + tau2) + spread
    weight = 4.0 * math.sqrt(tau1 * tau2) / D
    log_w = lambda r: (m - 1) * (np.log(comp_s(kap, r)) + weight * np.log(comp_c(kap, r / 2.0)))
    coarse, fine = (_backward_moment(log_w, D, lo, hi, cells, d0, cost.of_distance)
                    for cells in (_CELLS, 2 * _CELLS))
    return (4.0 * fine - coarse) / 3.0, abs(fine - coarse)


def _backward_moment(log_w, D: float, lo: float, hi: float, cells: int, d0: float,
                     h) -> float:
    """E h(rho_1) from rho_0 = d0: the backward equation of the generator
    (1/w)(D w f')' from f = h over unit time, on `cells` cells of
    [lo, hi] with a quarter as many Crank-Nicolson steps (the time error
    stays far below the space error), read at d0 by cubic interpolation
    through the four nearest cell centres."""
    lapack = _flapack()
    dr = (hi - lo) / cells
    r = lo + (np.arange(cells) + 0.5) * dr
    jump = np.diff(log_w(r))
    with np.errstate(over="ignore", invalid="ignore"):
        up = np.where(jump == 0.0, 1.0, -jump / np.expm1(-jump)) * (D / dr**2)
        down = np.where(jump == 0.0, 1.0, jump / np.expm1(jump)) * (D / dr**2)
    diag = np.zeros(cells)
    diag[:-1] -= up
    diag[1:] -= down
    steps = max(1, cells // 4)
    half = 0.5 / steps
    diag, up, down = half * diag, half * up, half * down   # the (dt/2) A bands
    # I - (dt/2) A is strictly diagonally dominant, so the factorization exists
    *lu, _ = lapack.dgttrf(-down, 1.0 - diag, -up)
    v = np.array(h(r), float)
    rhs, scratch = np.empty(cells), np.empty(cells - 1)
    for _ in range(steps):
        np.multiply(diag, v, out=rhs)
        rhs += v
        rhs[:-1] += np.multiply(up, v[1:], out=scratch)
        rhs[1:] += np.multiply(down, v[:-1], out=scratch)
        # solved in place, and the old v's buffer takes the next right-hand side
        v, rhs = lapack.dgttrs(*lu, rhs, overwrite_b=1)[0], v
    j = min(max(math.floor((d0 - lo) / dr - 0.5) - 1, 0), cells - 4)
    t = (d0 - r[j]) / dr
    weights = (-(t - 1) * (t - 2) * (t - 3) / 6, t * (t - 2) * (t - 3) / 2,
               -t * (t - 1) * (t - 3) / 2, t * (t - 1) * (t - 2) / 6)
    return float(np.dot(weights, v[j:j + 4]))


# ---------------------------------------------------------------------------
# exact heat laws


def _quantile(density: np.ndarray, x: np.ndarray):
    """u -> the u-quantile of the law whose density, up to a factor, is
    sampled on the increasing grid x: its CDF is the cumulative Simpson
    integral, clipped at 0, made monotone and normalized, and is inverted
    by linear interpolation."""
    cdf = np.maximum.accumulate(np.maximum(_cumulative_simpson(density, x), 0.0))
    cdf /= cdf[-1]
    return lambda u: np.interp(u, cdf, x)


def _zonal_angle(d: int, tau: float):
    """u -> the u-quantile of the angle from the start under the heat law at
    time tau on the unit d-sphere.  Its density in the angle is the zonal
    series (Atkinson & Han, LNM 2044, 2012)

        sin^{d-1}(theta) sum_l ((l + a)/a) C_l^a(cos theta) e^{-l(l+d-1) tau},  a = (d - 1)/2,

    the Legendre series on S^2 (a = 1/2), summed by the recurrence of the
    normalized Gegenbauer polynomials
    G_l = C_l^a / C_l^a(1), (l + 2a) G_{l+1}(u) = 2(l + a) u G_l(u) - l G_{l-1}(u),
    each weighted by ((l + a)/a) C_l^a(1).  The angle grid ends at pi or where
    the tail is about e^-_TAIL, and the modes stop where e^{-l^2 tau} is too."""
    a = (d - 1) / 2.0
    theta = np.linspace(0.0, min(math.pi, 2.0 * math.sqrt(_TAIL * tau)), _TABLE + 1)
    u = np.cos(theta)
    series, prev, cur = np.ones_like(u), np.ones_like(u), u
    size = 1.0   # C_l^a(1) = binom(l + d - 2, l)
    for l in range(1, 2 + math.ceil(math.sqrt(_TAIL / tau))):
        size *= (l + d - 2) / l
        series += math.exp(-l * (l + d - 1) * tau) * ((l + a) / a * size) * cur
        prev, cur = cur, (2.0 * (l + a) * u * cur - l * prev) / (l + 2.0 * a)
    return _quantile(np.sin(theta) ** (d - 1) * series, theta)


def _hyperbolic_radius(tau: float):
    """(u, v) -> a radius of the heat law at time tau on the unit hyperbolic
    plane, from McKean's kernel

        p_tau(r) = sqrt(2) e^{-tau/4} (4 pi tau)^{-3/2}
                   int_r^inf s e^{-s^2/4tau} (cosh s - cosh r)^{-1/2} ds

    read as a mixture: S has the density proportional to
    s sinh(s/2) e^{-s^2/4tau}, and given S the radius has the CDF
    1 - sqrt((cosh S - cosh r)/(cosh S - 1)) on [0, S].  So S is the
    u-quantile of its law, tabulated where the density is above about
    e^-_TAIL of its peak, and sinh(r/2) = sinh(S/2) sqrt(v (2 - v))."""
    half = 2.0 * math.sqrt(_TAIL * tau)
    s = np.linspace(max(0.0, tau - half), tau + half, _TABLE + 1)
    # s sinh(s/2) e^{-s^2/4tau} = e^{tau/4}/2 * s (1 - e^{-s}) e^{-(s - tau)^2/4tau}
    mixing = _quantile(s * -np.expm1(-s) * np.exp(-(s - tau) ** 2 / (4.0 * tau)), s)
    return lambda u, v: 2.0 * np.arcsinh(np.sinh(mixing(u) / 2.0) * np.sqrt(v * (2.0 - v)))


def _hyperbolic3_radius(tau: float):
    """(u, v) -> the u-quantile of the radius of the heat law at time tau on
    unit hyperbolic 3-space.  The kernel (4 pi tau)^{-3/2} (r / sinh r)
    e^{-tau - r^2/4tau} (Grigor'yan & Noguchi, Bull. LMS 30, 1998) times the
    area element 4 pi sinh^2 r gives the radial density, proportional to
    r sinh r e^{-r^2/4tau}; it is tabulated where it is above about
    e^-_TAIL of its peak."""
    half = 2.0 * math.sqrt(_TAIL * tau)
    r = np.linspace(max(0.0, 2.0 * tau - half), 2.0 * tau + half, _TABLE + 1)
    # r sinh r e^{-r^2/4tau} = e^{tau}/2 * r (1 - e^{-2r}) e^{-(r - 2tau)^2/4tau}
    radius = _quantile(r * -np.expm1(-2.0 * r) * np.exp(-(r - 2.0 * tau) ** 2 / (4.0 * tau)), r)
    return lambda u, v: radius(u)


def _radius(space: ModelSpace, t: float):
    """(|g|, u, v) -> the distance from the start of the heat law P_t delta_x,
    for a standard Gaussian g in R^m and uniforms u and v.  A flat space's
    radius is sqrt(var) |g|, var the variance per coordinate; a curved
    space's time is rescaled to the unit space and its radius scaled back."""
    if isinstance(space, Euclidean) or space.dim == 1:
        lam = space.lam if isinstance(space, EuclideanOU) else 0.0
        scale = math.sqrt(2.0 * t * decay_mean(2.0 * lam * t))
        return lambda norm, u, v: scale * norm
    if isinstance(space, Sphere):
        angle = _zonal_angle(space.dim, t / space.radius**2)
        return lambda norm, u, v: space.radius * angle(u)
    radius = (_hyperbolic_radius if space.dim == 2 else _hyperbolic3_radius)(t / space.R**2)
    return lambda norm, u, v: space.R * radius(u, v)


def sample_heat(space: ModelSpace, x: tuple, tau: tuple, cfg: WalkConfig) -> np.ndarray:
    """Exact samples of the heat laws P_tau delta_x, stacked as (sides, n, emb).
    x holds one start per side, a point or per-trajectory rows, and tau one
    time per side; cfg.k is not used.  Every space has its law but
    hyperbolic space of dimension 4 or more, which is refused.

    Trajectory j draws from its stream trajectory_rng(cfg.seed, j) a
    Gaussian g in R^m and two uniforms u, v.  Each side sets
    X = exp_c(r * (g / |g|) . Phi), with Phi the frame at its start, c the
    start (on OU the mean e^{-lam tau} x) and r its radial law: on a flat
    space or one of dimension 1, sqrt(var) |g|; on S^d, H^2 and H^3 a
    quantile of its table at (u, v).  All sides share g, u and v, so every
    side's radius rises with the same draw: a quantile coupling.  At
    tau = 0 a side is its start, bit for bit.
    """
    if isinstance(space, Hyperbolic) and space.dim > 3:
        raise ValueError(f"no exact heat law on {space.label}: hyperbolic space is "
                         "tabulated in dimensions 2 and 3 only")
    starts, taus = _sides(space, x, tau, cfg)
    m = space.dim
    radii = [_radius(space, t) if t > 0 else None for t in taus]

    def move(lo, hi, points, frames):
        g, uv = _draws(cfg.seed, lo, hi, (m,), (2,))
        norm = np.linalg.norm(g, axis=-1)
        g /= np.where(norm == 0.0, 1.0, norm)[:, None]
        for side, (t, radius) in enumerate(zip(taus, radii)):
            if radius is None:
                continue
            direction = sum(g[:, i, None] * frames[side, :, i] for i in range(m))
            rows = points[side]
            if isinstance(space, EuclideanOU):
                rows = math.exp(-space.lam * t) * rows
            r = radius(norm, uv[:, 0], uv[:, 1])
            points[side] = space.exp_map(rows, r[:, None] * direction)
        return points

    return _clouds(space, starts, cfg, move)


def write_path_csv(path: CoupledWalkPath, space: ModelSpace, fh) -> None:
    """One row per retained step and trajectory:
    trajectory_id, step, t, x1 coords, x2 coords, distance."""
    emb = space.emb_dim
    cols = (["trajectory_id", "step", "t"]
            + [f"x1_{i}" for i in range(emb)]
            + [f"x2_{i}" for i in range(emb)]
            + ["distance"])
    fh.write(",".join(cols) + "\n")
    for snap in path.snapshots:
        d = space.distance(snap.x1, snap.x2)
        for j in range(snap.x1.shape[0]):
            row = [str(j), str(snap.step), f"{snap.t:.12g}"]
            row += [f"{v:.17g}" for v in snap.x1[j]]
            row += [f"{v:.17g}" for v in snap.x2[j]]
            row.append(f"{d[j]:.17g}")
            fh.write(",".join(row) + "\n")
