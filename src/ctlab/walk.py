"""Coupled geodesic random walks.

A walk with discretization parameter k takes k^2 steps per unit of
(rescaled) time.  Each step draws one sample zeta uniform on the unit
ball of R^m, lifts it to the tangent space through the running
orthonormal frame as zeta_tilde = sqrt(2(m+2)) * Phi zeta, and moves

    x <- exp_x( sqrt(tau)/k * zeta_tilde + tau/k^2 * Z(x) ).

The coupled variant drives the second walker with the parallel
transport of the first walker's noise along the connecting minimal
geodesic (identity transport when the pair sits on the diagonal), each
component with its own time scale tau_i.  The frame is transported
along the first walker's step, which realizes a horizontal lift of the
driving noise.

Reproducibility: trajectory j draws from its own counter-based Philox
stream keyed by (seed, j), so results are bit-identical for any chunk
size or degree of parallelism; aggregation happens in trajectory order.
A chunk draws its streams through one Philox generator that is re-keyed
per trajectory, and every side of a walk (the two heat clouds of a
two-sided check, say) steps on that one noise chunk, so each stream is
drawn once per walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .geometry import ModelSpace

__all__ = [
    "WalkConfig",
    "CoupledState",
    "CoupledWalkPath",
    "SingleWalkResult",
    "trajectory_rng",
    "sample_unit_ball",
    "step_coupled",
    "run_coupled",
    "run_single",
    "write_path_csv",
]

_CHUNK = 1024
_DIAGONAL_TOL = 1e-12
_WORD = 0xFFFFFFFFFFFFFFFF


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
    horizon: float = 1.0
    retain_every: Optional[int] = None  # keep every j-th step (plus endpoints)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    @property
    def n_steps(self) -> int:
        return max(1, round(self.k**2 * self.horizon))


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
    x2: Optional[np.ndarray] = None


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


@dataclass
class SingleWalkResult:
    tau: float
    config: WalkConfig
    terminal: np.ndarray
    snapshots: list = field(default_factory=list)


def _lift(frame: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Map ball coordinates (n, m) through frames (..., n, m, emb) to
    tangent vectors, the same zeta for every leading (side) axis.

    The contraction runs on flat (rows, m) and (rows, m, emb) operands:
    given a broadcast operand, einsum takes a path several times slower.
    """
    m, emb = frame.shape[-2:]
    scale = math.sqrt(2.0 * (m + 2))
    rows = np.broadcast_to(zeta, frame.shape[:-1]).reshape(-1, m)
    lifted = np.einsum("...i,...ie->...e", rows, frame.reshape(-1, m, emb))
    return scale * lifted.reshape(frame.shape[:-2] + (emb,))


def _advance(space, x, zt, tau, k):
    """exp_x(sqrt(tau)/k * zt + tau/k^2 * Z(x)), the velocity projected first.

    tau is a number or an array that broadcasts against x (one time
    scale per side)."""
    inv_k = 1.0 / k
    inv_k2 = inv_k * inv_k
    v = np.sqrt(tau) * inv_k * zt + tau * inv_k2 * space.drift(x)
    return space.exp_map(x, space.project_tangent(x, v))


def _step_single(space, x, frame, zeta, tau, k):
    """One step of a lone walker: the new point, the frame transported
    along the step, and the lifted noise that drove it."""
    zt = _lift(frame, zeta)
    new_x = _advance(space, x, zt, tau, k)
    return new_x, space.transport_frame(x, new_x, frame), zt


def _step_coupled_arrays(space, x1, x2, frame1, zeta, tau1, tau2, k):
    """One update of the coupled chain on batched state arrays."""
    new_x1, new_frame, zt1 = _step_single(space, x1, frame1, zeta, tau1, k)
    diag = space.distance(x1, x2) < _DIAGONAL_TOL
    zt2 = space.parallel_transport(x1, x2, zt1)
    if np.any(diag):
        zt2 = np.where(diag[..., None], zt1, zt2)
    return new_x1, _advance(space, x2, zt2, tau2, k), new_frame


def step_coupled(space: ModelSpace, state: CoupledState, tau1: float, tau2: float,
                 k: int, rng: np.random.Generator) -> CoupledState:
    """One step of the coupled walk from a single state."""
    zeta = sample_unit_ball(space.dim, rng)
    x1, x2, fr = _step_coupled_arrays(
        space, state.x1, state.x2, state.frame1, zeta, tau1, tau2, k)
    return CoupledState(x1=x1, x2=x2, frame1=fr)


def _draw_chunk_noise(seed, lo, hi, n_steps, m):
    """Ball samples for trajectories lo..hi-1, shape (hi-lo, n_steps, m).

    Row j - lo equals sample_unit_ball(m, trajectory_rng(seed, j),
    size=n_steps) bit for bit.  One Philox generator serves the chunk:
    per trajectory it is re-keyed with counter 0 and an empty buffer
    (the state of a fresh generator), and the ball transform then runs
    once over the whole chunk.
    """
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    state = bits.state  # a fresh generator's: counter 0, empty buffer
    g = np.empty((hi - lo, n_steps, m))
    radii = np.empty((hi - lo, n_steps, 1))
    for j in range(lo, hi):
        state["state"]["key"][:] = _trajectory_key(seed, j)
        bits.state = state
        gen.standard_normal(out=g[j - lo])
        gen.random(out=radii[j - lo])
    norm = np.linalg.norm(g, axis=-1, keepdims=True)
    norm[norm == 0.0] = 1.0
    radii **= 1.0 / m
    g /= norm
    g *= radii
    return g


def _rows(start, lo, hi):
    """Rows lo..hi-1 of per-trajectory starts, or a point repeated."""
    return start[lo:hi] if start.ndim == 2 else np.broadcast_to(start, (hi - lo, start.shape[-1]))


def _drive(space: ModelSpace, sides: tuple, cfg: WalkConfig, step,
           initial_frame: Callable[[ModelSpace, np.ndarray], np.ndarray] | None):
    """Run cfg.n_trajectories walks in chunks of _CHUNK trajectories.

    `sides` holds, per side, one start per walker, each a point or
    per-trajectory rows.  A walker's points carry the sides on a leading
    axis, shape (sides, chunk, emb); each side's frame rides with its
    first walker and is built from that side's rows alone.
    step(points, frames, zeta) advances every side of a chunk by one
    step on the same noise.  Returns the terminal points of each walker
    (sides, n, emb), the terminal frames (sides, n, m, emb) and the
    snapshots at the retained steps, stacked the same way.
    """
    n, steps, m, emb = cfg.n_trajectories, cfg.n_steps, space.dim, space.emb_dim
    n_walkers = len(sides[0])
    terminal = tuple(np.empty((len(sides), n, emb)) for _ in range(n_walkers))
    term_frame = np.empty((len(sides), n, m, emb))
    retained: dict[int, list] = {}
    if cfg.retain_every is not None:
        retained = {s: [] for s in sorted({0, steps, *range(0, steps + 1, cfg.retain_every)})}

    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        noise = _draw_chunk_noise(cfg.seed, lo, hi, steps, m)
        pts = tuple(np.stack([_rows(side[w], lo, hi) for side in sides])
                    for w in range(n_walkers))
        fr = np.stack([initial_frame(space, p) if initial_frame else space.frame(p)
                       for p in pts[0]])
        if 0 in retained:
            retained[0].append(tuple(p.copy() for p in pts))
        for i in range(steps):
            pts, fr = step(pts, fr, noise[:, i, :])
            if i + 1 in retained:
                retained[i + 1].append(tuple(p.copy() for p in pts))
        for out, p in zip(terminal, pts):
            out[:, lo:hi] = p
        term_frame[:, lo:hi] = fr

    dt = cfg.horizon / steps
    snapshots = [Snapshot(s, s * dt, *(np.concatenate(w, axis=1) for w in zip(*parts)))
                 for s, parts in retained.items()]
    return terminal, term_frame, snapshots


def _first_side(snapshots):
    """The snapshots of a one-side walk, without the side axis."""
    return [Snapshot(s.step, s.t, s.x1[0], None if s.x2 is None else s.x2[0])
            for s in snapshots]


def run_coupled(space: ModelSpace, x, y, tau1: float, tau2: float,
                cfg: WalkConfig,
                initial_frame: Callable[[ModelSpace, np.ndarray], np.ndarray] | None = None,
                ) -> CoupledWalkPath:
    """Run cfg.n_trajectories independent coupled walks from (x, y).

    The terminal pair approximates a coupling of the heat distributions
    at times tau1 (from x) and tau2 (from y).
    """
    if tau1 < 0 or tau2 < 0:
        raise ValueError("time scales must be nonnegative")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    space.check_point(x)
    space.check_point(y)
    near_cut = 0

    def step(pts, fr, zeta):
        nonlocal near_cut
        x1, x2 = pts
        near_cut += int(np.count_nonzero(space.is_near_cut(x1, x2)))
        x1, x2, fr = _step_coupled_arrays(space, x1, x2, fr, zeta, tau1, tau2, cfg.k)
        return (x1, x2), fr

    (x1, x2), frame, snapshots = _drive(space, ((x, y),), cfg, step, initial_frame)
    x1, x2 = x1[0], x2[0]
    return CoupledWalkPath(
        tau1=tau1, tau2=tau2, config=cfg,
        terminal=CoupledState(x1=x1, x2=x2, frame1=frame[0]),
        snapshots=_first_side(snapshots), near_cut_events=near_cut,
        terminal_distances=space.distance(x1, x2))


def run_single(space: ModelSpace, x, tau, cfg: WalkConfig,
               initial_frame=None) -> SingleWalkResult:
    """Independent single walks from x (or per-trajectory rows of x).

    With a tuple of time scales, x is a matching sequence of starts, one
    per side; every side walks on the same per-trajectory noise streams
    (common random numbers) from its own start with its own frame, and
    terminal and each snapshot are stacked as (sides, n, emb).
    """
    multi = isinstance(tau, tuple)
    taus = tau if multi else (tau,)
    starts = [np.asarray(s, dtype=float) for s in (x if multi else (x,))]
    if len(starts) != len(taus):
        raise ValueError("need one start per time scale")
    if any(t < 0 for t in taus):
        raise ValueError("time scale must be nonnegative")
    for s in starts:
        space.check_point(s)
        if s.ndim == 2 and s.shape[0] != cfg.n_trajectories:
            raise ValueError("per-trajectory starts must match n_trajectories")
    scales = np.reshape(np.asarray(taus, dtype=float), (-1, 1, 1))

    def step(pts, fr, zeta):
        new_x, fr, _ = _step_single(space, pts[0], fr, zeta, scales, cfg.k)
        return (new_x,), fr

    (terminal,), _, snapshots = _drive(space, tuple((s,) for s in starts), cfg, step,
                                       initial_frame)
    if not multi:
        terminal, snapshots = terminal[0], _first_side(snapshots)
    return SingleWalkResult(tau=tau, config=cfg, terminal=terminal, snapshots=snapshots)


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
