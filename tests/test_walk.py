import io
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

import ctlab.walk as walk_mod
from ctlab.geometry import Euclidean, EuclideanOU, Hyperbolic, Sphere
from ctlab.walk import (
    CoupledState,
    WalkConfig,
    run_coupled,
    run_single,
    sample_unit_ball,
    step_coupled,
    trajectory_rng,
    write_path_csv,
)


def test_ball_samples_inside_ball():
    rng = np.random.default_rng(0)
    pts = sample_unit_ball(3, rng, size=10_000)
    assert np.all(np.linalg.norm(pts, axis=-1) <= 1.0 + 1e-15)


def test_ball_moments():
    # mean 0 and covariance I/(m+2), within 4 sigma at 1e6 samples
    m = 3
    n = 1_000_000
    rng = np.random.default_rng(1)
    pts = sample_unit_ball(m, rng, size=n)
    # componentwise variance of a ball coordinate is 1/(m+2)
    var = 1.0 / (m + 2)
    mean_se = math.sqrt(var / n)
    assert np.max(np.abs(pts.mean(axis=0))) < 4 * mean_se
    cov = pts.T @ pts / n
    # fourth-moment-based standard error of the covariance entries
    se = np.sqrt(np.var(pts**2, axis=0).max() / n)
    assert np.max(np.abs(np.diag(cov) - var)) < 4 * se
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 4 * se


def test_lifted_noise_moments():
    # projection of the lifted noise on a fixed unit vector: mean 0, second moment 2
    m = 2
    n = 1_000_000
    rng = np.random.default_rng(2)
    zeta = sample_unit_ball(m, rng, size=n)
    lifted = math.sqrt(2 * (m + 2)) * zeta  # canonical frame on flat space
    proj = lifted[:, 0]
    se1 = proj.std() / math.sqrt(n)
    assert abs(proj.mean()) < 4 * se1
    se2 = np.std(proj**2) / math.sqrt(n)
    assert abs(np.mean(proj**2) - 2.0) < 4 * se2


def test_zero_noise_zero_drift_is_fixed_point():
    sp = Sphere(2)
    x = np.array([0.0, 0.0, 1.0])
    y = sp.exp_map(x, np.array([0.5, 0.0, 0.0]))
    state = (x[None, :], y[None, :], sp.frame(x[None, :]))
    zeta = np.zeros((1, 2))
    nx, ny, nf = walk_mod._step_coupled_arrays(sp, *state, zeta, 0.3, 0.7, 10)
    assert np.max(np.abs(nx - x)) < 1e-15
    assert np.max(np.abs(ny - y)) < 1e-15
    assert np.max(np.abs(nf - state[2])) < 1e-15


def test_step_coupled_single_state():
    sp = Euclidean(2)
    st = CoupledState(x1=np.zeros(2), x2=np.array([1.0, 0.0]),
                      frame1=np.eye(2))
    out = step_coupled(sp, st, 0.5, 0.5, 10, trajectory_rng(0, 0))
    # equal scales on flat space: identical increments, distance preserved
    assert sp.distance(out.x1, out.x2) == pytest.approx(1.0, abs=1e-12)


def test_flat_equal_scales_distance_constant():
    sp = Euclidean(2)
    cfg = WalkConfig(k=8, n_trajectories=64, seed=3)
    path = run_coupled(sp, np.zeros(2), np.array([1.0, 0.0]), 0.4, 0.4, cfg)
    assert np.max(np.abs(path.terminal_distances - 1.0)) < 1e-12


def test_one_step_mean_square_displacement():
    # E|move|^2 = 2 m tau / k^2 per step on flat space
    m, k, tau = 2, 5, 0.7
    n = 100_000
    rng = np.random.default_rng(4)
    zeta = sample_unit_ball(m, rng, size=n)
    lifted = math.sqrt(2 * (m + 2)) * zeta
    moves = math.sqrt(tau) / k * lifted
    msd = np.sum(moves**2, axis=1)
    se = msd.std() / math.sqrt(n)
    assert abs(msd.mean() - 2 * m * tau / k**2) < 4 * se


def test_flat_coupled_second_moment():
    # different scales on flat space: E d^2 = d0^2 + 2 m (sqrt(t2)-sqrt(t1))^2
    sp = Euclidean(2)
    cfg = WalkConfig(k=20, n_trajectories=4000, seed=5)
    path = run_coupled(sp, np.zeros(2), np.array([1.0, 0.0]), 0.25, 1.0, cfg)
    d2 = path.terminal_distances**2
    expect = 1.0 + 2 * 2 * (1.0 - 0.5) ** 2
    se = d2.std() / math.sqrt(d2.size)
    assert abs(d2.mean() - expect) < 3 * se


def test_single_walk_gaussian_variance():
    sp = Euclidean(2)
    cfg = WalkConfig(k=20, n_trajectories=4000, seed=6)
    res = run_single(sp, np.zeros(2), 0.5, cfg)
    # heat kernel at time tau has per-coordinate variance 2 tau
    var = res.terminal.var(axis=0, ddof=1)
    se = np.sqrt(np.var(res.terminal**2, axis=0) / res.terminal.shape[0])
    assert np.all(np.abs(var - 1.0) < 3 * se)


def test_single_walk_ou_mean():
    ou = EuclideanOU(1, 1.0)
    cfg = WalkConfig(k=20, n_trajectories=6000, seed=7)
    res = run_single(ou, np.array([1.0]), 0.5, cfg)
    se = res.terminal.std() / math.sqrt(res.terminal.shape[0])
    assert abs(res.terminal.mean() - math.exp(-0.5)) < 3 * se


def test_sphere_walk_stays_on_sphere():
    sp = Sphere(2)
    cfg = WalkConfig(k=10, n_trajectories=100, seed=8)
    res = run_single(sp, np.array([0.0, 0.0, 1.0]), 0.5, cfg)
    assert np.max(np.abs(np.linalg.norm(res.terminal, axis=-1) - 1.0)) < 1e-10


def test_determinism_and_chunk_invariance():
    sp = Sphere(2)
    x = np.array([0.0, 0.0, 1.0])
    y = sp.exp_map(x, np.array([1.0, 0.0, 0.0]))
    cfg = WalkConfig(k=6, n_trajectories=50, seed=9)
    a = run_coupled(sp, x, y, 0.2, 0.4, cfg)
    b = run_coupled(sp, x, y, 0.2, 0.4, cfg)
    assert np.array_equal(a.terminal.x1, b.terminal.x1)
    assert np.array_equal(a.terminal.x2, b.terminal.x2)
    old = walk_mod._CHUNK
    try:
        walk_mod._CHUNK = 7
        c = run_coupled(sp, x, y, 0.2, 0.4, cfg)
    finally:
        walk_mod._CHUNK = old
    assert np.array_equal(a.terminal.x1, c.terminal.x1)
    assert np.array_equal(a.terminal.x2, c.terminal.x2)
    # single walks from per-trajectory starts, with snapshots
    starts = sp.exp_map(np.broadcast_to(x, (50, 3)),
                        np.stack([np.linspace(0.0, 1.0, 50), np.zeros(50), np.zeros(50)], -1))
    cfg_r = WalkConfig(k=6, n_trajectories=50, seed=9, retain_every=5)
    s_a = run_single(sp, starts, 0.3, cfg_r)
    try:
        walk_mod._CHUNK = 7
        s_c = run_single(sp, starts, 0.3, cfg_r)
    finally:
        walk_mod._CHUNK = old
    assert np.array_equal(s_a.terminal, s_c.terminal)
    steps = [0, 5, 10, 15, 20, 25, 30, 35, 36]
    assert [s.step for s in s_a.snapshots] == [s.step for s in s_c.snapshots] == steps
    for u, v in zip(s_a.snapshots, s_c.snapshots):
        assert np.array_equal(u.x1, v.x1)
    assert np.array_equal(s_a.snapshots[0].x1, starts)
    assert np.array_equal(s_a.snapshots[-1].x1, s_a.terminal)


@pytest.mark.parametrize("space", [Sphere(2), Hyperbolic(2), Euclidean(2), EuclideanOU(2, 1.0)],
                         ids=["S2", "H2", "E2", "OU"])
def test_coupled_first_walker_is_single_walk(space):
    # the coupled kernel drives its first walker exactly like a lone walk
    if isinstance(space, Sphere):
        x, y = _sphere_pair(space)
    elif isinstance(space, Hyperbolic):
        x, y = _hyper_pair(space)
    else:
        x, y = _flat_pair(space)
    cfg = WalkConfig(k=5, n_trajectories=40, seed=14)
    coupled = run_coupled(space, x, y, 0.3, 0.6, cfg)
    single = run_single(space, x, 0.3, cfg)
    assert np.array_equal(coupled.terminal.x1, single.terminal)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 2**63 + 5])
def test_chunk_noise_rows_are_trajectory_streams(m, seed):
    # one re-keyed generator per chunk draws each trajectory's own stream
    lo, hi, steps = 5, 12, 17
    noise = walk_mod._draw_chunk_noise(seed, lo, hi, steps, m)
    assert noise.shape == (hi - lo, steps, m)
    for j in range(lo, hi):
        expect = sample_unit_ball(m, trajectory_rng(seed, j), size=steps)
        assert np.array_equal(noise[j - lo], expect)


def test_trajectory_rng_is_philox_keyed_by_seed_and_index():
    seed, j = 2**63 + 5, 3
    key = (seed & 0xFFFFFFFFFFFFFFFF) << 64 | j
    expect = np.random.Generator(np.random.Philox(key=key)).standard_normal(8)
    assert np.array_equal(trajectory_rng(seed, j).standard_normal(8), expect)


def _starts_on(space, n, rng):
    """n per-trajectory starts on the space, the first one on a coordinate axis."""
    if isinstance(space, Sphere):
        pts = rng.standard_normal((n, 3))
        pts[0] = [1.0, 0.0, 0.0]
        return pts / np.linalg.norm(pts, axis=-1, keepdims=True)
    if isinstance(space, Hyperbolic):
        return space.embed(rng.standard_normal((n, 2)))
    return rng.standard_normal((n, 2))


@pytest.mark.parametrize("space", [Sphere(2), Hyperbolic(2), Euclidean(2), EuclideanOU(2, 1.0)],
                         ids=["S2", "H2", "E2", "OU"])
def test_multi_side_walk_matches_separate_walks(space):
    # every side of one walk steps on the shared noise exactly like a lone walk
    x, y = _flat_pair(space)
    if isinstance(space, Sphere):
        x, y = np.array([1.0, 0.0, 0.0]), _sphere_pair(space)[1]
    elif isinstance(space, Hyperbolic):
        x, y = _hyper_pair(space)
    rows = _starts_on(space, 40, np.random.default_rng(3))
    cfg = WalkConfig(k=5, n_trajectories=40, seed=15, retain_every=10)
    sides = (x, y, rows, x)
    taus = (0.3, 0.6, 0.45, 0.0)
    multi = run_single(space, sides, taus, cfg)
    assert multi.terminal.shape == (4, 40, space.emb_dim)
    for i, (start, tau) in enumerate(zip(sides, taus)):
        lone = run_single(space, start, tau, cfg)
        assert np.array_equal(multi.terminal[i], lone.terminal)
        for u, v in zip(multi.snapshots, lone.snapshots):
            assert np.array_equal(u.x1[i], v.x1)
    with pytest.raises(ValueError):
        run_single(space, (x, y), (0.3,), cfg)


def test_sphere_walk_does_not_depend_on_batch_neighbours():
    # a start on a coordinate axis must not change the frames of the
    # other starts in its chunk
    sp = Sphere(2)
    starts = _starts_on(sp, 6, np.random.default_rng(0))
    cfg = WalkConfig(k=4, n_trajectories=6, seed=16)
    together = run_single(sp, starts, 0.5, cfg).terminal
    old = walk_mod._CHUNK
    try:
        walk_mod._CHUNK = 1
        alone = run_single(sp, starts, 0.5, cfg).terminal
    finally:
        walk_mod._CHUNK = old
    assert np.array_equal(together, alone)
    frames = sp.frame(starts)
    for j in range(6):
        assert np.array_equal(frames[j], sp.frame(starts[j]))


def test_seed_changes_output():
    sp = Euclidean(2)
    a = run_single(sp, np.zeros(2), 0.5, WalkConfig(k=5, n_trajectories=10, seed=1))
    b = run_single(sp, np.zeros(2), 0.5, WalkConfig(k=5, n_trajectories=10, seed=2))
    assert not np.array_equal(a.terminal, b.terminal)


def test_frame_choice_leaves_law_invariant():
    # two deterministic frame fields: the canonical section and a rotated one
    sp = Sphere(2)
    x = np.array([0.0, 0.0, 1.0])
    y = sp.exp_map(x, np.array([1.0, 0.0, 0.0]))
    cfg = WalkConfig(k=15, n_trajectories=5000, seed=10)

    def rotated(space, pts):
        fr = space.frame(pts)
        c, s = math.cos(0.7), math.sin(0.7)
        e1 = c * fr[..., 0, :] + s * fr[..., 1, :]
        e2 = -s * fr[..., 0, :] + c * fr[..., 1, :]
        return np.stack([e1, e2], axis=-2)

    d_std = run_coupled(sp, x, y, 0.2, 0.4, cfg).terminal_distances
    d_rot = run_coupled(sp, x, y, 0.2, 0.4, cfg, initial_frame=rotated).terminal_distances
    stat = ks_2samp(d_std, d_rot)
    assert stat.pvalue > 0.01


def test_k_refinement_consistency():
    # E[d^2] moves by less than the combined 3 sigma band between k=20 and k=40
    for space, mk in ((Euclidean(2), _flat_pair), (Sphere(2), _sphere_pair),
                      (Hyperbolic(2), _hyper_pair)):
        x, y = mk(space)
        vals = {}
        for k in (20, 40):
            cfg = WalkConfig(k=k, n_trajectories=3000, seed=11)
            d = run_coupled(space, x, y, 0.2, 0.4, cfg).terminal_distances
            vals[k] = (np.mean(d**2), np.std(d**2, ddof=1) / math.sqrt(d.size))
        diff = abs(vals[20][0] - vals[40][0])
        band = 3 * math.hypot(vals[20][1], vals[40][1])
        assert diff < band, f"{space}: {diff} vs {band}"


def _flat_pair(space):
    return np.zeros(2), np.array([1.0, 0.0])


def _sphere_pair(space):
    x = np.array([0.0, 0.0, 1.0])
    return x, space.exp_map(x, np.array([1.0, 0.0, 0.0]))


def _hyper_pair(space):
    x = space.origin()
    return x, space.exp_map(x, np.array([0.0, 1.0, 0.0]))


def test_trajectory_rng_is_stream_per_index():
    a = trajectory_rng(42, 0).standard_normal(4)
    b = trajectory_rng(42, 1).standard_normal(4)
    a2 = trajectory_rng(42, 0).standard_normal(4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_path_csv_rows():
    sp = Euclidean(2)
    cfg = WalkConfig(k=1, n_trajectories=1, seed=0, retain_every=1)
    path = run_coupled(sp, np.zeros(2), np.array([1.0, 0.0]), 0.3, 0.3, cfg)
    buf = io.StringIO()
    write_path_csv(path, sp, buf)
    lines = buf.getvalue().strip().splitlines()
    # header + initial + terminal
    assert len(lines) == 3
    assert lines[0].split(",")[:3] == ["trajectory_id", "step", "t"]


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(k=0)
    with pytest.raises(ValueError):
        WalkConfig(n_trajectories=0)
    with pytest.raises(ValueError):
        WalkConfig(horizon=0.0)


def test_near_cut_counting():
    sp = Sphere(2)
    x = np.array([0.0, 0.0, 1.0])
    cfg = WalkConfig(k=4, n_trajectories=8, seed=12)
    path = run_coupled(sp, x, -x, 0.05, 0.05, cfg)
    assert path.near_cut_events >= 8  # the first step starts antipodal


def test_coupled_marginal_ou_mean():
    # the first marginal of the coupled walk is the time-scaled
    # drift diffusion: its mean contracts like e^{-lam tau1}
    ou = EuclideanOU(1, 1.0)
    x = np.array([1.0])
    y = np.array([-0.5])
    cfg = WalkConfig(k=20, n_trajectories=6000, seed=13)
    path = run_coupled(ou, x, y, 0.5, 1.0, cfg)
    m1 = path.terminal.x1.mean()
    se = path.terminal.x1.std() / math.sqrt(cfg.n_trajectories)
    assert abs(m1 - math.exp(-0.5)) < 3 * se
