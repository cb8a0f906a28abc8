import io
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import legval
from scipy.stats import ks_2samp

import ctlab.walk as walk_mod
from ctlab.geometry import Euclidean, EuclideanOU, Hyperbolic, Sphere
from ctlab.comparison import comp_c, comp_s
from ctlab.transport import ComparisonCost, PthPowerDistance
from ctlab.walk import (
    WalkConfig,
    coupled_distance_moment,
    run_coupled,
    sample_heat,
    sample_unit_ball,
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
    zeta = sample_unit_ball(2, trajectory_rng(0, 0))
    x1, x2, _ = walk_mod._step_coupled_arrays(sp, np.zeros(2), np.array([1.0, 0.0]),
                                              np.eye(2), zeta, 0.5, 0.5, 10)
    # equal scales on flat space: identical increments, distance preserved
    assert sp.distance(x1, x2) == pytest.approx(1.0, abs=1e-12)


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
    # the first walker of a coupled run is a lone walk: on flat space its
    # heat law at time tau has per-coordinate variance 2 tau
    sp = Euclidean(2)
    cfg = WalkConfig(k=20, n_trajectories=4000, seed=6)
    pts = run_coupled(sp, np.zeros(2), np.array([1.0, 0.0]), 0.5, 0.2, cfg).terminal.x1
    var = pts.var(axis=0, ddof=1)
    se = np.sqrt(np.var(pts**2, axis=0) / pts.shape[0])
    assert np.all(np.abs(var - 1.0) < 3 * se)


def test_sphere_walk_stays_on_sphere():
    sp = Sphere(2)
    cfg = WalkConfig(k=10, n_trajectories=100, seed=8)
    x, y = _sphere_pair(sp)
    path = run_coupled(sp, x, y, 0.5, 0.3, cfg)
    for pts in (path.terminal.x1, path.terminal.x2):
        assert np.max(np.abs(np.linalg.norm(pts, axis=-1) - 1.0)) < 1e-10


def test_determinism_and_chunk_invariance():
    sp = Sphere(2)
    x = np.array([0.0, 0.0, 1.0])
    y = sp.exp_map(x, np.array([1.0, 0.0, 0.0]))
    cfg = WalkConfig(k=6, n_trajectories=50, seed=9)
    a = run_coupled(sp, x, y, 0.2, 0.4, cfg, retain_every=5)
    b = run_coupled(sp, x, y, 0.2, 0.4, cfg, retain_every=5)
    assert np.array_equal(a.terminal.x1, b.terminal.x1)
    assert np.array_equal(a.terminal.x2, b.terminal.x2)
    old = walk_mod._CHUNK
    try:
        walk_mod._CHUNK = 7
        c = run_coupled(sp, x, y, 0.2, 0.4, cfg, retain_every=5)
    finally:
        walk_mod._CHUNK = old
    for path in (b, c):
        assert np.array_equal(a.terminal.x1, path.terminal.x1)
        assert np.array_equal(a.terminal.x2, path.terminal.x2)
        assert np.array_equal(a.terminal.frame1, path.terminal.frame1)
        assert a.near_cut_events == path.near_cut_events
    # every snapshot, both walkers, for any chunking
    steps = [0, 5, 10, 15, 20, 25, 30, 35, 36]
    assert [s.step for s in a.snapshots] == [s.step for s in c.snapshots] == steps
    for u, v in zip(a.snapshots, c.snapshots):
        assert u.t == v.t
        assert np.array_equal(u.x1, v.x1) and np.array_equal(u.x2, v.x2)
    assert np.array_equal(a.snapshots[0].x1, np.broadcast_to(x, (50, 3)))
    assert np.array_equal(a.snapshots[0].x2, np.broadcast_to(y, (50, 3)))
    assert np.array_equal(a.snapshots[-1].x1, a.terminal.x1)
    assert np.array_equal(a.snapshots[-1].x2, a.terminal.x2)
    assert run_coupled(sp, x, y, 0.2, 0.4, cfg).snapshots == []


@pytest.mark.parametrize("space", [Sphere(2), Hyperbolic(2), Euclidean(2), EuclideanOU(2, 1.0)],
                         ids=["S2", "H2", "E2", "OU"])
def test_coupled_first_walker_is_single_walk(space):
    # the coupled kernel drives its first walker exactly like a lone walk:
    # neither the second walker's start nor its time scale moves it
    if isinstance(space, Sphere):
        x, y = _sphere_pair(space)
    elif isinstance(space, Hyperbolic):
        x, y = _hyper_pair(space)
    else:
        x, y = _flat_pair(space)
    cfg = WalkConfig(k=5, n_trajectories=40, seed=14)
    coupled = run_coupled(space, x, y, 0.3, 0.6, cfg)
    alone = run_coupled(space, x, x, 0.3, 0.3, cfg)
    assert np.array_equal(coupled.terminal.x1, alone.terminal.x1)
    assert np.array_equal(coupled.terminal.frame1, alone.terminal.frame1)


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
    # every side of one multi-side draw (the chunked driver that stacks the
    # sides' starts and frames) moves exactly like a lone draw of that side
    x, y = _flat_pair(space)
    if isinstance(space, Sphere):
        x, y = np.array([1.0, 0.0, 0.0]), _sphere_pair(space)[1]
    elif isinstance(space, Hyperbolic):
        x, y = _hyper_pair(space)
    rows = _starts_on(space, 40, np.random.default_rng(3))
    cfg = WalkConfig(n_trajectories=40, seed=15)
    sides = (x, y, rows, x)
    taus = (0.3, 0.6, 0.45, 0.0)
    multi = sample_heat(space, sides, taus, cfg)
    assert multi.shape == (4, 40, space.emb_dim)
    for i, (start, tau) in enumerate(zip(sides, taus)):
        lone = sample_heat(space, (start,), (tau,), cfg)
        assert np.array_equal(multi[i], lone[0])
    with pytest.raises(ValueError):
        sample_heat(space, (x, y), (0.3,), cfg)


def test_sphere_walk_does_not_depend_on_batch_neighbours():
    # a start on a coordinate axis must not change the frames of the
    # other starts in its chunk
    sp = Sphere(2)
    starts = _starts_on(sp, 6, np.random.default_rng(0))
    cfg = WalkConfig(k=4, n_trajectories=6, seed=16)
    together = run_coupled(sp, starts, starts[::-1], 0.5, 0.2, cfg)
    old = walk_mod._CHUNK
    try:
        walk_mod._CHUNK = 1
        alone = run_coupled(sp, starts, starts[::-1], 0.5, 0.2, cfg)
    finally:
        walk_mod._CHUNK = old
    assert np.array_equal(together.terminal.x1, alone.terminal.x1)
    assert np.array_equal(together.terminal.x2, alone.terminal.x2)
    frames = sp.frame(starts)
    for j in range(6):
        assert np.array_equal(frames[j], sp.frame(starts[j]))


def test_seed_changes_output():
    sp = Euclidean(2)
    x, y = _flat_pair(sp)
    a = run_coupled(sp, x, y, 0.5, 0.2, WalkConfig(k=5, n_trajectories=10, seed=1))
    b = run_coupled(sp, x, y, 0.5, 0.2, WalkConfig(k=5, n_trajectories=10, seed=2))
    assert not np.array_equal(a.terminal.x1, b.terminal.x1)


class _RotatedFrameSphere(Sphere):
    """The unit 2-sphere with its canonical frame turned by 0.7 rad."""

    def frame(self, x):
        fr = super().frame(x)
        c, s = math.cos(0.7), math.sin(0.7)
        e1 = c * fr[..., 0, :] + s * fr[..., 1, :]
        e2 = -s * fr[..., 0, :] + c * fr[..., 1, :]
        return np.stack([e1, e2], axis=-2)


def test_frame_choice_leaves_law_invariant():
    # two deterministic frame fields: the canonical section and a rotated one
    sp, turned = Sphere(2), _RotatedFrameSphere(2)
    x = np.array([0.0, 0.0, 1.0])
    y = sp.exp_map(x, np.array([1.0, 0.0, 0.0]))
    cfg = WalkConfig(k=15, n_trajectories=5000, seed=10)
    d_std = run_coupled(sp, x, y, 0.2, 0.4, cfg).terminal_distances
    d_rot = run_coupled(turned, x, y, 0.2, 0.4, cfg).terminal_distances
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
    cfg = WalkConfig(k=1, n_trajectories=1, seed=0)
    path = run_coupled(sp, np.zeros(2), np.array([1.0, 0.0]), 0.3, 0.3, cfg, retain_every=1)
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
    with pytest.raises(ValueError, match="retain_every"):
        run_coupled(Euclidean(2), np.zeros(2), np.ones(2), 0.3, 0.3, WalkConfig(k=1),
                    retain_every=0)


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


def _minkowski_or_dot(space, a, b):
    if isinstance(space, Hyperbolic):
        return np.sum(a[..., 1:] * b[..., 1:], axis=-1) - a[..., 0] * b[..., 0]
    return np.sum(a * b, axis=-1)


def _start_pair(space):
    if isinstance(space, Hyperbolic):
        x = space.origin()
        return x, space.exp_map(x, np.array([0.0, 1.0, 0.0]))
    x = np.array([0.0, 0.0, 1.0])
    return x, space.exp_map(x, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("space, gram_tol", [(Sphere(2), 5e-14), (Hyperbolic(2), 2e-11)],
                         ids=["S2", "H2"])
def test_frame_stays_orthonormal_along_a_long_walk(space, gram_tol):
    # 900 coupled steps: the frame rides each step's own geodesic, so its
    # Gram matrix stays the identity to rounding and its rows tangent
    x, y = _start_pair(space)
    path = run_coupled(space, x, y, 1.0, 1.0, WalkConfig(k=30, n_trajectories=500, seed=1))
    fr, x1 = path.terminal.frame1, path.terminal.x1
    gram = _minkowski_or_dot(space, fr[:, :, None], fr[:, None, :])
    assert np.max(np.abs(gram - np.eye(space.dim))) <= gram_tol
    assert np.max(np.abs(_minkowski_or_dot(space, fr, x1[:, None]))) <= 1e-12


@pytest.mark.parametrize("space", [Sphere(2), Hyperbolic(2)], ids=["S2", "H2"])
def test_single_step_makes_no_log_map_and_coupled_step_one(space, monkeypatch):
    # the first walker's step and its frame ride one exp_transport: the only
    # log map of a coupled step is the one from x1 to x2 that carries the
    # noise to the second walker
    x, y = _start_pair(space)
    calls = []
    log_map = space.log_map
    monkeypatch.setattr(space, "log_map", lambda a, b: calls.append((a, b)) or log_map(a, b))
    walk_mod._step_coupled_arrays(space, x, y, space.frame(x),
                                  sample_unit_ball(space.dim, trajectory_rng(0, 0)), 0.5, 0.5, 3)
    assert len(calls) == 1
    assert calls[0][0] is x and calls[0][1] is y


# ---------------------------------------------------------------------------
# exact heat laws


def _law_cases():
    """(id, space, start, t, statistic of a sample, its exact mean)."""
    s2, s2_r2, s1 = Sphere(2), Sphere(2, radius=2.0), Sphere(1, radius=1.5)
    s3, s3_r2, s4 = Sphere(3), Sphere(3, radius=2.0), Sphere(4)
    h2, h2_c = Hyperbolic(2), Hyperbolic(2, curvature=-0.5)
    h3, h3_c = Hyperbolic(3), Hyperbolic(3, curvature=-0.5)
    north = np.array([0.0, 0.0, 1.0])
    cos_from = lambda sp, x: lambda X: X @ x / sp.radius**2
    cosh_from = lambda sp, x: lambda X: -(X[:, 1:] @ x[1:] - X[:, 0] * x[0]) / sp.R**2
    e4, e5 = np.eye(4)[3], np.eye(5)[0]
    return [
        ("S2", s2, north, 0.3, cos_from(s2, north), math.exp(-0.6)),
        ("S2_r2", s2_r2, 2.0 * north, 0.8, cos_from(s2_r2, 2.0 * north), math.exp(-0.4)),
        ("S1_r1.5", s1, np.array([0.0, 1.5]), 0.5, cos_from(s1, np.array([0.0, 1.5])),
         math.exp(-0.5 / 1.5**2)),
        ("S3", s3, e4, 0.2, cos_from(s3, e4), math.exp(-0.6)),
        ("S3_r2", s3_r2, 2.0 * e4, 0.8, cos_from(s3_r2, 2.0 * e4), math.exp(-0.6)),
        ("S4", s4, e5, 0.1, cos_from(s4, e5), math.exp(-0.4)),
        ("H2", h2, h2.origin(), 0.25, cosh_from(h2, h2.origin()), math.exp(0.5)),
        ("H2_c0.5", h2_c, h2_c.embed([0.3, -0.2]), 0.6, cosh_from(h2_c, h2_c.embed([0.3, -0.2])),
         math.exp(0.6)),
        ("H3", h3, h3.origin(), 0.2, cosh_from(h3, h3.origin()), math.exp(0.6)),
        ("H3_c0.5", h3_c, h3_c.embed([0.3, -0.2, 0.1]), 0.4,
         cosh_from(h3_c, h3_c.embed([0.3, -0.2, 0.1])), math.exp(0.6)),
    ]


@pytest.mark.parametrize("label, space, x, t, stat, mean", _law_cases(),
                         ids=[c[0] for c in _law_cases()])
def test_exact_heat_law_moments_on_curved_spaces(label, space, x, t, stat, mean):
    # S^d: E[cos(theta)] = e^{-d t/rho^2}; H^m: E[cosh(r/R)] = e^{m t/R^2}; 4 sigma at n = 10^4
    vals = stat(walk_mod.sample_heat(space, (x,), (t,), WalkConfig(n_trajectories=10_000,
                                                                   seed=11))[0])
    assert abs(vals.mean() - mean) < 4 * vals.std() / math.sqrt(vals.size)


_QUANTILES = (np.arange(200_000) + 0.5) / 200_000   # midpoints: a quadrature in u


@pytest.mark.parametrize("t", [1e-3, 0.01, 0.15, 1.0])
def test_gegenbauer_table_at_d2_is_the_legendre_table(t):
    # at d = 2 the Gegenbauer density, integrated by Simpson, is the Legendre CDF
    # series 2 P(angle <= theta) = 1 - u - sum_l e^{-l(l+1)t} (P_{l+1} - P_{l-1})(u),
    # u = cos(theta), here summed by numpy's legval on the table's angle grid
    theta = np.linspace(0.0, min(math.pi, 2.0 * math.sqrt(walk_mod._TAIL * t)),
                        walk_mod._TABLE + 1)
    l = np.arange(1, 3 + math.ceil(math.sqrt(60.0 / t)))  # to e^{-60}
    coef = np.zeros(l[-1] + 2)
    coef[l + 1] += np.exp(-l * (l + 1) * t)
    coef[l - 1] -= np.exp(-l * (l + 1) * t)
    u = np.cos(theta)
    cdf = np.maximum.accumulate(np.clip(0.5 * (1.0 - u - legval(u, coef)), 0.0, 1.0))
    gap = walk_mod._zonal_angle(2, t)(_QUANTILES) - np.interp(_QUANTILES, cdf, theta)
    assert np.max(np.abs(gap)) < 1e-8


@pytest.mark.parametrize("d", [3, 4])
def test_gegenbauer_table_has_the_exact_mean_of_cos(d):
    # E cos(theta) = e^{-d t} on the unit d-sphere, by quadrature over the table's quantiles
    for t in (0.01, 0.04, 0.2, 1.0):
        mean = np.cos(walk_mod._zonal_angle(d, t)(_QUANTILES)).mean()
        assert abs(mean - math.exp(-d * t)) < 1e-6, t


def test_hyperbolic3_table_inverts_the_closed_form_cdf():
    # int_0^R r sinh r e^{-r^2/4t} dr = -2t sinh R e^{-R^2/4t}
    #   + t sqrt(pi t) e^t [erf((R - 2t)/2 sqrt t) + erf((R + 2t)/2 sqrt t)]
    from scipy.special import erf

    for t in (1e-3, 0.05, 0.4, 2.0, 10.0):
        q = 2 * math.sqrt(t)
        mass = lambda R: (-2 * t * np.sinh(R) * np.exp(-R * R / (4 * t)) + t * math.sqrt(
            math.pi * t) * math.exp(t) * (erf((R - 2 * t) / q) + erf((R + 2 * t) / q)))
        radius = walk_mod._hyperbolic3_radius(t)(_QUANTILES, None)
        total = t * math.sqrt(math.pi * t) * math.exp(t) * 2
        # about 2e-6 is the linear interpolation between the table's 2,049 nodes
        assert np.max(np.abs(mass(radius) / total - _QUANTILES)) < 5e-6, t
        if t <= 0.05:  # later cosh r has heavy tails, which a quadrature in u does not see
            assert np.cosh(radius).mean() == pytest.approx(math.exp(3 * t), rel=1e-6)


@pytest.mark.parametrize("space, x, t", [
    (Euclidean(3), np.array([1.0, -2.0, 0.5]), 0.4),
    (EuclideanOU(2, 0.7), np.array([1.0, 2.0]), 0.5),
], ids=["E3", "OU2"])
def test_exact_heat_law_is_gaussian_with_the_right_mean_and_covariance(space, x, t):
    n = 10_000
    pts = walk_mod.sample_heat(space, (x,), (t,), WalkConfig(n_trajectories=n, seed=12))[0]
    lam = getattr(space, "lam", 0.0)
    mean = math.exp(-lam * t) * x
    var = -math.expm1(-2 * lam * t) / lam if lam else 2 * t
    assert np.max(np.abs(pts.mean(axis=0) - mean)) < 4 * math.sqrt(var / n)
    cov = np.cov(pts.T)
    # a Gaussian's sample covariance entries have standard error var sqrt(2/n) at most
    assert np.max(np.abs(cov - var * np.eye(space.dim))) < 4 * var * math.sqrt(2 / n)


def test_exact_sphere_angle_passes_ks_against_the_zonal_series():
    from scipy.stats import kstest

    t = 0.15
    pts = walk_mod.sample_heat(Sphere(2), (np.array([0.0, 0.0, 1.0]),), (t,),
                               WalkConfig(n_trajectories=4000, seed=13))[0]
    l = np.arange(1, 60)
    coef = np.zeros(61)  # 2 P(cos <= u) - (u + 1) = sum_l e^{-l(l+1)t} (P_{l+1} - P_{l-1})
    coef[l + 1] += np.exp(-l * (l + 1) * t)
    coef[l - 1] -= np.exp(-l * (l + 1) * t)
    cdf = lambda th: 1.0 - 0.5 * (np.cos(th) + 1 + legval(np.cos(th), coef))
    assert kstest(np.arccos(np.clip(pts[:, 2], -1, 1)), cdf).pvalue > 0.01


def test_exact_hyperbolic_radius_passes_ks_against_the_mixture():
    # McKean's kernel as a mixture: S with density s sinh(s/2) e^{-s^2/4t}, and
    # P(r <= rho | S = s) = 1 - sqrt((cosh s - cosh rho)/(cosh s - 1)) for rho < s
    from scipy.integrate import trapezoid
    from scipy.stats import kstest

    h2, t = Hyperbolic(2), 0.4
    pts = walk_mod.sample_heat(h2, (h2.origin(),), (t,), WalkConfig(n_trajectories=4000,
                                                                     seed=14))[0]
    radius = np.arccosh(pts[:, 0])
    s = np.linspace(0.0, 12.0, 24_001)[:, None]
    mixing = s * np.sinh(s / 2) * np.exp(-s * s / (4 * t))
    grid = np.linspace(0.0, radius.max(), 200)
    inside = np.sqrt(np.clip((np.cosh(s) - np.cosh(grid)) / np.maximum(np.cosh(s) - 1, 1e-300),
                             0, 1))
    given_s = np.where(grid >= s, 1.0, 1.0 - inside)
    table = trapezoid(mixing * given_s, s[:, 0], axis=0) / trapezoid(mixing[:, 0], s[:, 0])
    assert kstest(radius, lambda r: np.interp(r, grid, table)).pvalue > 0.01


def test_cumulative_simpson_matches_scipy_on_the_hyperbolic_tables(monkeypatch):
    from scipy.integrate import cumulative_simpson

    rule, grids = walk_mod._cumulative_simpson, []
    monkeypatch.setattr(walk_mod, "_cumulative_simpson",
                        lambda y, x: grids.append((y, x)) or rule(y, x))
    for tau in np.geomspace(1e-5, 20.0, 300):
        walk_mod._hyperbolic_radius(float(tau))
    rng = np.random.default_rng(8)
    for n in range(3, 9):  # both parities of the interval count
        grids.append((rng.normal(size=n), np.cumsum(rng.uniform(0.1, 1.0, n))))
    assert len(grids) == 306
    for y, x in grids:
        assert rule(y, x).tobytes() == cumulative_simpson(y, x=x, initial=0.0).tobytes()


@pytest.mark.parametrize("space, x", [
    (Sphere(2), np.array([0.6, 0.0, 0.8])), (Sphere(1), np.array([0.6, 0.8])),
    (Hyperbolic(2), Hyperbolic(2).embed([0.4, -0.1])), (Euclidean(2), np.array([0.3, 0.1])),
    (EuclideanOU(1, 1.0), np.array([0.7])), (Sphere(3), np.array([0.6, 0.0, 0.0, 0.8])),
    (Hyperbolic(3), Hyperbolic(3).embed([0.4, -0.1, 0.2])),
], ids=["S2", "S1", "H2", "E2", "OU1", "S3", "H3"])
def test_exact_heat_law_at_time_zero_is_its_start(space, x):
    cfg = WalkConfig(n_trajectories=9, seed=3)
    rows = np.stack([x] * 9)
    out = walk_mod.sample_heat(space, (x, rows, x), (0.0, 0.0, 0.2), cfg)
    assert np.array_equal(out[0], rows) and np.array_equal(out[1], rows)
    assert not np.array_equal(out[2], rows)


_STARTS = [(Sphere(2), np.array([0.6, 0.0, 0.8])),
           (Hyperbolic(2), Hyperbolic(2).embed([0.4, -0.1])),
           (Euclidean(2), np.array([0.3, 0.1])), (EuclideanOU(2, 1.0), np.array([0.3, 0.1])),
           (Sphere(3), np.array([0.6, 0.0, 0.0, 0.8])),
           (Hyperbolic(3), Hyperbolic(3).embed([0.4, -0.1, 0.2]))]
_START_IDS = ["S2", "H2", "E2", "OU2", "S3", "H3"]


@pytest.mark.parametrize("space, start", _STARTS, ids=_START_IDS)
def test_exact_heat_law_is_invariant_to_chunk_size_and_prefix(space, start, monkeypatch):
    sides, taus = (start, start, start), (0.1, 0.4, 0.4)
    full = walk_mod.sample_heat(space, sides, taus, WalkConfig(n_trajectories=40, seed=9))
    prefix = walk_mod.sample_heat(space, sides, taus, WalkConfig(n_trajectories=15, seed=9))
    monkeypatch.setattr(walk_mod, "_CHUNK", 7)
    chunked = walk_mod.sample_heat(space, sides, taus, WalkConfig(n_trajectories=40, seed=9))
    assert np.array_equal(full, chunked)
    assert np.array_equal(full[:, :15], prefix)
    assert np.array_equal(full[1], full[2])
    if not isinstance(space, EuclideanOU):  # OU's laws are centred at e^{-lam t} x
        # the sides share each trajectory's direction and quantile: the later
        # side lies further out on the same geodesic ray from the start
        near, far = space.log_map(start, full[0]), space.log_map(start, full[1])
        r_near, r_far = space._norm(near), space._norm(far)
        assert np.all(r_near <= r_far)
        assert np.allclose(near / r_near, far / r_far, atol=1e-9)


@pytest.mark.parametrize("space, start", _STARTS, ids=_START_IDS)
def test_exact_heat_law_frames_each_trajectory_start_on_its_own(space, start):
    # per-trajectory starts: row j is what a lone start at row j gives trajectory j
    cfg = WalkConfig(n_trajectories=6, seed=4)
    steps = np.zeros((6, space.emb_dim))
    steps[:, -1] = np.linspace(-0.9, 0.9, 6)
    rows = space.exp_map(np.stack([start] * 6), space.project_tangent(start, steps))
    together = walk_mod.sample_heat(space, (rows,), (0.3,), cfg)[0]
    for j in range(6):
        alone = walk_mod.sample_heat(space, (rows[j],), (0.3,), cfg)[0]
        assert np.allclose(together[j], alone[j], rtol=0, atol=1e-14)


def test_exact_heat_law_only_where_the_space_has_one():
    for space in (Euclidean(3), EuclideanOU(1, 1.0), Sphere(1), Sphere(3), Sphere(2, radius=2.0),
                  Hyperbolic(2, curvature=-0.5), Hyperbolic(3), Hyperbolic(1)):
        x = space.origin() if isinstance(space, Hyperbolic) else np.eye(space.emb_dim)[0]
        x = x * getattr(space, "radius", 1.0)
        assert sample_heat(space, (x,), (0.1,), WalkConfig(n_trajectories=2)).shape == (
            1, 2, space.emb_dim)
    h4 = Hyperbolic(4)
    with pytest.raises(ValueError, match=r"no exact heat law on hyperbolic4\(c=-1\)"):
        sample_heat(h4, (h4.origin(),), (0.1,), WalkConfig(n_trajectories=2))


def test_exact_sphere_law_at_small_time_has_no_cost_cliff(monkeypatch):
    # the work is bounded, not timed: at t = 1e-4 each table sums about 670
    # Legendre (S^2) or Gegenbauer (S^3) modes (one math.exp each) by the
    # recurrence, never holding a grid x modes array (2049 x 670 doubles
    # would be 11 MB)
    import tracemalloc

    class CountingMath:
        calls = 0

        def __getattr__(self, name):
            return getattr(math, name)

        def exp(self, x):
            CountingMath.calls += 1
            return math.exp(x)

    monkeypatch.setattr(walk_mod, "math", CountingMath())
    for space in (Sphere(2), Sphere(3)):
        north = np.eye(space.emb_dim)[-1]
        CountingMath.calls = 0
        tracemalloc.start()
        try:
            pts = walk_mod.sample_heat(space, (north,), (1e-4,), WalkConfig(n_trajectories=1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 600 < CountingMath.calls < 700, space
        assert peak < 1_000_000, space
        # the angle^2 has mean 2 d t to first order in t
        angle2 = np.arccos(np.clip(pts[0, :, -1], -1, 1)) ** 2
        assert abs(angle2.mean() - 2e-4 * space.dim) < 4 * angle2.std() / math.sqrt(angle2.size)


@pytest.mark.parametrize("space", [Sphere(2), Hyperbolic(2), Sphere(3), Hyperbolic(3)],
                         ids=["S2", "H2", "S3", "H3"])
def test_coupled_walk_first_walker_follows_the_exact_heat_law(space):
    # the walk oracle: the distance from the start of run_coupled's first
    # walker (k = 15) against the exact law's, by a two-sample KS test
    x = space.origin() if isinstance(space, Hyperbolic) else np.eye(space.emb_dim)[-1]
    y = space.exp_map(x, space.frame(x)[0])
    walked = run_coupled(space, x, y, 0.3, 0.6, WalkConfig(k=15, n_trajectories=2000, seed=1))
    exact = sample_heat(space, (x,), (0.3,), WalkConfig(n_trajectories=2000, seed=2))[0]
    assert ks_2samp(space.distance(x, walked.terminal.x1), space.distance(x, exact)).pvalue > 0.01


# ---------------------------------------------------------------------------
# the law of the coupled distance


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_flat_second_moment_is_the_closed_form(m):
    # rho / sqrt(2D) is non-central chi with m degrees of freedom
    for d0, a, b in ((1.0, 0.2, 0.4), (0.0, 0.25, 1.0), (2.5, 1.3, 0.1)):
        D = (math.sqrt(b) - math.sqrt(a)) ** 2
        value, bound = coupled_distance_moment(Euclidean(m), d0, a, b, PthPowerDistance(2.0))
        assert value == pytest.approx(d0**2 + 2 * m * D, abs=1e-12)
        assert bound == 0.0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_the_moment_of_a_cost_is_solved_from_that_cost(m):
    # lp2's cost s_0(r/2)^2 = r^2/4 on E^m: the backward equation starts
    # from h(r), with no closed form, and lands on E rho^2 / 4
    for d0, a, b in ((1.0, 0.2, 0.4), (0.0, 0.25, 1.0)):
        D = (math.sqrt(b) - math.sqrt(a)) ** 2
        value, bound = coupled_distance_moment(Euclidean(m), d0, a, b, ComparisonCost(2.0, 0.0))
        assert bound > 0.0
        assert abs(value - (d0**2 + 2 * m * D) / 4) <= bound + 1e-12


@pytest.mark.parametrize("space, hi", [(Sphere(2), math.pi), (Hyperbolic(2), 4.0),
                                       (Euclidean(2), 3.0)], ids=["S2", "H2", "E2"])
def test_backward_moment_is_the_crank_nicolson_scheme(space, hi):
    # the generator rebuilt densely from its flux-form bands on 40 cells, and
    # ((I - hA)^-1 (I + hA))^5 applied to the cost with dense solves
    m, k = space.dim, space.sectional_curvature
    a, b, cells, lo = 0.2, 0.4, 40, 0.0
    D = (math.sqrt(b) - math.sqrt(a)) ** 2
    weight = 4.0 * math.sqrt(a * b) / D
    log_w = lambda r: (m - 1) * (np.log(comp_s(k, r)) + weight * np.log(comp_c(k, r / 2.0)))
    cost = ComparisonCost(2.0, k)
    dr = (hi - lo) / cells
    r = lo + (np.arange(cells) + 0.5) * dr
    jump = np.diff(log_w(r))
    bernoulli = lambda x: np.where(x == 0.0, 1.0, x / np.expm1(x))
    A = np.zeros((cells, cells))
    for i in range(cells - 1):   # the flux between cells i and i + 1
        A[i, i + 1] = D / dr**2 * bernoulli(-jump[i])
        A[i + 1, i] = D / dr**2 * bernoulli(jump[i])
    A -= np.diag(A.sum(axis=1))
    steps = cells // 8
    half = 0.5 / steps
    eye = np.eye(cells)
    v = cost.of_distance(r)
    for _ in range(steps):
        v = np.linalg.solve(eye - half * A, (eye + half * A) @ v)
    for d0 in (0.3, 1.0, 2.0, hi - 0.01):
        # Lagrange interpolation through the four nearest cell centres
        near = np.sort(np.argsort(np.abs(r - d0), kind="stable")[:4])
        lagrange = [np.prod([(d0 - r[j]) / (r[i] - r[j]) for j in near if j != i]) for i in near]
        want = float(np.dot(lagrange, v[near]))
        got = walk_mod._backward_moment(log_w, D, lo, hi, cells, d0, cost.of_distance)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _distance_ode(space, d0, tau, steps=4000):
    """rho at u = 1 from d rho/du = 2(m-1) tau (c_k(rho) - 1)/s_k(rho), the
    noise-free drift at a = b, by classical Runge-Kutta."""
    m, k = space.dim, space.sectional_curvature
    f = lambda r: 2 * (space.dim - 1) * tau * (comp_c(k, r) - 1.0) / comp_s(k, r)
    r, h = d0, 1.0 / steps
    for _ in range(steps):
        k1 = f(r)
        k2 = f(r + h / 2 * k1)
        k3 = f(r + h / 2 * k2)
        k4 = f(r + h * k3)
        r += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return r


@pytest.mark.parametrize("space", [Sphere(2), Sphere(3, radius=2.0), Hyperbolic(2),
                                   Hyperbolic(3, curvature=-0.5), Euclidean(2)],
                         ids=["S2", "S3_r2", "H2", "H3_c0.5", "E2"])
def test_equal_time_scales_leave_no_noise(space):
    for d0 in (0.3, 1.0, 2.0):
        for p in (2.0, 3.0):
            value, bound = coupled_distance_moment(space, d0, 0.3, 0.3, PthPowerDistance(p))
            assert bound == 0.0
            assert value == pytest.approx(_distance_ode(space, d0, 0.3) ** p, rel=1e-10)


@pytest.mark.parametrize("space, d0, taus", [
    (Sphere(2), 1.0, (0.2, 0.4)), (Sphere(2), 2.8, (0.2, 0.4)), (Hyperbolic(2), 1.0, (0.2, 0.4)),
    (Hyperbolic(2), 0.0, (0.2, 0.4)),
    # far out: at nearly equal times on H^3 the bound needs an eighth as many
    # steps as cells (a sixteenth fails), S^2 has the tightest bound of a sweep
    # over S^2, S^3, H^2, H^3, E^2 and E^3, and on S^3 at (0.25, 1) the time
    # error is most of the bound
    (Hyperbolic(3), 2.8, (0.2, 0.21)), (Sphere(3), 2.8, (0.25, 1.0)), (Sphere(2), 2.8, (0.2, 0.21)),
], ids=["S2", "S2_far", "H2", "H2_d0", "H3_far_close_times", "S3_far", "S2_far_close_times"])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_a_four_times_finer_grid_stays_within_the_bound(monkeypatch, space, d0, taus, p):
    value, bound = coupled_distance_moment(space, d0, *taus, PthPowerDistance(p))
    monkeypatch.setattr(walk_mod, "_CELLS", 4 * walk_mod._CELLS)
    finer, finer_bound = coupled_distance_moment(space, d0, *taus, PthPowerDistance(p))
    assert abs(finer - value) < bound
    assert finer_bound < bound
    if isinstance(space, Sphere) and d0 == 1.0:
        assert abs(finer - value) < 1e-6


@pytest.mark.parametrize("space, d0, p", [(Hyperbolic(3), 1.0, 2.0), (Hyperbolic(3), 1.0, 3.0),
                                          (Sphere(3), 2.8, 3.0)], ids=["H3_p2", "H3_p3", "S3_p3"])
def test_nearly_equal_time_scales_stay_within_the_bound_of_the_exact_law(space, d0, p):
    # at tau1 = tau2 the law is exact; a relative gap of 1e-7 leaves almost no
    # noise against a drift that is strong on every cell
    exact, _ = coupled_distance_moment(space, d0, 1.0, 1.0, PthPowerDistance(p))
    value, bound = coupled_distance_moment(space, d0, 1.0, 1.0 + 1e-7, PthPowerDistance(p))
    assert abs(value - exact) <= bound


def test_law_reproduces_the_one_dimensional_prototype():
    # the acceptance prectl pair: Crank-Nicolson at 4000 cells gave 0.6303804
    # on S2 and 1.8688567 on H2 at 2000 cells (d0 = 1, (0.2, 0.4))
    s2, bound = coupled_distance_moment(Sphere(2), 1.0, 0.2, 0.4, PthPowerDistance(2.0))
    assert abs(s2 - 0.6303804) < 1e-6 and bound < 1e-4
    h2, bound = coupled_distance_moment(Hyperbolic(2), 1.0, 0.2, 0.4, PthPowerDistance(2.0))
    assert abs(h2 - 1.8688567) < 1e-5 and bound < 1e-3


@pytest.mark.parametrize("radius", [1.0, 1.5])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_circle_distance_is_reflected_brownian_motion(radius, p):
    # on S^1 rho is d0 + sqrt(2D) Z folded into [0, pi radius]
    d0, a, b = 1.0, 0.2, 0.4
    sd = math.sqrt(2.0) * (math.sqrt(b) - math.sqrt(a))
    z = np.linspace(-12.0, 12.0, 400_001)
    period = 2 * math.pi * radius
    rho = np.abs((d0 + sd * z + period / 2) % period - period / 2)
    dens = np.exp(-z * z / 2) / math.sqrt(2 * math.pi)
    exact = float(np.sum(rho**p * dens) * (z[1] - z[0]))
    value, bound = coupled_distance_moment(Sphere(1, radius=radius), d0, a, b,
                                           PthPowerDistance(p))
    assert abs(value - exact) <= bound + 1e-9


def test_ou_and_bad_distances_are_refused():
    with pytest.raises(ValueError, match="OU"):
        coupled_distance_moment(EuclideanOU(2, 1.0), 1.0, 0.2, 0.4, PthPowerDistance(2.0))
    with pytest.raises(ValueError, match="d0"):
        coupled_distance_moment(Sphere(2), 3.2, 0.2, 0.4, PthPowerDistance(2.0))
    with pytest.raises(ValueError, match="nonnegative"):
        coupled_distance_moment(Sphere(2), 1.0, -0.2, 0.4, PthPowerDistance(2.0))


@pytest.mark.parametrize("space", [Sphere(2), Hyperbolic(2)], ids=["S2", "H2"])
def test_coupled_walk_matches_the_law_of_its_distance(space):
    # the walk's E d^2 at k = 15 over seeds 0-5 against the law: |mean z| <= 3/sqrt(R)
    x, y = _start_pair(space)
    value, bound = coupled_distance_moment(space, 1.0, 0.2, 0.4, PthPowerDistance(2.0))
    zs = []
    for seed in range(6):
        cfg = WalkConfig(k=15, n_trajectories=2000, seed=seed)
        d2 = run_coupled(space, x, y, 0.2, 0.4, cfg).terminal_distances ** 2
        se = d2.std(ddof=1) / math.sqrt(d2.size)
        zs.append((d2.mean() - value) / math.hypot(se, bound))
    assert abs(np.mean(zs)) <= 3 / math.sqrt(len(zs)), zs
