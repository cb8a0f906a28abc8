import math
import sys
import threading

import numpy as np
import pytest

import ctlab.heat as heat_mod
from ctlab.geometry import Euclidean, EuclideanOU, Hyperbolic, Sphere
from ctlab.heat import (
    BackendMismatch,
    CircleFourier,
    GaussHermite,
    SphereZonal,
    default_backend,
    frame_stencil,
    heat_apply,
    heat_jet,
    slice_chart,
)
from ctlab.walk import WalkConfig, run_coupled, sample_heat


def zonal_cos(p):
    return p[..., 2]


def test_time_zero_is_identity():
    s2 = Sphere(2)
    x = np.array([0.0, math.sin(1.0), math.cos(1.0)])
    assert heat_apply(s2, zonal_cos, 0.0, x) == math.cos(1.0)


def test_euclidean_coordinate_is_invariant():
    # drift-free generator: the mean coordinate does not move
    e2 = Euclidean(2)
    f = lambda p: p[..., 0]
    x = np.array([0.7, -0.2])
    assert heat_apply(e2, f, 0.8, x) == pytest.approx(0.7, abs=1e-12)


def test_sphere_zonal_eigenvalue():
    # cos(theta) is the l=1 zonal mode: P_t cos = e^{-2t} cos on the unit sphere
    s2 = Sphere(2)
    for theta in (0.3, 1.0, 2.2):
        x = np.array([0.0, math.sin(theta), math.cos(theta)])
        hv = heat_apply(s2, zonal_cos, 0.5, x)
        assert hv == pytest.approx(math.exp(-1.0) * math.cos(theta), abs=1e-8)


def test_circle_fourier_eigenvalue():
    s1 = Sphere(1)
    f = lambda p: p[..., 1]  # sin(theta), the k=1 mode
    for theta in (0.0, 0.9, 4.0):
        x = np.array([math.cos(theta), math.sin(theta)])
        hv = heat_apply(s1, f, 0.3, x)
        assert hv == pytest.approx(math.exp(-0.3) * math.sin(theta), abs=1e-10)


def test_euclidean_quadratic_moments():
    # P_t z^2 = x^2 + 2t for the drift-free generator
    e1 = Euclidean(1)
    f = lambda p: p[..., 0] ** 2
    value, grad, gen = heat_jet(e1, f, 0.3, np.array([0.5]))
    assert value == pytest.approx(0.25 + 0.6, abs=1e-10)
    assert grad == pytest.approx(1.0, abs=1e-10)
    assert gen == pytest.approx(2.0, abs=1e-10)


def test_sphere_gradient_oracle():
    # |grad P_t cos|(theta) = e^{-2t} sin(theta)
    s2 = Sphere(2)
    theta = math.pi / 3
    x = np.array([0.0, math.sin(theta), math.cos(theta)])
    _, grad, _ = heat_jet(s2, zonal_cos, 0.5, x)
    assert grad == pytest.approx(math.exp(-1.0) * math.sin(theta), abs=1e-10)


def test_sphere_generator_oracle():
    s2 = Sphere(2)
    theta = math.pi / 3
    x = np.array([0.0, math.sin(theta), math.cos(theta)])
    _, _, gen = heat_jet(s2, zonal_cos, 0.5, x)
    assert gen == pytest.approx(-2 * math.exp(-1.0) * math.cos(theta), abs=1e-10)


def test_gradient_of_constant_vanishes():
    s2 = Sphere(2)
    _, grad, _ = heat_jet(s2, lambda p: np.ones(p.shape[:-1]),
                          0.5, np.array([0.0, 0.0, 1.0]))
    assert grad == pytest.approx(0.0, abs=1e-10)


def test_ou_mehler_oracle():
    # linear drift: P_t sin(x) = sin(e^{-t} x) exp(-(1 - e^{-2t})/2) at lam = 1
    ou = EuclideanOU(1, 1.0)
    x = np.array([0.7])
    t = 0.4
    hv = heat_apply(ou, lambda p: np.sin(p[..., 0]), t, x)
    oracle = math.sin(math.exp(-t) * 0.7) * math.exp(-(1 - math.exp(-2 * t)) / 2)
    assert hv == pytest.approx(oracle, abs=1e-12)


def test_ou_generator_oracle():
    # u = P_t sin = c sin(a x) with a = e^{-lam t}, c = e^{-(1 - a^2)/(2 lam)}:
    # |grad u| = |u'| and L u = u'' - lam x u'
    for lam in (1.0, 0.7):
        ou = EuclideanOU(1, lam)
        t = 0.4
        a, c = math.exp(-lam * t), math.exp(-(1 - math.exp(-2 * lam * t)) / (2 * lam))
        xs = np.linspace(-2.0, 2.0, 17)
        value, grad, gen = heat_jet(ou, lambda p: np.sin(p[..., 0]),
                                    t, xs[:, None])
        du, d2u = a * c * np.cos(a * xs), -a * a * c * np.sin(a * xs)
        assert np.allclose(value, c * np.sin(a * xs), rtol=0, atol=1e-12)
        assert np.allclose(grad, np.abs(du), rtol=0, atol=1e-12)
        assert np.allclose(gen, d2u - lam * xs * du, rtol=0, atol=1e-12)


def test_circle_jet_oracle_off_the_unit_radius():
    # sin(theta) on the circle of radius 1.5: P_t f = e^{-t/rho^2} sin, the
    # arclength gradient e^{-t/rho^2} |cos| / rho and L = -P_t f / rho^2
    rho, t = 1.5, 0.4
    s1 = Sphere(1, radius=rho)
    theta = np.linspace(0.0, 2 * math.pi, 19)
    decay = math.exp(-t / rho**2)
    value, grad, gen = heat_jet(s1, lambda p: p[..., 1] / rho, t,
                                slice_chart(s1, theta))
    assert np.allclose(value, decay * np.sin(theta), rtol=0, atol=1e-12)
    assert np.allclose(grad, decay * np.abs(np.cos(theta)) / rho, rtol=0, atol=1e-12)
    assert np.allclose(gen, -decay * np.sin(theta) / rho**2, rtol=0, atol=1e-12)


@pytest.mark.parametrize("space,f", [
    (Sphere(2), zonal_cos),
    (Sphere(1, radius=1.5), lambda p: np.exp(p[..., 0] / 1.5)),
    (Euclidean(1), lambda p: np.sin(p[..., 0])),
    (Euclidean(2), lambda p: np.exp(-0.5 * np.sum(p**2, axis=-1))),
    (EuclideanOU(2, 0.7), lambda p: np.tanh(p[..., 0]) * p[..., 1]),
])
def test_batch_equals_its_points_one_at_a_time(space, f):
    # a grid with one time, and per-point times as bl_int passes them
    pts = slice_chart(space, np.linspace(0.3, 2.5, 7))
    times = np.linspace(0.1, 0.7, 7)
    for t in (0.4, times):
        batch = heat_jet(space, f, t, pts)
        for i, p in enumerate(pts):
            one = heat_jet(space, f, np.broadcast_to(t, (7,))[i], p)
            for b, o in zip(batch, one):
                assert np.shape(o) == () and b[i] == pytest.approx(float(o), rel=1e-13, abs=1e-15)


# fields with a parameter c: a column c[:, None] gives a family with one
# field per point of the batch, a number the field of one point
@pytest.mark.parametrize("space,field", [
    (Sphere(2), lambda c: lambda p: zonal_cos(p) + (c - 1.0) * p[..., 2] ** 2),
    (Sphere(1, radius=1.5), lambda c: lambda p: np.exp(c * p[..., 0] / 1.5)),
    (Euclidean(1), lambda c: lambda p: np.sin(c * p[..., 0])),
    (Euclidean(2), lambda c: lambda p: np.exp(-0.5 * c * np.sum(p**2, axis=-1))),
    (EuclideanOU(2, 0.7), lambda c: lambda p: np.tanh(c * p[..., 0]) * p[..., 1]),
])
def test_family_batch_equals_its_fields_one_at_a_time(space, field):
    # a family with a field for each point of the grid, with one time and
    # with per-point times
    pts = slice_chart(space, np.linspace(0.3, 2.5, 7))
    times = np.linspace(0.1, 0.7, 7)
    cs = np.linspace(0.5, 1.7, 7)
    for t in (0.4, times):
        batch = heat_jet(space, field(cs[:, None]), t, pts)
        for i, p in enumerate(pts):
            one = heat_jet(space, field(cs[i]), np.broadcast_to(t, (7,))[i], p)
            for b, o in zip(batch, one):
                assert np.shape(o) == ()
                assert b[i] == pytest.approx(float(o), rel=1e-13, abs=1e-15)
    # at t = 0 heat_apply gives each field at its own point
    at_zero = heat_apply(space, field(cs[:, None]), 0.0, pts)
    assert at_zero.tolist() == [field(c)(p[None])[0] for c, p in zip(cs, pts)]


def test_sphere_zonal_judges_each_field_of_a_family_by_its_own_scale():
    # the middle field is 1e6 times smaller than its neighbours and not
    # zonal: its azimuthal part is below 1e-9 of the family's largest
    # value, but far above 1e-9 of its own
    s2 = Sphere(2)
    scale = np.array([1.0, 1e-6, 1.0])[:, None]
    tilt = np.array([0.0, 1e-4, 0.0])[:, None]
    family = lambda p: scale * (p[..., 2] + tilt * p[..., 0])
    pts = slice_chart(s2, np.array([0.4, 1.1, 2.0]))
    with pytest.raises(ValueError, match="rotationally symmetric"):
        heat_jet(s2, family, 0.3, pts)
    # the zonal fields alone, or the small one without its tilt, pass
    tilt[1] = 0.0
    value = heat_jet(s2, family, 0.3, pts)[0]
    assert np.allclose(value, scale[:, 0] * math.exp(-0.6) * np.cos([0.4, 1.1, 2.0]),
                       rtol=1e-12, atol=0)


def test_heat_jet_needs_positive_t():
    e1 = Euclidean(1)
    with pytest.raises(ValueError, match="t > 0"):
        heat_jet(e1, lambda p: p[..., 0], 0.0, np.zeros(1))
    with pytest.raises(ValueError, match="t > 0"):
        heat_apply(e1, lambda p: p[..., 0], np.array([0.3, -0.1]),
                   np.zeros((2, 1)))


def test_ou_gradient_estimate_example():
    # |grad P_t f|^2 <= e^{-2Kt} P_t(|f'|^2) with K = lam = 1, N = inf
    ou = EuclideanOU(1, 1.0)
    f = lambda p: np.sin(p[..., 0])
    fp2 = lambda p: np.cos(p[..., 0]) ** 2
    for x0 in (-1.0, 0.0, 0.8):
        x = np.array([x0])
        lhs = heat_jet(ou, f, 0.5, x)[1] ** 2
        rhs = math.exp(-1.0) * heat_apply(ou, fp2, 0.5, x)
        assert lhs <= rhs + 1e-5


def test_semigroup_property_deterministic_backends():
    s2 = Sphere(2)
    s, t = 0.2, 0.3
    x = np.array([0.0, math.sin(1.2), math.cos(1.2)])

    inner = lambda p: heat_apply(s2, zonal_cos, t, p)
    composed = heat_apply(s2, inner, s, x)
    direct = heat_apply(s2, zonal_cos, s + t, x)
    assert composed == pytest.approx(direct, abs=1e-8)


def test_positivity_and_mass():
    s2 = Sphere(2)
    x = np.array([0.0, math.sin(0.7), math.cos(0.7)])
    one = lambda p: np.ones(p.shape[:-1])
    assert heat_apply(s2, one, 0.7, x) == pytest.approx(1.0, abs=1e-10)
    nonneg = lambda p: (1.0 + p[..., 2]) ** 2
    assert heat_apply(s2, nonneg, 0.7, x) >= -1e-12


def _sample_mean(space, f, t, x, cfg):
    """The mean of f over an exact heat-law cloud, with its standard error."""
    vals = f(sample_heat(space, (x,), (t,), cfg)[0])
    return vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)


def test_monte_carlo_agrees_with_spectral():
    s2 = Sphere(2)
    x = np.array([0.0, math.sin(1.0), math.cos(1.0)])
    spectral = heat_apply(s2, zonal_cos, 0.4, x)
    mean, stderr = _sample_mean(s2, zonal_cos, 0.4, x, WalkConfig(n_trajectories=4000, seed=3))
    assert abs(mean - spectral) < 3 * stderr


def test_monte_carlo_euclidean_against_gauss_hermite():
    e2 = Euclidean(2)
    f = lambda p: np.exp(-0.5 * np.sum(p**2, axis=-1))
    x = np.array([0.4, -0.3])
    a = heat_apply(e2, f, 0.5, x)
    mean, stderr = _sample_mean(e2, f, 0.5, x, WalkConfig(n_trajectories=4000, seed=4))
    assert abs(a - mean) < 3 * stderr


def test_backend_space_mismatch():
    # heat_jet and heat_apply take the space's own backend, so the one
    # mismatch left is a space that has none; heat_apply refuses it at t = 0 too
    h2, x = Hyperbolic(2), np.array([1.0, 0.0, 0.0])
    with pytest.raises(BackendMismatch, match="no deterministic backend for Hyperbolic"):
        heat_jet(h2, lambda p: p[..., 0], 0.5, x)
    for t in (0.0, 0.5):
        with pytest.raises(BackendMismatch, match="no deterministic backend for Hyperbolic"):
            heat_apply(h2, lambda p: p[..., 0], t, x)


def test_default_backend_is_the_first_that_applies():
    for space, backend in ((Euclidean(1), GaussHermite), (EuclideanOU(2, 0.5), GaussHermite),
                           (Sphere(1), CircleFourier), (Sphere(2), SphereZonal)):
        be = default_backend(space)
        assert type(be) is backend and be.applies_to(space)
    for space in (Euclidean(3), Sphere(3), Hyperbolic(2)):
        with pytest.raises(TypeError, match="no deterministic backend"):
            default_backend(space)


def test_default_backend_is_built_once():
    for space in (Sphere(2), Sphere(1), Euclidean(1), EuclideanOU(1, 1.0)):
        assert default_backend(space) is default_backend(space)
    # one instance per class, whatever the space's radius, dimension or drift
    assert default_backend(Sphere(2, radius=2.0)) is default_backend(Sphere(2))
    assert default_backend(Euclidean(2)) is default_backend(EuclideanOU(1, 0.5))


def test_threads_racing_for_the_backends_build_each_once(monkeypatch):
    # more threads than CPUs ask for every backend at once, switching every
    # microsecond: each class is still built once, and every thread gets it
    monkeypatch.setattr(heat_mod, "_built", {})
    built = []
    for cls in heat_mod._BACKENDS:
        def counted(self, _init=cls.__init__):
            built.append(type(self).__name__)
            _init(self)
        monkeypatch.setattr(cls, "__init__", counted)
    spaces, n = (Sphere(2), Sphere(1), Euclidean(1)), 8
    start, got = threading.Barrier(n), []

    def ask():
        start.wait()
        got.append(tuple(default_backend(space) for space in spaces))

    threads = [threading.Thread(target=ask) for _ in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(built) == ["CircleFourier", "GaussHermite", "SphereZonal"]
    assert len(got) == n and len(set(got)) == 1


@pytest.mark.parametrize("space,x", [
    (Sphere(2), [0.0, 0.6, 0.8]), (Sphere(2, radius=2.0), [0.0, 1.2, 1.6]),
    (Sphere(1), [0.6, 0.8]), (Euclidean(1), [0.3]), (Euclidean(2), [0.3, -0.2]),
    (EuclideanOU(1, 1.0), [0.3]),
], ids=["S2", "S2_r2", "S1", "E1", "E2", "OU"])
def test_one_point_gives_floats_on_every_backend(space, x):
    f = lambda p: p[..., -1] ** 2  # zonal on S^2
    x = np.array(x)
    for t in (0.0, 0.4):
        value = heat_apply(space, f, t, x)
        assert isinstance(value, float) and np.ndim(value) == 0
    for part in heat_jet(space, f, 0.4, x):
        assert np.shape(part) == ()


def test_slice_chart():
    theta = np.linspace(-1.0, 2.0, 5)
    assert np.allclose(slice_chart(Sphere(2, radius=2.0), theta),
                       2.0 * np.stack([np.sin(theta), 0 * theta, np.cos(theta)], -1))
    assert np.allclose(slice_chart(Sphere(1), theta), np.stack([np.cos(theta), np.sin(theta)], -1))
    on_line = slice_chart(Euclidean(1), theta)
    assert on_line.shape == (5, 1) and np.shares_memory(on_line, theta)
    assert np.array_equal(slice_chart(EuclideanOU(3, 1.0), theta)[:, 0], theta)
    assert not slice_chart(EuclideanOU(3, 1.0), theta)[:, 1:].any()
    with pytest.raises(ValueError):
        slice_chart(Hyperbolic(2), theta)


def test_frame_stencil_steps_along_geodesics():
    s2 = Sphere(2)
    x = np.array([0.0, 0.0, 1.0])
    frame, plus, minus = frame_stencil(s2, lambda p: p, x, 0.1)
    assert frame.shape == (2, 3)
    for e, p, m in zip(frame, plus, minus):
        assert np.allclose(p, math.cos(0.1) * x + math.sin(0.1) * e)
        assert np.allclose(m, math.cos(0.1) * x - math.sin(0.1) * e)


def test_sphere_zonal_rejects_non_zonal_field():
    # f = x_0 is not symmetric about the default axis; its exact value
    # P_t f(x) = e^{-2t} x_0 at t = 0.5 is e^{-1}, not what the meridian gives
    s2 = Sphere(2)
    with pytest.raises(ValueError, match="rotationally symmetric"):
        heat_apply(s2, lambda p: p[..., 0], 0.5, np.array([1.0, 0.0, 0.0]))


def test_heat_sample_time_zero():
    # at time zero the coupled walk leaves both walkers at their starts
    e2 = Euclidean(2)
    x, y = np.array([1.0, 2.0]), np.array([-1.0, 0.5])
    path = run_coupled(e2, x, y, 0.0, 0.0, WalkConfig(k=5, n_trajectories=7))
    assert path.terminal.x1.shape == (7, 2)
    assert np.allclose(path.terminal.x1, x) and np.allclose(path.terminal.x2, y)


def test_mono_app_inequality_on_deterministic_backends():
    # P_t((g + delta)^r)^{1/r} - delta >= P_t(g^r)^{1/r}
    rng = np.random.default_rng(7)
    s2 = Sphere(2)
    x = np.array([0.0, math.sin(0.9), math.cos(0.9)])
    for _ in range(100):
        r = rng.uniform(0.05, 0.95)
        delta = rng.uniform(0.01, 2.0)
        a0, a1 = rng.uniform(0.1, 2.0, size=2)
        g = lambda p: a0 + a1 * (1.0 + p[..., 2]) ** 2
        lifted = heat_apply(s2, lambda p: (g(p) + delta) ** r, 0.3, x) ** (1 / r) - delta
        plain = heat_apply(s2, lambda p: g(p) ** r, 0.3, x) ** (1 / r)
        assert lifted >= plain - 1e-10


def test_generator_of_invariant_field_vanishes():
    # the coordinate is harmonic and drift-free: P_t f is constant in t
    e1 = Euclidean(1)
    _, _, gen = heat_jet(e1, lambda p: p[..., 0], 0.4, np.array([0.3]))
    assert gen == pytest.approx(0.0, abs=1e-12)
