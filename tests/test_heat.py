import math

import numpy as np
import pytest

from ctlab.geometry import Euclidean, EuclideanOU, Hyperbolic, Sphere
from ctlab.heat import (
    CircleFourier,
    GaussHermite,
    MonteCarlo,
    SphereZonal,
    default_backend,
    frame_stencil,
    generator_heat,
    grad_heat,
    heat_apply,
    slice_chart,
)
from ctlab.walk import WalkConfig, run_single


def zonal_cos(p):
    return p[..., 2]


def test_time_zero_is_identity():
    s2 = Sphere(2)
    x = np.array([0.0, math.sin(1.0), math.cos(1.0)])
    hv = heat_apply(s2, default_backend(s2), zonal_cos, 0.0, x)
    assert hv.value == pytest.approx(math.cos(1.0), abs=1e-15)
    assert hv.stderr == 0.0


def test_euclidean_coordinate_is_invariant():
    # drift-free generator: the mean coordinate does not move
    e2 = Euclidean(2)
    f = lambda p: p[..., 0]
    x = np.array([0.7, -0.2])
    hv = heat_apply(e2, default_backend(e2), f, 0.8, x)
    assert hv.value == pytest.approx(0.7, abs=1e-12)


def test_sphere_zonal_eigenvalue():
    # cos(theta) is the l=1 zonal mode: P_t cos = e^{-2t} cos on the unit sphere
    s2 = Sphere(2)
    be = default_backend(s2)
    for theta in (0.3, 1.0, 2.2):
        x = np.array([0.0, math.sin(theta), math.cos(theta)])
        hv = heat_apply(s2, be, zonal_cos, 0.5, x)
        assert hv.value == pytest.approx(math.exp(-1.0) * math.cos(theta), abs=1e-8)


def test_circle_fourier_eigenvalue():
    s1 = Sphere(1)
    be = default_backend(s1)
    f = lambda p: p[..., 1]  # sin(theta), the k=1 mode
    for theta in (0.0, 0.9, 4.0):
        x = np.array([math.cos(theta), math.sin(theta)])
        hv = heat_apply(s1, be, f, 0.3, x)
        assert hv.value == pytest.approx(math.exp(-0.3) * math.sin(theta), abs=1e-10)


def test_euclidean_quadratic_moments():
    # P_t z^2 = x^2 + 2t for the drift-free generator
    e1 = Euclidean(1)
    be = default_backend(e1)
    f = lambda p: p[..., 0] ** 2
    hv = heat_apply(e1, be, f, 0.3, np.array([0.5]))
    assert hv.value == pytest.approx(0.25 + 0.6, abs=1e-10)
    gv = grad_heat(e1, be, f, 0.3, np.array([0.5]))
    assert gv.value == pytest.approx(1.0, abs=1e-6)
    lv = generator_heat(e1, be, f, 0.3, np.array([0.5]))
    assert lv.value == pytest.approx(2.0, abs=1e-6)


def test_sphere_gradient_oracle():
    # |grad P_t cos|(theta) = e^{-2t} sin(theta)
    s2 = Sphere(2)
    be = default_backend(s2)
    theta = math.pi / 3
    x = np.array([0.0, math.sin(theta), math.cos(theta)])
    gv = grad_heat(s2, be, zonal_cos, 0.5, x, h=1e-3)
    assert gv.value == pytest.approx(math.exp(-1.0) * math.sin(theta), abs=1e-4)


def test_sphere_generator_oracle():
    s2 = Sphere(2)
    be = default_backend(s2)
    theta = math.pi / 3
    x = np.array([0.0, math.sin(theta), math.cos(theta)])
    lv = generator_heat(s2, be, zonal_cos, 0.5, x, dt=1e-4)
    assert lv.value == pytest.approx(-2 * math.exp(-1.0) * math.cos(theta), abs=1e-5)


def test_gradient_of_constant_vanishes():
    s2 = Sphere(2)
    gv = grad_heat(s2, default_backend(s2), lambda p: np.ones(p.shape[:-1]),
                   0.5, np.array([0.0, 0.0, 1.0]))
    assert gv.value == pytest.approx(0.0, abs=1e-10)


def test_ou_mehler_oracle():
    # linear drift: P_t sin(x) = sin(e^{-t} x) exp(-(1 - e^{-2t})/2) at lam = 1
    ou = EuclideanOU(1, 1.0)
    be = default_backend(ou)
    x = np.array([0.7])
    t = 0.4
    hv = heat_apply(ou, be, lambda p: np.sin(p[..., 0]), t, x)
    oracle = math.sin(math.exp(-t) * 0.7) * math.exp(-(1 - math.exp(-2 * t)) / 2)
    assert hv.value == pytest.approx(oracle, abs=1e-12)


def test_ou_gradient_estimate_example():
    # |grad P_t f|^2 <= e^{-2Kt} P_t(|f'|^2) with K = lam = 1, N = inf
    ou = EuclideanOU(1, 1.0)
    be = default_backend(ou)
    f = lambda p: np.sin(p[..., 0])
    fp2 = lambda p: np.cos(p[..., 0]) ** 2
    for x0 in (-1.0, 0.0, 0.8):
        x = np.array([x0])
        lhs = grad_heat(ou, be, f, 0.5, x).value ** 2
        rhs = math.exp(-1.0) * heat_apply(ou, be, fp2, 0.5, x).value
        assert lhs <= rhs + 1e-5


def test_semigroup_property_deterministic_backends():
    s2 = Sphere(2)
    be = default_backend(s2)
    s, t = 0.2, 0.3
    x = np.array([0.0, math.sin(1.2), math.cos(1.2)])

    def inner(p):
        pts = np.atleast_2d(p)
        vals = [heat_apply(s2, be, zonal_cos, t, q).value for q in pts]
        return np.asarray(vals) if np.ndim(p) > 1 else vals[0]

    composed = heat_apply(s2, be, inner, s, x).value
    direct = heat_apply(s2, be, zonal_cos, s + t, x).value
    assert composed == pytest.approx(direct, abs=1e-8)


def test_positivity_and_mass():
    s2 = Sphere(2)
    be = default_backend(s2)
    x = np.array([0.0, math.sin(0.7), math.cos(0.7)])
    one = lambda p: np.ones(p.shape[:-1])
    assert heat_apply(s2, be, one, 0.7, x).value == pytest.approx(1.0, abs=1e-10)
    nonneg = lambda p: (1.0 + p[..., 2]) ** 2
    assert heat_apply(s2, be, nonneg, 0.7, x).value >= -1e-12


def test_monte_carlo_agrees_with_spectral():
    s2 = Sphere(2)
    be = default_backend(s2)
    mc = MonteCarlo(WalkConfig(k=15, n_trajectories=4000, seed=3))
    x = np.array([0.0, math.sin(1.0), math.cos(1.0)])
    spectral = heat_apply(s2, be, zonal_cos, 0.4, x)
    sampled = heat_apply(s2, mc, zonal_cos, 0.4, x)
    assert abs(sampled.value - spectral.value) < 3 * sampled.stderr + 5e-3


def test_monte_carlo_euclidean_against_gauss_hermite():
    e2 = Euclidean(2)
    f = lambda p: np.exp(-0.5 * np.sum(p**2, axis=-1))
    mc = MonteCarlo(WalkConfig(k=15, n_trajectories=4000, seed=4))
    x = np.array([0.4, -0.3])
    a = heat_apply(e2, default_backend(e2), f, 0.5, x)
    b = heat_apply(e2, mc, f, 0.5, x)
    assert abs(a.value - b.value) < 3 * b.stderr + 5e-3


def test_backend_space_mismatch():
    s2 = Sphere(2)
    with pytest.raises(TypeError):
        heat_apply(s2, GaussHermite(), zonal_cos, 0.5, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(TypeError):
        heat_apply(Euclidean(2), CircleFourier(), lambda p: p[..., 0], 0.5, np.zeros(2))
    with pytest.raises(TypeError):
        default_backend(Hyperbolic(2))


def test_default_backend_is_the_first_that_applies():
    for space, backend in ((Euclidean(1), GaussHermite), (EuclideanOU(2, 0.5), GaussHermite),
                           (Sphere(1), CircleFourier), (Sphere(2), SphereZonal)):
        be = default_backend(space, 16)
        assert type(be) is backend and be.applies_to(space)
    for space in (Euclidean(3), Sphere(3), Hyperbolic(2)):
        with pytest.raises(TypeError, match="no deterministic backend"):
            default_backend(space)


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


def test_mode_floor():
    with pytest.raises(ValueError):
        SphereZonal(4)
    with pytest.raises(ValueError):
        GaussHermite(4)


def test_sphere_zonal_rejects_non_zonal_field():
    # f = x_0 is not symmetric about the default axis; its exact value
    # P_t f(x) = e^{-2t} x_0 at t = 0.5 is e^{-1}, not what the meridian gives
    s2 = Sphere(2)
    with pytest.raises(ValueError, match="rotationally symmetric"):
        heat_apply(s2, SphereZonal(), lambda p: p[..., 0], 0.5, np.array([1.0, 0.0, 0.0]))


# the terminal cloud of a single walk samples the heat distribution
def test_heat_sample_time_zero():
    e2 = Euclidean(2)
    pts = run_single(e2, np.array([1.0, 2.0]), 0.0, WalkConfig(k=5, n_trajectories=7)).terminal
    assert pts.shape == (7, 2)
    assert np.allclose(pts, [1.0, 2.0])


def test_heat_sample_variance():
    e2 = Euclidean(2)
    pts = run_single(e2, np.zeros(2), 0.5, WalkConfig(k=20, n_trajectories=4000, seed=5)).terminal
    var = pts.var(axis=0, ddof=1)
    se = np.sqrt(np.var(pts**2, axis=0) / 4000)
    assert np.all(np.abs(var - 1.0) < 3 * se)


def test_heat_sample_ou_mean():
    ou = EuclideanOU(1, 1.0)
    pts = run_single(ou, np.array([1.0]), 0.4, WalkConfig(k=20, n_trajectories=4000, seed=6)).terminal
    se = pts.std() / math.sqrt(4000)
    assert abs(pts.mean() - math.exp(-0.4)) < 3 * se


def test_mono_app_inequality_on_deterministic_backends():
    # P_t((g + delta)^r)^{1/r} - delta >= P_t(g^r)^{1/r}
    rng = np.random.default_rng(7)
    s2 = Sphere(2)
    be = default_backend(s2)
    x = np.array([0.0, math.sin(0.9), math.cos(0.9)])
    for _ in range(100):
        r = rng.uniform(0.05, 0.95)
        delta = rng.uniform(0.01, 2.0)
        a0, a1 = rng.uniform(0.1, 2.0, size=2)
        g = lambda p: a0 + a1 * (1.0 + p[..., 2]) ** 2
        lifted = heat_apply(s2, be, lambda p: (g(p) + delta) ** r, 0.3, x).value ** (1 / r) - delta
        plain = heat_apply(s2, be, lambda p: g(p) ** r, 0.3, x).value ** (1 / r)
        assert lifted >= plain - 1e-10


def test_gradient_requires_positive_h():
    with pytest.raises(ValueError):
        grad_heat(Euclidean(1), default_backend(Euclidean(1)),
                  lambda p: p[..., 0], 0.1, np.zeros(1), h=0.0)


def test_generator_requires_dt_below_t():
    with pytest.raises(ValueError):
        generator_heat(Euclidean(1), default_backend(Euclidean(1)),
                       lambda p: p[..., 0], 1e-5, np.zeros(1), dt=1e-4)


def test_generator_of_invariant_field_vanishes():
    # the coordinate is harmonic and drift-free: P_t f is constant in t
    e1 = Euclidean(1)
    lv = generator_heat(e1, default_backend(e1), lambda p: p[..., 0],
                        0.4, np.array([0.3]))
    assert lv.value == pytest.approx(0.0, abs=1e-9)
