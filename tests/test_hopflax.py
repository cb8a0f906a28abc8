import math

import numpy as np
import pytest

from ctlab.geometry import Euclidean
from ctlab.hopflax import (
    FiniteMetricSpace,
    hj_residual,
    hopf_lax,
    kantorovich_gap,
    lipschitz_properties_check,
    local_slope,
)


def random_space(n, rng, dim=3):
    pts = rng.normal(size=(n, dim))
    return FiniteMetricSpace.from_points(Euclidean(dim), pts)


def test_constant_field_fixed():
    rng = np.random.default_rng(0)
    space = random_space(20, rng)
    f = np.full(20, 3.25)
    for s, p in ((0.5, 2.0), (2.0, 3.0)):
        assert np.allclose(hopf_lax(space, f, s, p), 3.25, atol=1e-15)


def test_two_point_example():
    # d = 1, f = (0, 10), p = 2, s = 1: Q1 f = (0, 1/2)
    space = FiniteMetricSpace(D=np.array([[0.0, 1.0], [1.0, 0.0]]))
    q = hopf_lax(space, np.array([0.0, 10.0]), 1.0, 2.0)
    assert q == pytest.approx([0.0, 0.5], abs=1e-15)


def test_bounds_and_monotonicity_in_s():
    rng = np.random.default_rng(1)
    space = random_space(30, rng)
    f = rng.normal(size=30)
    q1 = hopf_lax(space, f, 0.3, 2.0)
    q2 = hopf_lax(space, f, 0.9, 2.0)
    assert np.all(q1 <= f + 1e-15)
    assert np.all(q1 >= f.min() - 1e-15)
    assert np.all(q2 <= q1 + 1e-15)  # non-increasing in s


def test_small_s_recovers_field():
    rng = np.random.default_rng(2)
    space = random_space(25, rng)
    f = rng.normal(size=25)
    q = hopf_lax(space, f, 1e-8, 2.0)
    assert np.max(np.abs(q - f)) < 1e-6


def test_semigroup_inequality():
    # Q_s Q_t f >= Q_{s+t} f pointwise on any finite metric space
    rng = np.random.default_rng(3)
    for _ in range(10):
        space = random_space(20, rng)
        f = rng.normal(size=20)
        s, t = rng.uniform(0.1, 1.0, size=2)
        lhs = hopf_lax(space, hopf_lax(space, f, t, 2.0), s, 2.0)
        rhs = hopf_lax(space, f, s + t, 2.0)
        assert np.all(lhs >= rhs - 1e-12)


def test_semigroup_near_equality_on_fine_grid():
    # on a geodesic grid the inequality closes to O(h)
    grid = FiniteMetricSpace.circle_grid(512)
    th = grid.coords[:, 0]
    f = np.sin(th)
    s, t = 0.2, 0.3
    lhs = hopf_lax(grid, hopf_lax(grid, f, t, 2.0), s, 2.0)
    rhs = hopf_lax(grid, f, s + t, 2.0)
    gap = np.max(np.abs(lhs - rhs))
    assert gap < 5 * grid.h


def test_lipschitz_properties_random_spaces():
    # the space bound and monotonicity hold on arbitrary finite metric
    # spaces; the sharp time bound additionally needs (approximate)
    # geodesics and is checked on grids below
    rng = np.random.default_rng(4)
    for _ in range(1000):
        space = random_space(30, rng)
        f = rng.normal(size=30)
        s = rng.uniform(0.05, 1.0)
        sp = s + rng.uniform(0.0, 1.0)
        rep = lipschitz_properties_check(space, f, s, sp)
        assert rep.space_slack <= 1e-12
        assert rep.monotone_slack <= 1e-12


def test_time_lipschitz_bound_on_geodesic_grids():
    # |Q_s' f - Q_s f| <= Lip(f)^{p*}/p* |s' - s| uses geodesic
    # interpolation; on an h-grid it holds up to an O(h) defect
    rng = np.random.default_rng(44)
    for trial in range(200):
        if trial % 2 == 0:
            grid = FiniteMetricSpace.circle_grid(128)
        else:
            grid = FiniteMetricSpace.interval_grid(128, 3.0)
        th = grid.coords[:, 0]
        f = rng.normal() * np.sin(th) + rng.normal() * np.cos(2 * th)
        s = rng.uniform(0.05, 1.0)
        sp = s + rng.uniform(0.0, 1.0)
        rep = lipschitz_properties_check(grid, f, s, sp)
        assert rep.space_slack <= 1e-12
        assert rep.time_slack <= grid.h
        assert rep.monotone_slack <= 1e-12


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        FiniteMetricSpace(D=np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        FiniteMetricSpace(D=np.array([[1.0, 1.0], [1.0, 0.0]]))  # diagonal


def test_triangle_check_on_metric_space():
    rng = np.random.default_rng(5)
    D = random_space(15, rng).D
    # max over (i, k, j) of d(i,j) - d(i,k) - d(k,j)
    assert np.max(D[:, None, :] - D[:, :, None] - D[None, :, :]) <= 1e-12


# ---------------------------------------------------------------------------
# Hamilton-Jacobi residual


def test_hj_constant_field_zero_residual():
    grid = FiniteMetricSpace.circle_grid(64)
    res = hj_residual(grid, np.full(64, 2.0), 0.5, 2.0)
    assert res.max_interior == pytest.approx(0.0, abs=1e-12)


def test_hj_linear_field_interior():
    # f(x) = x on an interval: |grad Q_s f| = 1 away from the boundary
    # and the residual reduces to |d/ds Q_s f + 1/p*|
    n = 256
    grid = FiniteMetricSpace.interval_grid(n, length=4.0)
    f = grid.coords[:, 0].copy()
    res = hj_residual(grid, f, 0.2, 2.0)
    assert res.max_interior < 5 * grid.h


def test_hj_first_order_convergence():
    f_of = lambda th: np.sin(th) + 0.3 * np.cos(2 * th)
    maxima = {}
    for n in (256, 512):
        grid = FiniteMetricSpace.circle_grid(n)
        res = hj_residual(grid, f_of(grid.coords[:, 0]), 0.5, 2.0)
        maxima[n] = res.max_interior
    assert maxima[256] / maxima[512] >= 1.5


def test_hj_rejects_coarse_grids():
    grid = FiniteMetricSpace.circle_grid(8)
    with pytest.raises(ValueError):
        hj_residual(grid, np.zeros(8), 0.5, 2.0)


def test_local_slope_linear_exact():
    grid = FiniteMetricSpace.interval_grid(64, length=1.0)
    g = 3.0 * grid.coords[:, 0]
    assert np.allclose(local_slope(grid, g), 3.0, atol=1e-10)


# ---------------------------------------------------------------------------
# Kantorovich duality gap


def test_gap_identical_measures():
    rng = np.random.default_rng(6)
    space = random_space(15, rng)
    mu = np.full(15, 1.0 / 15)
    gap = kantorovich_gap(space, mu, mu, 2.0)
    assert -1e-9 <= gap <= 1e-8


def test_gap_dirac_pair():
    space = FiniteMetricSpace(D=np.array([[0.0, 1.0], [1.0, 0.0]]))
    mu = np.array([1.0, 0.0])
    nu = np.array([0.0, 1.0])
    # primal is d^p/p = 1/2; the dual potential recovers it to solver tolerance
    gap = kantorovich_gap(space, mu, nu, 2.0)
    assert -1e-9 <= gap <= 1e-8


def test_gap_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(100):
        space = random_space(20, rng)
        w1 = rng.random(20) + 0.05
        w2 = rng.random(20) + 0.05
        gap = kantorovich_gap(space, w1 / w1.sum(), w2 / w2.sum(), 2.0)
        assert -1e-9 <= gap <= 1e-8


def test_hj_kink_detection():
    # a field with a corner produces kink points that are excluded
    n = 256
    grid = FiniteMetricSpace.circle_grid(n)
    th = grid.coords[:, 0]
    f = np.abs(th - math.pi)  # corner at pi (and wrap-around at 0)
    res = hj_residual(grid, f, 0.3, 2.0)
    assert res.kink_mask.sum() >= 1
    assert res.max_interior < 10 * grid.h


def test_lipschitz_check_constant_field():
    rng = np.random.default_rng(8)
    space = random_space(12, rng)
    rep = lipschitz_properties_check(space, np.full(12, 1.7), 0.2, 0.9)
    assert rep.lip_f == 0.0
    assert rep.space_slack == pytest.approx(0.0, abs=1e-15)
    assert rep.time_slack == pytest.approx(0.0, abs=1e-15)
