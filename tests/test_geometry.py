import math

import numpy as np
import pytest

from ctlab.geometry import (
    Euclidean,
    EuclideanOU,
    Hyperbolic,
    Sphere,
    UnsupportedParameterError,
)

SPACES = [
    Euclidean(2),
    Euclidean(3),
    EuclideanOU(2, 1.5),
    Sphere(2),
    Sphere(2, radius=2.0),
    Sphere(1),
    Hyperbolic(2),
    Hyperbolic(3, curvature=-0.5),
]


def random_points(space, n, rng):
    if isinstance(space, Sphere):
        g = rng.standard_normal((n, space.emb_dim))
        return space.project_point(g)
    if isinstance(space, Hyperbolic):
        return space.embed(rng.standard_normal((n, space.dim)))
    return rng.standard_normal((n, space.emb_dim))


def random_tangents(space, x, rng):
    v = rng.standard_normal(x.shape)
    return space.project_tangent(x, v)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_metric_axioms(space):
    rng = np.random.default_rng(1)
    x, y, z = (random_points(space, 40, rng) for _ in range(3))
    dxy = space.distance(x, y)
    assert np.all(dxy >= 0)
    assert np.allclose(dxy, space.distance(y, x), atol=1e-12)
    assert np.allclose(space.distance(x, x), 0.0, atol=1e-9)
    # triangle inequality
    assert np.all(dxy <= space.distance(x, z) + space.distance(z, y) + 1e-10)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_exp_log_roundtrip(space):
    rng = np.random.default_rng(2)
    x = random_points(space, 50, rng)
    y = random_points(space, 50, rng)
    if isinstance(space, Sphere):
        # stay inside the injectivity radius
        keep = space.distance(x, y) < 0.95 * space.diameter
        x, y = x[keep], y[keep]
    back = space.exp_map(x, space.log_map(x, y))
    assert np.max(space.distance(back, y)) < 1e-10
    # v = 0 fixes the point
    assert np.allclose(space.exp_map(x, np.zeros_like(x)), x, atol=1e-12)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_log_map_norm_is_distance(space):
    rng = np.random.default_rng(3)
    x = random_points(space, 30, rng)
    y = random_points(space, 30, rng)
    v = space.log_map(x, y)
    if isinstance(space, Hyperbolic):
        norms = np.sqrt(np.maximum(
            np.sum(v[..., 1:] ** 2, axis=-1) - v[..., 0] ** 2, 0.0))
    else:
        norms = np.linalg.norm(v, axis=-1)
    assert np.allclose(norms, space.distance(x, y), atol=1e-9)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_geodesic_midpoint(space):
    rng = np.random.default_rng(4)
    x = random_points(space, 20, rng)
    y = random_points(space, 20, rng)
    mid = space.geodesic_point(x, y, 0.5)
    d = space.distance(x, y)
    assert np.allclose(space.distance(x, mid), 0.5 * d, atol=1e-9)
    assert np.allclose(space.distance(mid, y), 0.5 * d, atol=1e-9)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_transport_isometry_and_reversal(space):
    rng = np.random.default_rng(5)
    x = random_points(space, 30, rng)
    y = random_points(space, 30, rng)
    u = random_tangents(space, x, rng)
    v = random_tangents(space, x, rng)

    def inner(space, a, b):
        if isinstance(space, Hyperbolic):
            return np.sum(a[..., 1:] * b[..., 1:], axis=-1) - a[..., 0] * b[..., 0]
        return np.sum(a * b, axis=-1)

    tu = space.parallel_transport(x, y, u)
    tv = space.parallel_transport(x, y, v)
    assert np.allclose(inner(space, tu, tv), inner(space, u, v), atol=1e-10)
    assert np.allclose(inner(space, tu, tu), inner(space, u, u), atol=1e-12 * 10)
    # transport there and back is the identity
    back = space.parallel_transport(y, x, tu)
    assert np.max(np.abs(back - u)) < 1e-10


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_transport_chain_through_midpoint(space):
    rng = np.random.default_rng(6)
    x = random_points(space, 20, rng)
    y = random_points(space, 20, rng)
    v = random_tangents(space, x, rng)
    mid = space.geodesic_point(x, y, 0.5)
    direct = space.parallel_transport(x, y, v)
    chained = space.parallel_transport(mid, y, space.parallel_transport(x, mid, v))
    assert np.max(np.abs(direct - chained)) < 1e-8


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_transport_maps_geodesic_tangent(space):
    rng = np.random.default_rng(7)
    x = random_points(space, 15, rng)
    y = random_points(space, 15, rng)
    v = space.log_map(x, y)
    tv = space.parallel_transport(x, y, v)
    # the transported initial tangent is the final tangent -log_y(x)
    assert np.max(np.abs(tv - (-space.log_map(y, x)))) < 1e-9


CURVED = [Sphere(2), Sphere(2, radius=2.0), Sphere(3), Hyperbolic(2),
          Hyperbolic(3, curvature=-0.5)]


def _inner(space, a, b):
    if isinstance(space, Hyperbolic):
        return np.sum(a[..., 1:] * b[..., 1:], axis=-1) - a[..., 0] * b[..., 0]
    return np.sum(a * b, axis=-1)


@pytest.mark.parametrize("space", CURVED, ids=lambda s: repr(s))
def test_transport_from_a_point_to_itself_is_the_identity(space):
    # log_x(x) is a rounding-level vector with a noise direction; the
    # transport along it must not turn v
    rng = np.random.default_rng(11)
    x = random_points(space, 2000, rng)
    v = 3.0 * random_tangents(space, x, rng)
    err = np.max(np.abs(space.parallel_transport(x, x, v) - v), axis=-1)
    scale = np.maximum(1.0, np.max(np.abs(v), axis=-1))
    assert np.all(err <= 1e-12 * scale)


@pytest.mark.parametrize("space", CURVED, ids=lambda s: repr(s))
def test_exp_transport_moves_along_the_step_geodesic(space):
    # steps of length up to 1.5 in random directions
    rng = np.random.default_rng(12)
    x = random_points(space, 200, rng)
    v = random_tangents(space, x, rng)
    v *= rng.uniform(0.0, 1.5, (200, 1)) / np.sqrt(_inner(space, v, v))[:, None]
    fr = space.frame(x)
    y, moved = space.exp_transport(x[:, None], v[:, None], fr)
    assert np.array_equal(y[:, 0], space.exp_map(x, v))
    # the same vectors as the transport to the step's end point
    via_log = space.parallel_transport(x[:, None], y, fr)
    assert np.max(np.abs(moved - via_log)) <= 1e-12
    # an isometry onto the tangent space at the end point
    gram = _inner(space, moved[:, :, None], moved[:, None, :])
    assert np.max(np.abs(gram - np.eye(space.dim))) <= 1e-12
    assert np.max(np.abs(_inner(space, moved, y))) <= 1e-12
    # the step's own velocity arrives as the geodesic's final velocity
    _, end_velocity = space.exp_transport(x, v, v)
    assert np.max(np.abs(end_velocity + space.log_map(y[:, 0], x))) <= 1e-12


def test_flat_exp_transport_carries_vectors_unchanged():
    e2 = Euclidean(2)
    x, v, w = np.array([0.5, -1.0]), np.array([2.0, 3.0]), np.array([[1.0, 0.0], [0.0, 1.0]])
    y, moved = e2.exp_transport(x, v, w)
    assert np.array_equal(y, x + v) and moved is w


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_frames_orthonormal(space):
    rng = np.random.default_rng(8)
    x = random_points(space, 25, rng)
    fr = space.frame(x)
    if isinstance(space, Hyperbolic):
        gram = (np.einsum("...ik,...jk->...ij", fr[..., 1:], fr[..., 1:])
                - np.einsum("...i,...j->...ij", fr[..., 0], fr[..., 0]))
    else:
        gram = np.einsum("...ik,...jk->...ij", fr, fr)
    eye = np.broadcast_to(np.eye(space.dim), gram.shape)
    assert np.max(np.abs(gram - eye)) < 1e-10


def test_sphere_antipodal_distance():
    sp = Sphere(2)
    x = np.array([0.0, 0.0, 1.0])
    assert sp.distance(x, -x) == pytest.approx(math.pi, abs=1e-12)


def test_sphere_antipodal_tiebreak_deterministic():
    sp = Sphere(2)
    x = np.array([0.0, 0.0, 1.0])
    v1 = sp.log_map(x, -x)
    v2 = sp.log_map(x, -x)
    assert np.array_equal(v1, v2)
    assert np.linalg.norm(v1) == pytest.approx(math.pi, abs=1e-12)
    # lands on the antipode
    assert np.max(np.abs(sp.exp_map(x, v1) - (-x))) < 1e-12
    assert sp.is_near_cut(x, -x)


def test_sphere_quarter_turn_from_pole():
    sp = Sphere(2)
    north = np.array([0.0, 0.0, 1.0])
    v = np.array([1.0, 0.0, 0.0]) * (math.pi / 2)
    # great-circle parametrization: cos(pi/2) N + sin(pi/2) e1
    assert np.max(np.abs(sp.exp_map(north, v) - np.array([1.0, 0.0, 0.0]))) < 1e-12


def test_sphere_equator_transport_keeps_angle():
    # transport along the equator (a geodesic): the component tangent to
    # the equator and the component toward the pole are both preserved
    sp = Sphere(2)
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])  # quarter turn along the equator
    tangent_p = np.array([0.0, 1.0, 0.0])   # equator direction at p
    tangent_q = np.array([-1.0, 0.0, 0.0])  # equator direction at q
    pole = np.array([0.0, 0.0, 1.0])
    moved_t = sp.parallel_transport(p, q, tangent_p)
    moved_pole = sp.parallel_transport(p, q, pole)
    assert np.max(np.abs(moved_t - tangent_q)) < 1e-12
    assert np.max(np.abs(moved_pole - pole)) < 1e-12
    # angle to the tangent is invariant for a mixed vector
    mixed = (tangent_p + pole) / math.sqrt(2)
    moved = sp.parallel_transport(p, q, mixed)
    assert float(moved @ tangent_q) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_hyperbolic_distance_oracle():
    # Minkowski product -cosh(1) between hyperboloid points => distance 1
    hy = Hyperbolic(2)
    x = hy.origin()
    y = np.array([math.cosh(1.0), math.sinh(1.0), 0.0])
    assert hy.distance(x, y) == pytest.approx(1.0, abs=1e-12)


def test_hyperbolic_embedding_constraint_renormalized():
    hy = Hyperbolic(2)
    rng = np.random.default_rng(9)
    x = hy.embed(rng.standard_normal((10, 2)) * 2)
    v = hy.project_tangent(x, rng.standard_normal(x.shape))
    y = hy.exp_map(x, v)
    assert np.max(hy._constraint_error(y)) < 1e-12


def test_curvature_dimension_values():
    assert Euclidean(3).cd.K == 0.0 and Euclidean(3).cd.N == 3.0
    s = Sphere(2, radius=2.0)
    assert s.cd.K == pytest.approx(0.25)
    assert Sphere(1).cd.K == 0.0  # circles are flat
    h = Hyperbolic(3, curvature=-0.5)
    assert h.cd.K == pytest.approx(-1.0)
    ou = EuclideanOU(2, 1.5)
    assert ou.cd.K == pytest.approx(1.5)
    assert math.isinf(ou.cd.N)


def test_ou_rejects_finite_dimension():
    ou = EuclideanOU(2, 1.0)
    with pytest.raises(UnsupportedParameterError):
        ou.curvature_dimension(5.0)
    assert math.isinf(ou.curvature_dimension(math.inf).N)


def test_ou_drift_and_bakry_emery_identity():
    # Z(x) = -lam x: Ric - sym(grad Z) = lam I exactly, matching K = lam
    ou = EuclideanOU(2, 2.0)
    x = np.array([1.0, 0.0])
    assert np.allclose(ou.drift(x), [-2.0, 0.0])
    h = 1e-6
    jac = np.empty((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        jac[:, j] = (ou.drift(x + e) - ou.drift(x - e)) / (2 * h)
    sym = 0.5 * (jac + jac.T)
    ric = np.zeros((2, 2))
    eigs = np.linalg.eigvalsh(ric - sym)
    assert np.all(eigs >= ou.cd.K - 1e-8)


def test_drift_free_spaces():
    for space in (Sphere(2), Hyperbolic(2), Euclidean(2)):
        rng = np.random.default_rng(10)
        x = random_points(space, 5, rng)
        assert np.allclose(space.drift(x), 0.0)


def test_sphere_swc_diameter_condition():
    s = Sphere(2)
    native = s.cd
    # the round sphere sits exactly at equality: the strict condition fails
    assert not s.swc_diameter_ok(native)
    from ctlab.comparison import CurvatureDimension

    assert s.swc_diameter_ok(CurvatureDimension(0.9 * native.K, native.N))


def test_point_validation():
    sp = Sphere(2)
    with pytest.raises(ValueError):
        sp.check_point(np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        sp.check_point(np.array([1.0, 0.0]))
    sp.check_point(np.array([0.0, 0.0, 1.0]))


def _reference_distance(space, x, y):
    """The distances as np.sum and np.linalg.norm reduce them over a stacked
    embedding axis: the formulas that distance reproduces coordinate by
    coordinate."""
    if isinstance(space, Sphere):
        c = np.sum(x * y, axis=-1) / space.radius**2
        u = y - c[..., None] * x
        return space.radius * np.arctan2(np.linalg.norm(u, axis=-1) / space.radius, c)
    if isinstance(space, Hyperbolic):
        def mink(a, b):
            return np.sum(a[..., 1:] * b[..., 1:], axis=-1) - a[..., 0] * b[..., 0]
        u = y + (mink(x, y) / space.R**2)[..., None] * x
        nu = np.sqrt(np.maximum(mink(u, u), 0.0))
        d = space.R * np.arcsinh(nu / space.R)
        tiny = nu < 1e-300
        v = np.where(tiny[..., None], 0.0, (d / np.where(tiny, 1.0, nu))[..., None] * u)
        return np.sqrt(np.maximum(mink(v, v), 0.0))
    return np.linalg.norm(y - x, axis=-1)


def _same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _kernel_spaces():
    for emb in range(1, 18):
        yield Euclidean(emb)
        yield EuclideanOU(emb, 1.5)
        if emb >= 2:
            yield from (Sphere(emb - 1), Sphere(emb - 1, radius=2.0),
                        Hyperbolic(emb - 1), Hyperbolic(emb - 1, curvature=-0.5))


@pytest.mark.parametrize("space", list(_kernel_spaces()), ids=lambda s: s.label)
def test_distance_is_the_stacked_reduction_bit_for_bit(space):
    # embedding dimensions 1 to 17 cross numpy's switch from a left-to-right
    # sum to eight pairwise partial sums at 8 terms
    rng = np.random.default_rng(space.emb_dim)
    if isinstance(space, Hyperbolic):   # pairs up to about 6 apart
        xs, ys = space.embed(3.0 * rng.standard_normal((2, 9, space.dim)))
    else:
        xs, ys = random_points(space, 9, rng), random_points(space, 9, rng)
    # a coincident pair on a coordinate axis (there nu is exactly 0) and a
    # coincident pair off the axes
    axis = space.origin() if isinstance(space, Hyperbolic) else np.eye(space.emb_dim)[0]
    if isinstance(space, Sphere):
        axis = space.radius * axis
    xs[0] = ys[0] = axis
    ys[1] = xs[1]
    if isinstance(space, Sphere):
        ys[2] = -xs[2]   # antipodal
    ref = _reference_distance(space, xs[:, None], ys[None])
    assert np.all(np.diag(ref)[:2] < 1e-7)
    if isinstance(space, Hyperbolic):
        assert _reference_distance(space, xs[0], ys[0]) == 0.0
    for got, want in [
            (space.distance(xs[:, None], ys[None]), ref),
            (space.distance(xs[None], ys[:, None]), _reference_distance(space, xs[None], ys[:, None])),
            (space.distance(xs, ys), _reference_distance(space, xs, ys)),
            (space.distance(xs[3], ys[4]), _reference_distance(space, xs[3], ys[4])),
            (space.distance(xs[1], ys[1]), _reference_distance(space, xs[1], ys[1]))]:
        assert _same_bits(got, want)
    if isinstance(space, Hyperbolic):
        assert _same_bits(space.distance(xs, ys), space._norm(space.log_map(xs, ys))[..., 0])


@pytest.mark.parametrize("emb", [1, 2, 3, 7, 8, 9, 15, 16, 17, 64, 128, 129, 300])
def test_embedding_product_is_np_sum_bit_for_bit(emb):
    # beyond 128 terms numpy sums two halves, the first a multiple of 8 long
    rng = np.random.default_rng(emb)
    u = rng.standard_normal((5, emb)) * np.exp(rng.uniform(-30, 30, (5, emb)))
    v = rng.standard_normal((4, 1, emb))
    u[0] = 0.0
    v[0, 0] = -1.0   # the first row's products are all -0.0, which sum to 0.0
    e = Euclidean(emb)
    assert _same_bits(e._inner(u, v), np.sum(u * v, axis=-1))
    assert _same_bits(e._inner(u[1], v[1, 0]), np.sum(u[1] * v[1, 0]))
    assert str(np.sum(u[0] * v[0, 0])) == "0.0"
    if emb >= 2:
        h = Hyperbolic(emb - 1)
        assert _same_bits(h._inner(u, v),
                          np.sum(u[..., 1:] * v[..., 1:], axis=-1) - u[..., 0] * v[..., 0])
