import logging
import math

import numpy as np
import pytest

import ctlab.checks
from ctlab.checks import (
    Z,
    CheckSpec,
    DiameterError,
    VerificationReport,
    _field,
    _two_sided_samples,
    _verdict,
    default_grid,
    named_field,
    run_check,
    run_suite,
)
from ctlab.comparison import (
    CurvatureDimension,
    ExponentPair,
    coeff_A,
    comp_s,
    j_measure,
    swc_reparam,
)
from ctlab.cli import bundled_config, load_suite
from ctlab.geometry import Euclidean, EuclideanOU, Hyperbolic, Sphere
from ctlab.heat import MODES, default_backend, heat_apply
from ctlab.transport import (
    BlockEstimate,
    EmpiricalMeasure,
    PthPowerDistance,
    comparison_transform,
    gaussian_w2,
    power_transform,
)
from ctlab.walk import WalkConfig, coupled_distance_moment, sample_heat

S2 = Sphere(2)
NORTH = np.array([0.0, 0.0, 1.0])


def sphere_point(d):
    return S2.exp_map(NORTH, np.array([d, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# verdict rule


def test_verdict_deterministic():
    # EPS = 1e-12 holds rounding on a sharp row (about 1e-15), not a false claim
    assert _verdict(0.5, 0.0) == "pass"
    assert _verdict(-1e-13, 0.0) == "pass"
    assert _verdict(-1e-11, 0.0) == "fail"
    assert _verdict(-1e-6, 0.0) == "fail"


def test_verdict_statistical():
    # fail beyond z sigma; inconclusive for any negative margin within z
    # sigma; pass for a nonnegative one
    assert _verdict(0.2, 0.1) == "pass"
    assert _verdict(0.0, 0.1) == "pass"
    assert _verdict(-0.05, 0.1) == "inconclusive"
    assert _verdict(-0.2, 0.1) == "inconclusive"
    assert _verdict(-0.3, 0.1) == "inconclusive"
    assert _verdict(-0.5, 0.1) == "fail"


def test_report_verdict_recomputable():
    rep = VerificationReport(
        check_id="x", space="s", lhs=1.0, rhs=1.2,
        stderr_lhs=0.01, stderr_rhs=0.0, verdict="pass")
    assert rep.recompute_verdict() == rep.verdict
    assert rep.margin == pytest.approx(0.2)
    assert rep.sigma == pytest.approx(0.01)


# ---------------------------------------------------------------------------
# fast variants of each check


def small(check_id, **kw):
    defaults = dict(n_trajectories=800, k=10, block_size=200, seed=123)
    defaults.update(kw)
    return CheckSpec(check_id=check_id, **defaults)


def test_w2_control_flat_sharp_small():
    rep = run_check(small(
        "w2_control", space=Euclidean(2), x=np.zeros(2), y=np.array([1.0, 0.0]),
        s=0.25, t=1.0))
    assert rep.verdict in ("pass", "inconclusive")
    assert abs(rep.margin) < 5 * rep.sigma + 0.05
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)


def test_w2_control_near_equal_times_reduces_to_contraction():
    cd = CurvatureDimension(0.9, 2.0)
    rep = run_check(small(
        "w2_control", space=S2, cd=cd, x=NORTH, y=sphere_point(1.0),
        s=0.4 - 1e-3, t=0.4))
    # the coefficient approaches e^{-Kt}
    assert rep.metadata["coeff_A"] == pytest.approx(math.exp(-0.9 * 0.4), abs=1e-3)
    assert rep.verdict != "fail"


def test_w2_control_spread_measures():
    rng = np.random.default_rng(1)
    mu0 = EmpiricalMeasure.uniform(rng.normal(size=(20, 2)))
    mu1 = EmpiricalMeasure.uniform(rng.normal(size=(20, 2)) + 1.0)
    rep = run_check(small(
        "w2_control", space=Euclidean(2), mu0=mu0, mu1=mu1, s=0.25, t=1.0))
    assert rep.verdict != "fail"


def test_swc_requires_diameter_condition():
    with pytest.raises(DiameterError):
        run_check(small("swc", space=S2, x=NORTH, y=sphere_point(1.0), s=0.1, t=0.4))


def test_swc_equal_times_contraction():
    cd = CurvatureDimension(0.9, 2.0)
    rep = run_check(small("swc", space=S2, cd=cd, x=NORTH, y=sphere_point(2.0),
                          s=0.3, t=0.3))
    assert rep.verdict != "fail"
    # at s = t the additive term vanishes
    w0 = rep.metadata["W0"]
    from ctlab.comparison import comp_s
    expect = math.exp(-cd.K * 0.6) * float(comp_s(cd.kappa, w0 / 2)) ** 2
    assert rep.rhs == pytest.approx(expect, rel=1e-12)


def test_swc_coefficient_continuity_at_zero_curvature():
    # K -> 0 limit of the coefficient (1-e^{-K(s+t)})/(K(s+t)) is 1
    e2 = Euclidean(2)
    rep = run_check(small("swc", space=e2, x=np.zeros(2), y=np.array([1.0, 0.0]),
                          s=0.25, t=1.0))
    assert rep.rhs == pytest.approx(0.25 + 1.0 * (1.0 - 0.5) ** 2, abs=1e-12)
    assert rep.verdict != "fail"


def test_wp_rejects_small_p():
    with pytest.raises(ValueError):
        run_check(small("wp", space=Euclidean(2), x=np.zeros(2),
                        y=np.array([1.0, 0.0]), s=0.2, t=0.5,
                        exponents=ExponentPair(1.5, 1.5)))


def test_wp_flat_p3():
    rep = run_check(small(
        "wp", space=Euclidean(2), x=np.zeros(2), y=np.array([1.0, 0.0]),
        s=0.25, t=1.0, exponents=ExponentPair(3.0, 2.0)))
    # RHS = W0^2 + J_{N+1}^2 = 1 + 2*3*(1/2)^2
    assert rep.rhs == pytest.approx(2.5, abs=1e-12)
    assert rep.verdict != "fail"


def test_prectl_flat_closed_form():
    rep = run_check(small(
        "prectl", space=Euclidean(2), x=np.zeros(2), y=np.array([1.0, 0.0]),
        tau1=0.25, tau2=1.0, exponents=ExponentPair(3.0, 2.0)))
    assert rep.rhs == pytest.approx(1.0 + 2 * 3 * 0.25, abs=1e-12)
    assert rep.verdict != "fail"


def test_prectl_flat_quadratic_row_is_sharp_and_passes():
    # E rho^2 = d0^2 + 2m (sqrt(t2) - sqrt(t1))^2 is the rhs at N = m: the
    # law gives it in closed form with no error bar
    rep = run_check(small(
        "prectl", space=Euclidean(2), x=np.zeros(2), y=np.array([0.6, 0.8]),
        tau1=0.2, tau2=0.4))
    assert abs(rep.margin) <= 1e-12
    assert rep.sigma == 0.0
    assert rep.verdict == "pass"
    assert rep.metadata["sampler"] == "coupled_law"


# ---------------------------------------------------------------------------
# the coupling's upper side


def _no_cloud(*args, **kwargs):
    raise AssertionError("a cloud was drawn")


@pytest.mark.parametrize("m", [1, 2, 3])
def test_flat_upper_side_at_p2_is_the_gaussian_w2(m):
    # the true claim is sharp here and the upper side, with err = 0, decides
    # it within EPS whatever the last bit of the rhs; the false claim K' = 2 is sampled
    x, y = np.zeros(m), np.linspace(0.3, 0.9, m)
    for s, t in ((0.25, 1.0), (0.1, 0.15)):
        oracle = gaussian_w2(m, x, y, s, t) ** 2
        true, false = (run_check(small("w2_control", space=Euclidean(m), cd=cd, x=x, y=y,
                                       s=s, t=t)) for cd in (None, CurvatureDimension(2.0, m)))
        for rep in (true, false):
            assert rep.metadata["bounds"] == {"upper": pytest.approx(oracle, rel=1e-14),
                                              "err": 0.0}
        assert true.rhs == pytest.approx(oracle, rel=1e-14)
        assert (true.verdict, true.metadata["sampler"]) == ("pass", "bounds")
        assert false.metadata["sampler"] == "exact"


def test_a_noise_free_upper_side_is_judged_like_a_deterministic_value(monkeypatch):
    # E^1 from 0 to 0.3 at (s, t) = (0.1, 0.15): the closed-form upper side,
    # with err = 0, sits 1 ulp above the rhs.  The report's rule at sigma = 0
    # (margin >= -EPS) decides it, with no cloud drawn
    monkeypatch.setattr(ctlab.checks, "sample_heat", _no_cloud)
    rep = run_check(small("w2_control", space=Euclidean(1), x=np.zeros(1), y=np.array([0.3]),
                          s=0.1, t=0.15))
    assert rep.metadata["bounds"] == {"upper": 0.10010205144336438, "err": 0.0}
    assert rep.rhs == 0.10010205144336437
    assert (rep.verdict, rep.metadata["sampler"], rep.sigma) == ("pass", "bounds", 0.0)
    assert -ctlab.checks.EPS <= rep.margin < 0


def test_acceptance_transport_rows_are_decided_by_the_upper_side():
    # the S^2 lp2 and swc rows of acceptance.json, to the quoted 4 decimals
    specs = load_suite(bundled_config("acceptance.json"))
    for spec, upper in ((specs[4], 0.2750), (specs[5], 0.5370)):
        rep = run_check(spec)
        assert (rep.check_id, rep.verdict, rep.metadata["sampler"]) == (
            spec.check_id, "pass", "bounds")
        assert rep.lhs == rep.metadata["bounds"]["upper"] == pytest.approx(upper, abs=5e-5)
        assert rep.stderr_lhs == rep.metadata["bounds"]["err"] < 5e-5
        assert rep.margin >= Z * rep.sigma


def test_a_true_claim_on_s3_is_decided_without_a_cloud(monkeypatch):
    monkeypatch.setattr(ctlab.checks, "sample_heat", _no_cloud)
    s3 = Sphere(3)
    x, y = np.eye(4)[3], np.array([0.0, 0.0, math.sin(1.0), math.cos(1.0)])
    for check_id, params in (("w2_control", dict(s=0.1, t=0.4)),
                             ("lp2", dict(tau1=0.2, tau2=0.4, cd=CurvatureDimension(1.8, 3.0)))):
        rep = run_check(small(check_id, space=s3, x=x, y=y, **params))
        assert (rep.verdict, rep.metadata["sampler"]) == ("pass", "bounds")
        assert rep.sigma > 0 and rep.margin >= Z * rep.sigma


def test_an_undecided_row_on_h4_is_an_error_row_and_a_true_claim_passes():
    # H^4 has no exact heat law: a row the upper side leaves undecided
    # cannot be sampled and reports why; a true claim is decided by that side
    h4 = Hyperbolic(4)
    x, y = h4.origin(), h4.exp_map(h4.origin(), np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
    kw = dict(check_id="w2_control", space=h4, x=x, y=y, s=0.1, t=0.4, n_trajectories=40,
              block_size=20)
    false, true = run_suite([CheckSpec(cd=CurvatureDimension(0.0, 4.0), **kw), CheckSpec(**kw)])
    assert false.verdict == "error" and "no exact heat law on hyperbolic4(c=-1)" in false.error
    assert (true.verdict, true.metadata["sampler"]) == ("pass", "bounds")


def _report_fields(rep):
    return (rep.lhs, rep.rhs, rep.stderr_lhs, rep.stderr_rhs, rep.verdict, rep.metadata)


def test_measures_and_ou_are_not_bounded(monkeypatch):
    # the coupled distance has a law of its own only from Dirac starts off
    # OU: such rows sample as they did before the upper side existed
    rng = np.random.default_rng(5)
    mu0 = EmpiricalMeasure.uniform(rng.normal(size=(20, 2)))
    specs = [
        small("w2_control", space=Euclidean(2), mu0=mu0, y=np.ones(2), s=0.25, t=1.0),
        small("lp2", space=S2, cd=CurvatureDimension(0.9, 2.0), x=NORTH,
              mu1=EmpiricalMeasure.uniform(np.stack([sphere_point(1.0), sphere_point(1.2)])),
              tau1=0.2, tau2=0.4),
        small("w2_control", space=EuclideanOU(1, 1.0), cd=CurvatureDimension(1.0, 2.0),
              x=np.zeros(1), y=np.ones(1), s=0.25, t=1.0),
    ]
    reports = [run_check(spec) for spec in specs]
    monkeypatch.setattr(ctlab.checks, "_coupling_bound", lambda *args: None)
    for spec, rep in zip(specs, reports):
        assert "bounds" not in rep.metadata and rep.metadata["sampler"] == "exact"
        assert _report_fields(rep) == _report_fields(run_check(spec))


def test_upper_side_refuses_a_falling_transform_and_an_undefined_cost():
    e2 = small("swc", space=Euclidean(2), x=np.zeros(2), y=np.array([2.0, 0.0]), s=0.1, t=0.4)
    transform = comparison_transform(0.5)
    upper, err = ctlab.checks._coupling_bound(e2, transform, math.inf)
    assert (upper, err) == (transform[0](4.0 + 4.0 * (math.sqrt(0.4) - math.sqrt(0.1)) ** 2), 0.0)
    assert ctlab.checks._coupling_bound(e2, transform, 4.0) is None
    # s_4(r/2) is undefined past r = pi, which H^2's grid passes
    h2 = Hyperbolic(2)
    lp2 = small("lp2", space=h2, cd=CurvatureDimension(4.0, 2.0), x=h2.origin(),
                y=h2.exp_map(h2.origin(), np.array([0.0, 1.0, 0.0])), tau1=0.2, tau2=0.4)
    assert ctlab.checks._coupling_bound(lp2, power_transform(1.0), math.inf) is None


def test_prectl_takes_its_lhs_from_the_law():
    rep = run_check(small("prectl", space=S2, x=NORTH, y=sphere_point(1.0),
                          tau1=0.2, tau2=0.4, exponents=ExponentPair(3.0, 2.0)))
    mean, bound = coupled_distance_moment(S2, 1.0, 0.2, 0.4, PthPowerDistance(3.0))
    assert rep.lhs == pytest.approx(mean ** (2.0 / 3.0), rel=1e-12)
    assert rep.stderr_lhs == pytest.approx((2.0 / 3.0) * mean ** (-1.0 / 3.0) * bound, rel=1e-12)
    assert rep.metadata["sampler"] == "coupled_law"
    assert "near_cut_events" not in rep.metadata


def test_prectl_refuses_ou_at_finite_n():
    # OU reaches prectl only through a finite-N override
    spec = small("prectl", space=EuclideanOU(1, 1.0), cd=CurvatureDimension(1.0, 2.0),
                 x=np.zeros(1), y=np.ones(1), tau1=0.2, tau2=0.4)
    with pytest.raises(ValueError, match="OU"):
        run_check(spec)


def test_lp2_equal_scales_pure_contraction():
    cd = CurvatureDimension(0.9, 2.0)
    rep = run_check(small("lp2", space=S2, cd=cd, x=NORTH, y=sphere_point(1.5),
                          tau1=0.3, tau2=0.3))
    theta = rep.metadata["theta"]
    assert theta == pytest.approx(2 * 0.9 * 0.3, rel=1e-12)
    assert rep.rhs == pytest.approx(
        math.exp(-theta) * rep.metadata["base_cost"], rel=1e-12)
    assert rep.verdict != "fail"


def test_bl0_deterministic_pass_and_negative_control():
    rep = run_check(CheckSpec(check_id="bl0", space=S2, t=0.5, f="cos_theta"))
    assert rep.verdict == "pass"
    bad = run_check(CheckSpec(check_id="bl0", space=S2, t=0.5, f="cos_theta",
                              cd=CurvatureDimension(2.0, 2.0)))
    assert bad.verdict == "fail"


def test_bl0_ou_infinite_dimension():
    rep = run_check(CheckSpec(check_id="blp", space=EuclideanOU(1, 1.0),
                              t=0.5, f="sin", grid_n=16))
    assert rep.verdict == "pass"


def test_bl_int_degenerate_cases():
    rep = run_check(CheckSpec(check_id="bl_int", space=S2, x=NORTH, y=NORTH,
                              s=0.3, t=0.3, f="cos_theta"))
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.verdict == "pass"


def test_gamma2_flat_p2_reduces_to_square():
    # p = 2 on a circle: the sharpening term vanishes and the condition
    # is Gamma2(f) = (f'')^2 >= 0
    rep = run_check(CheckSpec(check_id="gamma2", space=Sphere(1), f="sin",
                              delta=0.1, grid_n=32))
    assert rep.lhs == pytest.approx(0.0, abs=1e-15)
    assert rep.verdict == "pass"


def test_laplacian_comparison_examples():
    rep = run_check(CheckSpec(check_id="laplacian_comparison", space=S2,
                              x=NORTH, y=sphere_point(1.0)))
    assert rep.lhs == pytest.approx(1.0 / math.tan(1.0), abs=1e-5)
    assert rep.rhs == pytest.approx(
        math.sqrt(2.0) / math.tan(1.0 / math.sqrt(2.0)), rel=1e-12)
    assert rep.verdict == "pass"


def test_mono_app_check():
    rep = run_check(CheckSpec(check_id="mono_app", space=S2, t=0.3, seed=4,
                              extra={"n_cases": 30}))
    assert rep.verdict == "pass"
    assert rep.margin >= -1e-10


def _mono_app_case_by_case(spec):
    """check_mono_app as one pair of heat_apply calls per case on scalars:
    (worst lhs, worst rhs, worst case's (r, delta, a0, a1, a2, grid index))."""
    space = spec.space
    rng = np.random.default_rng(spec.seed)
    grid = default_grid(space, 8)
    n_cases = spec.extra["n_cases"]
    params = rng.uniform([0.05, 0.01, 0.0, 0.0, 0.0], [0.95, 2.0, 2.0, 2.0, 2.0],
                         size=(n_cases, 5))
    indices = rng.integers(0, 8, size=n_cases)
    worst, found = math.inf, (math.nan, math.nan, None)
    for (r, delta, a0, a1, a2), index in zip(params.tolist(), indices.tolist()):
        if isinstance(space, Sphere) and space.dim == 2:
            g = lambda p: a0 + 0.1 + a1 * (1 + p[..., 2] / space.radius) + \
                a2 * (p[..., 2] / space.radius) ** 2
        elif isinstance(space, Sphere) and space.dim == 1:
            g = lambda p: a0 + 0.1 + a1 * (1 + p[..., 1] / space.radius) + \
                a2 * (p[..., 0] / space.radius) ** 2
        else:
            g = lambda p: a0 + 0.1 + a1 * np.exp(-0.5 * np.sum(p**2, -1)) + \
                a2 * np.tanh(p[..., 0]) ** 2
        x = grid[index]
        lifted = heat_apply(space, lambda p: (g(p) + delta) ** r, spec.t, x) ** (1.0 / r) - delta
        plain = heat_apply(space, lambda p: g(p) ** r, spec.t, x) ** (1.0 / r)
        if lifted - plain < worst:
            worst = lifted - plain
            found = (plain, lifted, (r, delta, a0, a1, a2, index))
    return found


@pytest.mark.parametrize("t", [0.3, 0.0])
@pytest.mark.parametrize("space", [S2, Sphere(1), Euclidean(1), Euclidean(2),
                                   EuclideanOU(1, 1.0)], ids=lambda s: s.label)
def test_mono_app_batches_equal_the_case_by_case_loop(space, t):
    # 1,100 cases cross a chunk boundary on every space; at t = 0 each
    # side is the field itself
    spec = CheckSpec(check_id="mono_app", space=space, t=t, seed=11,
                     extra={"n_cases": 1100})
    rep = run_check(spec)
    assert rep.error is None
    lhs, rhs, case = _mono_app_case_by_case(spec)
    assert rep.lhs.hex() == float(lhs).hex() and rep.rhs.hex() == float(rhs).hex()
    meta = rep.metadata
    assert tuple(meta["worst_case"].values()) == case
    # a call holds as many fields as fit in MONO_VALUES values at the
    # backend's points per field
    nodes = default_backend(space).field_size[space.dim]
    per_call = ctlab.checks.MONO_VALUES // nodes
    assert 1100 > per_call and meta["backend_calls"] == 2 * -(-1100 // per_call)


@pytest.mark.parametrize("space,f", [(S2, "cos_theta"), (Sphere(1), "sin"),
                                     (Euclidean(1), "sin"), (Euclidean(1), "gaussian_bump")])
def test_gamma2_chunks_equal_one_pass_over_the_grid(space, f, monkeypatch):
    # GAMMA2_CHUNK points per chunk, then one, with a 5-point last chunk
    for chunk in (ctlab.checks.GAMMA2_CHUNK, 1):
        monkeypatch.setattr(ctlab.checks, "GAMMA2_CHUNK", chunk)
        spec = CheckSpec(check_id="gamma2", space=space, f=f, delta=0.1, grid_n=3 * chunk + 5)
        chunked = run_check(spec)
        monkeypatch.setattr(ctlab.checks, "GAMMA2_CHUNK", spec.grid_n)
        whole = run_check(spec)
        for a, b in ((chunked.lhs, whole.lhs), (chunked.rhs, whole.rhs),
                     (chunked.metadata["min_margin"], whole.metadata["min_margin"]),
                     (chunked.metadata["worst_theta"], whole.metadata["worst_theta"])):
            assert a.hex() == b.hex()
        # f runs once, on the nodes of its slice, however the grid is chunked
        nodes = 2 * MODES if isinstance(space, Sphere) else MODES
        assert chunked.metadata["field_evaluations"] == whole.metadata["field_evaluations"] == nodes


_P3 = ExponentPair(3.0, 2.0)


@pytest.mark.parametrize("space,f,kwargs,closed_form", [
    # Gamma2(cos) - |grad cos|^2 / rho^2 - (L cos)^2 / 2 = 0 on a 2-sphere of any radius
    (S2, "cos_theta", {}, lambda th: 0.0 * th),
    (Sphere(2, radius=2.0), "cos_theta", {}, lambda th: 0.0 * th),
    (S2, "cos_theta", dict(exponents=_P3),
     lambda th: np.cos(th) ** 2 * (np.sin(th) ** 2 / 6 + 2 * 0.1 / 3)),
    # S^1 and E^1 have N = 1: at p = 2 the margin vanishes for every f, at p = 3
    # it is delta f''^2 / 2
    (Sphere(1, radius=1.5), "sin", dict(exponents=_P3, delta=0.05),
     lambda th: 0.05 * np.sin(th) ** 2 / (2 * 1.5**4)),
    (Sphere(1, radius=1.5), "smooth_mix", dict(delta=0.05), lambda th: 0.0 * th),
    (Euclidean(1), "sin", {}, lambda x: 0.0 * x),
    (Euclidean(1), "quadratic", dict(exponents=_P3), lambda x: 0.0 * x + 2 * 0.1),
], ids=["S2", "S2_r2", "S2_p3", "S1_r1.5_p3", "S1_r1.5_smooth_mix", "E1", "E1_p3_quadratic"])
def test_gamma2_matches_its_closed_form(space, f, kwargs, closed_form):
    rep = run_check(CheckSpec(check_id="gamma2", space=space, f=f, **{"delta": 0.1, **kwargs}))
    if isinstance(space, Sphere) and space.dim == 2:
        thetas = np.linspace(0.3, math.pi - 0.3, 64)
    elif isinstance(space, Sphere):
        thetas = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    else:
        thetas = np.linspace(-2.0, 2.0, 64)
    assert rep.metadata["grid_points"] == 64
    assert abs(rep.metadata["min_margin"] - closed_form(thetas).min()) <= 1e-12
    assert rep.verdict == "pass"


def test_gamma2_fails_a_false_dimension_bound_by_its_exact_amount():
    # N' = 1.9 < 2 on S^2: the margin is -4 (sin^2 + delta) cos^2 (1/1.9 - 1/2)
    rep = run_check(CheckSpec(check_id="gamma2", space=S2, f="cos_theta", delta=0.1,
                              cd=CurvatureDimension(1.0, 1.9)))
    th = np.linspace(0.3, math.pi - 0.3, 64)
    exact = (-4 * (np.sin(th) ** 2 + 0.1) * np.cos(th) ** 2 * (1 / 1.9 - 1 / 2)).min()
    assert exact == pytest.approx(-0.03184, abs=1e-5)
    assert abs(rep.metadata["min_margin"] - exact) <= 1e-12
    assert rep.verdict == "fail"


@pytest.mark.parametrize("space,f", [
    (Euclidean(1), lambda p: np.abs(p[..., 0])),   # a kink at 0
    (Sphere(1), lambda p: np.abs(p[..., 1])),      # kinks at 0 and pi
])
def test_gamma2_reports_an_unresolved_field_as_an_error(space, f):
    (rep,) = run_suite([CheckSpec(check_id="gamma2", space=space, f=f)])
    assert rep.verdict == "error"
    assert "do not resolve f" in rep.error


def test_run_suite_records_errors_and_continues():
    specs = [
        CheckSpec(check_id="swc", space=S2, x=NORTH, y=sphere_point(1.0),
                  s=0.1, t=0.4),  # diameter violation -> error
        CheckSpec(check_id="bl0", space=S2, t=0.5, f="cos_theta"),
    ]
    reps = run_suite(specs)
    assert reps[0].verdict == "error"
    assert "DiameterError" in reps[0].error
    # the error row keeps the spec's parameters
    assert (reps[0].s, reps[0].t, reps[0].p, reps[0].beta) == (0.1, 0.4, 2.0, 2.0)
    assert reps[1].verdict == "pass"


def test_run_suite_parallel_matches_serial():
    # every heat backend is built once and shared by run_suite's threads
    ou = EuclideanOU(1, 1.0)
    specs = [CheckSpec(check_id="bl0", space=S2, t=t, f="cos_theta") for t in (0.1, 0.5)]
    specs += [CheckSpec(check_id="bl0", space=Sphere(1), t=0.3, f="smooth_mix"),
              CheckSpec(check_id="bl_int", space=Euclidean(1), x=[0.0], y=[1.0], s=0.2, t=0.5,
                        f="sin"),
              CheckSpec(check_id="bl0", space=ou, t=0.5, f="sin"),
              CheckSpec(check_id="mono_app", space=ou, t=0.3, extra={"n_cases": 20})]
    serial = run_suite(specs, jobs=1)
    parallel = run_suite(specs, jobs=3)
    for a, b in zip(serial, parallel):
        assert a.verdict == b.verdict == "pass"
        assert float(a.lhs).hex() == float(b.lhs).hex()
        assert float(a.rhs).hex() == float(b.rhs).hex()


def test_run_suite_logs_one_info_line_per_check(caplog):
    specs = [CheckSpec(check_id="bl0", space=S2, t=t, f="cos_theta") for t in (0.1, 0.5)]
    with caplog.at_level(logging.WARNING, logger="ctl"):
        run_suite(specs)
    assert caplog.records == []
    with caplog.at_level(logging.INFO, logger="ctl"):
        reps = run_suite(specs)
    assert len(caplog.records) == 2
    for rec, rep in zip(caplog.records, reps):
        msg = rec.getMessage()
        assert rec.levelno == logging.INFO and rec.name == "ctl"
        assert msg.startswith(f"bl0 {rep.space} pass margin={rep.margin:+.4e} "
                              f"sigma={rep.sigma:.3e} wall=")
        assert msg.endswith("s")


@pytest.mark.parametrize("share", [True, False])
def test_two_sided_samples_seeds(share):
    # from a measure the starts are drawn on seed + 3; shared noise draws
    # both clouds on seed + 1, separate noise the b side on seed + 2 (H^3)
    h3 = Hyperbolic(3)
    mu0 = EmpiricalMeasure.uniform(h3.embed(np.random.default_rng(2).normal(size=(5, 3))))
    y = h3.exp_map(h3.origin(), np.array([0.0, 0.5, 0.0, 0.0]))
    spec = CheckSpec(check_id="w2_control", space=h3, mu0=mu0, y=y, n_trajectories=30,
                     seed=7, share_noise=share)
    pairs = ((0.1, 0.3), (0.2, 0.4))
    clouds = _two_sided_samples(spec, pairs)
    starts = mu0.points[np.random.default_rng(10).choice(5, size=30, p=mu0.weights)]
    seed_b = 8 if share else 9
    cfg = lambda seed: WalkConfig(n_trajectories=30, seed=seed)
    for (xs, ys), (ta, tb) in zip(clouds, pairs):
        assert np.array_equal(xs, sample_heat(h3, (starts,), (ta,), cfg(8))[0])
        assert np.array_equal(ys, sample_heat(h3, (y,), (tb,), cfg(seed_b))[0])


@pytest.mark.parametrize("share", [True, False])
def test_two_sided_exact_samples_seeds(share):
    # S^2 has an exact law, drawn on the walk's seeds: shared noise draws
    # both clouds on seed + 1, separate noise the b side on seed + 2
    y = sphere_point(0.5)
    spec = CheckSpec(check_id="w2_control", space=S2, x=NORTH, y=y, n_trajectories=30,
                     k=4, seed=7, share_noise=share)
    pairs = ((0.1, 0.3), (0.2, 0.4))
    clouds = _two_sided_samples(spec, pairs)
    seed_b = 8 if share else 9
    cfg = lambda seed: WalkConfig(n_trajectories=30, seed=seed)
    for (xs, ys), (ta, tb) in zip(clouds, pairs):
        assert np.array_equal(xs, sample_heat(S2, (NORTH,), (ta,), cfg(8))[0])
        assert np.array_equal(ys, sample_heat(S2, (y,), (tb,), cfg(seed_b))[0])
    if not share:
        same = sample_heat(S2, (y,), (0.3,), cfg(8))[0]
        assert not np.array_equal(clouds[0][1], same)


def test_report_records_the_sampler_of_its_space():
    # twice the true K is a false claim that the coupling's upper side
    # leaves undecided, so the check draws its clouds from the exact laws;
    # the true claim is decided by that side, with no cloud drawn
    kw = dict(check_id="w2_control", s=0.1, t=0.3, n_trajectories=40, k=2, block_size=20)
    for space, x, y in ((S2, NORTH, sphere_point(0.5)), (Sphere(3), np.eye(4)[3], np.eye(4)[0])):
        false = CurvatureDimension(2.0 * space.cd.K, space.cd.N)
        rep = run_check(CheckSpec(space=space, x=x, y=y, cd=false, **kw))
        assert rep.metadata["sampler"] == "exact"
        assert rep.rhs < rep.metadata["bounds"]["upper"]
        rep = run_check(CheckSpec(space=space, x=x, y=y, **kw))
        assert rep.metadata["sampler"] == "bounds"


@pytest.mark.parametrize("check_id,params", [
    ("prectl", dict(tau1=0.2, tau2=0.4)),
    ("w2_control", dict(s=0.25, t=1.0)),
    ("wp", dict(s=0.25, t=1.0, exponents=ExponentPair(3.0, 2.0))),
    ("wvar_ode", dict(t=0.3)),
    ("lp2", dict(tau1=0.2, tau2=0.4)),
    ("lp2", dict(tau1=0.3, tau2=0.3)),
])
def test_infinite_n_is_rejected_before_any_walk(monkeypatch, check_id, params):
    def no_walk(*args, **kwargs):
        raise AssertionError("a walk ran")

    monkeypatch.setattr(ctlab.checks, "coupled_distance_moment", no_walk)
    monkeypatch.setattr(ctlab.checks, "sample_heat", no_walk)
    spec = CheckSpec(check_id=check_id, space=EuclideanOU(1, 1.0), x=np.zeros(1),
                     y=np.ones(1), n_trajectories=2000, k=30, **params)
    with pytest.raises(ValueError, match="finite N"):
        run_check(spec)


@pytest.mark.parametrize("value,stderr,named", [
    (math.nan, 0.1, "margin is nan"),
    (1.0, math.nan, "sigma is nan"),
    (math.nan, math.nan, "margin is nan, sigma is nan"),
])
def test_nan_margin_or_sigma_is_an_error_row(monkeypatch, value, stderr, named):
    # every comparison in the verdict rule is false for NaN, so none can be read from it
    monkeypatch.setattr(ctlab.checks, "block_cost_estimate",
                        lambda *a, **kw: BlockEstimate(value, stderr, np.array([value])))
    spec = CheckSpec(check_id="w2_control", space=S2, x=NORTH, y=NORTH, s=0.25, t=1.0,
                     n_trajectories=20, k=2)
    rep = run_check(spec)
    assert rep.verdict == "error"
    assert rep.error.startswith(named + " (")
    assert rep.recompute_verdict() == "error"
    (row,) = run_suite([spec])
    assert (row.verdict, row.error) == ("error", rep.error)


def test_missing_required_fields_are_named_before_the_check_runs():
    with pytest.raises(ValueError, match=r"requires x or mu0, t$"):
        run_check(CheckSpec(check_id="w2_control", space=S2, y=NORTH, s=0.1))
    with pytest.raises(ValueError, match=r"requires f$"):
        run_check(CheckSpec(check_id="bl0", space=S2, t=0.5))


def test_unknown_check_id_rejected():
    with pytest.raises(KeyError):
        run_check(CheckSpec(check_id="nope", space=S2))


def test_monotonicity_audit_rhs_increasing_in_n_at_flat():
    # at K = 0 the space-time bound is W^2 + 2N (sqrt t - sqrt s)^2:
    # strictly increasing in N
    s, t, W = 0.25, 1.0, 1.0
    vals = []
    for N in (2.0, 3.0, 5.0, 9.0):
        cd = CurvatureDimension(0.0, N)
        vals.append(coeff_A(cd, s, t) ** 2 * W**2 + j_measure(cd, s, t) ** 2)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_reports_have_reproducibility_metadata():
    # K' = 2 is a false claim on E^2, left to the sampled estimate
    false = CurvatureDimension(2.0, 2.0)
    rep = run_check(small(
        "w2_control", space=Euclidean(2), cd=false, x=np.zeros(2), y=np.array([1.0, 0.0]),
        s=0.25, t=1.0))
    assert rep.seed == 123
    # the sample plan that was used: exact clouds ignore k
    assert rep.metadata["sampler"] == "exact"
    assert rep.metadata["n_trajectories"] == 800
    assert "k" not in rep.metadata
    # 200-point blocks are below the certificate's floor, so each is solved
    assert rep.metadata["assignments"] == {"certified": 0, "solved": 4, "size": 200}
    again = run_check(small(
        "w2_control", space=Euclidean(2), cd=false, x=np.zeros(2), y=np.array([1.0, 0.0]),
        s=0.25, t=1.0))
    assert again.lhs == rep.lhs and again.rhs == rep.rhs
    s3 = Sphere(3)
    drawn = run_check(small(
        "w2_control", space=s3, cd=CurvatureDimension(4.0, 3.0), x=np.array([0.0, 0.0, 0.0, 1.0]),
        y=np.array([0.0, 0.0, math.sin(0.5), math.cos(0.5)]), s=0.1, t=0.3,
        n_trajectories=400, k=4))
    assert drawn.metadata["sampler"] == "exact" and "k" not in drawn.metadata
    assert drawn.metadata["n_trajectories"] == 400
    assert drawn.metadata["assignments"]["size"] == 200
    # no samples drawn: none of the keys, also where the upper side decides
    law = run_check(small("prectl", space=S2, x=NORTH, y=sphere_point(1.0),
                          tau1=0.2, tau2=0.4))
    grad = run_check(small("bl0", space=S2, t=0.5, f="cos_theta"))
    decided = run_check(small(
        "w2_control", space=Euclidean(2), x=np.zeros(2), y=np.array([1.0, 0.0]),
        s=0.25, t=1.0))
    assert decided.metadata["sampler"] == "bounds"
    for other in (law, grad, decided):
        assert not {"k", "n_trajectories", "assignments"} & set(other.metadata)


def test_wvar_ode_check_small():
    cd = CurvatureDimension(0.9, 2.0)
    rep = run_check(small(
        "wvar_ode", space=S2, cd=cd, x=NORTH, y=sphere_point(1.0),
        t=0.15, lam=2.0, n_trajectories=1500))
    assert rep.verdict in ("pass", "inconclusive")
    assert rep.metadata["theta_ode_ratio"] >= 10.0


@pytest.mark.parametrize("space, cd, x, y", [
    (S2, CurvatureDimension(0.9, 2.0), NORTH, sphere_point(1.0)),
    (Hyperbolic(2), None, Hyperbolic(2).origin(),
     Hyperbolic(2).exp_map(Hyperbolic(2).origin(), np.array([0.0, 1.0, 0.0]))),
    (Euclidean(2), None, np.zeros(2), np.array([1.0, 0.0])),
], ids=["S2", "H2", "E2"])
def test_wvar_ode_residual_is_the_closed_form(space, cd, x, y):
    # theta_h'' = -(K/N) w^2 theta_h exactly, which a difference quotient
    # confirms; the residual against the geodesic equation follows from it
    rep = run_check(small("wvar_ode", space=space, cd=cd, x=x, y=y, t=0.15, lam=2.0,
                          n_trajectories=50, block_size=50))
    cd, w = cd or space.cd, rep.metadata["w"]
    rr, fd = np.linspace(0.05, 0.95, 31), 1e-3
    for h, residual in rep.metadata["theta_ode_residuals"].items():
        _, theta_h, _ = swc_reparam(w, 2.0, h, cd)
        th = theta_h(rr)
        d2 = -cd.kappa * w**2 * th
        quotient = (theta_h(rr + fd) - 2 * th + theta_h(rr - fd)) / fd**2
        assert np.allclose(quotient, d2, rtol=1e-5, atol=1e-9)
        ode = -(cd.K * w**2 / (2.0 * cd.N)) * comp_s(cd.kappa, 2 * th)
        assert residual == np.max(np.abs(d2 - ode))
    if cd.K == 0:
        assert rep.metadata["theta_ode_residuals"] == {1e-2: 0.0, 1e-3: 0.0}
        assert rep.metadata["theta_ode_ratio"] == math.inf


def test_wvar_ode_flat_dirac_derivative_matches_oracle():
    # flat case: W2^2 grows linearly, the comparison transform is the
    # identity and the bound reduces to N/2 (lam + 1/lam - 2)
    rep = run_check(small(
        "wvar_ode", space=Euclidean(2), x=np.zeros(2), y=np.array([1.0, 0.0]),
        t=0.2, lam=2.0, n_trajectories=1500))
    lam = 2.0
    oracle = 2 * (math.sqrt(lam) - math.sqrt(1 / lam)) ** 2  # d/du of 2m(..)^2 u
    assert abs(rep.lhs - oracle) < 6 * rep.sigma + 0.05
    assert rep.rhs == pytest.approx(2.0 / 2.0 * (lam + 1 / lam - 2.0), abs=1e-12)


def test_bl_int_constant_field():
    rep = run_check(CheckSpec(
        check_id="bl_int", space=S2, x=NORTH, y=sphere_point(1.0),
        s=0.2, t=0.5, f=lambda p: np.ones(p.shape[:-1]),
        extra={"grad_f": lambda p: np.zeros(p.shape[:-1])}))
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.verdict == "pass"


def test_gamma2_circle_p3_reduction():
    # on a flat circle with p = 3 the condition reduces to delta f''^2 / 2 >= 0
    # after cancelling f'^2 f''^2 terms; its minimum over the grid is 0
    rep = run_check(CheckSpec(check_id="gamma2", space=Sphere(1), f="sin",
                              exponents=ExponentPair(3.0, 2.0), delta=0.05))
    assert abs(rep.metadata["min_margin"]) <= 1e-12
    assert rep.verdict == "pass"


def test_laplacian_comparison_flat():
    # (m-1)/d <= m/d
    rep = run_check(CheckSpec(
        check_id="laplacian_comparison", space=Euclidean(3),
        x=np.zeros(3), y=np.array([1.0, 0.0, 0.0])))
    assert rep.lhs == pytest.approx(2.0, abs=1e-4)
    assert rep.rhs == pytest.approx(3.0, rel=1e-12)
    assert rep.verdict == "pass"


def test_laplacian_comparison_rejects_infinite_n_before_its_differences(monkeypatch):
    ou = EuclideanOU(2, 1.0)

    def no_step(*args):
        raise AssertionError("a geodesic step ran")

    monkeypatch.setattr(ou, "exp_map", no_step)
    with pytest.raises(ValueError, match="finite N"):
        run_check(CheckSpec(check_id="laplacian_comparison", space=ou,
                            x=np.zeros(2), y=np.array([1.0, 0.0])))


def _circle_mix_grad(radius):
    def grad(p):  # |d/du (sin th + 0.3 cos 2 th)| in arclength u = radius * th
        th = np.arctan2(p[..., 1], p[..., 0])
        return np.abs(np.cos(th) - 0.6 * np.sin(2 * th)) / radius
    return grad


@pytest.mark.parametrize("space,name,exact,pts", [
    (Sphere(1, radius=1.5), "smooth_mix", _circle_mix_grad(1.5),
     1.5 * np.stack([np.cos(np.arange(40) * 0.157), np.sin(np.arange(40) * 0.157)], -1)),
    (Euclidean(2), "gaussian_bump",
     lambda p: np.linalg.norm(p, axis=-1) * np.exp(-0.5 * np.sum(p**2, -1)),
     np.random.default_rng(5).uniform(-2.0, 2.0, size=(40, 2))),
])
def test_fd_gradient_fallback_matches_the_analytic_gradient(space, name, exact, pts):
    # the central difference is off by h^2/6 times a third derivative, at
    # most 3.4 / 6 on the circle field and below 2 / 6 per component on
    # the bump: an h^2 budget, and a tenfold smaller h cuts the error ~100x.
    # At p = 2, p* = 2 and the helper returns |grad f|^2.
    assert named_field(space, name)[1] is None
    errs = []
    for h in (1e-2, 1e-3):
        _, grad_sq = _field(CheckSpec(check_id="bl0", space=space, f=name), h=h)
        errs.append(float(np.max(np.abs(np.sqrt(grad_sq(pts)) - exact(pts)))))
        assert errs[-1] <= h**2
    assert errs[0] / errs[1] > 50


def test_bl_grid_from_a_list_matches_the_array_and_is_checked_on_the_space():
    pts = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    spec = lambda grid: CheckSpec(check_id="bl0", space=S2, t=0.5, f="cos_theta",
                                  extra={"grid": grid})
    from_list, from_array = run_check(spec(pts)), run_check(spec(np.array(pts)))
    assert from_list.margin == from_array.margin
    assert from_list.metadata["grid_points"] == 2
    (off,) = run_suite([spec([[0.0, 0.0, 2.0], [1.0, 0.0, 0.0]])])
    assert off.verdict == "error"
    assert "embedding constraint" in off.error


def test_wvar_ode_lambda_one_flat():
    # lambda = 1 with shared noise: the two clouds stay congruent, the
    # distance is frozen and the derivative vanishes with the bound
    rep = run_check(small(
        "wvar_ode", space=Euclidean(2), x=np.zeros(2), y=np.array([1.0, 0.0]),
        t=0.2, lam=1.0, n_trajectories=500))
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    # a zero-vs-zero comparison at machine precision is legitimately
    # either a pass or inconclusive under the verdict rule
    assert rep.verdict in ("pass", "inconclusive")
