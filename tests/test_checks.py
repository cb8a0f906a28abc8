import logging
import math

import numpy as np
import pytest

from ctlab.checks import (
    CheckSpec,
    DiameterError,
    VerificationReport,
    _two_sided_samples,
    _verdict,
    run_check,
    run_suite,
)
from ctlab.comparison import CurvatureDimension, ExponentPair, coeff_A, j_measure
from ctlab.geometry import Euclidean, EuclideanOU, Sphere
from ctlab.transport import EmpiricalMeasure
from ctlab.walk import WalkConfig, run_single

S2 = Sphere(2)
NORTH = np.array([0.0, 0.0, 1.0])


def sphere_point(d):
    return S2.exp_map(NORTH, np.array([d, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# verdict rule


def test_verdict_deterministic():
    assert _verdict(0.5, 0.0, 3.0, 1e-5) == "pass"
    assert _verdict(-1e-6, 0.0, 3.0, 1e-5) == "pass"
    assert _verdict(-1e-4, 0.0, 3.0, 1e-5) == "fail"


def test_verdict_statistical():
    # fail beyond z sigma; inconclusive when noise covers a small negative
    # margin; pass otherwise
    assert _verdict(0.2, 0.1, 3.0, 1e-5) == "pass"
    assert _verdict(-0.05, 0.1, 3.0, 1e-5) == "inconclusive"
    assert _verdict(-0.2, 0.1, 3.0, 1e-5) == "pass"
    assert _verdict(-0.5, 0.1, 3.0, 1e-5) == "fail"


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
    specs = [CheckSpec(check_id="bl0", space=S2, t=t, f="cos_theta")
             for t in (0.1, 0.5)]
    serial = run_suite(specs, jobs=1)
    parallel = run_suite(specs, jobs=2)
    for a, b in zip(serial, parallel):
        assert a.lhs == b.lhs and a.rhs == b.rhs and a.verdict == b.verdict


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
    # shared noise walks both clouds on seed + 1; separate noise gives the
    # b side seed + 2
    y = sphere_point(0.5)
    spec = CheckSpec(check_id="w2_control", space=S2, x=NORTH, y=y, n_trajectories=30,
                     k=4, seed=7, share_noise=share)
    pairs = ((0.1, 0.3), (0.2, 0.4))
    clouds = _two_sided_samples(spec, pairs)
    seed_b = 8 if share else 9
    for (xs, ys), (ta, tb) in zip(clouds, pairs):
        want_a = run_single(S2, NORTH, ta, WalkConfig(k=4, n_trajectories=30, seed=8))
        want_b = run_single(S2, y, tb, WalkConfig(k=4, n_trajectories=30, seed=seed_b))
        assert np.array_equal(xs, want_a.terminal)
        assert np.array_equal(ys, want_b.terminal)


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
    rep = run_check(small(
        "w2_control", space=Euclidean(2), x=np.zeros(2), y=np.array([1.0, 0.0]),
        s=0.25, t=1.0))
    assert rep.seed == 123
    assert rep.metadata["k"] == 10
    assert rep.metadata["n_trajectories"] == 800
    again = run_check(small(
        "w2_control", space=Euclidean(2), x=np.zeros(2), y=np.array([1.0, 0.0]),
        s=0.25, t=1.0))
    assert again.lhs == rep.lhs and again.rhs == rep.rhs


def test_wvar_ode_check_small():
    cd = CurvatureDimension(0.9, 2.0)
    rep = run_check(small(
        "wvar_ode", space=S2, cd=cd, x=NORTH, y=sphere_point(1.0),
        t=0.15, lam=2.0, n_trajectories=1500))
    assert rep.verdict in ("pass", "inconclusive")
    assert rep.metadata["theta_ode_ratio"] >= 10.0


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
    # on a flat circle with p = 3 the condition reduces to delta >= 0
    # after cancelling f'^2 f''^2 terms; margins stay within the
    # finite-difference budget
    rep = run_check(CheckSpec(check_id="gamma2", space=Sphere(1), f="sin",
                              exponents=ExponentPair(3.0, 2.0), delta=0.05))
    assert rep.metadata["min_margin"] >= -1e-4
    assert rep.verdict == "pass"


def test_laplacian_comparison_flat():
    # (m-1)/d <= m/d
    rep = run_check(CheckSpec(
        check_id="laplacian_comparison", space=Euclidean(3),
        x=np.zeros(3), y=np.array([1.0, 0.0, 0.0])))
    assert rep.lhs == pytest.approx(2.0, abs=1e-4)
    assert rep.rhs == pytest.approx(3.0, rel=1e-12)
    assert rep.verdict == "pass"


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
