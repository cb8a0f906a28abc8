"""Acceptance suite: one test per criterion, each printing PASS/FAIL
with its measured quantities and wall time.  Tolerances are fixed here,
not tuned at run time."""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import ctlab.checks
from ctlab.checks import CheckSpec, run_check
from ctlab.comparison import (
    CurvatureDimension,
    ExponentPair,
    bakry_ledoux,
    coeff_A,
    duality_reparam,
    j_measure,
    psi,
    psi_upper_bound,
)
from ctlab.geometry import Euclidean, Sphere
from ctlab.hopflax import FiniteMetricSpace, hj_residual, kantorovich_gap
from ctlab.transport import gaussian_w2
from ctlab.walk import sample_unit_ball, trajectory_rng

S2 = Sphere(2)
NORTH = np.array([0.0, 0.0, 1.0])


def sphere_point(d):
    return S2.exp_map(NORTH, np.array([d, 0.0, 0.0]))


def _announce(num, ok, detail, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} criterion {num:2d}: {detail} [{elapsed:.1f}s / {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_01_flat_sharpness_of_space_time_control(monkeypatch):
    t0 = time.monotonic()
    oracle = gaussian_w2(2, [0.0, 0.0], [1.0, 0.0], 0.25, 1.0) ** 2
    assert oracle == pytest.approx(2.0, abs=1e-12)
    spec = CheckSpec(
        check_id="w2_control", space=Euclidean(2),
        x=np.zeros(2), y=np.array([1.0, 0.0]), s=0.25, t=1.0,
        n_trajectories=5000, k=30, seed=20260810)
    # the coupling's upper side decides the row: on E^2 at p = 2 it is the
    # oracle itself, with no error
    decided = run_check(spec)
    # the sampled estimate, with that side patched out, is sharp too
    monkeypatch.setattr(ctlab.checks, "_coupling_bound", lambda *args: None)
    rep = run_check(spec)
    elapsed = time.monotonic() - t0
    ok = (decided.metadata["sampler"] == "bounds" and decided.verdict == "pass"
          and decided.lhs == pytest.approx(oracle, abs=1e-12) and decided.sigma == 0.0
          and rep.metadata["sampler"] == "exact"
          and rep.rhs == pytest.approx(2.0, abs=1e-12)
          and rep.sigma <= 0.05
          and abs(rep.lhs - rep.rhs) <= 3 * rep.sigma)
    _announce(1, ok,
              f"decided lhs={decided.lhs:.4f}; sampled lhs={rep.lhs:.4f} rhs={rep.rhs:.4f} "
              f"sigma={rep.sigma:.4f}", elapsed, 60.0)


def test_criterion_02_deterministic_gradient_estimate_on_sphere():
    t0 = time.monotonic()
    worst = math.inf
    for t in (0.1, 0.5, 1.0):
        rep = run_check(CheckSpec(check_id="bl0", space=S2, t=t, f="cos_theta",
                                  grid_n=64))
        worst = min(worst, rep.metadata["min_margin"])
    # near-equality as t -> 0: the two sides differ by O(t)
    small = run_check(CheckSpec(check_id="bl0", space=S2, t=1e-3, f="cos_theta",
                                grid_n=64))
    residual = max(abs(small.metadata["min_margin"]), abs(small.metadata["max_margin"]))
    elapsed = time.monotonic() - t0
    ok = worst >= -1e-5 and residual <= 0.1 * 1e-3
    _announce(2, ok, f"min margin={worst:.2e}, residual(t=1e-3)={residual:.2e}",
              elapsed, 5.0)


def test_criterion_03_index_form_bound_property():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    worst = math.inf
    for _ in range(10_000):
        tau1, tau2 = rng.uniform(1e-3, 4.0, size=2)
        K = rng.uniform(-2.0, 2.0)
        N = rng.uniform(1.5, 10.0)
        cd = CurvatureDimension(K, N)
        ks = cd.k_star
        rmax = math.pi / math.sqrt(ks) if ks > 0 else 5.0
        r = rng.uniform(1e-3, 0.999) * rmax
        worst = min(worst, psi_upper_bound(tau1, tau2, cd, r) - psi(tau1, tau2, cd, r))
    elapsed = time.monotonic() - t0
    _announce(3, worst >= -1e-12, f"min(bound - psi)={worst:.2e} over 10^4 draws",
              elapsed, 1.0)


def test_criterion_04_coupled_walk_moment_contraction():
    t0 = time.monotonic()
    details = []
    ok = True
    for p in (2.0, 3.0):
        rep = run_check(CheckSpec(
            check_id="prectl", space=S2, cd=CurvatureDimension(0.9, 2.0),
            x=NORTH, y=sphere_point(1.0), tau1=0.2, tau2=0.4,
            exponents=ExponentPair(p, 2.0), n_trajectories=5000, k=30,
            seed=20260810))
        ok &= rep.margin >= -3 * rep.sigma
        details.append(f"p={p:g}: lhs={rep.lhs:.4f} rhs={rep.rhs:.4f} sigma={rep.sigma:.2g}")
    elapsed = time.monotonic() - t0
    _announce(4, ok, "; ".join(details), elapsed, 120.0)


def test_criterion_05_hamilton_jacobi_residual_convergence():
    t0 = time.monotonic()
    f_of = lambda th: np.sin(th) + 0.3 * np.cos(2 * th)
    maxima = {}
    for n in (256, 512):
        grid = FiniteMetricSpace.circle_grid(n)
        res = hj_residual(grid, f_of(grid.coords[:, 0]), 0.5, 2.0)
        maxima[n] = res.max_interior
    ratio = maxima[256] / maxima[512]
    elapsed = time.monotonic() - t0
    _announce(5, ratio >= 1.5,
              f"max residual 256={maxima[256]:.3e}, 512={maxima[512]:.3e}, ratio={ratio:.2f}",
              elapsed, 10.0)


def test_criterion_06_kantorovich_duality_gap():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst = -math.inf
    for _ in range(100):
        pts = rng.normal(size=(20, 3))
        space = FiniteMetricSpace.from_points(Euclidean(3), pts)
        w1 = rng.random(20) + 0.05
        w2 = rng.random(20) + 0.05
        gap = kantorovich_gap(space, w1 / w1.sum(), w2 / w2.sum(), 2.0)
        assert gap >= -1e-9
        worst = max(worst, gap)
    elapsed = time.monotonic() - t0
    _announce(6, worst <= 1e-8, f"max gap={worst:.2e} over 100 instances",
              elapsed, 10.0)


def test_criterion_07_closed_forms_against_quadrature():
    t0 = time.monotonic()
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        K = rng.uniform(-2.0, 2.0)
        N = rng.uniform(1.5, 10.0)
        s = rng.uniform(0.01, 1.0)
        t = s + rng.uniform(0.01, 2.0)
        cd = CurvatureDimension(K, N)
        if K == 0:
            dens = lambda r: math.sqrt(N / (2 * r))
        else:
            dens = lambda r: math.sqrt(N * K / (math.exp(2 * K * r) - 1.0))
        jq = quad(dens, s, t, epsabs=1e-13, epsrel=1e-13)[0]
        gq = quad(lambda r: math.exp(K * r) * dens(r), s, t,
                  epsabs=1e-13, epsrel=1e-13)[0]
        worst = max(worst, abs(j_measure(cd, s, t) - jq),
                    abs(coeff_A(cd, s, t) - jq / gq))
    elapsed = time.monotonic() - t0
    _announce(7, worst <= 1e-10, f"max |closed - quadrature|={worst:.2e}",
              elapsed, 5.0)


def test_criterion_08_reparametrization_constancy():
    t0 = time.monotonic()
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(20):
        K = rng.uniform(-2.0, 2.0)
        N = rng.uniform(1.5, 10.0)
        s = rng.uniform(0.01, 0.5)
        t = s + rng.uniform(0.05, 1.5)
        fam = bakry_ledoux(CurvatureDimension(K, N))
        rp = duality_reparam(fam, s, t)
        r1, r2 = rp.derivative_residuals(fam, n=64)
        worst = max(worst, r1, r2)
    elapsed = time.monotonic() - t0
    _announce(8, worst <= 1e-8, f"max constancy residual={worst:.2e}",
              elapsed, 30.0)


def test_criterion_09_noise_moment_identities():
    t0 = time.monotonic()
    m, n = 2, 1_000_000
    rng = trajectory_rng(20260810, 0)
    zeta = sample_unit_ball(m, rng, size=n)
    var = 1.0 / (m + 2)
    cov = zeta.T @ zeta / n
    se_cov = math.sqrt(float(np.var(zeta**2, axis=0).max()) / n)
    cov_ok = (np.max(np.abs(np.diag(cov) - var)) < 4 * se_cov
              and abs(cov[0, 1]) < 4 * se_cov)
    lifted = math.sqrt(2 * (m + 2)) * zeta[:, 0]
    se1 = lifted.std() / math.sqrt(n)
    se2 = float(np.std(lifted**2)) / math.sqrt(n)
    proj_ok = (abs(lifted.mean()) < 4 * se1
               and abs(np.mean(lifted**2) - 2.0) < 4 * se2)
    elapsed = time.monotonic() - t0
    _announce(9, cov_ok and proj_ok,
              f"cov diag err={np.max(np.abs(np.diag(cov) - var)):.2e}, "
              f"proj second moment={np.mean(lifted**2):.5f}",
              elapsed, 30.0)


def test_criterion_10_negative_control_must_fail():
    t0 = time.monotonic()
    verdicts = []
    for t in (0.1, 0.5, 1.0):
        rep = run_check(CheckSpec(check_id="bl0", space=S2, t=t, f="cos_theta",
                                  cd=CurvatureDimension(2.0, 2.0), grid_n=64))
        verdicts.append(rep.verdict)
    # the transport side: the space-time control on exact heat clouds
    w2 = run_check(CheckSpec(check_id="w2_control", space=S2, cd=CurvatureDimension(2.0, 2.0),
                             x=NORTH, y=sphere_point(1.0), s=0.25, t=1.0, n_trajectories=2000,
                             block_size=500, seed=20260810))
    elapsed = time.monotonic() - t0
    _announce(10, "fail" in verdicts and w2.verdict == "fail",
              f"bl0 verdicts with inflated K: {verdicts}; w2_control: {w2.verdict} "
              f"at {w2.margin / w2.sigma:+.1f} sigma", elapsed, 30.0)


def test_criterion_11_semigroup_power_monotonicity():
    t0 = time.monotonic()
    rep = run_check(CheckSpec(check_id="mono_app", space=S2, t=0.3,
                              seed=20260810, extra={"n_cases": 100}))
    elapsed = time.monotonic() - t0
    _announce(11, rep.margin >= -1e-10, f"worst margin={rep.margin:.2e} over 100 cases",
              elapsed, 60.0)


def test_criterion_12_comparison_cost_contraction():
    t0 = time.monotonic()
    rep = run_check(CheckSpec(
        check_id="lp2", space=S2, cd=CurvatureDimension(0.9, 2.0),
        x=NORTH, y=sphere_point(1.5), tau1=0.2, tau2=0.4,
        exponents=ExponentPair.quadratic(), n_trajectories=5000, k=30,
        seed=20260810))
    elapsed = time.monotonic() - t0
    _announce(12, rep.margin >= -3 * rep.sigma,
              f"lhs={rep.lhs:.4f} rhs={rep.rhs:.4f} sigma={rep.sigma:.4f}",
              elapsed, 120.0)
