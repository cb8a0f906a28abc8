import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ctlab.comparison import (
    CurvatureDimension,
    ExponentPair,
    CoefficientFamily,
    _cumulative_simpson,
    bakry_ledoux,
    coeff_A,
    comp_c,
    comp_s,
    comp_t,
    duality_reparam,
    exp_weighted_j,
    j_measure,
    psi,
    psi_upper_bound,
    swc_reparam,
    tau_star,
    theta_exponent,
    wc_var_rhs,
)


# ---------------------------------------------------------------------------
# comparison functions


def test_comp_flat_limits():
    assert comp_s(0.0, 1.7) == 1.7
    assert comp_c(0.0, 1.7) == 1.0


def test_comp_s_quarter_period():
    assert comp_s(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_comp_s_hyperbolic_matches_series():
    # independent oracle: truncated power series of sinh
    series = sum(1.0 / math.factorial(2 * k + 1) for k in range(12))
    assert comp_s(-1.0, 1.0) == pytest.approx(series, abs=1e-15)
    assert comp_s(-1.0, 1.0) == pytest.approx(1.1752011936438014, abs=1e-12)


def test_comp_t_is_ratio():
    assert comp_t(0.25, 0.9) == pytest.approx(
        comp_s(0.25, 0.9) / comp_c(0.25, 0.9), rel=1e-15)


def test_comp_domain_errors():
    with pytest.raises(ValueError):
        comp_s(1.0, 4.0)  # beyond pi/sqrt(kappa)
    with pytest.raises(ValueError):
        comp_c(0.5, -0.1)
    with pytest.raises(ValueError):
        comp_t(1.0, math.pi / 2)  # cos vanishes


def _addition_residuals(kappa, u, v):
    """Residuals of c(u+v) = c(u)c(v) - k s(u)s(v), s(u+v) = s(u)c(v) + c(u)s(v),
    c(u)^2 + k s(u)^2 = 1, s(2u) = 2 s(u)c(u) and c(2u) = c(u)^2 - k s(u)^2."""
    s, c = comp_s(kappa, u), comp_c(kappa, u)
    sv, cv = comp_s(kappa, v), comp_c(kappa, v)
    return (abs(comp_c(kappa, u + v) - (c * cv - kappa * s * sv)),
            abs(comp_s(kappa, u + v) - (s * cv + c * sv)),
            abs(c * c + kappa * s * s - 1.0),
            abs(comp_s(kappa, 2 * u) - 2 * s * c),
            abs(comp_c(kappa, 2 * u) - (c * c - kappa * s * s)))


@pytest.mark.parametrize("kappa,u,v", [
    (0.0, 1.0, 2.0),
    (1.0, 0.3, 0.4),
    (-0.7, 0.5, 0.8),
])
def test_addition_identities_examples(kappa, u, v):
    assert max(_addition_residuals(kappa, u, v)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    kappa=st.floats(-4.0, 4.0),
    u=st.floats(0.0, 1.2),
    v=st.floats(0.0, 1.2),
)
def test_addition_identities_property(kappa, u, v):
    if kappa > 0 and max(u + v, 2 * u) * math.sqrt(kappa) > math.pi:
        return
    assert max(_addition_residuals(kappa, u, v)) < 1e-11


def test_branch_continuity_across_zero():
    # oracle: the 4-term series, whose truncation error is below x^4/9! on
    # |x| = |kappa u^2| < 1e-8; u spans 12 decades below that bound
    rng = np.random.default_rng(2)
    for kappa in (1e-300, -1e-300, 1e-100, -1e-100, 1e-16, -1e-16, 1e-8, -1e-8):
        u = math.sqrt(1e-8 / abs(kappa)) * 10.0 ** -rng.uniform(0.0, 12.0, 2000)
        x = kappa * u * u
        series_s = u * (1.0 - x / 6.0 + x * x / 120.0 - x**3 / 5040.0)
        series_c = 1.0 - x / 2.0 + x * x / 24.0 - x**3 / 720.0
        assert np.all(np.abs(comp_s(kappa, u) - series_s) <= 6.7e-16 * series_s), kappa
        assert np.all(np.abs(comp_c(kappa, u) - series_c) <= 4.5e-16), kappa


@pytest.mark.parametrize("kappa", [-1.0, -0.5, 0.0, 0.5, 1.0, 1e-300, -1e-300, 1e-12, -1e-12])
def test_float_and_array_paths_give_the_same_bits(kappa):
    rng = np.random.default_rng(0)
    top = math.pi / math.sqrt(kappa) if kappa > 0 else 10.0
    u = np.concatenate([rng.uniform(0.0, top, 2000), rng.uniform(0.0, 1e-4, 200)])
    for f in (comp_s, comp_c):
        floats = np.array([f(kappa, float(v)) for v in u])
        assert np.array_equal(floats, f(kappa, u)), f.__name__
        for number in (float(u[0]), 1, np.asarray(u[0]), np.float64(u[0])):
            assert type(f(kappa, number)) is float, (f.__name__, type(number))
        assert type(f(kappa, u)) is np.ndarray


# ---------------------------------------------------------------------------
# coefficient measure and contraction coefficient


def test_j_measure_flat_value():
    # closed form sqrt(2N)(sqrt(t)-sqrt(s)) at K = 0
    assert j_measure(CurvatureDimension(0.0, 2.0), 1.0, 4.0) == pytest.approx(2.0, abs=1e-14)


def test_j_measure_empty_interval():
    for K in (-1.0, 0.0, 2.0):
        assert j_measure(CurvatureDimension(K, 3.0), 0.7, 0.7) == 0.0


def _j_density(K, N):
    # expm1 keeps the density's digits as K -> 0, where exp - 1 cancels
    if K == 0:
        return lambda r: math.sqrt(N / (2.0 * r))
    return lambda r: math.sqrt(N * K / math.expm1(2 * K * r))


def test_j_measure_against_quadrature():
    cd = CurvatureDimension(1.0, 2.0)
    oracle = quad(_j_density(1.0, 2.0), 0.1, 0.5, epsabs=1e-13, epsrel=1e-13)[0]
    assert j_measure(cd, 0.1, 0.5) == pytest.approx(oracle, abs=1e-10)


def test_j_measure_quadrature_sweep():
    rng = np.random.default_rng(11)
    for _ in range(100):
        K = rng.uniform(-2.0, 2.0)
        N = rng.uniform(1.5, 10.0)
        s = rng.uniform(0.01, 1.0)
        t = s + rng.uniform(0.01, 2.0)
        cd = CurvatureDimension(K, N)
        oracle = quad(_j_density(K, N), s, t, epsabs=1e-13, epsrel=1e-13)[0]
        assert j_measure(cd, s, t) == pytest.approx(oracle, abs=1e-10)


def test_j_measure_additivity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        K = rng.uniform(-2, 2)
        N = rng.uniform(1.5, 8)
        s = rng.uniform(0, 1)
        u = s + rng.uniform(0, 1)
        t = u + rng.uniform(0, 1)
        cd = CurvatureDimension(K, N)
        assert j_measure(cd, s, u) + j_measure(cd, u, t) == pytest.approx(
            j_measure(cd, s, t), abs=1e-12)


def test_j_measure_branch_continuity():
    cd0 = CurvatureDimension(0.0, 3.0)
    for kappa in (1e-8, -1e-8):
        cd = CurvatureDimension(kappa, 3.0)
        assert abs(j_measure(cd, 0.25, 1.0) - j_measure(cd0, 0.25, 1.0)) <= 1e-6
        assert abs(coeff_A(cd, 0.25, 1.0) - coeff_A(cd0, 0.25, 1.0)) <= 1e-6


def test_j_measure_argument_error():
    with pytest.raises(ValueError):
        j_measure(CurvatureDimension(1.0, 2.0), 0.5, 0.1)


def test_coeff_a_flat_is_one():
    for (s, t, N) in ((0.1, 0.2, 2.0), (0.0, 1.0, 5.0), (0.5, 3.0, 1.7)):
        assert coeff_A(CurvatureDimension(0.0, N), s, t) == pytest.approx(1.0, abs=1e-14)


def test_coeff_a_against_quadrature():
    rng = np.random.default_rng(23)
    for _ in range(100):
        K = rng.uniform(-2.0, 2.0)
        N = rng.uniform(1.5, 10.0)
        s = rng.uniform(0.01, 1.0)
        t = s + rng.uniform(0.01, 2.0)
        cd = CurvatureDimension(K, N)
        dens = _j_density(K, N)
        num = quad(lambda r: math.exp(K * r) * dens(r), s, t, epsabs=1e-13, epsrel=1e-13)[0]
        den = quad(dens, s, t, epsabs=1e-13, epsrel=1e-13)[0]
        assert coeff_A(cd, s, t) == pytest.approx(den / num, abs=1e-10)


# curvatures from flat through |K| = 1e-16 to moderate, where cancellation
# in an arccos/arccosh form or a series switch would show
SMALL_K = [0.0] + [sign * k for k in (1e-16, 1e-13, 1e-10, 1e-6, 1e-3, 0.5, 2.0)
                   for sign in (1.0, -1.0)]
SMALL_K_N = (1.5, 2.0, 5.0)


def _j_quad(K, N, s, t, weighted=False):
    """J_N([s, t]), or int_s^t e^{Kr} J_N(dr), by quadrature."""
    dens = _j_density(K, N)
    f = (lambda r: math.exp(K * r) * dens(r)) if weighted else dens
    return quad(f, s, t, epsabs=0.0, epsrel=2e-14, limit=200)[0]


@pytest.mark.parametrize("K", SMALL_K)
def test_j_measure_and_coeff_a_accurate_through_zero(K):
    s, t = 0.25, 1.0
    for N in SMALL_K_N:
        cd = CurvatureDimension(K, N)
        J, G = _j_quad(K, N, s, t), _j_quad(K, N, s, t, weighted=True)
        assert j_measure(cd, s, t) == pytest.approx(J, rel=1e-13, abs=0)
        assert coeff_A(cd, s, t) == pytest.approx(J / G, rel=1e-13, abs=0)


@pytest.mark.parametrize("K", SMALL_K)
def test_xi_inverse_round_trip_through_zero(K):
    s, t = 0.25, 1.0
    for N in SMALL_K_N:
        fam = bakry_ledoux(CurvatureDimension(K, N))
        for v in (0.1, 0.5, 1.0):
            v *= _j_quad(K, N, s, t)
            x = fam.xi_inverse(s, v)
            assert _j_quad(K, N, s, x) == pytest.approx(v, rel=1e-13, abs=0)


def test_coeff_a_short_interval_limit():
    # as s -> t the coefficient recovers the single-time contraction e^{-Kt}
    cd = CurvatureDimension(1.0, 2.0)
    t = 0.8
    assert coeff_A(cd, t - 1e-6, t) == pytest.approx(math.exp(-cd.K * t), abs=1e-4)


def test_coeff_a_argument_error():
    with pytest.raises(ValueError):
        coeff_A(CurvatureDimension(1.0, 2.0), 0.5, 0.5)


# ---------------------------------------------------------------------------
# index-form bound


def test_psi_vanishes_for_equal_scales_flat():
    cd = CurvatureDimension(0.0, 4.0)
    for r in (0.2, 1.0, 3.0):
        assert psi(0.7, 0.7, cd, r) == pytest.approx(0.0, abs=1e-14)


def test_psi_flat_closed_form():
    # (N-1)(sqrt(t2)-sqrt(t1))^2 / r at K = 0
    assert psi(1.0, 4.0, CurvatureDimension(0.0, 3.0), 2.0) == pytest.approx(1.0, abs=1e-14)


def test_psi_upper_bound_examples():
    cd = CurvatureDimension(1.0, 2.0)
    assert psi_upper_bound(0.3, 0.3, cd, 1.0) == pytest.approx(-0.3, abs=1e-14)
    # both branches agree at K = 0
    cd0p = CurvatureDimension(1e-300, 5.0)
    cd0m = CurvatureDimension(-1e-300, 5.0)
    assert psi_upper_bound(1.0, 2.0, cd0p, 0.7) == pytest.approx(
        psi_upper_bound(1.0, 2.0, cd0m, 0.7), rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    tau1=st.floats(1e-3, 4.0),
    tau2=st.floats(1e-3, 4.0),
    K=st.floats(-2.0, 2.0),
    N=st.floats(1.5, 10.0),
    frac=st.floats(1e-3, 0.999),
)
def test_psi_below_bound_property(tau1, tau2, K, N, frac):
    cd = CurvatureDimension(K, N)
    ks = cd.k_star
    rmax = math.pi / math.sqrt(ks) if ks > 0 else 5.0
    r = frac * rmax
    assert psi(tau1, tau2, cd, r) <= psi_upper_bound(tau1, tau2, cd, r) + 1e-12


def test_psi_bound_bulk_sample():
    rng = np.random.default_rng(77)
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
    assert worst >= -1e-12


def test_psi_domain_errors():
    cd = CurvatureDimension(1.0, 2.0)
    with pytest.raises(ValueError):
        psi(1.0, 1.0, cd, 0.0)
    with pytest.raises(ValueError):
        psi(1.0, 1.0, CurvatureDimension(1.0, 1.0), 0.5)


def test_tau_star_and_theta():
    assert tau_star(1.0, 4.0, 1.0) == pytest.approx(2.0)
    assert tau_star(1.0, 4.0, -1.0) == pytest.approx(2.5)
    for (t1, t2, N, p) in ((0.3, 0.9, 3.0, 2.0), (1.0, 2.0, 5.0, 4.0)):
        assert theta_exponent(t1, t2, CurvatureDimension(0.0, N), p) == 0.0
    # displayed form
    cd = CurvatureDimension(1.5, 3.0)
    expect = 1.5 * 3.0 + 2.0 * (1.5 / 2.0) * (math.sqrt(2.0) - 1.0) ** 2 / 2.0
    assert theta_exponent(1.0, 2.0, cd, 2.0) == pytest.approx(expect, rel=1e-14)


# ---------------------------------------------------------------------------
# reparametrizations


def test_duality_reparam_flat_closed_form():
    cd = CurvatureDimension(0.0, 2.0)
    rp = duality_reparam(bakry_ledoux(cd), 0.25, 1.0)
    for r in np.linspace(0, 1, 9):
        expect = (math.sqrt(0.25) + r * (1.0 - 0.5)) ** 2
        assert rp.xi(r) == pytest.approx(expect, abs=1e-12)
        assert rp.eta(r) == pytest.approx(r, abs=1e-12)


def test_duality_reparam_boundaries_and_residuals():
    rng = np.random.default_rng(3)
    for _ in range(20):
        K = rng.uniform(-2.0, 2.0)
        N = rng.uniform(1.5, 8.0)
        s = rng.uniform(0.01, 0.5)
        t = s + rng.uniform(0.05, 1.0)
        fam = bakry_ledoux(CurvatureDimension(K, N))
        rp = duality_reparam(fam, s, t)
        assert rp.xi(0.0) == pytest.approx(s, abs=1e-12)
        assert rp.xi(1.0) == pytest.approx(t, abs=1e-12)
        rp.validate()
        r1, r2 = rp.derivative_residuals(fam, n=64)
        assert r1 < 1e-8 and r2 < 1e-8


def test_duality_reparam_generic_family_bisection():
    # user-supplied sampled family: solved by bisection, same contracts
    fam = CoefficientFamily(a=lambda t: 1.0 / (1.0 + t), b=lambda t: math.sqrt(t) + 0.1)
    rp = duality_reparam(fam, 0.2, 0.9)
    rp.validate()
    r1, r2 = rp.derivative_residuals(fam, n=32)
    assert r1 < 1e-7 and r2 < 1e-7


def test_swc_reparam_flat_branch():
    cd = CurvatureDimension(0.0, 2.0)
    lam, h = 2.0, 0.1
    l, theta_h, xi_h = swc_reparam(1.0, lam, h, cd)
    # l(r) = sqrt(2 N r) and theta interpolates linearly at K = 0
    for r in (0.0, 0.3, 1.0):
        expect = l(lam * h) * r + l(h / lam) * (1 - r)
        assert theta_h(r) == pytest.approx(expect, rel=1e-12)
    assert xi_h(0.0) == pytest.approx(h / lam, abs=1e-12)
    assert xi_h(1.0) == pytest.approx(lam * h, abs=1e-12)


def test_swc_reparam_boundaries_random():
    rng = np.random.default_rng(8)
    for _ in range(20):
        K = rng.uniform(-2.0, 2.0)
        N = rng.uniform(1.5, 8.0)
        w = rng.uniform(0.0, 1.5)
        lam = rng.uniform(1.0, 3.0)
        h = rng.uniform(0.01, 0.2)
        _, _, xi_h = swc_reparam(w, lam, h, CurvatureDimension(K, N))
        assert xi_h(0.0) == pytest.approx(h / lam, abs=1e-12)
        assert xi_h(1.0) == pytest.approx(lam * h, abs=1e-12)
    for K in SMALL_K:
        for N in SMALL_K_N:
            for w in (0.0, 0.5):
                _, _, xi_h = swc_reparam(w, 2.0, 0.1, CurvatureDimension(K, N))
                assert xi_h(0.0) == pytest.approx(0.05, rel=1e-12, abs=0)
                assert xi_h(1.0) == pytest.approx(0.2, rel=1e-12, abs=0)


def test_swc_reparam_increasing_in_usable_window():
    # the linearized change is increasing when the two-sided weight ratio
    # dominates the curvature factor of the comparison functions (always
    # the regime of the small-h differential argument); outside of it
    # the interpolation can dip near an endpoint
    rng = np.random.default_rng(8)
    for _ in range(30):
        K = rng.uniform(-1.0, 1.0)
        N = rng.uniform(2.0, 8.0)
        w = rng.uniform(0.0, 1.0)
        lam = rng.uniform(1.0, 2.0)
        h = rng.uniform(0.005, 0.1)
        _, _, xi_h = swc_reparam(w, lam, h, CurvatureDimension(K, N))
        grid = np.array([xi_h(r) for r in np.linspace(0, 1, 33)])
        assert np.all(np.diff(grid) > 0)


def test_swc_reparam_lambda_one_degenerates():
    _, _, xi_h = swc_reparam(0.8, 1.0, 0.05, CurvatureDimension(1.0, 2.0))
    assert xi_h(0.0) == pytest.approx(0.05, abs=1e-13)
    assert xi_h(1.0) == pytest.approx(0.05, abs=1e-13)


@pytest.mark.parametrize("n", [129, 257, 513], ids=["bl_int", "wc_var_rhs", "wc_var_rhs_512"])
def test_cumulative_simpson_ends_at_the_composite_simpson_sum(n):
    # check_bl_int's 129 nodes and wc_var_rhs's quadrature_n + 1: with an even
    # number of intervals each pair shares one parabola, so the last value is
    # scipy's composite Simpson sum up to rounding.  The bound is 8 ulps of
    # sum |terms| (Simpson of |y|, whose weights are positive); the worst seen
    # is 4.5, on sqrt(x) at 513 nodes, whose rounding errors all share a sign
    from scipy.integrate import simpson

    x = np.linspace(0.0, 1.0, n)
    rng = np.random.default_rng(n)
    for y in (rng.normal(size=n), np.exp(-3.0 * x) * np.cos(5.0 * x), np.sqrt(x)):
        ulp = np.finfo(float).eps * simpson(np.abs(y), x=x)
        assert abs(_cumulative_simpson(y, x)[-1] - simpson(y, x=x)) <= 8 * ulp


def test_wc_var_rhs_flat_example():
    # A = 1 and J = 1 at these parameters, so the bound is W^2 + 1 = 2
    cd = CurvatureDimension(0.0, 2.0)
    fam = bakry_ledoux(cd)
    rp = duality_reparam(fam, 0.25, 1.0)
    val = wc_var_rhs(fam, rp, 1.0, ExponentPair.quadratic())
    assert val == pytest.approx(2.0, abs=1e-9)


def test_wc_var_rhs_reproduces_closed_bound():
    rng = np.random.default_rng(4)
    for _ in range(10):
        K = rng.uniform(-1.5, 1.5)
        N = rng.uniform(1.5, 6.0)
        s = rng.uniform(0.02, 0.4)
        t = s + rng.uniform(0.05, 0.8)
        W = rng.uniform(0.0, 2.0)
        cd = CurvatureDimension(K, N)
        fam = bakry_ledoux(cd)
        rp = duality_reparam(fam, s, t)
        closed = coeff_A(cd, s, t) ** 2 * W**2 + j_measure(cd, s, t) ** 2
        assert wc_var_rhs(fam, rp, W, ExponentPair.quadratic()) == pytest.approx(
            closed, rel=1e-6, abs=1e-9)


def test_wc_var_rhs_constant_speed_matches_integral_condition():
    # eta' = 1, xi' = t - s: the integrand reduces to
    # a(xi)^b W^b + ((t-s)/b(xi))^b as in the integrated gradient bound
    from ctlab.comparison import TimeReparam
    from scipy.integrate import simpson

    cd = CurvatureDimension(1.0, 2.0)
    fam = bakry_ledoux(cd)
    s, t, W = 0.2, 0.7, 1.3
    rp = TimeReparam(
        xi=lambda r: s + (t - s) * r, eta=lambda r: r, s=s, t=t,
        xi_prime=lambda r: t - s, eta_prime=lambda r: 1.0)
    val = wc_var_rhs(fam, rp, W, ExponentPair.quadratic(), quadrature_n=512)
    rr = np.linspace(0, 1, 513)
    integrand = np.array([
        fam.a(s + (t - s) * r) ** 2 * W**2 + ((t - s) / fam.b(s + (t - s) * r)) ** 2
        for r in rr])
    assert val == pytest.approx(float(simpson(integrand, x=rr)), rel=1e-12)


def test_wc_var_rhs_flat_minimality_over_perturbations():
    # at K = 0 the two terms decouple and Jensen makes the canonical
    # choice the exact minimizer; perturbed admissible pairs lie above
    cd = CurvatureDimension(0.0, 3.0)
    fam = bakry_ledoux(cd)
    rng = np.random.default_rng(6)
    for trial in range(4):
        s = rng.uniform(0.02, 0.4)
        t = s + rng.uniform(0.1, 0.8)
        W = rng.uniform(0.2, 2.0)
        rp = duality_reparam(fam, s, t)
        base = coeff_A(cd, s, t) ** 2 * W**2 + j_measure(cd, s, t) ** 2
        for i in range(20):
            e1 = 0.25 * math.sin(1.7 * i + 0.3) / math.pi
            e2 = 0.25 * math.cos(2.3 * i + 0.9) / math.pi
            phi = lambda r: r + e1 * math.sin(math.pi * r)
            psi_ = lambda r: r + e2 * math.sin(math.pi * r)
            from ctlab.comparison import TimeReparam

            pert = TimeReparam(
                xi=lambda r: rp.xi(phi(r)), eta=lambda r: rp.eta(psi_(r)),
                s=s, t=t,
                xi_prime=lambda r: rp.xi_prime(phi(r)) * (1 + e1 * math.pi * math.cos(math.pi * r)),
                eta_prime=lambda r: rp.eta_prime(psi_(r)) * (1 + e2 * math.pi * math.cos(math.pi * r)))
            val = wc_var_rhs(fam, pert, W, ExponentPair.quadratic())
            assert val >= base - 1e-8


def test_exponent_pair_invariants():
    ex = ExponentPair(3.0, 2.0)
    assert 1 / ex.p + 1 / ex.p_star == pytest.approx(1.0)
    assert 1 / ex.beta + 1 / ex.beta_star == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ExponentPair(2.0, 3.0)  # beta > p
    with pytest.raises(ValueError):
        ExponentPair(1.0, 1.0)


def test_coefficient_family_local_finiteness():
    # J([0, 1]) by quadrature of 1/b, integrable at 0, against the closed form
    bl = bakry_ledoux(CurvatureDimension(1.0, 2.0))
    fam = CoefficientFamily(a=bl.a, b=bl.b)
    assert fam.j_mass(0.0, 1.0) == pytest.approx(
        j_measure(CurvatureDimension(1.0, 2.0), 0.0, 1.0), abs=1e-8)


def test_psi_upper_bound_branch_continuity():
    base = psi_upper_bound(1.0, 2.0, CurvatureDimension(1e-300, 5.0), 0.7)
    for K in (1e-8, -1e-8):
        val = psi_upper_bound(1.0, 2.0, CurvatureDimension(K, 5.0), 0.7)
        assert abs(val - base) <= 1e-6


def test_comp_t_branch_continuity():
    for u in (0.4, 1.3):
        base = comp_t(0.0, u)
        for kappa in (1e-8, -1e-8):
            assert abs(comp_t(kappa, u) - base) <= 1e-6
