"""Inequality verification harness.

Each check compares an explicitly computed left-hand side against an
explicitly computed right-hand side and reports a margin = rhs - lhs
together with the Monte Carlo standard error when sampling is
involved.  Verdicts, at the fixed levels Z and EPS:

* deterministic checks: pass iff margin >= -EPS;
* statistical checks: fail iff margin < -Z*sigma, inconclusive iff the
  margin is negative but not below -Z*sigma (noise could explain it
  either way), pass iff the margin is nonnegative.

The verdict levels, the difference steps, the heat backends'
resolution and the chunk sizes are module constants, not spec fields,
so no spec can redefine what "pass" means.

The two-sided transport checks from Dirac starts first compare their rhs
with the noise-free upper side of the synchronous coupling
(_coupling_bound); a claim that side settles passes with no cloud drawn.

Seeds, discretization parameters and sampling plans are recorded in
every report, so each number is reproducible bit for bit.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebinterpolate, chebvander

from .comparison import (
    CurvatureDimension,
    ExponentPair,
    _cumulative_simpson,
    bakry_ledoux,
    coeff_A,
    comp_s,
    comp_t,
    decay_mean,
    j_measure,
    swc_reparam,
    tau_star,
    theta_exponent,
)
from .geometry import Euclidean, EuclideanOU, ModelSpace, Sphere
from .heat import MODES, default_backend, frame_stencil, heat_apply, heat_jet, slice_chart
from .transport import (
    ComparisonCost,
    EmpiricalMeasure,
    PthPowerDistance,
    block_cost_estimate,
    comparison_transform,
    exact_cost,
    power_transform,
)
from .walk import WalkConfig, coupled_distance_moment, sample_heat

__all__ = [
    "CheckSpec",
    "VerificationReport",
    "DiameterError",
    "CHECKS",
    "run_check",
    "run_suite",
    "REQUIRED_FIELDS",
    "TRANSPORT_CHECKS",
    "require_fields",
    "named_field",
    "default_grid",
]


log = logging.getLogger("ctl")

#: verdict levels: a statistical check fails below -Z sigma, a
#: deterministic one below -EPS
Z = 3.0
EPS = 1e-12
H = 1e-3              # space step of geodesic central differences
DU = 1e-2             # step in u of wvar_ode's difference quotient
GAMMA2_CHUNK = 4096   # grid points per chunk of gamma2's series evaluation
MONO_VALUES = 2**16   # field values per batched backend call of mono_app

#: the least value of each sample size; a two-sample standard error needs
#: at least two trajectories
_LEAST = {"n_trajectories": 2, "k": 1, "block_size": 1, "grid_n": 1}


class DiameterError(ValueError):
    """The strict diameter hypothesis of the comparison-function control
    fails; retry with a lowered curvature bound K' < K."""


# ---------------------------------------------------------------------------
# specs and reports


@dataclass(frozen=True)
class CheckSpec:
    """Parameters of one inequality check."""

    check_id: str
    space: ModelSpace
    cd: Optional[CurvatureDimension] = None      # override, e.g. K' < K
    exponents: ExponentPair = field(default_factory=ExponentPair.quadratic)
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    mu0: Optional[EmpiricalMeasure] = None
    mu1: Optional[EmpiricalMeasure] = None
    s: Optional[float] = None
    t: Optional[float] = None
    tau1: Optional[float] = None
    tau2: Optional[float] = None
    n_trajectories: int = 5000
    k: int = 30                      # read by no check: every heat cloud is drawn exactly
    seed: int = 0
    block_size: int = 1000
    f: Optional[Callable | str] = None
    lam: float = 2.0                 # lambda of the two-sided time change
    grid_n: int = 64
    delta: float = 0.1               # regularizer of the pointwise condition
    share_noise: bool = True         # common random numbers across the two sides
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, least in _LEAST.items():
            if getattr(self, name) < least:
                raise ValueError(f"{name!r} must be at least {least}, got {getattr(self, name)}")

    def resolved_cd(self) -> CurvatureDimension:
        return self.cd if self.cd is not None else self.space.cd


@dataclass
class VerificationReport:
    """One inequality check: sides, uncertainty, margin and verdict."""

    check_id: str
    space: str
    lhs: float
    rhs: float
    stderr_lhs: float
    stderr_rhs: float
    verdict: str
    K: float = math.nan
    N: float = math.nan
    p: float = math.nan
    beta: float = math.nan
    s: float = math.nan
    t: float = math.nan
    tau1: float = math.nan
    tau2: float = math.nan
    seed: int = 0
    metadata: dict = field(default_factory=dict)
    error: Optional[str] = None

    #: the columns of a report row (to_row), in order: report.csv's header
    COLUMNS: ClassVar[tuple[str, ...]] = (
        "check_id", "space", "K", "N", "p", "beta", "s", "t", "tau1", "tau2",
        "lhs", "rhs", "sigma", "margin", "verdict", "seed")

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def sigma(self) -> float:
        return math.hypot(self.stderr_lhs, self.stderr_rhs)

    def recompute_verdict(self) -> str:
        if self.error is not None:
            return "error"
        return _verdict(self.margin, self.sigma)

    def to_row(self) -> dict:
        return {name: getattr(self, name) for name in self.COLUMNS}


def _verdict(margin: float, sigma: float) -> str:
    if sigma == 0.0:
        return "pass" if margin >= -EPS else "fail"
    if margin < -Z * sigma:
        return "fail"
    return "inconclusive" if margin < 0 else "pass"


def _spec_fields(spec: CheckSpec) -> dict:
    """The report fields that label a spec: ids, curvature-dimension bound,
    exponents, times and seed (nan where unset)."""
    try:
        cd = spec.resolved_cd()
    except Exception:  # noqa: BLE001 - the spec's own error is reported instead
        cd = None
    opt = lambda v: math.nan if v is None else v
    return dict(
        check_id=spec.check_id, space=spec.space.label,
        K=cd.K if cd else math.nan, N=cd.N if cd else math.nan,
        p=spec.exponents.p, beta=spec.exponents.beta,
        s=opt(spec.s), t=opt(spec.t), tau1=opt(spec.tau1), tau2=opt(spec.tau2),
        seed=spec.seed)


def _base_report(spec: CheckSpec, lhs, rhs, se_lhs, se_rhs, **meta) -> VerificationReport:
    """The check's report; a NaN margin or sigma makes it an error row,
    since no verdict can be read from it."""
    rep = VerificationReport(
        lhs=float(lhs), rhs=float(rhs),
        stderr_lhs=float(se_lhs), stderr_rhs=float(se_rhs), verdict="",
        metadata=meta,
        **_spec_fields(spec))
    nan = [f"{name} is nan" for name, v in (("margin", rep.margin), ("sigma", rep.sigma))
           if math.isnan(v)]
    if nan:
        rep.error = (f"{', '.join(nan)} (lhs={rep.lhs!r}, rhs={rep.rhs!r}, "
                     f"stderr_lhs={rep.stderr_lhs!r}, stderr_rhs={rep.stderr_rhs!r})")
    rep.verdict = rep.recompute_verdict()
    return rep


# ---------------------------------------------------------------------------
# named fields and evaluation grids


def named_field(space: ModelSpace, name: str):
    """A registered test function: (f, |grad f|) as batched callables."""
    if isinstance(space, Sphere) and space.dim == 2:
        rho = space.radius
        if name == "cos_theta":
            return (lambda p: p[..., 2] / rho,
                    lambda p: np.sqrt(np.maximum(1 - (p[..., 2] / rho) ** 2, 0.0)) / rho)
    if isinstance(space, Sphere) and space.dim == 1:
        rho = space.radius
        if name == "sin":
            return (lambda p: p[..., 1] / rho,
                    lambda p: np.abs(p[..., 0] / rho) / rho)
        if name == "smooth_mix":
            def f(p):
                th = np.arctan2(p[..., 1], p[..., 0])
                return np.sin(th) + 0.3 * np.cos(2 * th)
            return f, None
    if isinstance(space, Euclidean):
        if name == "coordinate":
            return (lambda p: p[..., 0], lambda p: np.ones(p.shape[:-1]))
        if name == "sin":
            return (lambda p: np.sin(p[..., 0]), lambda p: np.abs(np.cos(p[..., 0])))
        if name == "quadratic":
            return (lambda p: p[..., 0] ** 2, lambda p: 2 * np.abs(p[..., 0]))
        if name == "gaussian_bump":
            return (lambda p: np.exp(-0.5 * np.sum(p**2, axis=-1)), None)
    raise KeyError(f"no field named {name!r} on {space.label}")


def _resolve_field(spec: CheckSpec):
    if callable(spec.f):
        return spec.f, spec.extra.get("grad_f")
    return named_field(spec.space, spec.f)


def _slice_params(space: ModelSpace, n: int, pole_gap: float = 0.0) -> np.ndarray:
    """n parameters of heat.slice_chart: the meridian from pole to pole less
    pole_gap at each end, the whole circle, or [-2, 2]."""
    if isinstance(space, Sphere) and space.dim == 2:
        return np.linspace(pole_gap, math.pi - pole_gap, n)
    if isinstance(space, Sphere):
        return np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    return np.linspace(-2.0, 2.0, n)


def default_grid(space: ModelSpace, n: int) -> np.ndarray:
    """Deterministic evaluation points for pointwise checks: n points of
    the slice heat.slice_chart."""
    return slice_chart(space, _slice_params(space, n))


# ---------------------------------------------------------------------------
# sampling helpers


def _measures(spec: CheckSpec) -> tuple[EmpiricalMeasure, EmpiricalMeasure]:
    """The start and end measures: mu0 and mu1, or Diracs at x and y."""
    return (spec.mu0 if spec.mu0 is not None else EmpiricalMeasure.dirac(spec.x),
            spec.mu1 if spec.mu1 is not None else EmpiricalMeasure.dirac(spec.y))


def _starts(measure: EmpiricalMeasure, n: int, seed: int):
    """Per-trajectory start points from an empirical measure."""
    if measure.size == 1:
        return measure.points[0]
    rng = np.random.default_rng(seed)
    idx = rng.choice(measure.size, size=n, p=measure.weights)
    return measure.points[idx]


def _two_sided_samples(spec: CheckSpec, pairs: tuple) -> list:
    """Terminal clouds of the two heat distributions, drawn from their exact
    laws (walk.sample_heat), one (a, b) pair of clouds per (time_a, time_b)
    in `pairs`.

    With share_noise every cloud is a side of one draw on the same
    per-trajectory streams (common random numbers): the marginal laws are
    unchanged and the differences between clouds have far lower variance.
    Without it the a sides and the b sides draw on separate seeds.
    """
    n = spec.n_trajectories
    mu0, mu1 = _measures(spec)
    xa, xb = _starts(mu0, n, spec.seed + 3), _starts(mu1, n, spec.seed + 4)
    times = tuple(t for pair in pairs for t in pair)
    cfg_a = WalkConfig(n_trajectories=n, seed=spec.seed + 1)
    if spec.share_noise:
        clouds = sample_heat(spec.space, (xa, xb) * len(pairs), times, cfg_a)
        return list(zip(clouds[0::2], clouds[1::2]))
    cfg_b = WalkConfig(n_trajectories=n, seed=spec.seed + 2)
    a = sample_heat(spec.space, (xa,) * len(pairs), times[0::2], cfg_a)
    b = sample_heat(spec.space, (xb,) * len(pairs), times[1::2], cfg_b)
    return list(zip(a, b))


def _exact_base(spec: CheckSpec, cost) -> float:
    value, _ = exact_cost(spec.space, *_measures(spec), cost)
    return value


def _start_distance(spec: CheckSpec) -> float:
    return float(spec.space.distance(np.asarray(spec.x, float), np.asarray(spec.y, float)))


def _moment_plan(spec: CheckSpec) -> Optional[tuple]:
    """(time_a, time_b, cost) of the transport between the heat laws at
    time_a from x and time_b from y that spec's check bounds (w2_control,
    wp, swc, lp2) or whose coupled moment it takes (prectl); None for any
    other check."""
    p = spec.exponents.p
    if spec.check_id == "lp2":
        return spec.tau1, spec.tau2, ComparisonCost(p=p, kstar=spec.resolved_cd().k_star)
    if spec.check_id == "prectl":
        return spec.tau1, spec.tau2, PthPowerDistance(p)
    if spec.check_id in ("w2_control", "wp", "swc"):
        return spec.s, spec.t, PthPowerDistance(2.0 if spec.check_id == "swc" else p)
    return None


def _coupling_bound(spec: CheckSpec, transform, rising_to: float) -> Optional[tuple]:
    """The coupling's upper side (upper, err) of spec's lhs: upper =
    tf(E h(rho_1)) for the synchronous coupling, with h the cost of spec's
    _moment_plan and (tf, slope) = transform, and err = slope(E h(rho_1))
    times the moment's bound.  Any coupling's cost bounds the optimal cost
    from above, and tf keeps that order where it rises on [0, E h(rho_1)],
    as it does up to rising_to.  None where no bound is computed: starts
    that are not Diracs, OU, E h(rho_1) past rising_to, or h undefined on
    part of the law's grid."""
    if spec.mu0 is not None or spec.mu1 is not None or isinstance(spec.space, EuclideanOU):
        return None
    a, b, cost = _moment_plan(spec)
    try:
        mean, bound = coupled_distance_moment(spec.space, _start_distance(spec), a, b, cost)
    except ValueError:  # lp2's s_{K*}(r/2) past r = 2 pi/sqrt(K*)
        return None
    if not mean <= rising_to:
        return None
    tf, slope = transform
    return tf(mean), slope(mean) * bound


# ---------------------------------------------------------------------------
# Wasserstein-side checks (Monte Carlo)


def _sampled_estimates(spec: CheckSpec, pairs: tuple, cost, transform) -> list:
    """Block estimates of the transformed cost between the two heat
    clouds, one per (time_a, time_b) in `pairs`."""
    return [block_cost_estimate(spec.space, xs, ys, cost, transform=transform,
                                block_size=spec.block_size, seed=spec.seed + 9)
            for xs, ys in _two_sided_samples(spec, pairs)]


def _sample_plan(spec: CheckSpec, estimates: list) -> dict:
    """The metadata of a check that drew heat clouds: its sampler, the
    trajectory count and the assignments behind its block estimates,
    summed."""
    counts = [e.assignments for e in estimates]
    return dict(sampler="exact", n_trajectories=spec.n_trajectories,
                assignments=dict(certified=sum(c["certified"] for c in counts),
                                 solved=sum(c["solved"] for c in counts),
                                 size=counts[0]["size"]))


def _transport_report(spec: CheckSpec, transform, rhs,
                      rising_to: float = math.inf) -> VerificationReport:
    """The transport pipeline of a check with a _moment_plan: first
    rhs(exact base cost) -> (closed-form rhs, metadata), then the
    coupling's upper side, recorded as metadata["bounds"].  Where the rhs
    clears the upper side by Z times its error, or by -EPS when the error
    is 0 (the report's own rule at sigma = 0), the check passes on it, with
    sampler "bounds" and no cloud drawn; else the lhs is the block estimate
    of transform(cost) between heat clouds at the plan's times."""
    a, b, cost = _moment_plan(spec)
    value, meta = rhs(_exact_base(spec, cost))
    bound = _coupling_bound(spec, transform, rising_to)
    if bound is not None:
        upper, err = bound
        meta["bounds"] = dict(upper=upper, err=err)
        if value - upper >= (Z * err if err > 0 else -EPS):
            return _base_report(spec, upper, value, err, 0.0, **meta, sampler="bounds")
    (est,) = _sampled_estimates(spec, ((a, b),), cost, transform)
    return _base_report(spec, est.value, value, est.stderr, 0.0,
                        **meta, n_blocks=est.n_blocks, **_sample_plan(spec, [est]))


def check_w2_control(spec: CheckSpec) -> VerificationReport:
    """Space-time Wasserstein control:
    W_p(P_s mu0, P_t mu1)^beta <= A(s,t)^beta W_p(mu0, mu1)^beta + J([s,t])^beta.

    As "wp" it is the L^p control: beta = 2 and the (K, N+p-2) coefficients."""
    p = spec.exponents.p
    if spec.check_id == "wp":
        if p < 2:
            raise ValueError("the L^p control requires p >= 2")
        cd, beta = spec.resolved_cd().shifted(p), 2.0
    else:
        cd, beta = spec.resolved_cd(), spec.exponents.beta
    A = coeff_A(cd, spec.s, spec.t)  # raises before any walk unless 0 <= s < t, N < inf
    J = j_measure(cd, spec.s, spec.t)

    def rhs(base):
        W0 = base ** (1.0 / p)
        return A**beta * W0**beta + J**beta, dict(coeff_A=A, j_mass=J, W0=W0)

    return _transport_report(spec, power_transform(beta / p), rhs)


def check_swc(spec: CheckSpec) -> VerificationReport:
    """Comparison-function control of W2 at two times."""
    if not 0 <= spec.s <= spec.t:
        raise ValueError("need 0 <= s <= t")
    cd = spec.resolved_cd()
    if cd.K > 0 and isinstance(spec.space, Sphere) and not spec.space.swc_diameter_ok(cd):
        raise DiameterError(
            f"diameter {spec.space.diameter:.6g} is not strictly below "
            f"pi*sqrt((N-1)/K) = {math.pi * math.sqrt((cd.N - 1) / cd.K):.6g}; "
            "rerun with a lowered bound K' < K")
    kap = cd.kappa

    def rhs(base):
        W0 = base ** 0.5
        Ksum = cd.K * (spec.s + spec.t)
        value = (math.exp(-Ksum) * comp_s(kap, W0 / 2.0) ** 2
                 + cd.N / 2.0 * decay_mean(Ksum) * (math.sqrt(spec.t) - math.sqrt(spec.s)) ** 2)
        return value, dict(W0=W0)

    # s_kap(sqrt(c)/2)^2 rises while sqrt(c)/2 <= pi/(2 sqrt(kap))
    return _transport_report(spec, comparison_transform(kap), rhs,
                             rising_to=math.pi**2 / kap if kap > 0 else math.inf)


def check_lp2(spec: CheckSpec) -> VerificationReport:
    """Transport-cost contraction for the comparison cost s_{K*}(d/2)^p."""
    p = spec.exponents.p
    if p < 2:
        raise ValueError("requires p >= 2")
    cd = spec.resolved_cd()
    if not cd.finite:
        raise ValueError("requires finite N")
    theta = theta_exponent(spec.tau1, spec.tau2, cd, p)  # raises before any walk
    coef = 0.5 * decay_mean(theta)

    def rhs(base):
        value = math.exp(-theta) * base ** (2.0 / p) + (cd.N + p - 2.0) * coef * (
            math.sqrt(spec.tau2) - math.sqrt(spec.tau1)) ** 2
        return value, dict(theta=theta, base_cost=base)

    return _transport_report(spec, power_transform(2.0 / p), rhs)


def check_prectl(spec: CheckSpec) -> VerificationReport:
    """Coupled moment control:
    E[d(X1, X2)^p]^{2/p} <= e^{-2K tau*} d(x,y)^2 + (N+p-2) c(K tau*) (sqrt(t2)-sqrt(t1))^2.

    (X1, X2) is the synchronous coupling of the two heat laws, an
    admissible coupling, so its moment dominates W_p^2 and the check is
    on the stronger quantity.  The moment comes from the law of the
    coupled distance, a 1-D diffusion on the model spaces
    (walk.coupled_distance_moment), and its discretization bound, carried
    to the lhs by the slope of c -> c^{2/p}, is the lhs error.
    """
    p = spec.exponents.p
    if p < 2:
        raise ValueError("requires p >= 2")
    cd = spec.resolved_cd()
    if not cd.finite:
        raise ValueError("requires finite N")
    ts = tau_star(spec.tau1, spec.tau2, cd.K)
    d0 = _start_distance(spec)
    arg = 2.0 * cd.K * ts
    rhs = math.exp(-arg) * d0**2 + (cd.N + p - 2.0) * 2.0 * decay_mean(arg) * (
        math.sqrt(spec.tau2) - math.sqrt(spec.tau1)) ** 2
    mean, bound = coupled_distance_moment(spec.space, d0, *_moment_plan(spec))
    tf, slope = power_transform(2.0 / p)
    return _base_report(spec, tf(mean), rhs, slope(mean) * bound, 0.0, tau_star=ts, d0=d0,
                        sampler="coupled_law")


def check_wvar_ode(spec: CheckSpec) -> VerificationReport:
    """Differential form of the two-sided control.

    Checks that the forward difference in u of
    s_{K/N}(W2(P^*_{u/lam} mu, P^*_{lam u} nu)/2)^2 stays below
    -K(lam + 1/lam) * (that quantity) + N/2 (lam + 1/lam - 2), and
    reports the residual of the linearized time change against the
    exact geodesic equation theta'' = -(K w^2 / 2N) s_{K/N}(2 theta)
    at h in {1e-2, 1e-3}.  theta_h weighs s_{K/N}(w r) and s_{K/N}(w (1 - r)),
    so its second derivative is -(K/N) w^2 theta_h exactly.
    """
    u = spec.t
    lam = spec.lam
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    cd = spec.resolved_cd()
    kap = cd.kappa

    # ODE residual of the linearized time change, before any walk (raises for N = inf)
    w = _exact_base(spec, PthPowerDistance(2.0)) ** 0.5
    residuals = {}
    for h in (1e-2, 1e-3):
        _, theta_h, _ = swc_reparam(w, lam, h, cd)
        th = theta_h(np.linspace(0.05, 0.95, 31))
        d2 = -kap * w**2 * th
        ode_rhs = -(cd.K * w**2 / (2.0 * cd.N)) * comp_s(kap, 2 * th)
        residuals[h] = float(np.max(np.abs(d2 - ode_rhs)))
    ratio = residuals[1e-2] / residuals[1e-3] if residuals[1e-3] > 0 else math.inf

    # one walk for both u: the difference quotient uses common noise
    u1 = u + DU
    g0, g1 = _sampled_estimates(spec, ((u / lam, u * lam), (u1 / lam, u1 * lam)),
                                PthPowerDistance(2.0), comparison_transform(kap))
    deriv = (g1.value - g0.value) / DU
    se_deriv = math.hypot(g0.stderr, g1.stderr) / DU
    rhs = -cd.K * (lam + 1.0 / lam) * g0.value + cd.N / 2.0 * (lam + 1.0 / lam - 2.0)
    se_rhs = abs(cd.K) * (lam + 1.0 / lam) * g0.stderr
    return _base_report(spec, deriv, rhs, se_deriv, se_rhs,
                        u=u, du=DU, lam=lam, w=w, **_sample_plan(spec, [g0, g1]),
                        theta_ode_residuals=residuals, theta_ode_ratio=ratio)


# ---------------------------------------------------------------------------
# gradient-side checks (deterministic backends)


def _bl_rhs_coef(cd: CurvatureDimension, p: float, t: float) -> float:
    """(1 - e^{-2Kt}) / ((N + p - 2) K), with its K -> 0 and N = inf limits."""
    if not cd.finite:
        return 0.0
    return 2.0 * t * decay_mean(2.0 * cd.K * t) / (cd.N + p - 2.0)


def _field(spec: CheckSpec, h: float = H):
    """(f, |grad f|^{p*} as a batched callable).  |grad f| is the registered
    one, else geodesic central differences of step h."""
    f, grad_f = _resolve_field(spec)
    space, pstar = spec.space, spec.exponents.p_star
    if grad_f is None:
        def grad_f(pts):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            _, plus, minus = frame_stencil(space, f, pts, h)
            comps = [(a - b) / (2 * h) for a, b in zip(plus, minus)]
            return np.sqrt(np.sum(np.stack(comps, axis=-1) ** 2, axis=-1))
    return f, lambda pts: np.asarray(grad_f(pts), dtype=float) ** pstar


def check_bl(spec: CheckSpec) -> VerificationReport:
    """Pointwise gradient estimate on a deterministic backend, over the
    whole grid in one evaluation:
    |grad P_t f|^2 <= e^{-2Kt} P_t(|grad f|^{p*})^{2/p*} - coef * (L P_t f)^2."""
    cd = spec.resolved_cd()
    ex = spec.exponents
    f, g_pow = _field(spec)
    grid = spec.extra.get("grid")
    if grid is None:
        grid = default_grid(spec.space, spec.grid_n)
    else:
        grid = np.atleast_2d(np.asarray(grid, dtype=float))
        spec.space.check_point(grid)
    _, grad, gen = heat_jet(spec.space, f, spec.t, grid)
    pt_term = heat_apply(spec.space, g_pow, spec.t, grid)
    lhs_all = grad**2
    rhs_all = (math.exp(-2 * cd.K * spec.t) * np.maximum(pt_term, 0.0) ** (2.0 / ex.p_star)
               - _bl_rhs_coef(cd, ex.p, spec.t) * gen**2)
    margins = rhs_all - lhs_all
    i_min = int(np.argmin(margins))
    return _base_report(spec, lhs_all[i_min], rhs_all[i_min], 0.0, 0.0,
                        worst_index=i_min, grid_points=grid.shape[0],
                        min_margin=float(margins[i_min]),
                        max_margin=float(margins.max()))


def check_bl_int(spec: CheckSpec) -> VerificationReport:
    """Integrated gradient estimate along a geodesic:
    |P_t f(gamma(1)) - P_s f(gamma(0))| bounded by the mixed space-time
    integral, whose 129 Simpson nodes are evaluated in one call."""
    if not 0 < spec.s <= spec.t:
        raise ValueError("need 0 < s <= t")
    cd = spec.resolved_cd()
    ex = spec.exponents
    beta, pstar = ex.beta, ex.p_star
    f, g_pow = _field(spec)
    fam = bakry_ledoux(cd)
    x = np.asarray(spec.x, float)
    y = np.asarray(spec.y, float)
    d = float(spec.space.distance(x, y))

    end, start = heat_apply(spec.space, f, np.array([spec.t, spec.s]), np.stack([y, x]))
    rs = np.linspace(0.0, 1.0, 129)
    xi = rs * spec.t + (1 - rs) * spec.s
    nodes = spec.space.geodesic_point(x, y, rs[:, None])
    mix = ((fam.a(xi) * d) ** beta + ((spec.t - spec.s) / fam.b(xi)) ** beta) ** (1.0 / beta)
    pt = heat_apply(spec.space, g_pow, xi, nodes)
    rhs = float(_cumulative_simpson(mix * np.maximum(pt, 0.0) ** (1.0 / pstar), rs)[-1])
    return _base_report(spec, abs(end - start), rhs, 0.0, 0.0, geodesic_length=d)


def check_gamma2(spec: CheckSpec) -> VerificationReport:
    """Pointwise curvature-dimension condition with the p-dependent
    sharpening, by spectral differentiation on 1-D reductions:
    (|grad f|^2 + delta)(Gamma2(f) - K |grad f|^2 - (Lf)^2/(N+p-2))
      >= (p-2)/(4(p-1)) |grad |grad f|^2|^2,  Gamma2(f) = L|grad f|^2/2 - <grad f, grad Lf>,
    on Euclidean lines, circles, and zonal fields on 2-spheres.  f runs once: an FFT
    at 2 MODES uniform nodes of a circle or of the great circle through a 2-sphere's
    poles (a zonal field is even there), or the Chebyshev interpolant at MODES nodes
    of [-2, 2] on E^1.  Its series stops after the last coefficient above 1e-13 of the
    largest, in the first 3/4 of the modes or f is not resolved (ValueError).  Per
    GAMMA2_CHUNK grid points, one contraction of a row-major basis (any chunk size
    sums each row alike) with the derivative table gives f', f'' and f'''.
    """
    cd, space, p, delta = spec.resolved_cd(), spec.space, spec.exponents.p, spec.delta
    if not (isinstance(space, Sphere) and space.dim <= 2 or isinstance(space, Euclidean)
            and space.dim == 1 and not isinstance(space, EuclideanOU)):
        raise ValueError("pointwise condition check supports E^1, circles and zonal 2-spheres")
    values = lambda theta: _resolve_field(spec)[0](slice_chart(space, theta))
    if isinstance(space, Sphere):
        evals = 2 * MODES
        coeffs = np.fft.rfft(values(2.0 * math.pi * np.arange(evals) / evals)) / evals
    else:
        evals, coeffs = MODES, chebinterpolate(lambda x: values(2.0 * x), MODES - 1)
    mag = np.abs(coeffs)
    n = 1 + max(np.flatnonzero(~(mag <= 1e-13 * mag.max())), default=0)  # a nan counts as above
    if n > 3 * MODES // 4:
        raise ValueError(f"{evals} nodes do not resolve f: |c_{n - 1}| > 1e-13 max |c_k|")
    if isinstance(space, Sphere):  # c_0 + 2 Re sum_{k>=1} c_k e^{ik theta}, theta = arclength / rho
        ks = np.arange(n)
        table = 2.0 * coeffs[:n] * (1j * ks / space.radius) ** np.arange(1, 4)[:, None]
        basis = lambda th: np.exp(1j * th[:, None] * ks)
    else:
        table = np.array([np.pad(chebder(coeffs[:n], m, scl=0.5), (0, m))[:n] for m in (1, 2, 3)])
        basis = lambda th: np.ascontiguousarray(chebvander(th / 2.0, n - 1))
    thetas = _slice_params(space, spec.grid_n, pole_gap=0.3)
    worst = (math.inf, math.nan, math.nan, math.nan)
    for start in range(0, len(thetas), GAMMA2_CHUNK):
        th = thetas[start:start + GAMMA2_CHUNK]
        f1, f2, f3 = np.einsum("cn,kn->kc", basis(th), table).real
        # Lf = f'' + c f', where c = cot(theta) / rho for a zonal field on S^2 and 0 else
        c, dc = ((1.0 / np.tan(th) / space.radius, -1.0 / (space.radius * np.sin(th)) ** 2)
                 if space.dim == 2 else (0.0, 0.0))
        lap_f, grad2 = f2 + c * f1, f1**2
        gamma2 = f2**2 + f1 * f3 + c * f1 * f2 - f1 * (f3 + c * f2 + dc * f1)  # as defined above
        dim_term = lap_f**2 / (cd.N + p - 2.0) if cd.finite else 0.0
        lv = (grad2 + delta) * (gamma2 - cd.K * grad2 - dim_term)
        rv = (p - 2.0) / (4.0 * (p - 1.0)) * (2.0 * f1 * f2) ** 2
        margins = lv - rv
        i = int(np.argmin(margins))
        # strict <, so ties go to the first point; a nan wins, as in argmin
        if margins[i] < worst[0] or math.isnan(margins[i]) > math.isnan(worst[0]):
            worst = (margins[i], rv[i], lv[i], th[i])
    # report the condition as rhs <= lhs: margin = lhs - rhs
    return _base_report(spec, float(worst[1]), float(worst[2]), 0.0, 0.0, grid_points=len(thetas),
                        min_margin=float(worst[0]), field_evaluations=evals, worst_theta=worst[3])


def check_laplacian_comparison(spec: CheckSpec) -> VerificationReport:
    """Generator of the distance function against N / t_{K/N}(d)."""
    cd = spec.resolved_cd()
    space = spec.space
    x = np.asarray(spec.x, float)
    y = np.asarray(spec.y, float)
    d = float(space.distance(x, y))
    if d <= 0:
        raise ValueError("need x != y")
    if isinstance(space, Sphere) and d > 0.9 * space.diameter:
        raise ValueError("pair too close to the cut locus")
    if not cd.finite:
        raise ValueError("comparison requires finite N")
    g = lambda pts: float(space.distance(np.broadcast_to(y, np.shape(pts)), pts))
    frame, plus, minus = frame_stencil(space, g, x, H)
    lap = sum((gp - 2 * d + gm) / H**2 for gp, gm in zip(plus, minus))
    Z = space.drift(x)
    lhs = lap + float(sum(float(Z @ e) * ((gp - gm) / (2 * H))
                          for e, gp, gm in zip(frame, plus, minus)))
    rhs = cd.N / comp_t(cd.kappa, d)
    closed = ((space.dim - 1) / comp_t(space.sectional_curvature, d)
              if space.dim > 1 else 0.0)
    return _base_report(spec, lhs, rhs, 0.0, 0.0, distance=d, closed_form_lhs=closed)


def check_mono_app(spec: CheckSpec) -> VerificationReport:
    """Monotonicity under the semigroup:
    P_t((g + delta)^r)^{1/r} - delta >= P_t(g^r)^{1/r} for r in (0,1), g >= 0.
    The cases go to the backend as families of fields, one per case, in one
    heat_apply call per side and at most MONO_VALUES field values a call."""
    space = spec.space
    rng = np.random.default_rng(spec.seed)
    n_cases = spec.extra.get("n_cases", 100)
    grid = default_grid(space, 8)
    # every case's (r, delta, a0, a1, a2), then every case's grid index
    params = rng.uniform([0.05, 0.01, 0.0, 0.0, 0.0], [0.95, 2.0, 2.0, 2.0, 2.0],
                         size=(n_cases, 5))
    index = rng.integers(0, len(grid), size=n_cases)
    chunk = max(1, MONO_VALUES // default_backend(space).field_size[space.dim])
    worst, case, calls = (math.inf, math.nan, math.nan), (), 0
    for start in range(0, n_cases, chunk):
        cases = params[start:start + chunk]
        r, delta, a0, a1, a2 = (cases[:, k, None] for k in range(5))  # columns (cases, 1)
        if isinstance(space, Sphere) and space.dim == 2:
            g = lambda p: a0 + 0.1 + a1 * (1 + p[..., 2] / space.radius) + \
                a2 * (p[..., 2] / space.radius) ** 2
        elif isinstance(space, Sphere) and space.dim == 1:
            g = lambda p: a0 + 0.1 + a1 * (1 + p[..., 1] / space.radius) + \
                a2 * (p[..., 0] / space.radius) ** 2
        else:
            g = lambda p: a0 + 0.1 + a1 * np.exp(-0.5 * np.sum(p**2, -1)) + \
                a2 * np.tanh(p[..., 0]) ** 2
        # the C library's pow on each case's scalars: NumPy's vectorized one moves last bits
        root = lambda v: np.array([a ** (1.0 / b) for a, b in zip(v.tolist(), r[:, 0].tolist())])
        x = grid[index[start:start + chunk]]
        lifted = root(heat_apply(space, lambda p: (g(p) + delta) ** r, spec.t, x)) - delta[:, 0]
        plain = root(heat_apply(space, lambda p: g(p) ** r, spec.t, x))
        calls += 2
        gap = lifted - plain
        i = int(np.argmin(np.where(np.isnan(gap), np.inf, gap)))  # the first least, nan skipped
        if gap[i] < worst[0]:
            worst, case = (gap[i], plain[i], lifted[i]), (*cases[i], int(index[start + i]))
    return _base_report(spec, worst[1], worst[2], 0.0, 0.0, n_cases=n_cases, backend_calls=calls,
                        worst_case=dict(zip(("r", "delta", "a0", "a1", "a2", "grid_index"), case)))


# ---------------------------------------------------------------------------
# registry and suite runner


CHECKS: dict[str, Callable[[CheckSpec], VerificationReport]] = {
    "w2_control": check_w2_control,
    "swc": check_swc,
    "wp": check_w2_control,
    "prectl": check_prectl,
    "bl0": check_bl,
    "blp": check_bl,
    "bl_int": check_bl_int,
    "gamma2": check_gamma2,
    "laplacian_comparison": check_laplacian_comparison,
    "lp2": check_lp2,
    "wvar_ode": check_wvar_ode,
    "mono_app": check_mono_app,
}

#: the CheckSpec fields each check cannot run without; "x|mu0" is met by
#: either field, as a transport check starts from a point or a measure
REQUIRED_FIELDS: dict[str, tuple[str, ...]] = {
    **dict.fromkeys(("w2_control", "swc", "wp"), ("x|mu0", "y|mu1", "s", "t")),
    "lp2": ("x|mu0", "y|mu1", "tau1", "tau2"),
    "wvar_ode": ("x|mu0", "y|mu1", "t"),
    "prectl": ("x", "y", "tau1", "tau2"),
    **dict.fromkeys(("bl0", "blp"), ("t", "f")),
    "bl_int": ("x", "y", "s", "t", "f"),
    "gamma2": ("f",),
    "laplacian_comparison": ("x", "y"),
    "mono_app": ("t",),
}

#: the transport checks: each solves assignment problems with scipy.optimize._lsap
#: or the coupled distance's backward equation with scipy.linalg._flapack, or both
TRANSPORT_CHECKS = frozenset(("w2_control", "swc", "wp", "lp2", "wvar_ode", "prectl"))


def require_fields(spec: CheckSpec) -> None:
    """Raise a ValueError naming each unset field that the spec's check requires."""
    missing = [need.replace("|", " or ") for need in REQUIRED_FIELDS[spec.check_id]
               if all(getattr(spec, name) is None for name in need.split("|"))]
    if missing:
        raise ValueError(f"check {spec.check_id!r} requires {', '.join(missing)}")


def run_check(spec: CheckSpec) -> VerificationReport:
    if spec.check_id not in CHECKS:
        raise KeyError(f"unknown inequality id {spec.check_id!r}")
    require_fields(spec)
    return CHECKS[spec.check_id](spec)


def run_suite(specs, jobs: int = 1) -> list[VerificationReport]:
    """Run all checks; per-check errors become reports with verdict 'error'
    and the suite continues.  Reports come back in spec order.  Each
    check logs one INFO line on the ``ctl`` logger: id, space, verdict,
    margin, sigma and wall seconds."""

    def one(spec: CheckSpec) -> VerificationReport:
        start = time.perf_counter()
        try:
            rep = run_check(spec)
        except Exception as exc:  # noqa: BLE001 - recorded, not swallowed
            rep = VerificationReport(
                lhs=math.nan, rhs=math.nan, stderr_lhs=0.0, stderr_rhs=0.0,
                verdict="error", error=f"{type(exc).__name__}: {exc}",
                **_spec_fields(spec))
        log.info("%s %s %s margin=%+.4e sigma=%.3e wall=%.3fs", rep.check_id, rep.space,
                 rep.verdict, rep.margin, rep.sigma, time.perf_counter() - start)
        return rep

    if jobs <= 1:
        return [one(s) for s in specs]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(one, specs))
