"""Inequality verification harness.

Each check compares an explicitly computed left-hand side against an
explicitly computed right-hand side and reports a margin = rhs - lhs
together with the Monte Carlo standard error when sampling is
involved.  Verdicts:

* deterministic checks: pass iff margin >= -eps;
* statistical checks: fail iff margin < -z*sigma, inconclusive iff the
  margin is negative but smaller than one combined sigma (noise could
  explain it either way), pass otherwise.

Seeds, discretization parameters and sampling plans are recorded in
every report, so each number is reproducible bit for bit.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .comparison import (
    CurvatureDimension,
    ExponentPair,
    bakry_ledoux,
    coeff_A,
    comp_s,
    comp_t,
    j_measure,
    swc_reparam,
    tau_star,
    theta_exponent,
)
from .geometry import Euclidean, EuclideanOU, Hyperbolic, ModelSpace, Sphere
from .heat import (
    HeatBackend,
    default_backend,
    generator_heat,
    grad_heat,
    heat_apply,
)
from .transport import (
    ComparisonCost,
    EmpiricalMeasure,
    PthPowerDistance,
    block_cost_estimate,
    exact_cost,
)
from .walk import WalkConfig, run_coupled, run_single

__all__ = [
    "CheckSpec",
    "VerificationReport",
    "DiameterError",
    "CHECKS",
    "run_check",
    "run_suite",
    "named_field",
    "default_grid",
]


log = logging.getLogger("ctl")


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
    k: int = 30
    seed: int = 0
    block_size: int = 1000
    f: Optional[Callable | str] = None
    lam: float = 2.0                 # lambda of the two-sided time change
    backend_modes: int = 64
    grid_n: int = 64
    h: float = 1e-3                  # space step of finite differences
    dt: float = 1e-4                 # time step of the generator estimate
    delta: float = 0.1               # regularizer of the pointwise condition
    z: float = 3.0                   # statistical verdict level
    eps: float = 1e-5                # deterministic margin budget
    share_noise: bool = True         # common random numbers across the two sides
    extra: dict = field(default_factory=dict)

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
    z: float = 3.0
    eps: float = 1e-5
    metadata: dict = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def sigma(self) -> float:
        return math.hypot(self.stderr_lhs, self.stderr_rhs)

    def recompute_verdict(self) -> str:
        if self.error is not None:
            return "error"
        return _verdict(self.margin, self.sigma, self.z, self.eps)

    def to_row(self) -> dict:
        return {
            "check_id": self.check_id, "space": self.space,
            "K": self.K, "N": self.N, "p": self.p, "beta": self.beta,
            "s": self.s, "t": self.t, "tau1": self.tau1, "tau2": self.tau2,
            "lhs": self.lhs, "rhs": self.rhs, "sigma": self.sigma,
            "margin": self.margin, "verdict": self.verdict, "seed": self.seed,
        }


def _verdict(margin: float, sigma: float, z: float, eps: float) -> str:
    if sigma == 0.0:
        return "pass" if margin >= -eps else "fail"
    if margin < -z * sigma:
        return "fail"
    if margin < 0 and sigma > abs(margin):
        return "inconclusive"
    return "pass"


def _spec_fields(spec: CheckSpec) -> dict:
    """The report fields that label a spec: ids, curvature-dimension bound,
    exponents, times, seed and verdict levels (nan where unset)."""
    try:
        cd = spec.resolved_cd()
    except Exception:  # noqa: BLE001 - the spec's own error is reported instead
        cd = None
    opt = lambda v: math.nan if v is None else v
    return dict(
        check_id=spec.check_id, space=_space_label(spec.space),
        K=cd.K if cd else math.nan, N=cd.N if cd else math.nan,
        p=spec.exponents.p, beta=spec.exponents.beta,
        s=opt(spec.s), t=opt(spec.t), tau1=opt(spec.tau1), tau2=opt(spec.tau2),
        seed=spec.seed, z=spec.z, eps=spec.eps)


def _base_report(spec: CheckSpec, lhs, rhs, se_lhs, se_rhs, **meta) -> VerificationReport:
    rep = VerificationReport(
        lhs=float(lhs), rhs=float(rhs),
        stderr_lhs=float(se_lhs), stderr_rhs=float(se_rhs), verdict="",
        metadata=dict(meta, k=spec.k, n_trajectories=spec.n_trajectories),
        **_spec_fields(spec))
    rep.verdict = rep.recompute_verdict()
    return rep


def _space_label(space: ModelSpace) -> str:
    if isinstance(space, Sphere):
        return f"sphere{space.dim}(r={space.radius:g})"
    if isinstance(space, EuclideanOU):
        return f"euclidean_ou{space.dim}(lam={space.lam:g})"
    if isinstance(space, Hyperbolic):
        return f"hyperbolic{space.dim}(c={space.curvature:g})"
    return f"{space.kind}{space.dim}"


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
    raise KeyError(f"no field named {name!r} on {_space_label(space)}")


def _resolve_field(spec: CheckSpec):
    if callable(spec.f):
        return spec.f, spec.extra.get("grad_f")
    if isinstance(spec.f, str):
        return named_field(spec.space, spec.f)
    raise ValueError(f"check {spec.check_id!r} requires a test function f")


def default_grid(space: ModelSpace, n: int) -> np.ndarray:
    """Deterministic evaluation points for pointwise checks."""
    if isinstance(space, Sphere) and space.dim == 2:
        theta = np.linspace(0.0, math.pi, n)
        return space.radius * np.stack(
            [np.sin(theta), np.zeros(n), np.cos(theta)], axis=-1)
    if isinstance(space, Sphere) and space.dim == 1:
        theta = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
        return space.radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    if isinstance(space, Euclidean):
        xs = np.linspace(-2.0, 2.0, n)
        out = np.zeros((n, space.dim))
        out[:, 0] = xs
        return out
    raise ValueError(f"no default grid for {_space_label(space)}")


def _resolve_grad_norm(spec: CheckSpec, f, grad_f):
    """|grad f| as a callable: analytic when registered, else geodesic FD."""
    if grad_f is not None:
        return grad_f
    space, h = spec.space, spec.h

    def fd_grad(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        frame = space.frame(pts)
        comps = []
        for i in range(space.dim):
            e = frame[..., i, :]
            comps.append((f(space.exp_map(pts, h * e)) - f(space.exp_map(pts, -h * e))) / (2 * h))
        return np.sqrt(np.sum(np.stack(comps, axis=-1) ** 2, axis=-1))

    return fd_grad


# ---------------------------------------------------------------------------
# sampling helpers


def _starts(measure: Optional[EmpiricalMeasure], point, n: int, seed: int):
    """Per-trajectory start points from a Dirac point or an empirical measure."""
    if measure is None:
        if point is None:
            raise ValueError("either a point or a measure is required")
        return np.asarray(point, dtype=float)
    if measure.size == 1:
        return measure.points[0]
    rng = np.random.default_rng(seed)
    idx = rng.choice(measure.size, size=n, p=measure.weights)
    return measure.points[idx]


def _two_sided_samples(spec: CheckSpec, pairs: tuple) -> list:
    """Terminal clouds of the two heat distributions, one (a, b) pair of
    clouds per (time_a, time_b) in `pairs`.

    With share_noise every cloud is a side of one walk on the same
    per-trajectory noise streams (common random numbers): the marginal
    laws are unchanged and the differences between clouds have far
    lower variance.  Without it the a sides and the b sides walk on
    separate seeds.
    """
    n = spec.n_trajectories
    xa = _starts(spec.mu0, spec.x, n, spec.seed + 3)
    xb = _starts(spec.mu1, spec.y, n, spec.seed + 4)
    times = tuple(t for pair in pairs for t in pair)
    cfg_a = WalkConfig(k=spec.k, n_trajectories=n, seed=spec.seed + 1)
    if spec.share_noise:
        clouds = run_single(spec.space, (xa, xb) * len(pairs), times, cfg_a).terminal
        return list(zip(clouds[0::2], clouds[1::2]))
    cfg_b = WalkConfig(k=spec.k, n_trajectories=n, seed=spec.seed + 2)
    a = run_single(spec.space, (xa,) * len(pairs), times[0::2], cfg_a).terminal
    b = run_single(spec.space, (xb,) * len(pairs), times[1::2], cfg_b).terminal
    return list(zip(a, b))


def _exact_base(spec: CheckSpec, cost) -> float:
    mu0 = spec.mu0 if spec.mu0 is not None else EmpiricalMeasure.dirac(spec.x)
    mu1 = spec.mu1 if spec.mu1 is not None else EmpiricalMeasure.dirac(spec.y)
    value, _ = exact_cost(spec.space, mu0, mu1, cost)
    return value


def _require(spec: CheckSpec, *names) -> None:
    for name in names:
        if getattr(spec, name) is None:
            raise ValueError(f"check {spec.check_id!r} requires {name!r}")


# ---------------------------------------------------------------------------
# Wasserstein-side checks (Monte Carlo)


def _sampled_estimates(spec: CheckSpec, pairs: tuple, cost, transform) -> list:
    """Block estimates of the transformed cost between the two heat
    clouds, one per (time_a, time_b) in `pairs`."""
    return [block_cost_estimate(spec.space, xs, ys, cost, transform=transform,
                                block_size=spec.block_size, seed=spec.seed + 9)
            for xs, ys in _two_sided_samples(spec, pairs)]


def _swc_transform(kap: float):
    """c -> s_kappa(sqrt(c)/2)^2, the comparison form of a squared distance."""
    return lambda c: float(comp_s(kap, math.sqrt(c) / 2.0)) ** 2


def _transport_report(spec: CheckSpec, times: tuple, cost, transform, rhs) -> VerificationReport:
    """The Monte Carlo transport pipeline: heat clouds at `times`, the block
    estimate of transform(cost) as the lhs, and rhs(exact base cost) ->
    (closed-form rhs, metadata)."""
    (est,) = _sampled_estimates(spec, (times,), cost, transform)
    value, meta = rhs(_exact_base(spec, cost))
    return _base_report(spec, est.value, value, est.stderr, 0.0,
                        **meta, n_blocks=est.n_blocks)


def check_w2_control(spec: CheckSpec) -> VerificationReport:
    """Space-time Wasserstein control:
    W_p(P_s mu0, P_t mu1)^beta <= A(s,t)^beta W_p(mu0, mu1)^beta + J([s,t])^beta."""
    _require(spec, "s", "t")
    if not 0 <= spec.s < spec.t:
        raise ValueError("need 0 <= s < t")
    cd = spec.resolved_cd()
    p, beta = spec.exponents.p, spec.exponents.beta

    def rhs(base):
        W0 = base ** (1.0 / p)
        A = coeff_A(cd, spec.s, spec.t)
        J = j_measure(cd, spec.s, spec.t)
        return A**beta * W0**beta + J**beta, dict(coeff_A=A, j_mass=J, W0=W0)

    return _transport_report(spec, (spec.s, spec.t), PthPowerDistance(p),
                             lambda c: c ** (beta / p), rhs)


def check_swc(spec: CheckSpec) -> VerificationReport:
    """Comparison-function control of W2 at two times."""
    _require(spec, "s", "t")
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
        decay = math.exp(-Ksum)
        coef = -math.expm1(-Ksum) / Ksum if abs(Ksum) > 1e-12 else 1.0
        value = (decay * float(comp_s(kap, W0 / 2.0)) ** 2
                 + cd.N / 2.0 * coef * (math.sqrt(spec.t) - math.sqrt(spec.s)) ** 2)
        return value, dict(W0=W0)

    return _transport_report(spec, (spec.s, spec.t), PthPowerDistance(2.0),
                             _swc_transform(kap), rhs)


def check_wp(spec: CheckSpec) -> VerificationReport:
    """L^p control: W_p(P_s mu0, P_t mu1)^2 against the (K, N+p-2) coefficients."""
    _require(spec, "s", "t")
    if spec.exponents.p < 2:
        raise ValueError("the L^p control requires p >= 2")
    if not 0 <= spec.s < spec.t:
        raise ValueError("need 0 <= s < t")
    p = spec.exponents.p
    cdp = spec.resolved_cd().shifted(p)

    def rhs(base):
        W0 = base ** (1.0 / p)
        A = coeff_A(cdp, spec.s, spec.t)
        J = j_measure(cdp, spec.s, spec.t)
        return A**2 * W0**2 + J**2, dict(coeff_A=A, j_mass=J, W0=W0)

    return _transport_report(spec, (spec.s, spec.t), PthPowerDistance(p),
                             lambda c: c ** (2.0 / p), rhs)


def check_lp2(spec: CheckSpec) -> VerificationReport:
    """Transport-cost contraction for the comparison cost s_{K*}(d/2)^p."""
    _require(spec, "tau1", "tau2")
    p = spec.exponents.p
    if p < 2:
        raise ValueError("requires p >= 2")
    cd = spec.resolved_cd()

    def rhs(base):
        theta = theta_exponent(spec.tau1, spec.tau2, cd, p)
        coef = -math.expm1(-theta) / (2.0 * theta) if abs(theta) > 1e-12 else 0.5
        value = math.exp(-theta) * base ** (2.0 / p) + (cd.N + p - 2.0) * coef * (
            math.sqrt(spec.tau2) - math.sqrt(spec.tau1)) ** 2
        return value, dict(theta=theta, base_cost=base)

    return _transport_report(spec, (spec.tau1, spec.tau2), ComparisonCost(p=p, kstar=cd.k_star),
                             lambda c: c ** (2.0 / p), rhs)


def check_prectl(spec: CheckSpec) -> VerificationReport:
    """Coupled-walk moment control:
    E[d(X1, X2)^p]^{2/p} <= e^{-2K tau*} d(x,y)^2 + (N+p-2) c(K tau*) (sqrt(t2)-sqrt(t1))^2.

    The coupled walk realizes an admissible coupling, so the empirical
    moment dominates W_p^2 and the check is on the stronger quantity.
    """
    _require(spec, "x", "y", "tau1", "tau2")
    p = spec.exponents.p
    if p < 2:
        raise ValueError("requires p >= 2")
    cd = spec.resolved_cd()
    cfg = WalkConfig(k=spec.k, n_trajectories=spec.n_trajectories, seed=spec.seed + 1)
    path = run_coupled(spec.space, spec.x, spec.y, spec.tau1, spec.tau2, cfg)
    vals = path.terminal_distances**p
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(vals.size))
    lhs = mean ** (2.0 / p)
    se_lhs = (2.0 / p) * mean ** (2.0 / p - 1.0) * se if mean > 0 else se
    ts = tau_star(spec.tau1, spec.tau2, cd.K)
    d0 = float(spec.space.distance(np.asarray(spec.x, float), np.asarray(spec.y, float)))
    arg = 2.0 * cd.K * ts
    coef = -math.expm1(-arg) / (cd.K * ts) if abs(arg) > 1e-12 else 2.0
    if not cd.finite:
        raise ValueError("requires finite N")
    rhs = math.exp(-arg) * d0**2 + (cd.N + p - 2.0) * coef * (
        math.sqrt(spec.tau2) - math.sqrt(spec.tau1)) ** 2
    return _base_report(spec, lhs, rhs, se_lhs, 0.0,
                        tau_star=ts, d0=d0, near_cut_events=path.near_cut_events)


def check_wvar_ode(spec: CheckSpec) -> VerificationReport:
    """Differential form of the two-sided control.

    Checks that the forward difference in u of
    s_{K/N}(W2(P^*_{u/lam} mu, P^*_{lam u} nu)/2)^2 stays below
    -K(lam + 1/lam) * (that quantity) + N/2 (lam + 1/lam - 2), and
    reports the residual of the linearized time change against the
    exact geodesic equation theta'' = -(K w^2 / 2N) s_{K/N}(2 theta)
    at h in {1e-2, 1e-3}.
    """
    _require(spec, "t")
    u = spec.t
    du = spec.extra.get("du", 1e-2)
    lam = spec.lam
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    cd = spec.resolved_cd()
    kap = cd.kappa

    # one walk for both u: the difference quotient uses common noise
    u1 = u + du
    g0, g1 = _sampled_estimates(spec, ((u / lam, u * lam), (u1 / lam, u1 * lam)),
                                PthPowerDistance(2.0), _swc_transform(kap))
    deriv = (g1.value - g0.value) / du
    se_deriv = math.hypot(g0.stderr, g1.stderr) / du
    rhs = -cd.K * (lam + 1.0 / lam) * g0.value + cd.N / 2.0 * (lam + 1.0 / lam - 2.0)
    se_rhs = abs(cd.K) * (lam + 1.0 / lam) * g0.stderr

    # ODE residual of the linearized time change
    w = _exact_base(spec, PthPowerDistance(2.0)) ** 0.5
    residuals = {}
    for h in (1e-2, 1e-3):
        _, theta_h, _ = swc_reparam(w, lam, h, cd)
        rr = np.linspace(0.05, 0.95, 31)
        fd = 1e-4
        th = np.array([theta_h(r) for r in rr])
        d2 = np.array([
            (theta_h(r + fd) - 2 * theta_h(r) + theta_h(r - fd)) / fd**2 for r in rr])
        ode_rhs = -(cd.K * w**2 / (2.0 * cd.N)) * comp_s(kap, 2 * th)
        residuals[h] = float(np.max(np.abs(d2 - ode_rhs)))
    ratio = residuals[1e-2] / residuals[1e-3] if residuals[1e-3] > 0 else math.inf
    return _base_report(spec, deriv, rhs, se_deriv, se_rhs,
                        u=u, du=du, lam=lam, w=w,
                        theta_ode_residuals=residuals, theta_ode_ratio=ratio)


# ---------------------------------------------------------------------------
# gradient-side checks (deterministic backends)


def _bl_rhs_coef(cd: CurvatureDimension, p: float, t: float) -> float:
    """(1 - e^{-2Kt}) / ((N + p - 2) K), with its K -> 0 and N = inf limits."""
    if not cd.finite:
        return 0.0
    denom = cd.N + p - 2.0
    if abs(cd.K) < 1e-12:
        return 2.0 * t / denom
    return -math.expm1(-2.0 * cd.K * t) / (denom * cd.K)


def check_bl(spec: CheckSpec) -> VerificationReport:
    """Pointwise gradient estimate on a deterministic backend:
    |grad P_t f|^2 <= e^{-2Kt} P_t(|grad f|^{p*})^{2/p*} - coef * (L P_t f)^2."""
    _require(spec, "t")
    cd = spec.resolved_cd()
    ex = spec.exponents
    pstar = ex.p_star
    f, grad_f = _resolve_field(spec)
    grad_norm = _resolve_grad_norm(spec, f, grad_f)
    backend = default_backend(spec.space, spec.backend_modes)
    grid = spec.extra.get("grid")
    if grid is None:
        grid = default_grid(spec.space, spec.grid_n)
    coef = _bl_rhs_coef(cd, ex.p, spec.t)
    g_pow = lambda pts: np.asarray(grad_norm(pts), dtype=float) ** pstar

    lhs_all = np.empty(grid.shape[0])
    rhs_all = np.empty(grid.shape[0])
    for i, pt in enumerate(grid):
        lhs_all[i] = grad_heat(spec.space, backend, f, spec.t, pt, h=spec.h).value ** 2
        pt_term = heat_apply(spec.space, backend, g_pow, spec.t, pt).value
        gen = generator_heat(spec.space, backend, f, spec.t, pt, dt=spec.dt).value
        rhs_all[i] = math.exp(-2 * cd.K * spec.t) * max(pt_term, 0.0) ** (2.0 / pstar) \
            - coef * gen**2
    margins = rhs_all - lhs_all
    i_min = int(np.argmin(margins))
    return _base_report(spec, lhs_all[i_min], rhs_all[i_min], 0.0, 0.0,
                        worst_index=i_min, grid_points=grid.shape[0],
                        min_margin=float(margins[i_min]),
                        max_margin=float(margins.max()))


def check_bl_int(spec: CheckSpec) -> VerificationReport:
    """Integrated gradient estimate along a geodesic:
    |P_t f(gamma(1)) - P_s f(gamma(0))| bounded by the mixed space-time integral."""
    _require(spec, "x", "y", "s", "t")
    if not 0 < spec.s <= spec.t:
        raise ValueError("need 0 < s <= t")
    cd = spec.resolved_cd()
    ex = spec.exponents
    beta, pstar = ex.beta, ex.p_star
    f, grad_f = _resolve_field(spec)
    grad_norm = _resolve_grad_norm(spec, f, grad_f)
    backend = default_backend(spec.space, spec.backend_modes)
    fam = bakry_ledoux(cd)
    x = np.asarray(spec.x, float)
    y = np.asarray(spec.y, float)
    d = float(spec.space.distance(x, y))
    g_pow = lambda pts: np.asarray(grad_norm(pts), dtype=float) ** pstar

    lhs = abs(heat_apply(spec.space, backend, f, spec.t, y).value
              - heat_apply(spec.space, backend, f, spec.s, x).value)
    n = 128
    rs = np.linspace(0.0, 1.0, n + 1)
    vals = np.empty(n + 1)
    for i, r in enumerate(rs):
        xi = r * spec.t + (1 - r) * spec.s
        gamma_r = spec.space.geodesic_point(x, y, r)
        mix = ((fam.a(xi) * d) ** beta + ((spec.t - spec.s) / fam.b(xi)) ** beta) ** (1.0 / beta)
        pt = heat_apply(spec.space, backend, g_pow, xi, gamma_r).value
        vals[i] = mix * max(pt, 0.0) ** (1.0 / pstar)
    from scipy.integrate import simpson

    rhs = float(simpson(vals, x=rs))
    return _base_report(spec, lhs, rhs, 0.0, 0.0, geodesic_length=d)


def check_gamma2(spec: CheckSpec) -> VerificationReport:
    """Pointwise curvature-dimension condition with the p-dependent
    sharpening, by nested finite differences on 1-D reductions.

    (|grad f|^2 + delta)(Gamma2(f) - K |grad f|^2 - (Lf)^2/(N+p-2))
      >= (p-2)/(4(p-1)) |grad |grad f|^2|^2
    on Euclidean lines, circles, and zonal fields on 2-spheres.
    """
    cd = spec.resolved_cd()
    p, delta, h = spec.exponents.p, spec.delta, spec.h
    space = spec.space

    if isinstance(space, Sphere) and space.dim == 2:
        f, _ = _resolve_field(spec)
        rho = space.radius

        def F(theta):
            pts = rho * np.stack(
                [np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)
            return np.asarray(f(pts), dtype=float)

        def lap(g):  # spherical zonal Laplacian in arclength u = rho*theta
            def out(th):
                gpp = (g(th + h) - 2 * g(th) + g(th - h)) / h**2
                gp = (g(th + h) - g(th - h)) / (2 * h)
                return (gpp + gp / np.tan(th)) / rho**2
            return out

        def deriv(g):  # arclength derivative
            return lambda th: (g(th + h) - g(th - h)) / (2 * h) / rho

        thetas = np.linspace(0.3, math.pi - 0.3, spec.grid_n)
    elif (isinstance(space, Sphere) and space.dim == 1) or \
            (isinstance(space, Euclidean) and space.dim == 1 and not isinstance(space, EuclideanOU)):
        f, _ = _resolve_field(spec)
        if isinstance(space, Sphere):
            rho = space.radius

            def F(theta):
                pts = rho * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
                return np.asarray(f(pts), dtype=float)

            scale = rho
            thetas = np.linspace(0.0, 2 * math.pi, spec.grid_n, endpoint=False)
        else:
            F = lambda xs: np.asarray(f(xs[..., None]), dtype=float)
            scale = 1.0
            thetas = np.linspace(-2.0, 2.0, spec.grid_n)

        def lap(g):
            return lambda th: (g(th + h) - 2 * g(th) + g(th - h)) / h**2 / scale**2

        def deriv(g):
            return lambda th: (g(th + h) - g(th - h)) / (2 * h) / scale
    else:
        raise ValueError("pointwise condition check supports E^1, circles and zonal 2-spheres")

    Fp = deriv(F)
    grad2 = lambda th: Fp(th) ** 2
    lap_f = lap(F)
    gamma2 = lambda th: 0.5 * lap(grad2)(th) - Fp(th) * deriv(lap_f)(th)
    grad_grad2 = lambda th: np.abs(deriv(grad2)(th))

    if not cd.finite:
        dim_term = lambda th: 0.0
    else:
        dim_term = lambda th: lap_f(th) ** 2 / (cd.N + p - 2.0)
    lhs_fun = lambda th: (grad2(th) + delta) * (
        gamma2(th) - cd.K * grad2(th) - dim_term(th))
    rhs_fun = lambda th: (p - 2.0) / (4.0 * (p - 1.0)) * grad_grad2(th) ** 2

    lv = lhs_fun(thetas)
    rv = rhs_fun(thetas)
    margins = lv - rv
    i = int(np.argmin(margins))
    # report the condition as rhs <= lhs: margin = lhs - rhs
    return _base_report(spec, float(rv[i]), float(lv[i]), 0.0, 0.0,
                        grid_points=len(thetas), min_margin=float(margins[i]))


def check_laplacian_comparison(spec: CheckSpec) -> VerificationReport:
    """Generator of the distance function against N / t_{K/N}(d)."""
    _require(spec, "x", "y")
    cd = spec.resolved_cd()
    space = spec.space
    x = np.asarray(spec.x, float)
    y = np.asarray(spec.y, float)
    d = float(space.distance(x, y))
    if d <= 0:
        raise ValueError("need x != y")
    if isinstance(space, Sphere) and d > 0.9 * space.diameter:
        raise ValueError("pair too close to the cut locus")
    h = spec.h
    g = lambda pts: space.distance(np.broadcast_to(y, np.shape(pts)), pts)
    frame = space.frame(x)
    lap = 0.0
    grad = np.zeros(space.dim)
    for i in range(space.dim):
        e = frame[i]
        gp = float(g(space.exp_map(x, h * e)))
        gm = float(g(space.exp_map(x, -h * e)))
        lap += (gp - 2 * d + gm) / h**2
        grad[i] = (gp - gm) / (2 * h)
    Z = space.drift(x)
    drift_term = float(sum(float(Z @ frame[i]) * grad[i] for i in range(space.dim)))
    lhs = lap + drift_term
    if not cd.finite:
        raise ValueError("comparison requires finite N")
    rhs = cd.N / float(comp_t(cd.kappa, d))
    closed = (space.dim - 1) / float(comp_t(_sectional(space), d)) if space.dim > 1 else 0.0
    return _base_report(spec, lhs, rhs, 0.0, 0.0, distance=d, closed_form_lhs=closed)


def _sectional(space: ModelSpace) -> float:
    if isinstance(space, Sphere):
        return 1.0 / space.radius**2
    if isinstance(space, Hyperbolic):
        return space.curvature
    return 0.0


def check_mono_app(spec: CheckSpec) -> VerificationReport:
    """Monotonicity under the semigroup:
    P_t((g + delta)^r)^{1/r} - delta >= P_t(g^r)^{1/r} for r in (0,1), g >= 0."""
    _require(spec, "t")
    backend = default_backend(spec.space, spec.backend_modes)
    rng = np.random.default_rng(spec.seed)
    n_cases = spec.extra.get("n_cases", 100)
    grid = default_grid(spec.space, 8)
    worst = math.inf
    worst_lhs = worst_rhs = math.nan
    for _ in range(n_cases):
        r = rng.uniform(0.05, 0.95)
        delta = rng.uniform(0.01, 2.0)
        a0, a1, a2 = rng.uniform(0.0, 2.0, size=3)

        if isinstance(spec.space, Sphere) and spec.space.dim == 2:
            g = lambda p: a0 + 0.1 + a1 * (1 + p[..., 2] / spec.space.radius) + \
                a2 * (p[..., 2] / spec.space.radius) ** 2
        elif isinstance(spec.space, Sphere) and spec.space.dim == 1:
            g = lambda p: a0 + 0.1 + a1 * (1 + p[..., 1] / spec.space.radius) + \
                a2 * (p[..., 0] / spec.space.radius) ** 2
        else:
            g = lambda p: a0 + 0.1 + a1 * np.exp(-0.5 * np.sum(p**2, -1)) + \
                a2 * np.tanh(p[..., 0]) ** 2

        x = grid[int(rng.integers(0, grid.shape[0]))]
        lifted = heat_apply(spec.space, backend, lambda p: (g(p) + delta) ** r,
                            spec.t, x).value ** (1.0 / r) - delta
        plain = heat_apply(spec.space, backend, lambda p: g(p) ** r,
                           spec.t, x).value ** (1.0 / r)
        if lifted - plain < worst:
            worst = lifted - plain
            worst_lhs, worst_rhs = plain, lifted
    return _base_report(spec, worst_lhs, worst_rhs, 0.0, 0.0, n_cases=n_cases)


# ---------------------------------------------------------------------------
# registry and suite runner


CHECKS: dict[str, Callable[[CheckSpec], VerificationReport]] = {
    "w2_control": check_w2_control,
    "swc": check_swc,
    "wp": check_wp,
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


def run_check(spec: CheckSpec) -> VerificationReport:
    if spec.check_id not in CHECKS:
        raise KeyError(f"unknown inequality id {spec.check_id!r}")
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
