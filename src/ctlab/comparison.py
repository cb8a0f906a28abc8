"""Closed-form comparison functions and contraction coefficients.

Everything in this module is a pure function of curvature/dimension
parameters: the generalized trigonometric functions s_k, c_k, t_k that
solve u'' + k*u = 0, the coefficient measure J_N(dr) = b(r)^{-1} dr with
b(r)^2 = (e^{2Kr} - 1)/(NK), the distance-contraction coefficient that
multiplies the Wasserstein term in the space-time control inequality,
the index-form bound Psi and its rearranged upper bound, and the two
explicit space-time reparametrizations used to optimize the variational
transport bound.

Sign conventions: K is a Ricci-type lower bound (any sign), N an upper
dimension bound in (0, inf].  kappa arguments are per-function curvature
values such as K/N or K* = K/(N-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

__all__ = [
    "CurvatureDimension",
    "ExponentPair",
    "CoefficientFamily",
    "bakry_ledoux",
    "TimeReparam",
    "comp_s",
    "comp_c",
    "comp_t",
    "inv_comp_c",
    "j_measure",
    "exp_weighted_j",
    "coeff_A",
    "psi",
    "psi_upper_bound",
    "tau_star",
    "theta_exponent",
    "duality_reparam",
    "swc_reparam",
    "wc_var_rhs",
]

# Below this value of |kappa| * u^2 the trig/hyperbolic branches lose
# digits to cancellation; switch to a 4-term Taylor series instead.
_TAYLOR_THRESHOLD = 1e-8


# ---------------------------------------------------------------------------
# parameter bundles


@dataclass(frozen=True)
class CurvatureDimension:
    """A (K, N) curvature-dimension parameter pair.

    K is the curvature lower bound (units 1/time), N the upper dimension
    bound; N = math.inf is allowed and makes every N-dependent correction
    term vanish.
    """

    K: float
    N: float

    def __post_init__(self):
        if not self.N > 0:
            raise ValueError(f"dimension bound N must be positive, got {self.N}")

    @property
    def finite(self) -> bool:
        return math.isfinite(self.N)

    @property
    def kappa(self) -> float:
        """K/N, the curvature of the comparison functions in the sWc bound."""
        return 0.0 if not self.finite else self.K / self.N

    @property
    def k_star(self) -> float:
        """K/(N-1), the comparison curvature of the index-form bound."""
        if not self.finite:
            return 0.0
        if self.N <= 1:
            raise ValueError("K/(N-1) requires N > 1")
        return self.K / (self.N - 1.0)

    def shifted(self, p: float) -> "CurvatureDimension":
        """The (K, N+p-2) pair entering the L^p estimates."""
        if not self.finite:
            return self
        return CurvatureDimension(self.K, self.N + p - 2.0)


@dataclass(frozen=True)
class ExponentPair:
    """Hoelder-conjugate exponents (p, p*) and (beta, beta*) with beta <= p."""

    p: float
    beta: float

    def __post_init__(self):
        if not (1.0 < self.p < math.inf and 1.0 < self.beta < math.inf):
            raise ValueError("exponents must lie in (1, inf)")
        if self.beta > self.p + 1e-12:
            raise ValueError(f"beta={self.beta} must not exceed p={self.p}")

    @property
    def p_star(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def beta_star(self) -> float:
        return self.beta / (self.beta - 1.0)

    @classmethod
    def quadratic(cls) -> "ExponentPair":
        return cls(p=2.0, beta=2.0)


# ---------------------------------------------------------------------------
# comparison functions


def _check_domain(kappa: float, u) -> None:
    u = np.asarray(u, dtype=float)
    if np.any(u < -1e-15):
        raise ValueError("comparison functions are defined for u >= 0")
    if kappa > 0:
        bound = math.pi / math.sqrt(kappa)
        if np.any(u > bound * (1 + 1e-12)):
            raise ValueError(
                f"u exceeds pi/sqrt(kappa) = {bound:.6g} for kappa = {kappa:.6g}"
            )


def _check_domain_scalar(kappa: float, u: float) -> None:
    if u < -1e-15:
        raise ValueError("comparison functions are defined for u >= 0")
    if kappa > 0 and u * math.sqrt(kappa) > math.pi * (1 + 1e-12):
        raise ValueError(
            f"u exceeds pi/sqrt(kappa) = {math.pi / math.sqrt(kappa):.6g} "
            f"for kappa = {kappa:.6g}")


def _comp_s_scalar(kappa: float, u: float) -> float:
    _check_domain_scalar(kappa, u)
    x = kappa * u * u
    if abs(x) < _TAYLOR_THRESHOLD:
        return u * (1.0 - x / 6.0 + x * x / 120.0 - x**3 / 5040.0)
    if kappa > 0:
        rk = math.sqrt(kappa)
        return math.sin(rk * u) / rk
    rk = math.sqrt(-kappa)
    return math.sinh(rk * u) / rk


def _comp_c_scalar(kappa: float, u: float) -> float:
    _check_domain_scalar(kappa, u)
    x = kappa * u * u
    if abs(x) < _TAYLOR_THRESHOLD:
        return 1.0 - x / 2.0 + x * x / 24.0 - x**3 / 720.0
    if kappa > 0:
        return math.cos(math.sqrt(kappa) * u)
    return math.cosh(math.sqrt(-kappa) * u)


def comp_s(kappa: float, u):
    """sin(sqrt(k) u)/sqrt(k), continued to sinh for k < 0 and to u at k = 0."""
    if isinstance(u, float) or isinstance(u, int):
        return _comp_s_scalar(kappa, float(u))
    _check_domain(kappa, u)
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    x = kappa * u * u
    out = np.empty_like(u)
    small = np.abs(x) < _TAYLOR_THRESHOLD
    xs = x[small]
    # u * (1 - x/6 + x^2/120 - x^3/5040), x = kappa u^2
    out[small] = u[small] * (1.0 - xs / 6.0 + xs * xs / 120.0 - xs**3 / 5040.0)
    big = ~small
    if kappa > 0:
        rk = math.sqrt(kappa)
        out[big] = np.sin(rk * u[big]) / rk
    elif kappa < 0:
        rk = math.sqrt(-kappa)
        out[big] = np.sinh(rk * u[big]) / rk
    return float(out[0]) if scalar else out


def comp_c(kappa: float, u):
    """cos(sqrt(k) u), continued to cosh for k < 0 and to 1 at k = 0."""
    if isinstance(u, float) or isinstance(u, int):
        return _comp_c_scalar(kappa, float(u))
    _check_domain(kappa, u)
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    x = kappa * u * u
    out = np.empty_like(u)
    small = np.abs(x) < _TAYLOR_THRESHOLD
    xs = x[small]
    out[small] = 1.0 - xs / 2.0 + xs * xs / 24.0 - xs**3 / 720.0
    big = ~small
    if kappa > 0:
        out[big] = np.cos(math.sqrt(kappa) * u[big])
    elif kappa < 0:
        out[big] = np.cosh(math.sqrt(-kappa) * u[big])
    return float(out[0]) if scalar else out


def comp_t(kappa: float, u):
    """comp_s / comp_c; requires comp_c(kappa, u) != 0."""
    c = comp_c(kappa, u)
    if np.any(np.abs(np.asarray(c)) < 1e-14):
        raise ValueError("comp_t undefined where comp_c vanishes")
    return comp_s(kappa, u) / c


def inv_comp_c(kappa: float, y) -> float:
    """Inverse of comp_c on its monotone branch (kappa != 0)."""
    if kappa > 0:
        y = np.clip(y, -1.0, 1.0)
        return np.arccos(y) / math.sqrt(kappa)
    if kappa < 0:
        y = np.maximum(y, 1.0)
        return np.arccosh(y) / math.sqrt(-kappa)
    raise ValueError("inv_comp_c requires kappa != 0")


# ---------------------------------------------------------------------------
# coefficient measure J_N and the contraction coefficient

# For |K| t below this, the arccos/arccosh branches cancel badly; a
# 5-term series in K (exact to O((Kt)^5)) takes over.
_J_SERIES_THRESHOLD = 1e-3


def _j_series(K: float, N: float, s: float, t: float) -> float:
    # sqrt(2N) * sum_q c_q K^q (t^{q+1/2} - s^{q+1/2}) from the expansion
    # of sqrt(w/(e^w - 1)) at w = 2Kr
    d = lambda q: t**q - s**q
    return math.sqrt(2.0 * N) * (
        d(0.5)
        - K * d(1.5) / 6.0
        + K**2 * d(2.5) / 120.0
        + K**3 * d(3.5) / 336.0
        - K**4 * d(4.5) / 5760.0
    )


def j_measure(cd: CurvatureDimension, s: float, t: float) -> float:
    """Mass J_N([s, t]) of the coefficient measure, by closed form.

    J_N(dr) = sqrt(NK/(e^{2Kr} - 1)) dr; the antiderivative is
    sqrt(N/K) arccos(e^{-Kr}) for K > 0, sqrt(2Nr) for K = 0 and
    sqrt(N/-K) arccosh(e^{-Kr}) for K < 0.  Additive over adjacent
    intervals and continuous across K = 0.
    """
    if not (0.0 <= s <= t):
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
    if not cd.finite:
        raise ValueError("j_measure requires finite N")
    K, N = cd.K, cd.N
    if abs(K) * t < _J_SERIES_THRESHOLD:
        return _j_series(K, N, s, t)
    if K > 0:
        return math.sqrt(N / K) * (
            math.acos(math.exp(-K * t)) - math.acos(math.exp(-K * s))
        )
    return math.sqrt(N / -K) * (
        math.acosh(math.exp(-K * t)) - math.acosh(math.exp(-K * s))
    )


def exp_weighted_j(cd: CurvatureDimension, s: float, t: float) -> float:
    """The weighted mass  int_s^t e^{Kr} J_N(dr), by closed form.

    Antiderivatives: sqrt(N/K) arccosh(e^{Kr}) for K > 0 and
    -sqrt(N/-K) arcsin(e^{Kr}) for K < 0; equals J_N([s,t]) at K = 0.
    """
    if not (0.0 <= s <= t):
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
    if not cd.finite:
        raise ValueError("exp_weighted_j requires finite N")
    K, N = cd.K, cd.N
    if abs(K) * t < _J_SERIES_THRESHOLD:
        # e^{Kr} times the J_N density at K is the J_N density at -K
        return _j_series(-K, N, s, t)
    if K > 0:
        return math.sqrt(N / K) * (
            math.acosh(math.exp(K * t)) - math.acosh(math.exp(K * s))
        )
    return math.sqrt(N / -K) * (
        math.asin(math.exp(K * s)) - math.asin(math.exp(K * t))
    )


def coeff_A(cd: CurvatureDimension, s: float, t: float) -> float:
    """Distance-contraction coefficient of the space-time control.

    A(s, t) = J_N([s,t]) / int_s^t e^{Kr} J_N(dr); its beta-th power
    multiplies W_p(mu0, mu1)^beta on the right-hand side.  As s -> t it
    tends to e^{-Kt}, recovering the single-time contraction.
    """
    if not (0.0 <= s < t):
        raise ValueError(f"need 0 <= s < t, got s={s}, t={t}")
    return j_measure(cd, s, t) / exp_weighted_j(cd, s, t)


# ---------------------------------------------------------------------------
# index-form bound


def psi(tau1: float, tau2: float, cd: CurvatureDimension, r) -> float:
    """Second-variation bound (N-1)[(t1+t2)/t_{K*}(r) - 2 sqrt(t1 t2)/s_{K*}(r)].

    Evaluated as (N-1)[c(r) (sqrt(t2)-sqrt(t1))^2 - 4 sqrt(t1 t2) K* s(r/2)^2] / s(r)
    so that it is finite wherever s_{K*}(r) > 0, including points where c
    vanishes. The half-angle form 1 - c(r) = 2 K* s(r/2)^2 avoids the
    cancellation in (t1+t2) c - 2 sqrt(t1 t2) near K* r^2 = 0, so at K = 0
    psi equals the flat closed form (N-1)(sqrt(t2)-sqrt(t1))^2 / r exactly.
    """
    if tau1 <= 0 or tau2 <= 0:
        raise ValueError("time scales must be positive")
    if cd.N <= 1:
        raise ValueError("psi requires N > 1")
    if isinstance(r, (int, float)):
        if r <= 0:
            raise ValueError("psi is defined on r > 0")
    elif np.any(np.asarray(r, dtype=float) <= 0):
        raise ValueError("psi is defined on r > 0")
    ks = cd.k_star
    s = comp_s(ks, r)
    c = comp_c(ks, r)
    h = comp_s(ks, r / 2.0)
    return (cd.N - 1.0) * (
        c * (math.sqrt(tau2) - math.sqrt(tau1)) ** 2 - 4.0 * math.sqrt(tau1 * tau2) * ks * h * h
    ) / s


def psi_upper_bound(tau1: float, tau2: float, cd: CurvatureDimension, r) -> float:
    """Two-branch elementary upper bound for psi.

    -sqrt(t1 t2) K r + (N-1)(sqrt(t2)-sqrt(t1))^2 / r   for K >= 0,
    -(t1+t2) K r / 2 + the same second term             for K < 0.
    Both branches agree at K = 0.
    """
    if tau1 <= 0 or tau2 <= 0:
        raise ValueError("time scales must be positive")
    if cd.N <= 1:
        raise ValueError("psi_upper_bound requires N > 1")
    if isinstance(r, (int, float)):
        if r <= 0:
            raise ValueError("psi_upper_bound is defined on r > 0")
        r_arr = float(r)
    else:
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr <= 0):
            raise ValueError("psi_upper_bound is defined on r > 0")
    second = (cd.N - 1.0) * (math.sqrt(tau2) - math.sqrt(tau1)) ** 2 / r_arr
    if cd.K >= 0:
        first = -math.sqrt(tau1 * tau2) * cd.K * r_arr
    else:
        first = -(tau1 + tau2) * cd.K * r_arr / 2.0
    return first + second


def tau_star(tau1: float, tau2: float, K: float) -> float:
    """Effective time scale: sqrt(t1 t2) for K >= 0, (t1+t2)/2 for K < 0."""
    if tau1 <= 0 or tau2 <= 0:
        raise ValueError("time scales must be positive")
    return math.sqrt(tau1 * tau2) if K >= 0 else 0.5 * (tau1 + tau2)


def theta_exponent(tau1: float, tau2: float, cd: CurvatureDimension, p: float) -> float:
    """Contraction exponent K(t1+t2) + p K* (sqrt(t2)-sqrt(t1))^2 / 2."""
    if tau1 <= 0 or tau2 <= 0:
        raise ValueError("time scales must be positive")
    return cd.K * (tau1 + tau2) + p * cd.k_star * (math.sqrt(tau2) - math.sqrt(tau1)) ** 2 / 2.0


# ---------------------------------------------------------------------------
# coefficient families and space-time reparametrizations


@dataclass
class CoefficientFamily:
    """A pair of positive coefficient functions (a, b) with J(dx) = dx/b(x).

    a is defined on [0, inf), b on (0, inf); J must be locally finite
    (b integrable at 0).  j_mass and exp-weighted integrals default to
    adaptive quadrature; the Bakry-Ledoux instance overrides them with
    closed forms.
    """

    a: Callable[[float], float]
    b: Callable[[float], float]
    name: str = "custom"

    def j_mass(self, s: float, t: float) -> float:
        if not (0.0 <= s <= t):
            raise ValueError("need 0 <= s <= t")
        if s == t:
            return 0.0
        val, err = quad(lambda r: 1.0 / self.b(r), s, t, epsabs=1e-12, epsrel=1e-12)
        if not math.isfinite(val):
            raise ValueError("J([s,t]) is not finite for this family")
        return val

    def weighted_mass(self, s: float, t: float) -> float:
        """int_s^t J(dr)/a(r)."""
        if s == t:
            return 0.0
        val, _ = quad(
            lambda r: 1.0 / (self.a(r) * self.b(r)), s, t, epsabs=1e-12, epsrel=1e-12
        )
        return val


class _BakryLedouxFamily(CoefficientFamily):
    """a(t) = e^{-Kt}, b(t) = sqrt((e^{2Kt}-1)/(NK)) with closed-form masses."""

    def __init__(self, cd: CurvatureDimension):
        if not cd.finite:
            raise ValueError("the coefficient family requires finite N")
        self.cd = cd
        K, N = cd.K, cd.N

        def a(t):
            return np.exp(-K * np.asarray(t, dtype=float))

        def b(t):
            t = np.asarray(t, dtype=float)
            if K == 0:
                return np.sqrt(2.0 * t / N)
            w = 2.0 * K * t
            # e^{2Kt}-1 via expm1; w/(NK) stays positive for both signs of K
            return np.sqrt(np.expm1(w) / (N * K))

        super().__init__(a=a, b=b, name=f"bakry_ledoux(K={K}, N={N})")

    def j_mass(self, s: float, t: float) -> float:
        return j_measure(self.cd, s, t)

    def weighted_mass(self, s: float, t: float) -> float:
        return exp_weighted_j(self.cd, s, t)

    def xi_inverse(self, s: float, value: float) -> float:
        """Solve J([s, x]) = value for x, in closed form."""
        K, N = self.cd.K, self.cd.N
        if value <= 0:
            return s
        if abs(K) < 1e-14:
            return (math.sqrt(s) + value / math.sqrt(2.0 * N)) ** 2
        if K > 0:
            y = math.cos(value * math.sqrt(K / N) + math.acos(math.exp(-K * s)))
            return -math.log(y) / K
        y = math.cosh(value * math.sqrt(-K / N) + math.acosh(math.exp(-K * s)))
        return -math.log(y) / K


def bakry_ledoux(cd: CurvatureDimension) -> CoefficientFamily:
    """The canonical family a(t)=e^{-Kt}, b(t)=sqrt((e^{2Kt}-1)/(NK))."""
    return _BakryLedouxFamily(cd)


@dataclass
class TimeReparam:
    """A C^1-increasing surjective pair xi: [0,1]->[s,t], eta: [0,1]->[0,1]."""

    xi: Callable
    eta: Callable
    s: float
    t: float
    xi_prime: Optional[Callable] = None
    eta_prime: Optional[Callable] = None

    def validate(self, n: int = 65, tol: float = 1e-9) -> None:
        r = np.linspace(0.0, 1.0, n)
        xr = np.asarray([self.xi(v) for v in r], dtype=float)
        er = np.asarray([self.eta(v) for v in r], dtype=float)
        if abs(xr[0] - self.s) > tol or abs(xr[-1] - self.t) > tol:
            raise ValueError("xi does not map [0,1] onto [s,t]")
        if abs(er[0]) > tol or abs(er[-1] - 1.0) > tol:
            raise ValueError("eta does not map [0,1] onto [0,1]")
        if np.any(np.diff(xr) <= 0) or np.any(np.diff(er) < -tol):
            raise ValueError("reparametrization is not increasing")

    def derivative_residuals(self, family: CoefficientFamily, n: int = 64):
        """Max deviation of xi'/b(xi) and a(xi)eta' from constancy.

        Derivatives are estimated by five-point central differences of
        the callables themselves, so the residual is an independent
        check rather than a restatement of the construction.
        """
        r = np.linspace(0.02, 0.98, n)
        xp = _fd5(self.xi, r)
        ep = _fd5(self.eta, r)
        xr = np.asarray([self.xi(v) for v in r], dtype=float)
        q1 = xp / np.asarray([family.b(v) for v in xr], dtype=float)
        q2 = np.asarray([family.a(v) for v in xr], dtype=float) * ep
        return np.ptp(q1), np.ptp(q2)


def _fd5(f, r: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Five-point central first derivative, O(h^4)."""
    f_ = lambda v: np.asarray([f(x) for x in np.atleast_1d(v)], dtype=float)
    return (
        -f_(r + 2 * h) + 8 * f_(r + h) - 8 * f_(r - h) + f_(r - 2 * h)
    ) / (12 * h)


def duality_reparam(family: CoefficientFamily, s: float, t: float) -> TimeReparam:
    """The reparametrization that turns the variational bound into the
    closed space-time control.

    xi spreads [0,1] uniformly in J-mass (so xi'/b(xi) is constant and
    equals J([s,t])) while eta normalizes the a-weighted speed (so
    a(xi) eta' is the contraction coefficient).  Xi^{-1} is closed-form
    for the Bakry-Ledoux family and solved by bisection otherwise.
    """
    if not (0.0 <= s < t):
        raise ValueError("need 0 <= s < t")
    J = family.j_mass(s, t)
    G = family.weighted_mass(s, t)

    if isinstance(family, _BakryLedouxFamily):
        def xi(r):
            return family.xi_inverse(s, J * float(r))

        def eta(r):
            return family.weighted_mass(s, xi(r)) / G
    else:
        def xi(r):
            target = J * float(r)
            lo, hi = s, t
            for _ in range(80):  # bisection to ~(t-s)*2^-80 < 1e-12
                mid = 0.5 * (lo + hi)
                if family.j_mass(s, mid) < target:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        def eta(r):
            return family.weighted_mass(s, xi(r)) / G

    def xi_prime(r):
        return J * family.b(xi(r))

    def eta_prime(r):
        return J / (G * family.a(xi(r)))

    return TimeReparam(xi=xi, eta=eta, s=s, t=t, xi_prime=xi_prime, eta_prime=eta_prime)


def swc_reparam(w: float, lam: float, h: float, cd: CurvatureDimension):
    """Linearized optimal time change for the comparison-function control.

    Returns (l, theta_h, xi_h).  l(r) is the J-mass coordinate
    (inv_comp_c of e^{-Kr} at curvature K/N, or sqrt(2Nr) at K = 0),
    theta_h interpolates l(lambda h) and l(h/lambda) with comparison
    weights in the distance w, and xi_h = l^{-1}(theta_h) maps [0, 1]
    onto [h/lambda, lambda h].  xi_h is increasing only while the
    weight ratio dominates the curvature factor
    (l(lambda h) c_{K/N}(w) > l(h/lambda) for K > 0 and the mirrored
    condition for K < 0); small h with moderate w stays inside that
    window.
    """
    if w < 0 or lam < 1 or h <= 0:
        raise ValueError("need w >= 0, lambda >= 1, h > 0")
    if not cd.finite:
        raise ValueError("swc_reparam requires finite N")
    K, N = cd.K, cd.N
    kap = cd.kappa

    if K != 0:
        def l(r):
            return inv_comp_c(kap, math.exp(-K * r))
    else:
        def l(r):
            return math.sqrt(2.0 * N * r)

    la, lb = l(lam * h), l(h / lam)

    if K != 0 and w != 0:
        sw = comp_s(kap, w)

        def theta_h(r):
            return (la * comp_s(kap, w * r) + lb * comp_s(kap, w * (1.0 - r))) / sw
    else:
        def theta_h(r):
            return la * r + lb * (1.0 - r)

    if K != 0:
        def xi_h(r):
            c = comp_c(kap, theta_h(r))
            if np.any(np.asarray(c) <= 0):
                raise ValueError("theta_h left the domain of the log branch")
            return -math.log(c) / K
    else:
        def xi_h(r):
            return theta_h(r) ** 2 / (2.0 * N)

    return l, theta_h, xi_h


def wc_var_rhs(
    family: CoefficientFamily,
    reparam: TimeReparam,
    W: float,
    exponents: ExponentPair,
    quadrature_n: int = 256,
) -> float:
    """Right-hand side of the variational Wasserstein bound.

    int_0^1 [ a(xi)^beta W^beta eta'^beta + (xi'/b(xi))^beta ] dr by
    composite Simpson on quadrature_n intervals.  With the duality
    reparametrization this reproduces A^beta W^beta + J^beta exactly;
    any other admissible pair gives some valid (possibly weaker) bound.
    """
    if W < 0:
        raise ValueError("W must be nonnegative")
    if quadrature_n % 2:
        quadrature_n += 1
    beta = exponents.beta
    r = np.linspace(0.0, 1.0, quadrature_n + 1)
    xr = np.asarray([reparam.xi(v) for v in r], dtype=float)
    if reparam.xi_prime is not None:
        xp = np.asarray([reparam.xi_prime(v) for v in r], dtype=float)
    else:
        xp = _fd5(reparam.xi, np.clip(r, 2.5e-3, 1 - 2.5e-3), h=1e-3)
    if reparam.eta_prime is not None:
        ep = np.asarray([reparam.eta_prime(v) for v in r], dtype=float)
    else:
        ep = _fd5(reparam.eta, np.clip(r, 2.5e-3, 1 - 2.5e-3), h=1e-3)
    av = np.asarray([family.a(v) for v in xr], dtype=float)
    bv = np.asarray([family.b(v) for v in xr], dtype=float)
    vals = (av * W * ep) ** beta + (xp / bv) ** beta
    if not np.all(np.isfinite(vals)):
        raise ValueError("quadrature failure: non-finite integrand")
    from scipy.integrate import simpson

    return float(simpson(vals, x=r))
