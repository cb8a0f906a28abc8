"""Closed-form comparison functions and contraction coefficients.

Everything in this module is a pure function of curvature/dimension
parameters: the generalized trigonometric functions s_k, c_k, t_k that
solve u'' + k*u = 0, the coefficient measure J_N(dr) = b(r)^{-1} dr with
b(r)^2 = (e^{2Kr} - 1)/(NK), the distance-contraction coefficient that
multiplies the Wasserstein term in the space-time control inequality,
the index-form bound Psi and its rearranged upper bound, and the two
explicit space-time reparametrizations used to optimize the variational
transport bound.

s_k and c_k take one path for numbers and arrays, with no series near
k u^2 = 0 (the direct forms stay within 3 ulp of one there while
sqrt(|k|) u is a normal float); a number or a 0-d array gives a float.

J_N and everything built on it (j_measure, the exp-weighted mass,
coeff_A, the Bakry-Ledoux xi_inverse and swc_reparam's l and xi_h) go
through one pair: the J-coordinate l(r) = J_N([0, r]) and its inverse,
in half-angle forms that need no series or threshold near K = 0.
decay_mean is the (1 - e^{-x})/x of the checks' contraction coefficients,
and _cumulative_simpson the package's one Simpson rule.

Sign conventions: K is a Ricci-type lower bound (any sign), N an upper
dimension bound in (0, inf].  kappa arguments are per-function curvature
values such as K/N or K* = K/(N-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "CurvatureDimension",
    "ExponentPair",
    "CoefficientFamily",
    "bakry_ledoux",
    "TimeReparam",
    "comp_s",
    "comp_s_inverse",
    "comp_c",
    "comp_t",
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


def _check_domain(kappa: float, u):
    """u as a float64 scalar (0-d input) or array, checked to lie in
    [0, pi/sqrt(kappa)] (in [0, inf) for kappa <= 0)."""
    u = np.asarray(u, dtype=float)[()]
    # a scalar is its own bound: reducing a 0-d array costs more than the rest
    lo, hi = (u, u) if u.ndim == 0 else (u.min(initial=0.0), u.max(initial=0.0))
    if lo < -1e-15:
        raise ValueError("comparison functions are defined for u >= 0")
    if kappa > 0 and hi > math.pi / math.sqrt(kappa) * (1 + 1e-12):
        raise ValueError(
            f"u exceeds pi/sqrt(kappa) = {math.pi / math.sqrt(kappa):.6g} "
            f"for kappa = {kappa:.6g}")
    return u


def comp_s(kappa: float, u):
    """sin(sqrt(k) u)/sqrt(k), continued to sinh for k < 0 and to u at k = 0."""
    u = _check_domain(kappa, u)
    if kappa > 0:
        rk = math.sqrt(kappa)
        s = np.sin(rk * u) / rk
    elif kappa < 0:
        rk = math.sqrt(-kappa)
        s = np.sinh(rk * u) / rk
    else:
        s = u.copy()  # not a view of the caller's array
    return s if u.ndim else float(s)


def comp_s_inverse(kappa: float, y: float) -> float:
    """The u in [0, pi/(2 sqrt(k))] (any u >= 0 for k <= 0) with comp_s(kappa, u) = y."""
    if kappa > 0:
        return math.asin(math.sqrt(kappa) * y) / math.sqrt(kappa)
    if kappa < 0:
        return math.asinh(math.sqrt(-kappa) * y) / math.sqrt(-kappa)
    return y


def comp_c(kappa: float, u):
    """cos(sqrt(k) u), continued to cosh for k < 0 and to 1 at k = 0."""
    u = _check_domain(kappa, u)
    if kappa > 0:
        c = np.cos(math.sqrt(kappa) * u)
    elif kappa < 0:
        c = np.cosh(math.sqrt(-kappa) * u)
    else:
        c = np.ones_like(u)
    return c if u.ndim else float(c)


def comp_t(kappa: float, u):
    """comp_s / comp_c; requires comp_c(kappa, u) != 0."""
    c = comp_c(kappa, u)
    if np.any(np.abs(np.asarray(c)) < 1e-14):
        raise ValueError("comp_t undefined where comp_c vanishes")
    return comp_s(kappa, u) / c


def decay_mean(x: float) -> float:
    """(1 - e^{-x})/x, the mean of e^{-xu} over u in [0, 1]; 1 at x = 0.

    expm1 keeps its relative accuracy for tiny x, so no series is needed.
    """
    return -math.expm1(-x) / x if x else 1.0


# ---------------------------------------------------------------------------
# coefficient measure J_N and the contraction coefficient


def _j_coordinate(K: float, N: float, r: float) -> float:
    """l(r) = J_N([0, r]) = 2 s_{K/N}^{-1}(u), u = sqrt(N r (1 - e^{-Kr}) / (2Kr)).

    The half-angle form of sqrt(N/K) arccos(e^{-Kr}) for K > 0, sqrt(2Nr)
    at K = 0 and sqrt(N/-K) arccosh(e^{-Kr}) for K < 0; nothing in it
    cancels as K -> 0.
    """
    return 2.0 * comp_s_inverse(K / N, math.sqrt(N * r * decay_mean(K * r) / 2.0))


def _j_coordinate_inverse(K: float, N: float, y: float) -> float:
    """l^{-1}(y) = (2/N) S^2 log1p(x)/x with S = s_{K/N}(y/2), x = -2(K/N)S^2.

    x = e^{-Kr} - 1, so this is -log(1 + x)/K; it is y^2/(2N) at x = 0.
    """
    S = comp_s(K / N, y / 2.0)
    x = -2.0 * (K / N) * S * S
    if x <= -1.0:
        raise ValueError(f"{y:.6g} lies beyond the J-coordinate of r = inf")
    return 2.0 / N * S * S * (math.log1p(x) / x if x else 1.0)


def j_measure(cd: CurvatureDimension, s: float, t: float) -> float:
    """Mass J_N([s, t]) = l(t) - l(s) of the coefficient measure
    J_N(dr) = sqrt(NK/(e^{2Kr} - 1)) dr, l its J-coordinate."""
    if not (0.0 <= s <= t):
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
    if not cd.finite:
        raise ValueError("j_measure requires finite N")
    return _j_coordinate(cd.K, cd.N, t) - _j_coordinate(cd.K, cd.N, s)


def exp_weighted_j(cd: CurvatureDimension, s: float, t: float) -> float:
    """The weighted mass  int_s^t e^{Kr} J_N(dr).

    e^{Kr} times the J_N density at K is the J_N density at -K, so this
    is J_N([s, t]) at (-K, N).
    """
    return j_measure(CurvatureDimension(-cd.K, cd.N), s, t)


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
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
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
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
        raise ValueError("psi_upper_bound is defined on r > 0")
    second = (cd.N - 1.0) * (math.sqrt(tau2) - math.sqrt(tau1)) ** 2 / r
    if cd.K >= 0:
        first = -math.sqrt(tau1 * tau2) * cd.K * r
    else:
        first = -(tau1 + tau2) * cd.K * r / 2.0
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
    (b integrable at 0).  j_mass and the exp-weighted integral default to
    adaptive quadrature and xi_inverse to bisection; the Bakry-Ledoux
    instance overrides all three with closed forms.
    """

    a: Callable[[float], float]
    b: Callable[[float], float]
    name: str = "custom"

    def j_mass(self, s: float, t: float) -> float:
        if not (0.0 <= s <= t):
            raise ValueError("need 0 <= s <= t")
        if s == t:
            return 0.0
        from scipy.integrate import quad

        val, err = quad(lambda r: 1.0 / self.b(r), s, t, epsabs=1e-12, epsrel=1e-12)
        if not math.isfinite(val):
            raise ValueError("J([s,t]) is not finite for this family")
        return val

    def weighted_mass(self, s: float, t: float) -> float:
        """int_s^t J(dr)/a(r)."""
        if s == t:
            return 0.0
        from scipy.integrate import quad

        val, _ = quad(
            lambda r: 1.0 / (self.a(r) * self.b(r)), s, t, epsabs=1e-12, epsrel=1e-12
        )
        return val

    def xi_inverse(self, s: float, value: float) -> float:
        """Solve J([s, x]) = value for x by bisection."""
        lo, hi = s, s + 1.0
        while self.j_mass(s, hi) < value:
            lo, hi = hi, 2.0 * hi - s
        for _ in range(80):  # bisection to ~(hi - lo) * 2^-80
            mid = 0.5 * (lo + hi)
            if self.j_mass(s, mid) < value:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


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
        """Solve J([s, x]) = value for x: x = l^{-1}(l(s) + value)."""
        if value <= 0:  # exactly s, where l^{-1}(l(s)) may round below s
            return s
        K, N = self.cd.K, self.cd.N
        return _j_coordinate_inverse(K, N, _j_coordinate(K, N, s) + value)


def bakry_ledoux(cd: CurvatureDimension) -> CoefficientFamily:
    """The canonical family a(t)=e^{-Kt}, b(t)=sqrt((e^{2Kt}-1)/(NK))."""
    return _BakryLedouxFamily(cd)


@dataclass
class TimeReparam:
    """A C^1-increasing surjective pair xi: [0,1]->[s,t], eta: [0,1]->[0,1],
    with their derivatives xi_prime and eta_prime."""

    xi: Callable
    eta: Callable
    s: float
    t: float
    xi_prime: Callable
    eta_prime: Callable

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
    a(xi) eta' is the contraction coefficient).  xi is the family's
    xi_inverse: closed-form for the Bakry-Ledoux family, bisection
    otherwise.
    """
    if not (0.0 <= s < t):
        raise ValueError("need 0 <= s < t")
    J = family.j_mass(s, t)
    G = family.weighted_mass(s, t)

    def xi(r):
        return family.xi_inverse(s, J * float(r))

    def eta(r):
        return family.weighted_mass(s, xi(r)) / G

    def xi_prime(r):
        return J * family.b(xi(r))

    def eta_prime(r):
        return J / (G * family.a(xi(r)))

    return TimeReparam(xi=xi, eta=eta, s=s, t=t, xi_prime=xi_prime, eta_prime=eta_prime)


def swc_reparam(w: float, lam: float, h: float, cd: CurvatureDimension):
    """Linearized optimal time change for the comparison-function control.

    Returns (l, theta_h, xi_h).  l(r) = J_N([0, r]) is the J-mass
    coordinate, theta_h interpolates l(lambda h) and l(h/lambda) with
    comparison weights in the distance w, and xi_h = l^{-1}(theta_h) maps [0, 1]
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

    def l(r):
        return _j_coordinate(K, N, r)

    la, lb = l(lam * h), l(h / lam)

    if K != 0 and w != 0:
        sw = comp_s(kap, w)

        def theta_h(r):
            return (la * comp_s(kap, w * r) + lb * comp_s(kap, w * (1.0 - r))) / sw
    else:
        def theta_h(r):
            return la * r + lb * (1.0 - r)

    def xi_h(r):
        return _j_coordinate_inverse(K, N, theta_h(r))

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
    composite Simpson on quadrature_n intervals, made even.  With the duality
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
    xp = np.asarray([reparam.xi_prime(v) for v in r], dtype=float)
    ep = np.asarray([reparam.eta_prime(v) for v in r], dtype=float)
    av = np.asarray([family.a(v) for v in xr], dtype=float)
    bv = np.asarray([family.b(v) for v in xr], dtype=float)
    vals = (av * W * ep) ** beta + (xp / bv) ** beta
    if not np.all(np.isfinite(vals)):
        raise ValueError("quadrature failure: non-finite integrand")
    return float(_cumulative_simpson(vals, r)[-1])


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The integrals of the samples y from x[0] to each increasing node x,
    by scipy.integrate.cumulative_simpson's unequal-interval rule with
    initial=0 (bit for bit the same values): interval i is integrated
    under the parabola through its two nodes and the next node when i is
    even, and the previous node when i is odd or the last.  So over an even
    number of intervals the last value is the composite Simpson sum."""

    def first_intervals(y, dx):  # over [x_i, x_{i+1}], parabola through x_i..x_{i+2}
        x21, x32 = dx[:-1], dx[1:]
        x21_x31 = x21 / (x21 + x32)
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                          - x21x21_x31x32 * y[2:])

    dx = np.diff(x)
    ahead = first_intervals(y, dx)
    behind = first_intervals(y[::-1], dx[::-1])[::-1]
    pieces = np.empty(len(dx))
    pieces[:-1:2] = ahead[::2]
    pieces[1::2] = behind[::2]
    pieces[-1] = behind[-1]
    return np.concatenate(([0.0], np.cumsum(pieces)))
