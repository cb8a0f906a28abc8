"""Optimal transport on empirical measures.

Exact solvers (assignment for uniform equal-size supports, an LP for
general weights), the closed-form Gaussian W2 oracle, and block-averaged estimators
with bootstrap standard errors for Monte Carlo samples.  A multi-block
estimate solves its blocks' assignments concurrently, one solver thread
per available CPU, while the calling thread builds the next cost
matrix; its results are bit-for-bit those of solving the blocks one
after another.  A paired block (row i and column i from one trajectory)
on a flat space whose index pairing a potential certificate proves
optimal skips the solver; curved blocks go to the solver directly.  The
assignment solver is scipy's compiled module scipy.optimize._lsap
(Crouse's shortest augmenting path), loaded from its file on first use
without the scipy.optimize package, which would also load scipy.linalg
and scipy.sparse (verified on scipy 1.17.1); a later import of
scipy.optimize reuses the loaded module.  The same loader, _compiled,
loads walk.coupled_distance_moment's LAPACK, scipy.linalg._flapack,
without the scipy.linalg package.  The LP solver is imported from
scipy.optimize on first use.

Costs are always built from the manifold geodesic distance, never the
chordal embedding distance.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .comparison import comp_c, comp_s
from .geometry import ModelSpace

__all__ = [
    "EmpiricalMeasure",
    "CouplingMatrix",
    "CostSpec",
    "PthPowerDistance",
    "ComparisonCost",
    "SupportSizeError",
    "exact_cost",
    "solve_transport",
    "gaussian_w2",
    "wasserstein",
    "BlockEstimate",
    "power_transform",
    "comparison_transform",
    "block_cost_estimate",
]

MAX_EXACT_SUPPORT = 512
_N_BOOT = 200  # bootstrap resamples behind each block estimate's standard error
# Below 256 points a rejected certificate adds over 5 % to the solve (7 % at 192).
# Certified blocks took 22-33 sweeps at 280 points, 34-45 at 1000, 58-60 at 1999.
_CERTIFY_FROM, _MAX_SWEEPS, _CHUNK = 256, 100, 1 << 15  # _CHUNK: entries per row chunk


class SupportSizeError(ValueError):
    """Raised when a support exceeds the exact-solver cap."""


@dataclass
class EmpiricalMeasure:
    """A weighted point cloud; weights are normalized probabilities."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.points.shape[0],):
            raise ValueError("one weight per point required")
        if np.any(self.weights < -1e-15):
            raise ValueError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")

    @classmethod
    def dirac(cls, point) -> "EmpiricalMeasure":
        return cls(points=np.atleast_2d(np.asarray(point, float)), weights=np.array([1.0]))

    @classmethod
    def uniform(cls, points) -> "EmpiricalMeasure":
        points = np.atleast_2d(np.asarray(points, float))
        n = points.shape[0]
        return cls(points=points, weights=np.full(n, 1.0 / n))

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass
class CouplingMatrix:
    """A dense transport plan with its prescribed marginals."""

    matrix: np.ndarray
    source_weights: np.ndarray
    target_weights: np.ndarray

    def validate(self, tol: float = 1e-9) -> None:
        if np.any(self.matrix < -tol):
            raise ValueError("coupling has negative mass")
        row_err = np.max(np.abs(self.matrix.sum(axis=1) - self.source_weights))
        col_err = np.max(np.abs(self.matrix.sum(axis=0) - self.target_weights))
        if row_err > tol or col_err > tol:
            raise ValueError(f"marginal violation: rows {row_err:.2e}, cols {col_err:.2e}")


# ---------------------------------------------------------------------------
# cost specifications


class CostSpec:
    """Ground cost c(x, y) built from the geodesic distance.

    matrix(space, xs, ys) is entrywise: entry (i, j) depends on the pair
    (xs[i], ys[j]) alone, reduced only over the embedding axis, so any
    row and column selection of a built matrix equals, bit for bit, the
    matrix of the selected points.  block_cost_estimate's bootstrap
    relies on this; a subclass must keep it.  With by_target the rows are
    the ys: entry (j, i) is c(xs[i], ys[j]), matrix(space, xs, ys).T bit
    for bit, built in that layout.
    """

    p: float

    def matrix(self, space: ModelSpace, xs: np.ndarray, ys: np.ndarray,
               by_target: bool = False) -> np.ndarray:
        if by_target:
            return self.of_distance(space.distance(xs[None, :, :], ys[:, None, :]))
        return self.of_distance(space.distance(xs[:, None, :], ys[None, :, :]))

    def of_distance(self, d):
        """The cost h(r) at distances d, entrywise."""
        raise NotImplementedError


@dataclass
class PthPowerDistance(CostSpec):
    """c(x, y) = d(x, y)^p; the transport value is then W_p^p."""

    p: float = 2.0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")

    def of_distance(self, d):
        return d**self.p


@dataclass
class ComparisonCost(CostSpec):
    """c(x, y) = s_{K*}(d(x, y)/2)^p, the comparison-function cost."""

    p: float = 2.0
    kstar: float = 0.0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")

    def of_distance(self, d):
        return comp_s(self.kstar, d / 2.0) ** self.p


# ---------------------------------------------------------------------------
# exact solvers


_LSAP, _FLAPACK = "scipy.optimize._lsap", "scipy.linalg._flapack"
_load_lock = threading.Lock()


def _compiled(name: str):
    """scipy's compiled module `name`, loaded once from its file and
    registered in sys.modules under its own name, so that a package that
    is imported later (scipy.optimize, scipy.linalg) re-exports this very
    module's functions.  Its initialization needs numpy alone."""
    module = sys.modules.get(name)
    if module is None:
        with _load_lock:
            module = sys.modules.get(name) or _load_compiled(
                name, importlib.util.find_spec("scipy").submodule_search_locations)
    return module


def _load_compiled(name: str, roots):
    """Load the extension module `name` (scipy.<package>.<module>) from the
    first of the scipy package directories roots that holds it."""
    *package, module_name = name.split(".")[1:]
    paths = [os.path.join(root, *package, module_name + suffix)
             for root in roots for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        from importlib.metadata import version

        raise ImportError(f"scipy {version('scipy')} has no compiled module {name} "
                          f"at {paths[0]}", name=name, path=paths[0])
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


def _lsap():
    """scipy.optimize._lsap, the assignment solver, without scipy.optimize."""
    return _compiled(_LSAP)


def _flapack():
    """scipy.linalg._flapack, LAPACK's Fortran wrappers, without scipy.linalg."""
    return _compiled(_FLAPACK)


def linear_sum_assignment(cost: np.ndarray):
    """scipy.optimize.linear_sum_assignment(cost): the rows and columns of
    a least-cost assignment."""
    return _lsap().linear_sum_assignment(cost)


def solve_transport(cost: np.ndarray, mu_w: np.ndarray, nu_w: np.ndarray,
                    want_potentials: bool = False):
    """Exact optimum of the finite transport LP.

    Uniform marginals of equal size are dispatched to the assignment
    solver (the LP optimum is attained at a permutation); general
    weights go to the HiGHS simplex, whose equality duals provide
    Kantorovich potentials when requested.
    """
    n, m = cost.shape
    uniform = (
        n == m
        and np.allclose(mu_w, 1.0 / n, atol=1e-14)
        and np.allclose(nu_w, 1.0 / m, atol=1e-14)
        and not want_potentials
    )
    if uniform:
        rows, cols = linear_sum_assignment(cost)
        plan = np.zeros_like(cost)
        plan[rows, cols] = 1.0 / n
        return float(cost[rows, cols].sum() / n), plan, None

    from scipy import sparse
    from scipy.optimize import linprog

    A = sparse.vstack([
        sparse.kron(sparse.eye(n, format="csr"), np.ones((1, m)), format="csr"),
        sparse.kron(np.ones((1, n)), sparse.eye(m, format="csr"), format="csr"),
    ], format="csr")
    b = np.concatenate([mu_w, nu_w])
    res = linprog(cost.ravel(), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(n, m)
    potentials = None
    if want_potentials:
        duals = np.asarray(res.eqlin.marginals, dtype=float)
        potentials = (duals[:n], duals[n:])
    return float(res.fun), plan, potentials


def exact_cost(space: ModelSpace, mu: EmpiricalMeasure, nu: EmpiricalMeasure,
               cost: CostSpec):
    """Exact optimal transport cost and an optimal plan.

    Supports are capped at 512 points each; beyond that use the block
    estimator, block_cost_estimate.
    """
    if mu.size > MAX_EXACT_SUPPORT or nu.size > MAX_EXACT_SUPPORT:
        raise SupportSizeError(
            f"supports of size {mu.size} x {nu.size} exceed the exact cap of "
            f"{MAX_EXACT_SUPPORT}; use block_cost_estimate")
    C = cost.matrix(space, mu.points, nu.points)
    value, plan, _ = solve_transport(C, mu.weights, nu.weights)
    coupling = CouplingMatrix(matrix=plan, source_weights=mu.weights,
                              target_weights=nu.weights)
    coupling.validate()
    return value, coupling


def wasserstein(space: ModelSpace, mu: EmpiricalMeasure, nu: EmpiricalMeasure,
                p: float = 2.0) -> float:
    """W_p via the exact solver."""
    value, _ = exact_cost(space, mu, nu, PthPowerDistance(p))
    return value ** (1.0 / p)


# ---------------------------------------------------------------------------
# closed-form oracle and sample estimators


def gaussian_w2(m: int, x, y, s: float, t: float) -> float:
    """W2 between the Gaussian heat distributions N(x, 2sI) and N(y, 2tI)."""
    if s < 0 or t < 0:
        raise ValueError("times must be nonnegative")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return math.sqrt(float(np.sum((x - y) ** 2)) + 2.0 * m * (math.sqrt(t) - math.sqrt(s)) ** 2)


@dataclass
class BlockEstimate:
    """A block-averaged Monte Carlo transport estimate; assignments counts
    those certified without a solve, those solved and the points in each."""

    value: float
    stderr: float
    block_values: np.ndarray
    assignments: dict = field(default_factory=lambda: dict(certified=0, solved=0, size=0))

    @property
    def n_blocks(self) -> int:
        return self.block_values.size


def power_transform(q: float) -> tuple:
    """(c -> c^q, its slope q c^(q-1)).  At c = 0 with q < 1 that slope is
    infinite; the one-sided slope over [0, 1e-6] stands in."""
    return (lambda c: c ** q,
            lambda c: 1e-6 ** (q - 1.0) if c == 0.0 and q < 1.0 else q * c ** (q - 1.0))


def comparison_transform(kappa: float) -> tuple:
    """(c -> s_kappa(sqrt(c)/2)^2, its slope s_kappa(sqrt(c))/(4 sqrt(c))),
    the slope written through u = sqrt(c)/2 so that its domain is the
    map's own; it is 1/4 at c = 0."""

    def slope(c):
        u = math.sqrt(c) / 2.0
        return comp_s(kappa, u) * comp_c(kappa, u) / (4.0 * u) if u else 0.25

    return (lambda c: comp_s(kappa, math.sqrt(c) / 2.0) ** 2), slope


def _solver_threads() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _identity_is_optimal(C: np.ndarray) -> bool:
    """Whether the pairing i -> i is proven a least-cost assignment of C:
    with W[k, i] = C[k, i] - C[k, k], no cycle of row moves gains iff
    potentials pi_k <= pi_i + W[k, i] exist, which a Bellman-Ford sweep
    lowering none proves.  An improving 2-swap, a predecessor cycle (a
    negative cycle), _MAX_SWEEPS or a non-finite C (left to the solver
    and its errors) rejects."""
    n = C.shape[0]
    if not math.isfinite(C.sum()):
        return False
    diag = C.diagonal().copy()
    step = max(1, _CHUNK // n)
    buf = np.empty((min(step, n), n))
    chunks = [(lo, np.arange(min(step, n - lo))) for lo in range(0, n, step)]
    for lo, r in chunks:  # C[i, j] + C[j, i] < C[i, i] + C[j, j]
        pair = np.add(C[lo:lo + r.size], C[:, lo:lo + r.size].T, out=buf[:r.size])
        pair -= diag
        if (pair[r, pair.argmin(axis=1)] < diag[lo:lo + r.size]).any():
            return False
    pi, pred = np.zeros(n), np.full(n + 1, n)  # pred n: none
    for _ in range(_MAX_SWEEPS):
        lowered = False
        for lo, r in chunks:
            reach = np.add(C[lo:lo + r.size], pi, out=buf[:r.size])
            reach[r, lo + r] = np.inf
            via = reach.argmin(axis=1)
            cand = reach[r, via] - diag[lo:lo + r.size]
            low = np.flatnonzero(cand < pi[lo:lo + r.size])
            if low.size:
                lowered = True
                pi[lo + low], pred[lo + low] = cand[low], via[low]
                chain = pred  # a chain without a cycle ends within n steps
                for _ in range(n.bit_length()):
                    chain = chain[chain]
                if (chain[:n] != n).any():
                    return False
        if not lowered:
            return True
    return False


def _paired_assignment(C: np.ndarray, certify: bool):
    """(rows, cols, certified) of a least-cost assignment of C, whose row i
    and column i come from one trajectory; the index pairing is tried
    first only where certify holds."""
    if certify and C.shape[0] >= _CERTIFY_FROM and _identity_is_optimal(C):
        pairs = np.arange(C.shape[0])
        return pairs, pairs, True
    return (*linear_sum_assignment(C), False)


def _assignments(matrices, certify: bool):
    """Yield (C, rows, cols, certified) of _paired_assignment(C, certify)
    for each paired cost matrix C, in input order.

    Certificates and solves release the GIL, so they run on one thread
    per CPU while the caller's iterator builds the next matrix on the
    calling thread.  At most workers + 1 matrices are built and not yet
    yielded, the one being built included.  The solver is loaded here,
    on the calling thread, before any solve starts.
    """
    _lsap()
    workers = _solver_threads()
    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        for C in matrices:
            pending.append((C, pool.submit(_paired_assignment, C, certify)))
            if len(pending) > workers:
                done, solve = pending.popleft()
                yield (done, *solve.result())
        while pending:
            done, solve = pending.popleft()
            yield (done, *solve.result())


def block_cost_estimate(space: ModelSpace, xs: np.ndarray, ys: np.ndarray,
                        cost: CostSpec,
                        transform: tuple[Callable, Callable] | None = None,
                        block_size: int = 500, seed: int = 0) -> BlockEstimate:
    """Estimate a transport cost between two equal-size samples.

    With n >= 2 * block_size the samples are cut into
    n_blocks = n // block_size aligned disjoint blocks of n // n_blocks
    points each, so a block holds between block_size and
    2 * block_size - 1 points and the last n % n_blocks points go
    unused.  The exact cost (optionally transformed by a pair (f, f'),
    e.g. power_transform(beta/p)) is computed per block, the blocks'
    assignments being solved concurrently, and the estimate is the
    block mean.  The standard error is the larger of a bootstrap over
    block values and the pooled within-block sampling error of the
    matched pair costs (delta method through the transform's slope); with few
    blocks the between-block spread alone can badly understate the
    noise.  Smaller inputs form a single block of all n points and fall
    back to bootstrap resampling of the points themselves: each
    resample's cost matrix is gathered from the full-sample matrix,
    which is built once, and its assignment is solved again.  Since
    CostSpec.matrix is entrywise, a gathered matrix is bit for bit the
    one a rebuild from the resampled points would give.

    xs[i] and ys[i] are one trajectory's sides; where _identity_is_optimal
    certifies that pairing (common noise on a flat space) nothing is
    solved.  The certificate is tried on flat spaces only: on a curved
    one the pairing of common noise is not optimal, and each rejected
    certificate costs up to 5 % of a solve.  Every matrix, a block's or a
    resample's, has ys, the checks' later, more dispersed cloud, as rows,
    which cuts the solver's work by a quarter to a third.
    """
    xs = np.atleast_2d(np.asarray(xs, float))
    ys = np.atleast_2d(np.asarray(ys, float))
    if xs.shape[0] != ys.shape[0]:
        raise ValueError("samples must have equal size")
    n = xs.shape[0]
    if n < 2:
        raise ValueError(f"a standard error needs at least 2 samples, got {n}")
    tf, slope = transform or (lambda v: v, lambda v: 1.0)
    rng = np.random.default_rng(seed)
    certify = space.sectional_curvature == 0

    n_blocks = max(1, n // block_size)
    if n_blocks == 1:
        C = cost.matrix(space, xs, ys, by_target=True)
        rows, cols, certified = _paired_assignment(C, certify)
        value = tf(float(C[rows, cols].mean()))
        boots = np.empty(_N_BOOT)
        for b in range(_N_BOOT):
            ii = rng.integers(0, n, size=n)
            jj = rng.integers(0, n, size=n)
            Cb = C[np.ix_(jj, ii)]
            rr, cc = linear_sum_assignment(Cb)
            boots[b] = tf(float(Cb[rr, cc].mean()))
        return BlockEstimate(value=value, stderr=float(np.std(boots, ddof=1)),
                             block_values=np.array([value]),
                             assignments=dict(certified=int(certified),
                                              solved=_N_BOOT + 1 - certified, size=n))

    size = n // n_blocks
    vals = np.empty(n_blocks)
    within_var = np.empty(n_blocks)  # variance of each transformed block value
    certified, matched = 0, np.empty(size)
    blocks = (slice(b * size, (b + 1) * size) for b in range(n_blocks))
    matrices = (cost.matrix(space, xs[sl], ys[sl], by_target=True) for sl in blocks)
    for b, (M, rows, cols, cert) in enumerate(_assignments(matrices, certify)):
        matched[cols] = M[rows, cols]  # ys[rows] matched to xs[cols], in xs order
        certified += cert
        raw = float(matched.mean())
        vals[b] = tf(raw)
        se_raw = float(matched.std(ddof=1)) / math.sqrt(matched.size)
        within_var[b] = (slope(raw) * se_raw) ** 2
    boots = np.empty(_N_BOOT)
    for b in range(_N_BOOT):
        pick = rng.integers(0, n_blocks, size=n_blocks)
        boots[b] = vals[pick].mean()
    between = float(np.std(boots, ddof=1))
    within = math.sqrt(float(within_var.sum())) / n_blocks
    return BlockEstimate(value=float(vals.mean()),
                         stderr=max(between, within),
                         block_values=vals,
                         assignments=dict(certified=certified,
                                          solved=n_blocks - certified, size=size))
