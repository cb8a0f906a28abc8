import importlib.metadata
import math
import os
import sys
import threading
import time

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment as scipy_assignment

from ctlab import transport
from ctlab.comparison import comp_s
from ctlab.geometry import Euclidean, Hyperbolic, Sphere
from ctlab.transport import (
    ComparisonCost,
    EmpiricalMeasure,
    PthPowerDistance,
    SupportSizeError,
    block_cost_estimate,
    comparison_transform,
    exact_cost,
    gaussian_w2,
    power_transform,
    solve_transport,
    wasserstein,
)


def random_measure(n, rng, dim=2, weighted=False):
    pts = rng.normal(size=(n, dim))
    if not weighted:
        return EmpiricalMeasure.uniform(pts)
    w = rng.random(n) + 0.05
    return EmpiricalMeasure(points=pts, weights=w / w.sum())


def test_dirac_pair_gives_distance():
    sp = Euclidean(2)
    mu = EmpiricalMeasure.dirac([0.0, 0.0])
    nu = EmpiricalMeasure.dirac([3.0, 4.0])
    for p in (1.0, 2.0, 3.0):
        value, plan = exact_cost(sp, mu, nu, PthPowerDistance(p))
        assert value ** (1.0 / p) == pytest.approx(5.0, rel=1e-12)
        plan.validate()


def test_two_point_brute_force():
    # mu = (delta_x + delta_y)/2, nu = delta_x, d(x,y) = 1, p = 2:
    # the only coupling moves half the mass across distance 1
    sp = Euclidean(1)
    mu = EmpiricalMeasure(points=[[0.0], [1.0]], weights=[0.5, 0.5])
    nu = EmpiricalMeasure.dirac([0.0])
    value, plan = exact_cost(sp, mu, nu, PthPowerDistance(2.0))
    assert math.sqrt(value) == pytest.approx(math.sqrt(0.5), rel=1e-12)
    plan.validate()


def test_self_distance_zero():
    rng = np.random.default_rng(0)
    sp = Euclidean(2)
    mu = random_measure(17, rng)
    assert wasserstein(sp, mu, mu, 2.0) == pytest.approx(0.0, abs=1e-9)


def test_assignment_matches_lp_on_uniform():
    rng = np.random.default_rng(1)
    C = rng.random((40, 40))
    w = np.full(40, 1.0 / 40)
    v_fast, plan, _ = solve_transport(C, w, w)
    v_lp, _, _ = solve_transport(C, w, w, want_potentials=True)
    assert v_fast == pytest.approx(v_lp, abs=1e-11)


def test_plan_feasibility_weighted():
    rng = np.random.default_rng(2)
    sp = Euclidean(2)
    mu = random_measure(25, rng, weighted=True)
    nu = random_measure(30, rng, weighted=True)
    value, plan = exact_cost(sp, mu, nu, PthPowerDistance(2.0))
    plan.validate(tol=1e-9)
    assert value >= 0


def test_support_cap():
    sp = Euclidean(2)
    pts = np.zeros((513, 2))
    mu = EmpiricalMeasure.uniform(pts)
    with pytest.raises(SupportSizeError):
        exact_cost(sp, mu, mu, PthPowerDistance(2.0))


def test_holder_monotonicity_in_p():
    # W_p <= W_q for p <= q on the same pair
    rng = np.random.default_rng(3)
    sp = Euclidean(2)
    for _ in range(5):
        mu = random_measure(12, rng)
        nu = random_measure(12, rng)
        values = [wasserstein(sp, mu, nu, p) for p in (1.0, 1.5, 2.0, 3.0)]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


def test_triangle_inequality():
    rng = np.random.default_rng(4)
    sp = Euclidean(2)
    for _ in range(5):
        mu, nu, rho = (random_measure(10, rng) for _ in range(3))
        ab = wasserstein(sp, mu, nu)
        bc = wasserstein(sp, nu, rho)
        ac = wasserstein(sp, mu, rho)
        assert ac <= ab + bc + 1e-8


def test_geodesic_not_chordal_costs():
    sp = Sphere(2)
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([0.0, 0.0, -1.0])
    mu, nu = EmpiricalMeasure.dirac(x), EmpiricalMeasure.dirac(y)
    value, _ = exact_cost(sp, mu, nu, PthPowerDistance(2.0))
    assert math.sqrt(value) == pytest.approx(math.pi, abs=1e-9)  # not 2


def test_comparison_cost_on_diracs():
    sp = Sphere(2)
    x = np.array([0.0, 0.0, 1.0])
    y = sp.exp_map(x, np.array([1.5, 0.0, 0.0]))
    kstar = 0.9
    value, _ = exact_cost(sp, EmpiricalMeasure.dirac(x), EmpiricalMeasure.dirac(y),
                          ComparisonCost(p=2.0, kstar=kstar))
    assert value == pytest.approx(float(comp_s(kstar, 0.75)) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# Gaussian oracle and sample estimators


def test_gaussian_w2_examples():
    assert gaussian_w2(2, [0, 0], [1, 0], 0.3, 0.3) == pytest.approx(1.0)
    assert gaussian_w2(2, [0, 0], [0, 0], 0.25, 1.0) == pytest.approx(1.0)
    assert gaussian_w2(2, [0, 0], [1, 0], 0.25, 1.0) == pytest.approx(math.sqrt(2.0))


def test_gaussian_w2_equal_times_translation():
    for t in (0.0, 0.5, 2.0):
        assert gaussian_w2(3, [1, 2, 3], [4, 2, 3], t, t) == pytest.approx(3.0)


def test_block_estimate_agrees_with_exact_on_small_samples():
    rng = np.random.default_rng(8)
    sp = Euclidean(2)
    xs = rng.normal(size=(60, 2))
    ys = rng.normal(size=(60, 2)) + 1.0
    est = block_cost_estimate(sp, xs, ys, PthPowerDistance(2.0),
                              block_size=500, seed=1)
    exact, _ = exact_cost(sp, EmpiricalMeasure.uniform(xs),
                          EmpiricalMeasure.uniform(ys), PthPowerDistance(2.0))
    assert est.value == pytest.approx(exact, rel=1e-12)
    assert est.stderr > 0


def test_block_estimate_blocks_and_transform():
    rng = np.random.default_rng(9)
    sp = Euclidean(2)
    xs = rng.normal(size=(2000, 2))
    ys = rng.normal(size=(2000, 2))
    est = block_cost_estimate(sp, xs, ys, PthPowerDistance(2.0),
                              transform=power_transform(0.5),
                              block_size=500, seed=2)
    assert est.n_blocks == 4
    assert est.value == pytest.approx(est.block_values.mean(), rel=1e-12)


def test_empirical_convergence_sanity():
    # two independent draws of the time-1 heat distribution (cov 2I, m=2):
    # the squared sample distance stays below 0.1 at 5000 samples
    rng = np.random.default_rng(10)
    sp = Euclidean(2)
    xs = rng.normal(scale=math.sqrt(2.0), size=(5000, 2))
    ys = rng.normal(scale=math.sqrt(2.0), size=(5000, 2))
    est = block_cost_estimate(sp, xs, ys, PthPowerDistance(2.0),
                              block_size=1000, seed=3)
    assert est.value < 0.1


# ---------------------------------------------------------------------------
# concurrent block solves


def _serial_block_estimate(space, xs, ys, cost, transform, block_size, n_boot, seed):
    """The multi-block estimate with its blocks solved one after another."""
    tf, slope = transform or (lambda v: v, lambda v: 1.0)
    n = xs.shape[0]
    n_blocks = n // block_size
    size = n // n_blocks
    vals = np.empty(n_blocks)
    within_var = np.empty(n_blocks)
    for b in range(n_blocks):
        C = cost.matrix(space, xs[b * size:(b + 1) * size], ys[b * size:(b + 1) * size])
        rows, cols = scipy_assignment(C)
        matched = C[rows, cols]
        raw = float(matched.mean())
        vals[b] = tf(raw)
        se_raw = float(matched.std(ddof=1)) / math.sqrt(matched.size)
        within_var[b] = (slope(raw) * se_raw) ** 2
    rng = np.random.default_rng(seed)
    boots = np.empty(n_boot)
    for b in range(n_boot):
        boots[b] = vals[rng.integers(0, n_blocks, size=n_blocks)].mean()
    between = float(np.std(boots, ddof=1))
    within = math.sqrt(float(within_var.sum())) / n_blocks
    return float(vals.mean()), max(between, within), vals


def _cloud(space, n, rng):
    if space.kind == "sphere":
        v = rng.normal(size=(n, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)
    if space.kind == "hyperbolic":
        s = 0.7 * rng.normal(size=(n, 2))
        return np.column_stack([np.sqrt(1.0 + (s * s).sum(axis=1)), s])
    return rng.normal(size=(n, 2))


def _block_clouds(space, n_blocks, block_size=30, seed=0):
    # a few points past the last block, which the estimate leaves unused
    rng = np.random.default_rng(seed)
    n = n_blocks * block_size + 7
    return _cloud(space, n, rng), _cloud(space, n, rng)


class _Recording(PthPowerDistance):
    """W2 cost that keeps every matrix it builds, in build order."""

    def __init__(self):
        super().__init__(2.0)
        self.built = []

    def matrix(self, space, xs, ys, by_target=False):
        C = super().matrix(space, xs, ys, by_target)
        self.built.append(C)
        return C


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity call")
def test_two_threads_loading_the_solver_first_get_one_module(monkeypatch):
    monkeypatch.delitem(sys.modules, transport._LSAP)
    load, calls = transport._load_compiled, []

    def slow_load(name, roots):
        calls.append(roots)
        time.sleep(0.05)  # both threads are in _lsap before the first load ends
        return load(name, roots)

    monkeypatch.setattr(transport, "_load_compiled", slow_load)
    start = threading.Barrier(2)
    got = [None, None]

    def first_call(i):
        start.wait()
        got[i] = transport._lsap()

    threads = [threading.Thread(target=first_call, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(calls) == 1
    assert got[0] is got[1] is sys.modules[transport._LSAP]
    C = np.array([[3.0, 1.0], [1.0, 3.0]])
    assert [v.tolist() for v in got[0].linear_sum_assignment(C)] == [[0, 1], [1, 0]]


def test_a_missing_solver_file_raises_import_error_naming_it(tmp_path):
    before = sys.modules[transport._LSAP]
    with pytest.raises(ImportError) as err:
        transport._load_compiled(transport._LSAP, [str(tmp_path)])
    path = os.path.join(str(tmp_path), "optimize", "_lsap")
    assert path in str(err.value) and err.value.path.startswith(path)
    assert f"scipy {importlib.metadata.version('scipy')} " in str(err.value)
    assert sys.modules[transport._LSAP] is before


def test_solver_threads_is_the_cpus_available():
    assert transport._solver_threads() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("space", [Sphere(2), Hyperbolic(2), Euclidean(2)],
                         ids=["S2", "H2", "E2"])
@pytest.mark.parametrize("n_blocks", [2, 5, 9])
@pytest.mark.parametrize("transform", [None, power_transform(0.75)], ids=["plain", "power"])
def test_concurrent_blocks_match_serial_reference(monkeypatch, space, n_blocks, transform):
    # four solver threads, whatever the host has, so that solves overlap
    monkeypatch.setattr(transport, "_solver_threads", lambda: 4)
    xs, ys = _block_clouds(space, n_blocks)
    est = block_cost_estimate(space, xs, ys, PthPowerDistance(2.0), transform,
                              block_size=30, seed=5)
    value, stderr, vals = _serial_block_estimate(space, xs, ys, PthPowerDistance(2.0),
                                                 transform, 30, transport._N_BOOT, 5)
    assert est.n_blocks == n_blocks
    assert est.value.hex() == value.hex()
    assert est.stderr.hex() == stderr.hex()
    assert est.block_values.tobytes() == vals.tobytes()


def test_blocks_solved_out_of_order_keep_block_order(monkeypatch):
    # curved blocks go to the solver directly, which sees the very matrix
    # that was built, in solve orientation
    monkeypatch.setattr(transport, "_solver_threads", lambda: 4)
    monkeypatch.setattr(transport, "_CERTIFY_FROM", 1)
    cost = _Recording()
    finished = []

    def slow_on_early_blocks(C):
        index = next(i for i, M in enumerate(cost.built) if M is C)
        time.sleep(0.04 * (5 - index))
        result = scipy_assignment(C)
        finished.append(index)
        return result

    monkeypatch.setattr(transport, "linear_sum_assignment", slow_on_early_blocks)
    sp = Sphere(2)
    xs, ys = _block_clouds(sp, 5)
    est = block_cost_estimate(sp, xs, ys, cost, block_size=30, seed=5)
    value, stderr, vals = _serial_block_estimate(sp, xs, ys, PthPowerDistance(2.0),
                                                 None, 30, transport._N_BOOT, 5)
    assert sorted(finished) == list(range(5))
    assert finished != sorted(finished)
    assert (est.value.hex(), est.stderr.hex()) == (value.hex(), stderr.hex())
    assert est.block_values.tobytes() == vals.tobytes()
    assert est.assignments == {"certified": 0, "solved": 5, "size": 31}


def test_certified_blocks_finish_first_and_keep_block_order(monkeypatch):
    # blocks 0-2 are independent clouds, solved slowly; blocks 3-5 are
    # common-noise flat clouds (ys = y + 2 (xs - x)), certified at once
    monkeypatch.setattr(transport, "_solver_threads", lambda: 2)
    monkeypatch.setattr(transport, "_CERTIFY_FROM", 1)
    cost = _Recording()
    events = []
    index = lambda C: next(i for i, M in enumerate(cost.built) if M is C)
    certify = transport._identity_is_optimal

    def recorded_certify(C):
        certified = certify(C)
        if certified:
            events.append(("certified", index(C)))
        return certified

    def slow_solve(C):
        time.sleep(0.05)
        events.append(("solved", index(C)))
        return scipy_assignment(C)

    monkeypatch.setattr(transport, "_identity_is_optimal", recorded_certify)
    monkeypatch.setattr(transport, "linear_sum_assignment", slow_solve)
    sp = Euclidean(2)
    rng = np.random.default_rng(8)
    xs = rng.normal(size=(6 * 40, 2))
    ys = rng.normal(size=(6 * 40, 2))
    ys[120:] = np.array([1.0, 0.0]) + 2.0 * xs[120:]
    est = block_cost_estimate(sp, xs, ys, cost, block_size=40, seed=2)
    value, stderr, vals = _serial_block_estimate(sp, xs, ys, PthPowerDistance(2.0),
                                                 None, 40, transport._N_BOOT, 2)
    assert sorted(events) == [("certified", 3), ("certified", 4), ("certified", 5),
                              ("solved", 0), ("solved", 1), ("solved", 2)]
    assert events.index(("certified", 3)) < events.index(("solved", 2))
    assert est.assignments == {"certified": 3, "solved": 3, "size": 40}
    assert (est.value.hex(), est.stderr.hex()) == (value.hex(), stderr.hex())
    assert est.block_values.tobytes() == vals.tobytes()


@pytest.mark.parametrize("space,tries", [(Sphere(2), 0), (Hyperbolic(2), 0), (Euclidean(2), 4)],
                         ids=["S2", "H2", "E2"])
def test_only_flat_blocks_try_the_certificate(monkeypatch, space, tries):
    # three blocks and one single-block estimate: on a curved space the
    # common-noise pairing is never optimal, so no certificate is tried
    monkeypatch.setattr(transport, "_CERTIFY_FROM", 1)
    certify, calls = transport._identity_is_optimal, []
    monkeypatch.setattr(transport, "_identity_is_optimal", lambda C: calls.append(C) or certify(C))
    xs, ys = _block_clouds(space, 3)
    block_cost_estimate(space, xs, ys, PthPowerDistance(2.0), block_size=30, seed=5)
    block_cost_estimate(space, xs[:20], ys[:20], PthPowerDistance(2.0), block_size=30, seed=5)
    assert len(calls) == tries


def _certifiable(rng, n):
    """A paired matrix whose pairing the first sweep certifies: zero
    diagonal, positive elsewhere."""
    C = rng.random((n, n)) + 0.5
    np.fill_diagonal(C, 0.0)
    return C


@pytest.mark.parametrize("workers", [1, 3])
def test_assignments_hold_at_most_workers_plus_one_matrices(monkeypatch, workers):
    # solves take 10 ms; with every other matrix certified at once, those
    # finish ahead of the solves queued before them
    monkeypatch.setattr(transport, "_solver_threads", lambda: workers)
    monkeypatch.setattr(transport, "_CERTIFY_FROM", 1)
    monkeypatch.setattr(transport, "linear_sum_assignment",
                        lambda C: (time.sleep(0.01), scipy_assignment(C))[1])
    for certify_every in (0, 2):
        _hold_at_most_workers_plus_one(workers, certify_every)


def _hold_at_most_workers_plus_one(workers, certify_every):
    rng = np.random.default_rng(3)
    built = yielded = outstanding = 0
    certifiable = [bool(certify_every) and i % certify_every == 1 for i in range(12)]
    matrices = [_certifiable(rng, 20) if c else rng.random((20, 20)) for c in certifiable]

    def build():
        nonlocal built, outstanding
        for C in matrices:
            built += 1
            outstanding = max(outstanding, built - yielded)
            yield C

    for C, rows, cols, certified in transport._assignments(build(), True):
        assert C is matrices[yielded]
        assert certified == certifiable[yielded]
        want_rows, want_cols = scipy_assignment(C)
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
        yielded += 1
    assert yielded == 12
    assert outstanding == workers + 1


def test_solver_error_in_a_block_raises_as_serial_and_joins_threads(monkeypatch):
    # the certificate runs first and leaves the non-finite block to scipy
    monkeypatch.setattr(transport, "_solver_threads", lambda: 4)
    monkeypatch.setattr(transport, "_CERTIFY_FROM", 1)
    sp = Euclidean(2)
    xs, ys = _block_clouds(sp, 5)
    xs[2 * 30 + 4] = np.nan  # a NaN cost row in the third block
    before = threading.active_count()
    with pytest.raises(ValueError) as concurrent:
        block_cost_estimate(sp, xs, ys, PthPowerDistance(2.0), block_size=30, seed=5)
    with pytest.raises(ValueError) as serial:
        _serial_block_estimate(sp, xs, ys, PthPowerDistance(2.0), None, 30,
                               transport._N_BOOT, 5)
    assert str(concurrent.value) == str(serial.value)
    assert threading.active_count() == before


def test_block_layout_uses_equal_blocks_and_drops_the_remainder(monkeypatch):
    # n = 2999 with block_size 1000: 2 blocks of 1499 points, 1 point unused
    monkeypatch.setattr(transport, "linear_sum_assignment",
                        lambda C: (np.arange(C.shape[0]), np.arange(C.shape[1])))
    sp = Euclidean(2)
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(2999, 2))
    ys = rng.normal(size=(2999, 2))
    cost = _Recording()
    est = block_cost_estimate(sp, xs, ys, cost, block_size=1000, seed=1)
    assert est.n_blocks == 2
    assert [C.shape for C in cost.built] == [(1499, 1499)] * 2
    # built with ys as rows
    assert np.array_equal(cost.built[1], PthPowerDistance(2.0).matrix(sp, xs[1499:2998],
                                                                      ys[1499:2998]).T)
    xs[2998] += 100.0
    moved = block_cost_estimate(sp, xs, ys, cost, block_size=1000, seed=1)
    assert (moved.value, moved.stderr) == (est.value, est.stderr)


# ---------------------------------------------------------------------------
# the pairing certificate and the solve orientation


def _dilated(seed, n, m, scale, shift):
    """Flat clouds xs and ys = shift + scale * xs, the common-noise law of
    two heat distributions at different times."""
    xs = np.random.default_rng(seed).normal(size=(n, m))
    return xs, np.asarray(shift, float)[:m] + scale * xs


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), m=st.integers(1, 3),
       scale=st.floats(0.25, 4.0), shift=st.lists(st.floats(-3.0, 3.0), min_size=3,
                                                  max_size=3))
def test_dilated_flat_clouds_are_certified(seed, n, m, scale, shift):
    xs, ys = _dilated(seed, n, m, scale, shift)
    sp = Euclidean(m)
    for C in (PthPowerDistance(2.0).matrix(sp, xs, ys),
              PthPowerDistance(2.0).matrix(sp, xs, ys, by_target=True)):
        assert transport._identity_is_optimal(C)
        rows, cols = scipy_assignment(C)
        assert np.array_equal(cols, np.arange(n))
        with mock.patch.object(transport, "_CERTIFY_FROM", 1):
            got = transport._paired_assignment(C, True)
        assert got[2] and np.array_equal(got[0], rows) and np.array_equal(got[1], cols)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), m=st.integers(1, 3),
       scale=st.floats(0.25, 4.0), data=st.data())
def test_a_swapped_pair_falls_back_to_the_solver(seed, n, m, scale, data):
    # exchanging two columns of a certified matrix makes the pairing
    # strictly worse: the optimum is the exchange itself
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    xs, ys = _dilated(seed, n, m, scale, [1.0, -0.5, 0.25])
    C = PthPowerDistance(2.0).matrix(Euclidean(m), xs, ys)
    C[:, [i, j]] = C[:, [j, i]]
    assert not transport._identity_is_optimal(C)
    want = np.arange(n)
    want[[i, j]] = [j, i]
    with mock.patch.object(transport, "_CERTIFY_FROM", 1):
        rows, cols, certified = transport._paired_assignment(C, True)
    assert not certified
    assert np.array_equal(cols, want) and np.array_equal(cols, scipy_assignment(C)[1])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), kind=st.sampled_from(
    ["uniform", "diagonal-heavy", "diagonal-light"]))
def test_certificate_agrees_with_the_solver_on_random_matrices(seed, n, kind):
    rng = np.random.default_rng(seed)
    C = rng.random((n, n))
    if kind != "uniform":  # push the diagonal toward or away from optimality
        C[np.diag_indices(n)] *= 0.2 if kind == "diagonal-light" else 3.0
    rows, cols = scipy_assignment(C)
    if transport._identity_is_optimal(C):
        assert np.array_equal(cols, np.arange(n))
    with mock.patch.object(transport, "_CERTIFY_FROM", 1):
        got_rows, got_cols, _ = transport._paired_assignment(C, True)
    assert np.array_equal(got_rows, rows) and np.array_equal(got_cols, cols)


def test_certificate_on_one_and_two_points():
    assert transport._identity_is_optimal(np.full((1, 1), 3.0))
    assert transport._identity_is_optimal(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not transport._identity_is_optimal(np.array([[1.0, 0.0], [0.0, 1.0]]))
    # a tie: the pairing is optimal, and so is the exchange
    assert transport._identity_is_optimal(np.array([[0.0, 1.0], [1.0, 1.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_costs_defer_to_the_solver(monkeypatch, bad):
    monkeypatch.setattr(transport, "_CERTIFY_FROM", 1)
    xs, ys = _dilated(4, 12, 2, 2.0, [1.0, 0.0])
    C = PthPowerDistance(2.0).matrix(Euclidean(2), xs, ys)
    C[3, 7] = bad
    assert not transport._identity_is_optimal(C)
    try:
        want = scipy_assignment(C)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            transport._paired_assignment(C, True)
        assert str(got.value) == str(exc)
    else:
        rows, cols, certified = transport._paired_assignment(C, True)
        assert not certified
        assert np.array_equal(rows, want[0]) and np.array_equal(cols, want[1])


@pytest.mark.parametrize("space", [Sphere(2), Hyperbolic(2), Euclidean(2)],
                         ids=["S2", "H2", "E2"])
@pytest.mark.parametrize("cost_name", ["p2", "p3", "comparison"])
def test_matrix_by_target_is_the_transpose_bit_for_bit(space, cost_name):
    cost = _COSTS[cost_name](space)
    rng = np.random.default_rng(21)
    xs, ys = _cloud(space, 57, rng), _cloud(space, 43, rng)
    plain = cost.matrix(space, xs, ys)
    oriented = cost.matrix(space, xs, ys, by_target=True)
    assert oriented.shape == (43, 57) and oriented.flags.c_contiguous
    assert oriented.tobytes() == np.ascontiguousarray(plain.T).tobytes()


def _solver_calls(monkeypatch):
    sizes = []

    def spy(C):
        sizes.append(C.shape[0])
        return scipy_assignment(C)

    monkeypatch.setattr(transport, "linear_sum_assignment", spy)
    return sizes


@pytest.mark.parametrize("space,share_noise,certified", [
    (Euclidean(2), True, 2), (Euclidean(2), False, 0), (Sphere(2), True, 0)],
    ids=["E2-shared", "E2-independent", "S2-shared"])
def test_common_noise_flat_blocks_skip_the_solver(monkeypatch, space, share_noise,
                                                  certified):
    import ctlab.checks
    from ctlab.checks import CheckSpec, run_check

    # these true claims are decided by the coupling's upper side, so it is
    # patched out: the check draws its clouds and solves its blocks
    monkeypatch.setattr(ctlab.checks, "_coupling_bound", lambda *args: None)
    sizes = _solver_calls(monkeypatch)
    x, y = (np.zeros(2), np.array([1.0, 0.0])) if space.kind == "euclidean" else (
        np.array([0.0, 0.0, 1.0]), np.array([math.sin(1.0), 0.0, math.cos(1.0)]))
    rep = run_check(CheckSpec(check_id="w2_control", space=space, x=x, y=y, s=0.25, t=1.0,
                              n_trajectories=600, block_size=300, seed=4,
                              share_noise=share_noise))
    assert [k for k in sizes if k > 1] == [300] * (2 - certified)  # 1: the Dirac base cost
    assert rep.metadata["assignments"] == {"certified": certified, "solved": 2 - certified,
                                           "size": 300}


def test_single_block_counts_its_resample_solves(monkeypatch):
    sizes = _solver_calls(monkeypatch)
    monkeypatch.setattr(transport, "_N_BOOT", 5)
    xs, ys = _dilated(6, 300, 2, 2.0, [1.0, 0.0])
    est = block_cost_estimate(Euclidean(2), xs, ys, PthPowerDistance(2.0), block_size=1000)
    assert est.assignments == {"certified": 1, "solved": 5, "size": 300}
    assert sizes == [300] * 5
    small = block_cost_estimate(Euclidean(2), xs[:50], ys[:50], PthPowerDistance(2.0),
                                block_size=1000)
    assert small.assignments == {"certified": 0, "solved": 6, "size": 50}


# ---------------------------------------------------------------------------
# single-block bootstrap


def _single_block_reference(space, xs, ys, cost, transform, n_boot, seed):
    """The single-block estimate with each resample's matrix rebuilt from
    the resampled points, ys as rows as in every block."""
    tf = transform[0] if transform else (lambda v: v)
    n = xs.shape[0]
    rng = np.random.default_rng(seed)
    C = cost.matrix(space, xs, ys, by_target=True)
    rows, cols = scipy_assignment(C)
    value = tf(float(C[rows, cols].mean()))
    boots = np.empty(n_boot)
    for b in range(n_boot):
        ii = rng.integers(0, n, size=n)
        jj = rng.integers(0, n, size=n)
        Cb = cost.matrix(space, xs[ii], ys[jj], by_target=True)
        rr, cc = scipy_assignment(Cb)
        boots[b] = tf(float(Cb[rr, cc].mean()))
    return value, float(np.std(boots, ddof=1)), np.array([value])


_COSTS = {
    "p2": lambda space: PthPowerDistance(2.0),
    "p3": lambda space: PthPowerDistance(3.0),
    # s_{K*} at the space's own sectional curvature
    "comparison": lambda space: ComparisonCost(
        2.0, kstar={"sphere": 1.0, "hyperbolic": -1.0}.get(space.kind, 0.0)),
}


@pytest.mark.parametrize("space", [Sphere(2), Hyperbolic(2), Euclidean(2)],
                         ids=["S2", "H2", "E2"])
@pytest.mark.parametrize("cost_name", list(_COSTS))
@pytest.mark.parametrize("transform", [None, power_transform(0.75)], ids=["plain", "power"])
@pytest.mark.parametrize("n", [7, 48, 199])
def test_single_block_bootstrap_matches_rebuilt_reference(monkeypatch, space, cost_name,
                                                          transform, n):
    monkeypatch.setattr(transport, "_N_BOOT", 40)  # 40 rebuilt resamples keep this fast
    cost = _COSTS[cost_name](space)
    rng = np.random.default_rng(n)
    xs, ys = _cloud(space, n, rng), _cloud(space, n, rng)
    est = block_cost_estimate(space, xs, ys, cost, transform, block_size=1000, seed=11)
    value, stderr, vals = _single_block_reference(space, xs, ys, cost, transform, 40, 11)
    assert est.n_blocks == 1
    assert est.value.hex() == value.hex()
    assert est.stderr.hex() == stderr.hex()
    assert est.block_values.tobytes() == vals.tobytes()


def test_single_block_builds_one_cost_matrix():
    sp = Sphere(2)
    rng = np.random.default_rng(12)
    xs, ys = _cloud(sp, 48, rng), _cloud(sp, 48, rng)
    cost = _Recording()
    est = block_cost_estimate(sp, xs, ys, cost, block_size=1000, seed=3)
    assert est.n_blocks == 1 and est.stderr > 0
    assert [C.shape for C in cost.built] == [(48, 48)]


def test_single_block_out_of_domain_comparison_cost_raises_as_before():
    # pairs more than 2 pi / sqrt(K*) apart leave the domain of s_{K*}(d / 2)
    sp = Euclidean(2)
    rng = np.random.default_rng(13)
    xs, ys = rng.normal(size=(30, 2)), rng.normal(size=(30, 2))
    xs[5] += 20.0
    cost = ComparisonCost(2.0, kstar=1.0)
    with pytest.raises(ValueError) as gathered:
        block_cost_estimate(sp, xs, ys, cost, block_size=1000, seed=4)
    with pytest.raises(ValueError) as rebuilt:
        _single_block_reference(sp, xs, ys, cost, None, 20, 4)
    assert str(gathered.value) == str(rebuilt.value)
    assert "exceeds pi/sqrt(kappa)" in str(gathered.value)


def test_weights_must_normalize():
    with pytest.raises(ValueError):
        EmpiricalMeasure(points=[[0.0], [1.0]], weights=[0.5, 0.6])
    with pytest.raises(ValueError):
        EmpiricalMeasure(points=[[0.0], [1.0]], weights=[-0.5, 1.5])


def test_block_estimate_needs_two_samples():
    # one sample gives every bootstrap resample the same cost, so no error bar
    sp = Euclidean(2)
    with pytest.raises(ValueError, match="at least 2 samples"):
        block_cost_estimate(sp, np.zeros((1, 2)), np.ones((1, 2)), PthPowerDistance(2.0))
    est = block_cost_estimate(sp, np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 1.0]]),
                              PthPowerDistance(2.0))
    assert est.value == 1.0


@pytest.mark.parametrize("v", [0.0, 2e-7, 5e-6])
def test_transform_slope_near_zero(v):
    # s_k(sqrt(c))/(4 sqrt(c)) = (1 - k c/6 + ...)/4 tends to 1/4 at c = 0
    for kappa in (1.0, 0.0, -1.0):
        slope = comparison_transform(kappa)[1](v)
        assert slope == pytest.approx(0.25 * (1.0 - kappa * v / 6.0), rel=1e-12)
    # c^q with q < 1 keeps the one-sided slope over [0, 1e-6] at c = 0
    expected = 1e-6 ** -0.25 if v == 0.0 else 0.75 * v ** -0.25
    assert power_transform(0.75)[1](v) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("transform", [
    power_transform(0.75), power_transform(2.0 / 3.0), power_transform(1.5),
    comparison_transform(0.5), comparison_transform(-1.0), comparison_transform(0.0),
], ids=["q0.75", "q2/3", "q1.5", "k0.5", "k-1", "k0"])
def test_transform_slope_is_the_derivative(transform):
    # against the Richardson extrapolation of two central differences
    f, slope = transform
    for c in (1e-3, 0.1, 0.7, 2.0, 6.0):
        h = 1e-3 * c
        d = lambda h: (f(c + h) - f(c - h)) / (2 * h)
        assert slope(c) == pytest.approx((4 * d(h / 2) - d(h)) / 3, rel=1e-8)
