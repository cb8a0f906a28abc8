"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import math
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [os.path.join(ROOT, "perfbench"), SRC]

import accounting  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from ctlab.cli import build_parser, build_space, load_suite  # noqa: E402
from ctlab.comparison import CurvatureDimension  # noqa: E402
from ctlab.geometry import Sphere  # noqa: E402


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    a = workloads.generate(workload, 7, SRC)
    b = workloads.generate(workload, 7, SRC)
    c = workloads.generate(workload, 8, SRC)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("workload", ["mc_suite", "transport_blocks", "gradient_suite"])
def test_every_generated_suite_loads(workload, seed, tmp_path):
    doc = workloads.generate(workload, seed, SRC)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc))
    specs = load_suite(str(path))
    assert len(specs) == len(doc["checks"])
    for spec in specs:
        for point in (spec.x, spec.y):
            if point is not None:
                spec.space.check_point(point, tol=1e-12)
        if isinstance(spec.space, Sphere) and spec.x is not None:
            d = float(spec.space.distance(spec.x, spec.y))
            assert d < 0.9 * spec.space.diameter          # clear of the cut locus
        if isinstance(spec.space, Sphere) and spec.check_id == "swc":
            assert spec.space.swc_diameter_ok(spec.resolved_cd())


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_every_generated_dump_parses_with_points_on_the_manifold(seed):
    for dump in workloads.walk_paths(seed):
        args = build_parser().parse_args(dump["argv"] + ["--out", "unused.csv"])
        space = build_space({"kind": args.space, "dim": args.dim})
        x = np.array([float(v) for v in args.x.split(",")])
        y = np.array([float(v) for v in args.y.split(",")])
        space.check_point(x, tol=1e-12)
        space.check_point(y, tol=1e-12)
        assert (args.k, args.n) == (dump["k"], dump["n"])


def test_sphere_pairs_have_the_requested_distance():
    rng = np.random.default_rng(3)
    x, y = workloads.sphere_pair(rng, 2.0)
    assert math.isclose(float(Sphere(2).distance(np.array(x), np.array(y))), 2.0, rel_tol=1e-12)
    assert Sphere(2).swc_diameter_ok(CurvatureDimension(0.9, 2.0))


def test_metric_names_match_benchmark_json():
    bench = _benchmark()
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(tr.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    # the untraced metrics come out of end_to_end() under the same names
    passes = [{"trace": False, "wall_s": 1.0 + i, "peak_rss_mb": 90.0,
               "ops": [{"id": "bl0", "s": 0.1 * j} for j in range(1, 11)]} for i in range(2)]
    values, notes = run.end_to_end("mc_suite", passes, 10)
    assert set(values) | {"setup_s"} == set(run.END_TO_END)
    # the traced metrics: every name is present even when a layer is idle
    m = tr.layer_metrics([("checks.bl0", 0.0, 1.0, -1, 0)], {}, 0.0, 1.0)
    assert set(tr.PER_LAYER) <= set(m)


def test_error_and_passing_negative_control_count_as_failures():
    rows = [
        {"verdict": "pass", "margin": 0.5, "sigma": 0.1, "error": None},
        {"verdict": "error", "margin": None, "sigma": 0.0, "error": "ValueError: boom"},
        {"verdict": "pass", "margin": 0.2, "sigma": 0.0, "error": None},   # negative control
        {"verdict": "fail", "margin": -1.0, "sigma": 0.1, "error": None},
        {"verdict": "fail", "margin": -0.4, "sigma": 0.0, "error": None},  # negative control
        {"verdict": "inconclusive", "margin": -0.05, "sigma": 0.1, "error": None},
    ]
    judged = accounting.judge_suite(rows, len(rows), negatives={2, 4})
    reasons, _ = accounting.compare_repeats([judged], None)
    failed = [i for i, r in enumerate(reasons[0]) if r is not None]
    assert failed == [1, 2, 3]
    assert reasons[0][1].startswith("error")
    assert "negative control" in reasons[0][2]
    assert "true inequality" in reasons[0][3]


def test_margins_must_repeat_bit_for_bit():
    first = accounting.judge_suite([{"verdict": "pass", "margin": 0.1}], 1, set())
    again = accounting.judge_suite([{"verdict": "pass", "margin": 1 / 10}], 1, set())
    drift = accounting.judge_suite([{"verdict": "pass", "margin": math.nextafter(0.1, 1)}], 1, set())
    reasons, ref = accounting.compare_repeats([first, again, drift], None)
    assert reasons == [[None], [None], [reasons[2][0]]]
    assert "bitwise" in reasons[2][0]
    # a later run of the seed is held to the stored reference
    later, _ = accounting.compare_repeats([drift], ref)
    assert later[0][0] is not None


def test_dump_row_count_and_manifold_checks(tmp_path):
    sphere = Sphere(2)
    dump = {"n": 1, "k": 1}
    header = "trajectory_id,step,t,x1_0,x1_1,x1_2,x2_0,x2_1,x2_2,distance\n"
    good = tmp_path / "good.csv"
    good.write_text(header + "0,0,0,0,0,1,0,0,1,0\n0,1,1,0,0,1,1,0,0,1.57\n")
    assert accounting.judge_dump(str(good), dump, 0, sphere)[1] is None
    short = tmp_path / "short.csv"
    short.write_text(header + "0,0,0,0,0,1,0,0,1,0\n")
    assert "rows" in accounting.judge_dump(str(short), dump, 0, sphere)[1]
    off = tmp_path / "off.csv"
    off.write_text(header + "0,0,0,0,0,1,0,0,1,0\n0,1,1,0,0,1.001,1,0,0,1.57\n")
    assert "manifold" in accounting.judge_dump(str(off), dump, 0, sphere)[1]


def test_tracer_attributes_nested_time_to_the_right_parent():
    ticks = iter(range(100))
    t = tr.Tracer(clock=lambda: float(next(ticks)))
    leaf_w = t.wrap(lambda: 1, "geometry.log_map")
    middle_w = t.wrap(lambda: leaf_w() + leaf_w(), "walk.single.sphere")
    outer_w = t.wrap(lambda: middle_w() + leaf_w(), "checks.prectl")
    assert outer_w() == 3
    spans = t.spans()
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    assert names == ["checks.prectl", "walk.single.sphere", "geometry.log_map",
                     "geometry.log_map", "geometry.log_map"]
    assert parents == [-1, 0, 1, 1, 0]
    # clock ticks: outer 0..9, middle 1..6, leaves 2..3, 4..5, 7..8
    assert tr.self_times(spans) == [9 - 5 - 1, 5 - 2, 1, 1, 1]
    m = tr.layer_metrics(spans, {}, 0.0, 9.0)
    assert m["walk.single.calls"] == 1 and m["walk.single.s"] == 5
    assert m["walk.self_s"] == 3
    assert m["geometry.log_map.calls"] == 3 and m["geometry.log_map.s"] == 3
    assert m["geometry.share_of_walk"] == pytest.approx(2 / 5)
    assert m["checks.sample_s"] == 5 and m["checks.rhs_s"] == 3
    assert m["trace.coverage"] == 1.0


def test_tracer_reports_missing_names_and_restores_patches():
    import types
    mod = types.ModuleType("fake")
    mod.present = original = lambda: 4
    t = tr.Tracer()
    t.patch_attr(mod, "present", "cli.present")
    t.patch_attr(mod, "absent", "cli.absent")
    assert mod.present is not original
    assert mod.present() == 4 and len(t.spans()) == 1
    assert t.missing == ["fake.absent"]
    t.uninstall()
    assert mod.present is original


def test_tail_percentile_keeps_ten_operations_beyond_it():
    for per_pass, passes in ((21, 2), (10, 2), (23, 3), (10, 3)):
        n = per_pass * passes
        q = run.tail_percentile(per_pass, passes)
        assert n * (1 - q / 100) >= 10 - 1e-9
