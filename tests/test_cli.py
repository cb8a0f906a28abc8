import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ctlab.checks
import ctlab.cli
import ctlab.transport
from ctlab.checks import CHECKS, REQUIRED_FIELDS, Z, require_fields, run_suite
from ctlab.cli import (
    ConfigError,
    build_check,
    build_space,
    bundled_config,
    load_report,
    load_suite,
    main,
)
from ctlab.geometry import Euclidean, Sphere
from ctlab.transport import EmpiricalMeasure, PthPowerDistance, exact_cost


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_empty_suite_exits_zero(tmp_path, capsys):
    cfg = write_json(tmp_path / "empty.json", {"schema": "ctl-suite/1", "checks": []})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert rows[0].split(",")[0] == "check_id"
    assert len(rows) == 1


def test_quick_suite_and_report_roundtrip(tmp_path):
    cfg = write_json(tmp_path / "quick.json", {
        "schema": "ctl-suite/1",
        "seed": 5,
        "checks": [
            {"id": "bl0", "space": {"kind": "sphere", "dim": 2}, "t": 0.5,
             "f": "cos_theta"},
            {"id": "laplacian_comparison", "space": {"kind": "sphere", "dim": 2},
             "x": [0.0, 0.0, 1.0], "y": [math.sin(1.0), 0.0, math.cos(1.0)]},
        ],
    })
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rows = load_report(str(out / "report.json"))
    assert len(rows) == 2
    assert all(r["verdict"] == "pass" for r in rows)
    # report subcommand re-validates and mirrors the exit code
    assert main(["report", "--in", str(out / "report.json")]) == 0


def test_negative_control_bundle_fails(tmp_path):
    assert main(["verify", "--config", bundled_config("negative_control.json"),
                 "--out", str(tmp_path)]) == 1


def test_config_errors_exit_two(tmp_path):
    bad1 = write_json(tmp_path / "b1.json", {"schema": "wrong", "checks": []})
    assert main(["verify", "--config", bad1, "--out", str(tmp_path)]) == 2
    bad2 = write_json(tmp_path / "b2.json", {
        "schema": "ctl-suite/1",
        "checks": [{"id": "not_an_inequality", "space": {"kind": "sphere", "dim": 2}}]})
    assert main(["verify", "--config", bad2, "--out", str(tmp_path)]) == 2
    bad3 = write_json(tmp_path / "b3.json", {
        "schema": "ctl-suite/1",
        "checks": [{"id": "bl0", "space": {"kind": "sphere", "dim": 2},
                    "t": 0.5, "f": "cos_theta", "bogus_key": 1}]})
    assert main(["verify", "--config", bad3, "--out", str(tmp_path)]) == 2
    assert main(["verify", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 2


def _no_check_runs(monkeypatch):
    def no_suite(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(ctlab.cli, "run_suite", no_suite)


def test_missing_compiled_solver_exits_two(tmp_path, capsys, monkeypatch):
    # a suite with a transport check loads scipy's compiled solvers at set-up
    monkeypatch.setattr(ctlab.transport, "_LSAP", "scipy.optimize._no_such_module")
    _no_check_runs(monkeypatch)
    assert main(["verify", "--config", bundled_config("acceptance.json"),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "set-up error" in err and "_no_such_module" in err
    assert not (tmp_path / "report.json").exists()


def test_out_directory_that_cannot_be_made_exits_two_before_any_check(tmp_path, capsys,
                                                                      monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    _no_check_runs(monkeypatch)
    assert main(["verify", "--config", bundled_config("deterministic.json"),
                 "--out", str(blocker / "out")]) == 2
    assert "output error" in capsys.readouterr().err


def test_report_that_cannot_be_written_exits_two(tmp_path, capsys):
    (tmp_path / "report.csv").mkdir()
    cfg = write_json(tmp_path / "empty.json", {"schema": "ctl-suite/1", "checks": []})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "output error" in capsys.readouterr().err


def test_a_claim_its_check_rejects_loads_and_errors_when_it_runs(tmp_path):
    # lp2 needs N > 1: the suite loads, and the row is an error row at run time
    cfg = write_json(tmp_path / "lp2.json", {"schema": "ctl-suite/1", "checks": [
        {"id": "lp2", "space": {"kind": "sphere", "dim": 2}, "K": 0.9, "N": 1.0,
         "x": [0.0, 0.0, 1.0], "y": [math.sin(1.0), 0.0, math.cos(1.0)],
         "tau1": 0.2, "tau2": 0.4}]})
    (rep,) = run_suite(load_suite(cfg))
    assert rep.verdict == "error" and "N > 1" in rep.error


def test_build_space_and_check_strictness():
    with pytest.raises(ConfigError):
        build_space({"kind": "torus", "dim": 2})
    with pytest.raises(ConfigError):
        build_space({"kind": "sphere", "dim": 2, "extra": 1})
    spec = build_check({"id": "bl0", "space": {"kind": "sphere", "dim": 2},
                        "t": 0.5, "f": "cos_theta", "k_prime_factor": 0.9},
                       global_seed=1, index=0)
    assert spec.resolved_cd().K == pytest.approx(0.9)


@pytest.mark.parametrize("kind,taken", [
    ("euclidean", set()),
    ("euclidean_ou", {"lam"}),
    ("sphere", {"radius"}),
    ("hyperbolic", {"curvature"}),
])
def test_build_space_rejects_geometry_keys_its_kind_does_not_take(kind, taken):
    values = {"radius": 2.0, "curvature": -4.0, "lam": 0.5}
    for key, value in values.items():
        obj = {"kind": kind, "dim": 2, key: value}
        if key in taken:
            build_space(obj)
        else:
            with pytest.raises(ConfigError, match=key):
                build_space(obj)
    with pytest.raises(ConfigError):
        build_space({"kind": "sphere", "dim": 2, "lam": -3, "curvature": 4})


def test_verify_rejects_a_geometry_key_the_space_does_not_take(tmp_path, capsys):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({
        "schema": "ctl-suite/1",
        "checks": [{"id": "bl0", "space": {"kind": "sphere", "dim": 2, "curvature": 4},
                    "t": 0.5, "f": "cos_theta"}]}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "curvature" in capsys.readouterr().err


def test_bundled_configs_parse():
    for name in ("acceptance.json", "deterministic.json", "negative_control.json"):
        specs = load_suite(bundled_config(name))
        assert specs


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _workloads():
    """perfbench's input generator, workloads.py."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_bundled_and_benchmark_suites_load_with_every_required_field(tmp_path):
    assert set(REQUIRED_FIELDS) == set(CHECKS)
    workloads = _workloads()
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    paths = [bundled_config(n) for n in ("acceptance.json", "deterministic.json",
                                         "negative_control.json")]
    for name in names:
        for seed in (1, 2, 3):
            doc = workloads.generate(name, seed, str(ROOT / "src"))
            paths.append(write_json(tmp_path / f"{name}-{seed}.json", doc))
    for path in paths:
        specs = load_suite(path)
        assert len(specs) == len(json.loads(pathlib.Path(path).read_text())["checks"])
        for check in specs:
            require_fields(check)


def test_prectl_rows_load_alike_with_or_without_a_sample_plan(tmp_path):
    # prectl draws no samples, so acceptance.json gives its rows no k or
    # n_trajectories; suites that still carry them (perfbench's mc_suite)
    # load and run as before
    doc = json.loads(pathlib.Path(bundled_config("acceptance.json")).read_text())
    rows = [c for c in doc["checks"] if c["id"] == "prectl"]
    assert len(rows) == 2 and not any({"k", "n_trajectories"} & set(c) for c in rows)
    planned = dict(doc, checks=[dict(c, k=30, n_trajectories=5000) for c in rows])
    bare = dict(doc, checks=rows)
    reports = [ctlab.checks.run_suite(load_suite(write_json(tmp_path / f"{i}.json", d)))
               for i, d in enumerate((planned, bare))]
    assert [vars(r) for r in reports[0]] == [vars(r) for r in reports[1]]
    assert not any({"k", "n_trajectories"} & set(r.metadata) for r in reports[0])


_BOUNDED = ("w2_control", "wp", "swc", "lp2")


_SUITE_SEEDS = [("acceptance", None)] + [
    (name, seed) for name in ("mc_suite", "transport_blocks") for seed in (1, 2, 3)]


@pytest.mark.parametrize("suite,seed", _SUITE_SEEDS, ids=[
    name if seed is None else f"{name}-{seed}" for name, seed in _SUITE_SEEDS])
def test_sampled_lhs_stays_below_the_coupling_upper_side(monkeypatch, suite, seed):
    # the synchronous coupling bounds W_p from above, so no sampled lhs may
    # exceed its upper side by more than Z sigma; each row computes that
    # side, withholds it and samples as if it had none
    if seed is None:
        doc = json.loads(pathlib.Path(bundled_config(f"{suite}.json")).read_text())
    else:
        doc = _workloads().generate(suite, seed, str(ROOT / "src"))
    bound, seen = ctlab.checks._coupling_bound, []
    monkeypatch.setattr(ctlab.checks, "_coupling_bound", lambda *args: seen.append(bound(*args)))
    rows = [build_check(c, doc["seed"], i) for i, c in enumerate(doc["checks"])]
    rows = [spec for spec in rows if spec.check_id in _BOUNDED]
    for spec in rows:
        seen.clear()
        rep = ctlab.checks.run_check(spec)
        (upper, err), = seen
        assert rep.metadata["sampler"] == "exact" and rep.sigma > 0
        assert rep.lhs <= upper + Z * rep.sigma, (spec.check_id, spec.space.label,
                                                  (rep.lhs - upper) / rep.sigma)
    assert len(rows) == (3 if seed is None else 12 if suite == "mc_suite" else 9)


def _fresh_interpreter(code: str):
    """The JSON that code prints on its last line, run in a new interpreter
    that imports ctlab from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    return json.loads(out.stdout.splitlines()[-1])


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


@pytest.mark.parametrize("suite", ["deterministic", "negative_control", "gradient_suite"])
def test_gradient_suites_run_without_loading_scipy(tmp_path, suite):
    # importing scipy takes longer than these suites' checks; only the
    # assignment solver, the LP and custom coefficient families need it
    if suite == "gradient_suite":
        doc = _workloads().generate(suite, 1, str(ROOT / "src"))
        config = write_json(tmp_path / "suite.json", doc)
    else:
        config = bundled_config(f"{suite}.json")
    loaded = _fresh_interpreter(f"""
import json, sys
import ctlab, ctlab.cli
imported = {_SCIPY_MODULES}
rc = ctlab.cli.main(["verify", "--config", {config!r}, "--out", {str(tmp_path / "out")!r}])
print(json.dumps([imported, {_SCIPY_MODULES}, rc]))
""")
    assert loaded[:2] == [[], []]
    assert loaded[2] == (0 if suite == "deterministic" else 1)


def test_each_heat_backend_is_built_once_and_not_at_import(tmp_path):
    # importing ctlab builds no backend; a gradient suite run on two threads
    # builds each backend class once and shares it across its checks
    doc = _workloads().generate("gradient_suite", 1, str(ROOT / "src"))
    config = write_json(tmp_path / "suite.json", doc)
    built = _fresh_interpreter(f"""
import json
import ctlab, ctlab.cli
from ctlab import heat
at_import, counts = sorted(type(b).__name__ for b in heat._built.values()), {{}}
for cls in heat._BACKENDS:
    def counted(self, _init=cls.__init__, _name=cls.__name__):
        counts[_name] = counts.get(_name, 0) + 1
        _init(self)
    cls.__init__ = counted
rc = ctlab.cli.main(["verify", "--config", {config!r}, "--out", {str(tmp_path / "out")!r},
                     "--jobs", "2"])
print(json.dumps([at_import, counts, rc]))
""")
    assert built == [[], {"GaussHermite": 1, "CircleFourier": 1, "SphereZonal": 1}, 1]


def test_suite_with_assignments_imports_the_solver_when_loaded():
    # the load is set-up, not charged to the first check that solves, and
    # it is scipy's compiled solver alone, not the scipy.optimize package
    loaded = _fresh_interpreter(f"""
import json, sys
import ctlab.cli
before = {_SCIPY_MODULES}
ctlab.cli.load_suite({bundled_config("acceptance.json")!r})
print(json.dumps([before, [m in sys.modules for m in
                           ("scipy.optimize._lsap", "scipy.optimize", "scipy.sparse")]]))
""")
    assert loaded == [[], [True, False, False]]


def _suite_document(suite, tmp_path):
    """The path of a bundled suite, a perfbench input at seed 1, or one of
    two prectl-only suites: acceptance's S^2 rows, and E^2 at p = 2 (whose
    moment is closed-form)."""
    if suite in ("acceptance", "deterministic"):
        return bundled_config(f"{suite}.json")
    if suite in ("mc_suite", "transport_blocks"):
        doc = _workloads().generate(suite, 1, str(ROOT / "src"))
    else:
        doc = json.loads(pathlib.Path(bundled_config("acceptance.json")).read_text())
        doc["checks"] = [c for c in doc["checks"] if c["id"] == "prectl"]
        if suite == "prectl_flat":
            doc["checks"] = [dict(c, space={"kind": "euclidean", "dim": 2}, x=[0.0, 0.0],
                                  y=[1.0, 0.0], p=2.0) for c in doc["checks"]]
    return write_json(tmp_path / "suite.json", doc)


_LSAP, _LAPACK = "scipy.optimize._lsap", "scipy.linalg._flapack"


@pytest.mark.parametrize("suite,solvers", [
    ("acceptance", [_LSAP, _LAPACK]),
    ("deterministic", []),
    ("prectl_sphere", [_LSAP, _LAPACK]),
    ("prectl_flat", [_LSAP, _LAPACK]),
    ("mc_suite", [_LSAP, _LAPACK]),
    ("transport_blocks", [_LSAP, _LAPACK]),
])
def test_no_check_imports_a_module(tmp_path, suite, solvers):
    # every import a suite's checks need happens while it is loaded, and
    # the compiled solvers come alone: without scipy.optimize, scipy.sparse
    # and the scipy.linalg package.  A suite with any transport check,
    # prectl alone included, loads both solvers; the gradient checks still import
    # numpy's lazy numpy.random and numpy.fft (about 7 ms) on first use,
    # so that case imports them first
    lazy = "import numpy.fft, numpy.random" if suite == "deterministic" else ""
    loaded = _fresh_interpreter(f"""
import json, sys
import ctlab.checks, ctlab.cli
{lazy}
specs = ctlab.cli.load_suite({_suite_document(suite, tmp_path)!r})
after_load = sorted(sys.modules)
ctlab.checks.run_suite(specs)
print(json.dumps([after_load, sorted(sys.modules), {_SCIPY_MODULES}]))
""")
    after_load, after_run, scipy_modules = loaded
    assert after_run == after_load
    assert scipy_modules == sorted(solvers)


def test_scipy_optimize_reexports_the_solver_loaded_before_it():
    loaded = _fresh_interpreter("""
import json
from ctlab import transport
solver = transport._lsap()
import scipy.optimize
print(json.dumps([scipy.optimize.linear_sum_assignment is solver.linear_sum_assignment,
                  transport.linear_sum_assignment([[1.0, 0.0], [0.0, 1.0]])[1].tolist()]))
""")
    assert loaded == [True, [1, 0]]


def test_scipy_linalg_lapack_reexports_the_lapack_loaded_before_it():
    loaded = _fresh_interpreter("""
import json
from ctlab import transport
lapack = transport._flapack()
import scipy.linalg.lapack
print(json.dumps([scipy.linalg.lapack.dgttrf is lapack.dgttrf,
                  scipy.linalg.lapack.dgttrs is lapack.dgttrs]))
""")
    assert loaded == [True, True]


_W2 = {"id": "w2_control", "space": {"kind": "sphere", "dim": 2},
       "x": [0.0, 0.0, 1.0], "y": [1.0, 0.0, 0.0], "s": 0.1, "t": 0.4}
_DROP = object()


@pytest.mark.parametrize("change,top,named", [
    ({"s": None}, {}, "'s'"),
    ({"s": "abc"}, {}, "'s'"),
    ({"p": 0.5}, {}, "'p'"),
    ({"N": -1}, {}, "'N'"),
    ({"space": {"kind": "sphere", "dim": 2, "radius": -1}}, {}, "radius"),
    ({"space": {"kind": "sphere", "dim": 2.5}}, {}, "'dim'"),
    ({"share_noise": "false"}, {}, "'share_noise'"),
    ({"k": 2.7}, {}, "'k'"),
    ({"n_trajectories": 99.9}, {}, "'n_trajectories'"),
    ({"seed": 1.5}, {}, "'seed'"),
    ({"f": 3}, {}, "'f'"),
    ({"x": [0.0, "a", 1.0]}, {}, "'x'"),
    ({"extra": [1]}, {}, "'extra'"),
    ({}, {"seed": 1.5}, "'seed'"),
    ({"t": _DROP}, {}, "requires t"),
    ({"x": _DROP}, {}, "requires x or mu0"),
    ({"block_size": 0}, {}, "'block_size'"),
    ({"block_size": -5}, {}, "'block_size'"),
    ({"k": 0}, {}, "'k'"),
    ({"grid_n": 0}, {}, "'grid_n'"),
    ({"n_trajectories": 1}, {}, "'n_trajectories'"),
    ({"extra": {"n_case": 5}}, {}, "n_case"),
    ({"extra": {"grad_f": "cos_theta"}}, {}, "grad_f"),
    ({"extra": {"du": 0.1}}, {}, "du"),
    ({"K": 2.0, "z": 100}, {}, "'z'"),
    ({"z": -1}, {}, "'z'"),
    ({"eps": 1.0}, {}, "'eps'"),
    ({"h": 1e-2}, {}, "'h'"),
    ({"dt": 1e-3}, {}, "'dt'"),
    ({"backend_modes": 8}, {}, "'backend_modes'"),
    ({"extra": {"n_cases": 0}}, {}, "'n_cases'"),
    ({"extra": {"n_cases": 2.5}}, {}, "'n_cases'"),
    ({"extra": {"n_cases": True}}, {}, "'n_cases'"),
    ({"extra": {"grid": []}}, {}, "'grid'"),
    ({"extra": {"grid": [0.0, 0.0, 1.0]}}, {}, "'grid'"),
    ({"extra": {"grid": [[0.0, "a", 1.0]]}}, {}, "'grid'"),
    ({"extra": {"grid": [[0.0, 1.0]]}}, {}, "'grid'"),
])
def test_malformed_check_exits_two_before_any_walk(tmp_path, capsys, monkeypatch,
                                                    change, top, named):
    def no_walk(*args, **kwargs):
        raise AssertionError("a walk ran")

    monkeypatch.setattr(ctlab.checks, "coupled_distance_moment", no_walk)
    monkeypatch.setattr(ctlab.checks, "sample_heat", no_walk)
    check = {k: v for k, v in {**_W2, **change}.items() if v is not _DROP}
    cfg = write_json(tmp_path / "bad.json", {"schema": "ctl-suite/1", "checks": [check], **top})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_simulate_deterministic_and_shape(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--space", "euclidean", "--dim", "2",
            "--x", "0,0", "--y", "1,0", "--tau1", "0.3", "--tau2", "0.3",
            "-k", "1", "-n", "1", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert len(lines) == 3  # header + initial + terminal rows
    header = lines[0].split(",")
    assert header[:3] == ["trajectory_id", "step", "t"]
    # equal scales on flat space: the distance column is constant
    dcol = [float(l.split(",")[-1]) for l in lines[1:]]
    assert dcol[0] == pytest.approx(dcol[1], abs=1e-12)


def test_simulate_bad_geometry_exits_two(tmp_path):
    assert main(["simulate", "--space", "sphere", "--dim", "2",
                 "--x", "1,1,1", "--y", "0,0,1", "--tau1", "0.1",
                 "--tau2", "0.1", "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("space,x,y,opt,valid", [
    ("sphere", "0,0,1", "1,0,0", "--radius", "1"),
    ("hyperbolic", "1,0,0", "1,0,0", "--curvature", "-1"),
    ("euclidean_ou", "0,0", "1,0", "--lam", "1"),
])
def test_simulate_zero_geometry_argument_exits_two(tmp_path, capsys, space, x, y, opt, valid):
    # a zero is passed on to the space, which rejects it, not replaced by the default
    out = tmp_path / "x.csv"
    argv = ["simulate", "--space", space, "--dim", "2", f"--x={x}", f"--y={y}",
            "--tau1", "0.1", "--tau2", "0.1", "--out", str(out)]
    assert main(argv + [f"{opt}={valid}"]) == 0
    assert main(argv + [f"{opt}=0"]) == 2
    assert "bad geometry arguments" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [["-k", "0"], ["-n", "0"], ["--tau1=-1"],
                                 ["--retain-every", "0"]])
def test_simulate_bad_walk_argument_exits_two(tmp_path, capsys, bad):
    out = tmp_path / "x.csv"
    argv = ["simulate", "--space", "sphere", "--dim", "2", "--x=0,0,1", "--y=1,0,0",
            "--tau1", "0.1", "--tau2", "0.1", "--out", str(out)]
    assert main(argv + bad) == 2
    assert "bad walk arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [["--grid", "interval:1"], ["--grid", "circle:0"],
                                 ["--length", "0"], ["--length=-3"]])
def test_hopflax_bad_grid_exits_two(tmp_path, capsys, bad):
    out = tmp_path / "q.csv"
    argv = ["hopflax", "--grid", "interval:16", "--f", "linear", "--s", "0.2",
            "--out", str(out)]
    assert main(argv + bad) == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_geometry_argument_of_another_kind_exits_two(tmp_path, capsys):
    argv = ["simulate", "--space", "euclidean", "--x=0,0", "--y=1,0",
            "--tau1", "0.1", "--tau2", "0.1", "--out", str(tmp_path / "e.csv")]
    assert main(argv) == 0
    assert main(argv + ["--radius", "0", "--curvature", "5", "--lam", "-3"]) == 2
    assert "bad geometry arguments" in capsys.readouterr().err
    for opt in ("--radius=1", "--curvature=-1", "--lam=1"):
        assert main(argv + [opt]) == 2


@pytest.mark.parametrize("space,opt", [("euclidean", "--radius=1"),
                                       ("euclidean", "--curvature=-1"),
                                       ("sphere", "--curvature=-1"),
                                       ("hyperbolic", "--radius=1")])
def test_wasserstein_geometry_argument_of_another_kind_exits_two(tmp_path, capsys, space, opt):
    a = tmp_path / "a.csv"
    point = {"euclidean": [0.0, 0.0], "sphere": [0.0, 0.0, 1.0], "hyperbolic": [1.0, 0.0, 0.0]}
    np.savetxt(a, np.array([point[space]]), delimiter=",")
    assert main(["wasserstein", str(a), str(a), "--space", space]) == 0
    assert main(["wasserstein", str(a), str(a), "--space", space, opt]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("space,opt", [("sphere", "--radius"), ("hyperbolic", "--curvature")])
def test_wasserstein_zero_geometry_argument_exits_two(tmp_path, capsys, space, opt):
    a = tmp_path / "a.csv"
    np.savetxt(a, np.array([[0.0, 0.0, 1.0]]), delimiter=",")
    assert main(["wasserstein", str(a), str(a), "--space", space, opt, "0"]) == 2
    assert "input error" in capsys.readouterr().err


def test_wasserstein_cli(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    rng = np.random.default_rng(0)
    pa = rng.normal(size=(20, 2))
    pb = rng.normal(size=(20, 2)) + 1.0
    np.savetxt(a, pa, delimiter=",")
    np.savetxt(b, pb, delimiter=",")

    assert main(["wasserstein", str(a), str(a), "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert float(out.splitlines()[0].split("=")[1]) == pytest.approx(0.0, abs=1e-12)

    assert main(["wasserstein", str(a), str(b), "--p", "2"]) == 0
    out = capsys.readouterr().out
    value = float(out.splitlines()[0].split("=")[1])
    expect, _ = exact_cost(Euclidean(2), EmpiricalMeasure.uniform(pa),
                           EmpiricalMeasure.uniform(pb), PthPowerDistance(2.0))
    assert value == pytest.approx(expect, abs=1e-12)

    # Dirac files at distance d
    np.savetxt(a, np.array([[0.0, 0.0]]), delimiter=",")
    np.savetxt(b, np.array([[3.0, 4.0]]), delimiter=",")
    assert main(["wasserstein", str(a), str(b), "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert float(out.splitlines()[1].split("=")[1]) == pytest.approx(5.0, rel=1e-12)

    assert main(["wasserstein", str(tmp_path / "nope.csv"), str(b)]) == 2


def test_wasserstein_rejects_clouds_off_the_manifold(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("3,4\n1,0\n")
    b.write_text("0,5\n2,2\n")
    argv = ["wasserstein", str(a), str(b), "--space", "sphere", "--dim", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "cost=" not in captured.out
    assert f"point cloud {a}" in captured.err and "embedding constraint" in captured.err
    a.write_text("0.6,0.8\n1,0\n")
    b.write_text("0,1\n-1,0\n")
    assert main(argv) == 0


def test_bl_grid_from_a_suite_file(tmp_path):
    grid = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    cfg = write_json(tmp_path / "c.json", {
        "schema": "ctl-suite/1",
        "checks": [{"id": "bl0", "space": {"kind": "sphere", "dim": 2}, "t": 0.5,
                    "f": "cos_theta", "extra": {"grid": grid}}]})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    (row,) = load_report(str(tmp_path / "report.json"))
    direct = ctlab.checks.run_check(ctlab.checks.CheckSpec(
        check_id="bl0", space=Sphere(2), t=0.5, f="cos_theta", extra={"grid": np.array(grid)}))
    assert row["margin"] == direct.margin


def test_hopflax_cli(tmp_path, capsys):
    assert main(["hopflax", "--grid", "circle:128", "--f", "sin", "--s", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "Q_s f" in out
    assert main(["hopflax", "--grid", "interval:64", "--f", "linear", "--s", "0.2",
                 "--out", str(tmp_path / "q.csv")]) == 0
    assert (tmp_path / "q.csv").read_text().startswith("coord,f,Qsf")
    assert main(["hopflax", "--grid", "blob:4", "--f", "sin", "--s", "0.5"]) == 2
    assert main(["hopflax", "--grid", "circle:64", "--f", "nope", "--s", "0.5"]) == 2


def test_report_validation_rejects_tampering(tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "schema": "ctl-suite/1",
        "checks": [{"id": "laplacian_comparison",
                    "space": {"kind": "euclidean", "dim": 3},
                    "x": [0.0, 0.0, 0.0], "y": [1.0, 0.0, 0.0]}]})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    doc["reports"][0]["margin"] = 123.0
    tampered = write_json(tmp_path / "t.json", doc)
    assert main(["report", "--in", tampered]) == 2
    doc2 = json.loads((out / "report.json").read_text())
    doc2["schema"] = "wrong"
    assert main(["report", "--in", write_json(tmp_path / "t2.json", doc2)]) == 2


@pytest.mark.parametrize("key, value", [
    ("lhs", "1"), ("margin", "x"), ("sigma", True), ("seed", [1]), ("stderr_lhs", {}),
    ("check_id", 3), ("space", None), ("verdict", ["pass"])])
def test_report_field_of_the_wrong_type_exits_two(tmp_path, capsys, key, value):
    cfg = write_json(tmp_path / "c.json", {
        "schema": "ctl-suite/1",
        "checks": [{"id": "laplacian_comparison",
                    "space": {"kind": "euclidean", "dim": 3},
                    "x": [0.0, 0.0, 0.0], "y": [1.0, 0.0, 0.0]}]})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    doc["reports"][0][key] = value
    path = write_json(tmp_path / "t.json", doc)
    with pytest.raises(ConfigError, match=f"report field '{key}'"):
        load_report(path)
    assert main(["report", "--in", path]) == 2
    assert "report error" in capsys.readouterr().err


@pytest.mark.parametrize("row", [1, None, "pass", ["check_id", "verdict"]])
def test_report_row_that_is_not_an_object_exits_two(tmp_path, capsys, row):
    path = write_json(tmp_path / "r.json", {"schema": "ctl-report/1", "reports": [row]})
    with pytest.raises(ConfigError, match="must be an object"):
        load_report(path)
    assert main(["report", "--in", path]) == 2
    assert "report error" in capsys.readouterr().err
