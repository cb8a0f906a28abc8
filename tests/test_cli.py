import json
import math

import numpy as np
import pytest

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


def test_build_space_and_check_strictness():
    with pytest.raises(ConfigError):
        build_space({"kind": "torus", "dim": 2})
    with pytest.raises(ConfigError):
        build_space({"kind": "sphere", "dim": 2, "extra": 1})
    spec = build_check({"id": "bl0", "space": {"kind": "sphere", "dim": 2},
                        "t": 0.5, "f": "cos_theta", "k_prime_factor": 0.9},
                       global_seed=1, index=0)
    assert spec.resolved_cd().K == pytest.approx(0.9)


def test_bundled_configs_parse():
    for name in ("acceptance.json", "deterministic.json", "negative_control.json"):
        specs = load_suite(bundled_config(name))
        assert specs


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
