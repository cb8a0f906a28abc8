"""Bitwise regression guards for the Monte Carlo checks and the geometry.

tests/data/golden_margins.json pins float.hex of the margin and sigma of
a tiny Monte Carlo suite (n = 64 in two blocks, and n = 48 in one
bootstrapped block), sampled from the exact heat laws with the
coupling's upper side patched out (the "/exact" rows), of each of its
reports that the upper side decides (the "/bounds" rows), of prectl on
the law of the coupled distance (the "/law" rows), and of the coupled
walk's terminal moment E d^p and its standard error at the prectl plan
(k = 3).  tests/data/golden_geometry.json pins the
sha256 of the output bytes of every geometry operation on a seeded batch
per model space, including a point on a coordinate axis and an antipodal
pair, and each space's curvature-dimension bound.  A change that is meant to
leave every output unchanged (a faster walk, a refactor) must reproduce
these bits; a change that is meant to move them must re-record the files
and say why.  tests/data/golden_gradient.json pins float.hex of the margin
and the verdict of every deterministic gradient-side check on S^2, S^1,
E^1, E^2, OU, H^2 and E^3, including the fields whose gradient comes from
geodesic finite differences (smooth_mix, gaussian_bump).  The values depend
on the numpy and scipy builds, so the tests skip under versions other than
the recorded ones.

Re-record all three with:  PYTHONPATH=src python tests/test_golden.py
Before it writes, it prints every row it changes: the old and new margin
and sigma with their relative move and the old and new verdict, or, for a
geometry row, the operations whose digests moved.  Each file ends with one
summary line: the rows moved, the largest relative move of a margin, a
sigma and a walk moment, and the number of verdicts changed.  The script
exits 1 if any verdict changed, so a re-record that is meant to move only
last bits checks that itself.
"""

import hashlib
import json
import math
import pathlib
import sys
from unittest import mock

import numpy as np
import pytest
import scipy

import ctlab.checks
from ctlab.checks import CheckSpec, run_check
from ctlab.comparison import ExponentPair
from ctlab.geometry import Euclidean, EuclideanOU, Hyperbolic, Sphere, UnsupportedParameterError
from ctlab.walk import WalkConfig, run_coupled

DATA = pathlib.Path(__file__).parent / "data" / "golden_margins.json"
GEOMETRY_DATA = pathlib.Path(__file__).parent / "data" / "golden_geometry.json"
GRADIENT_DATA = pathlib.Path(__file__).parent / "data" / "golden_gradient.json"


def _pairs():
    s2, h2, e2 = Sphere(2), Hyperbolic(2), Euclidean(2)
    north = np.array([0.0, 0.0, 1.0])
    return {
        "S2": (s2, north, s2.exp_map(north, np.array([1.0, 0.0, 0.0]))),
        "H2": (h2, h2.origin(), h2.exp_map(h2.origin(), np.array([0.0, 1.0, 0.0]))),
        "E2": (e2, np.zeros(2), np.array([1.0, 0.0])),
    }


_PARAMS = {
    "w2_control": dict(s=0.25, t=1.0),
    "lp2": dict(tau1=0.2, tau2=0.4),
    "prectl": dict(tau1=0.2, tau2=0.4, exponents=ExponentPair(3.0, 2.0)),
    "wvar_ode": dict(t=0.3),
}


_SINGLE_BLOCK = {
    "S2": ("w2_control", dict(s=0.25, t=1.0)),
    "H2": ("lp2", dict(tau1=0.2, tau2=0.4)),
    "E2": ("wp", dict(s=0.25, t=1.0, exponents=ExponentPair(3.0, 2.0))),
}


def cases():
    """(name, spec) for every pinned check: n = 64 in two 32-point blocks;
    and n = 48 in one block, whose error bar comes from the bootstrap over
    resampled points.  The two-sided checks run on the exact heat laws as
    "<name>/exact".  prectl runs on the law of the coupled distance as
    "<name>/law", and its row "<name>" pins run_coupled's terminal moment
    at the same plan (k = 3)."""
    out = []

    def add(name, **kwargs):
        spec = CheckSpec(**kwargs)
        if kwargs["check_id"] == "prectl":
            out.append((name, spec))
            out.append((f"{name}/law", spec))
        else:
            out.append((f"{name}/exact", spec))

    for label, (space, x, y) in _pairs().items():
        for i, (check, params) in enumerate(_PARAMS.items()):
            add(f"{check}/{label}", check_id=check, space=space, x=x, y=y, n_trajectories=64,
                k=3, block_size=32, seed=100 + i, **params)
    space, x, y = _pairs()["S2"]
    add("w2_control_separate_noise/S2", check_id="w2_control", space=space, x=x, y=y, s=0.25,
        t=1.0, n_trajectories=64, k=3, block_size=32, seed=100, share_noise=False)
    for i, (label, (check, params)) in enumerate(_SINGLE_BLOCK.items()):
        space, x, y = _pairs()[label]
        add(f"{check}_single_block/{label}", check_id=check, space=space, x=x, y=y,
            n_trajectories=48, k=3, block_size=1000, seed=200 + i, **params)
    return out


def _coupled_moment(spec: CheckSpec) -> dict:
    """E d^p and its standard error over the terminal distances of the
    coupled walk at the spec's plan (seed + 1, as prectl once drew it)."""
    cfg = WalkConfig(k=spec.k, n_trajectories=spec.n_trajectories, seed=spec.seed + 1)
    path = run_coupled(spec.space, spec.x, spec.y, spec.tau1, spec.tau2, cfg)
    vals = path.terminal_distances ** spec.exponents.p
    return {"moment": float(vals.mean()).hex(),
            "stderr": float(vals.std(ddof=1) / math.sqrt(vals.size)).hex()}


def _pinned(rep) -> dict:
    return {"margin": float(rep.margin).hex(), "sigma": float(rep.sigma).hex(),
            "verdict": rep.verdict}


def measure() -> dict:
    values = {}
    for name, spec in cases():
        if spec.check_id == "prectl" and not name.endswith("/law"):
            values[name] = _coupled_moment(spec)
            continue
        # every row draws its heat clouds: the coupling's upper side is patched out
        with mock.patch.object(ctlab.checks, "_coupling_bound", lambda *args: None):
            values[name] = _pinned(run_check(spec))
    # the rows that the upper side decides, as "<check>/<space>/bounds"
    for name, spec in cases():
        if name.endswith("/exact"):
            rep = run_check(spec)
            if rep.metadata.get("sampler") == "bounds":
                values[name.removesuffix("exact") + "bounds"] = _pinned(rep)
    return {"numpy": np.__version__, "scipy": scipy.__version__, "values": values}


def gradient_cases():
    """(name, spec) for the deterministic gradient-side checks: small grids
    and few mono_app cases, so the whole set runs in about a second."""
    s2, s2_r2, s1, s1_r = Sphere(2), Sphere(2, radius=2.0), Sphere(1), Sphere(1, radius=1.5)
    e1, e2, e3, ou1, ou2 = (Euclidean(1), Euclidean(2), Euclidean(3),
                            EuclideanOU(1, 1.0), EuclideanOU(2, 0.7))
    h2 = Hyperbolic(2)
    north, east = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    p3 = dict(exponents=ExponentPair(3.0, 2.0))
    c1 = lambda a: np.array([math.cos(a), math.sin(a)])
    few = dict(extra={"n_cases": 12})
    table = [
        ("bl0", "S2", s2, dict(t=0.3, f="cos_theta")),
        ("blp", "S2", s2, dict(t=0.3, f="cos_theta", **p3)),
        ("bl0", "S2_r2", s2_r2, dict(t=0.4, f="cos_theta")),
        ("bl_int", "S2", s2, dict(x=north, y=east, s=0.2, t=0.5, f="cos_theta")),
        ("gamma2", "S2", s2, dict(f="cos_theta", delta=0.1)),
        ("gamma2", "S2_p3", s2, dict(f="cos_theta", delta=0.1, **p3)),
        ("gamma2", "S2_r2", s2_r2, dict(f="cos_theta", delta=0.1)),
        ("laplacian_comparison", "S2", s2, dict(x=north, y=s2.exp_map(north, 0.9 * east))),
        ("mono_app", "S2", s2, dict(t=0.3, **few)),
        ("bl0", "S1", s1, dict(t=0.3, f="sin")),
        ("blp", "S1", s1, dict(t=0.3, f="sin", **p3)),
        ("bl0", "S1_smooth_mix", s1, dict(t=0.3, f="smooth_mix")),
        ("blp", "S1_r1.5_smooth_mix", s1_r, dict(t=0.3, f="smooth_mix", **p3)),
        ("bl_int", "S1", s1, dict(x=c1(0.3), y=c1(1.4), s=0.2, t=0.5, f="sin")),
        ("bl_int", "S1_smooth_mix", s1, dict(x=c1(0.3), y=c1(1.4), s=0.2, t=0.5,
                                             f="smooth_mix")),
        ("gamma2", "S1_p3", s1, dict(f="sin", delta=0.05, **p3)),
        ("gamma2", "S1_r1.5_smooth_mix", s1_r, dict(f="smooth_mix", delta=0.05)),
        ("laplacian_comparison", "S1", s1, dict(x=c1(0.3), y=c1(1.4))),
        ("mono_app", "S1", s1, dict(t=0.3, **few)),
        ("bl0", "E1", e1, dict(t=0.3, f="sin")),
        ("blp", "E1", e1, dict(t=0.3, f="quadratic", **p3)),
        ("bl_int", "E1", e1, dict(x=np.array([-0.4]), y=np.array([0.7]), s=0.2, t=0.5,
                                  f="sin")),
        ("gamma2", "E1", e1, dict(f="sin", delta=0.1)),
        ("gamma2", "E1_p3", e1, dict(f="quadratic", delta=0.1, **p3)),
        ("laplacian_comparison", "E1", e1, dict(x=np.array([-0.4]), y=np.array([0.7]))),
        ("mono_app", "E1", e1, dict(t=0.3, **few)),
        ("bl0", "E2", e2, dict(t=0.3, f="coordinate")),
        ("bl0", "E2_gaussian_bump", e2, dict(t=0.3, f="gaussian_bump")),
        ("blp", "E2_gaussian_bump", e2, dict(t=0.3, f="gaussian_bump", **p3)),
        ("bl_int", "E2_gaussian_bump", e2, dict(x=np.array([-0.4, 0.2]), y=np.array([0.7, -0.1]),
                                                s=0.2, t=0.5, f="gaussian_bump")),
        ("laplacian_comparison", "E2", e2, dict(x=np.zeros(2), y=np.array([0.6, 0.8]))),
        ("mono_app", "E2", e2, dict(t=0.3, **few)),
        ("bl0", "OU1", ou1, dict(t=0.5, f="sin")),
        ("blp", "OU1", ou1, dict(t=0.5, f="sin", **p3)),
        ("bl0", "OU2_gaussian_bump", ou2, dict(t=0.5, f="gaussian_bump")),
        ("mono_app", "OU1", ou1, dict(t=0.3, **few)),
        ("laplacian_comparison", "H2", h2,
         dict(x=h2.origin(), y=h2.exp_map(h2.origin(), np.array([0.0, 1.5, 0.0])))),
        ("laplacian_comparison", "E3", e3, dict(x=np.zeros(3), y=np.array([0.3, -0.4, 1.2]))),
    ]
    return [(f"{check}/{label}", CheckSpec(check_id=check, space=space, grid_n=16,
                                           seed=400 + i, **params))
            for i, (check, label, space, params) in enumerate(table)]


def measure_gradient() -> dict:
    values = {}
    for name, spec in gradient_cases():
        rep = run_check(spec)
        values[name] = {"margin": float(rep.margin).hex(), "verdict": rep.verdict}
    return {"numpy": np.__version__, "scipy": scipy.__version__, "values": values}


def _geometry_spaces():
    return {"S1": Sphere(1), "S2": Sphere(2), "S2_r2": Sphere(2, radius=2.0),
            "S3": Sphere(3), "H2": Hyperbolic(2), "H3_c0.5": Hyperbolic(3, curvature=-0.5),
            "E2": Euclidean(2), "OU2": EuclideanOU(2, 0.7)}


def _geometry_batch(space, rng, n=12):
    """(x, y, v, raw): points x and y, tangents v at x and unconstrained
    vectors raw.  Row 0 has y = x; on spheres row 1 puts x on the first
    coordinate axis (so frame skips that axis) and row 2 has y = -x."""
    raw = rng.standard_normal((n, space.emb_dim))
    if isinstance(space, Sphere):
        x = space.radius * raw / np.linalg.norm(raw, axis=-1, keepdims=True)
        g = rng.standard_normal((n, space.emb_dim))
        y = space.radius * g / np.linalg.norm(g, axis=-1, keepdims=True)
        x[1] = 0.0
        x[1, 0] = space.radius
        y[2] = -x[2]
    elif isinstance(space, Hyperbolic):
        x = space.embed(rng.standard_normal((n, space.dim)))
        y = space.embed(rng.standard_normal((n, space.dim)))
        x[1] = space.origin()
    else:
        x = raw
        y = rng.standard_normal((n, space.emb_dim))
    y[0] = x[0]
    v = space.project_tangent(x, 0.8 * rng.standard_normal(x.shape))
    return x, y, v, x * (1.0 + 0.1 * rng.standard_normal((n, 1)))


def _digest(a) -> dict:
    a = np.ascontiguousarray(a, dtype=float)
    return {"shape": list(a.shape), "sha256": hashlib.sha256(a.tobytes()).hexdigest()}


def measure_geometry() -> dict:
    values = {}
    for i, (label, space) in enumerate(_geometry_spaces().items()):
        x, y, v, raw = _geometry_batch(space, np.random.default_rng(300 + i))
        frame = space.frame(x)
        out = {
            "exp_map": space.exp_map(x, v),
            "log_map": space.log_map(x, y),
            "distance": space.distance(x, y),
            "parallel_transport": space.parallel_transport(x, y, v),
            "exp_transport": space.exp_transport(x[:, None], v[:, None], frame)[1],
            "frame": frame,
            "frame_one_point": space.frame(x[1]),
            "project_point": space.project_point(raw),
            "project_tangent": space.project_tangent(x, raw),
            "geodesic_point": space.geodesic_point(x, y, 0.3),
        }
        row = {name: _digest(a) for name, a in out.items()}
        for name, N in (("curvature_dimension", None),
                        ("curvature_dimension_N", space.dim + 1.5)):
            try:
                cd = space.curvature_dimension(N)
                row[name] = [float(cd.K).hex(), float(cd.N).hex()]
            except UnsupportedParameterError:
                row[name] = "unsupported"
        values[label] = row
    return {"numpy": np.__version__, "scipy": scipy.__version__, "values": values}


def _skip_unless_recorded_versions(golden):
    have = (np.__version__, scipy.__version__)
    if have != (golden["numpy"], golden["scipy"]):
        pytest.skip(f"recorded with numpy {golden['numpy']} / scipy {golden['scipy']}, "
                    f"running numpy {have[0]} / scipy {have[1]}")


def test_margins_are_bitwise_pinned():
    golden = json.loads(DATA.read_text())
    _skip_unless_recorded_versions(golden)
    assert measure()["values"] == golden["values"]


def test_geometry_is_bitwise_pinned():
    golden = json.loads(GEOMETRY_DATA.read_text())
    _skip_unless_recorded_versions(golden)
    have = measure_geometry()["values"]
    assert have.keys() == golden["values"].keys()
    for label, row in golden["values"].items():
        assert have[label] == row, label


def test_gradient_side_is_bitwise_pinned():
    golden = json.loads(GRADIENT_DATA.read_text())
    _skip_unless_recorded_versions(golden)
    have = measure_gradient()["values"]
    assert have.keys() == golden["values"].keys()
    for name, row in golden["values"].items():
        assert have[name] == row, name


_MOVING = ("margin", "sigma", "moment", "stderr")


def _relative_move(old: str, new: str) -> float:
    a, b = float.fromhex(old), float.fromhex(new)
    return abs(b - a) / abs(a) if a else (0.0 if b == a else math.inf)


def _describe_move(old: dict, new: dict) -> str:
    """The change from a recorded row to a measured one, in words."""
    if "verdict" not in new:
        return "moved: " + ", ".join(k for k in new if old.get(k) != new[k])
    parts = []
    for key in ("margin", "sigma"):
        if key in new:
            a, b = float.fromhex(old[key]), float.fromhex(new[key])
            parts.append(f"{key} {a!r} -> {b!r} (rel {_relative_move(old[key], new[key]):.1e})")
    return "; ".join(parts) + f"; verdict {old['verdict']} -> {new['verdict']}"


def record(path: pathlib.Path, measured: dict) -> int:
    """Print each row of path that measured changes, then one summary line:
    the rows moved, the largest relative move of each pinned number and
    the verdicts changed.  Write measured and return that last count."""
    old = json.loads(path.read_text())["values"] if path.exists() else {}
    moved, verdicts, largest = 0, 0, {}
    for name in old.keys() - measured["values"].keys():
        print(f"{path.name} {name}: removed")
        moved += 1
    for name, row in measured["values"].items():
        if name not in old:
            print(f"{path.name} {name}: new")
            moved += 1
        elif old[name] != row:
            print(f"{path.name} {name}: {_describe_move(old[name], row)}")
            moved += 1
            verdicts += "verdict" in row and old[name].get("verdict") != row["verdict"]
            for key in _MOVING:
                if key in row and key in old[name]:
                    rel = _relative_move(old[name][key], row[key])
                    largest[key] = max(largest.get(key, 0.0), rel)
    moves = ", ".join(f"{key} {rel:.1e}" for key, rel in largest.items()) or "none"
    print(f"{path.name}: {moved} rows moved; largest relative move: {moves}; "
          f"{verdicts} verdicts changed")
    path.write_text(json.dumps(measured, indent=1) + "\n")
    return verdicts


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    changed = (record(DATA, measure()) + record(GEOMETRY_DATA, measure_geometry())
               + record(GRADIENT_DATA, measure_gradient()))
    sys.exit(1 if changed else 0)
