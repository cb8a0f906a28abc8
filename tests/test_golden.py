"""Bitwise regression guards for the Monte Carlo checks and the geometry.

tests/data/golden_margins.json pins float.hex of the margin and sigma of
a tiny Monte Carlo suite (n = 64 in two blocks, and n = 48 in one
bootstrapped block; k = 3).  tests/data/golden_geometry.json pins the
sha256 of the output bytes of every geometry operation on a seeded batch
per model space, including a point on a coordinate axis and an antipodal
pair, and each space's curvature-dimension bound.  A change that is meant to
leave every output unchanged (a faster walk, a refactor) must reproduce
these bits; a change that is meant to move them must re-record the files
and say why.  The values depend on the numpy and scipy builds, so the
tests skip under versions other than the recorded ones.

Re-record both with:  PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest
import scipy

from ctlab.checks import CheckSpec, run_check
from ctlab.comparison import ExponentPair
from ctlab.geometry import Euclidean, EuclideanOU, Hyperbolic, Sphere, UnsupportedParameterError

DATA = pathlib.Path(__file__).parent / "data" / "golden_margins.json"
GEOMETRY_DATA = pathlib.Path(__file__).parent / "data" / "golden_geometry.json"


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
    """(name, spec) for every pinned check: n = 64, k = 3, two 32-point
    blocks; and n = 48, k = 3 in one block, whose error bar comes from
    the bootstrap over resampled points."""
    out = []
    for label, (space, x, y) in _pairs().items():
        for i, (check, params) in enumerate(_PARAMS.items()):
            out.append((f"{check}/{label}", CheckSpec(
                check_id=check, space=space, x=x, y=y, n_trajectories=64, k=3,
                block_size=32, seed=100 + i, **params)))
    space, x, y = _pairs()["S2"]
    out.append(("w2_control_separate_noise/S2", CheckSpec(
        check_id="w2_control", space=space, x=x, y=y, s=0.25, t=1.0, n_trajectories=64,
        k=3, block_size=32, seed=100, share_noise=False)))
    for i, (label, (check, params)) in enumerate(_SINGLE_BLOCK.items()):
        space, x, y = _pairs()[label]
        out.append((f"{check}_single_block/{label}", CheckSpec(
            check_id=check, space=space, x=x, y=y, n_trajectories=48, k=3,
            block_size=1000, seed=200 + i, **params)))
    return out


def measure() -> dict:
    values = {}
    for name, spec in cases():
        rep = run_check(spec)
        values[name] = {"margin": float(rep.margin).hex(), "sigma": float(rep.sigma).hex(),
                        "verdict": rep.verdict}
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
            "transport_frame": space.transport_frame(x, y, frame),
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


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(measure(), indent=1) + "\n")
    GEOMETRY_DATA.write_text(json.dumps(measure_geometry(), indent=1) + "\n")
    sys.exit(0)
