"""Bitwise regression guard for the Monte Carlo checks.

tests/data/golden_margins.json pins float.hex of the margin and sigma of
a tiny Monte Carlo suite (n = 64 in two blocks, and n = 48 in one
bootstrapped block; k = 3).  A change that is meant to
leave every output unchanged (a faster walk, a refactor) must reproduce
these bits; a change that is meant to move them must re-record the file
and say why.  The values depend on the numpy and scipy builds, so the
test skips under versions other than the recorded ones.

Re-record with:  PYTHONPATH=src python tests/test_golden.py
"""

import json
import pathlib
import sys

import numpy as np
import pytest
import scipy

from ctlab.checks import CheckSpec, run_check
from ctlab.comparison import ExponentPair
from ctlab.geometry import Euclidean, Hyperbolic, Sphere

DATA = pathlib.Path(__file__).parent / "data" / "golden_margins.json"


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


def test_margins_are_bitwise_pinned():
    golden = json.loads(DATA.read_text())
    have = (np.__version__, scipy.__version__)
    if have != (golden["numpy"], golden["scipy"]):
        pytest.skip(f"recorded with numpy {golden['numpy']} / scipy {golden['scipy']}, "
                    f"running numpy {have[0]} / scipy {have[1]}")
    assert measure()["values"] == golden["values"]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(measure(), indent=1) + "\n")
    sys.exit(0)
