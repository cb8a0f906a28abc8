"""Seeded workload generator for the ctlab benchmark.

Each workload is built from a workload seed alone and handed to the
program as the program's own input: a ``ctl-suite/1`` document for
``ctl verify`` or a list of ``ctl simulate`` argument lists.  The reason
each workload exists sits in its ``WHY`` entry and in README.md.

Run ``python3 perfbench/workloads.py <workload> <seed>`` to print one.

Points are constructed exactly on their manifold (unit-norm rows on the
sphere, hyperboloid rows re-normalized to <x, x> = -1), so the program's
``check_point`` tolerance of 1e-9 is never the reason an input fails.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

SUITE_SCHEMA = "ctl-suite/1"

WORKLOADS = ("mc_suite", "transport_blocks", "gradient_suite", "walk_paths")

WHY = {
    "mc_suite": (
        "the ctl verify Monte Carlo mix of the bundled acceptance suite on S2, H2 "
        "and E2: walk plus geometry do most of the work, transport the rest"),
    "transport_blocks": (
        "few walk steps and many 1000-point assignment blocks plus single-block "
        "bootstrap checks, so transport dominates and walk changes do not show"),
    "gradient_suite": (
        "deterministic gradient-side checks and the negative control: heat "
        "backends and comparison functions do the work, with no walk or transport"),
    "walk_paths": (
        "ctl simulate dumps with few trajectories and many steps kept as "
        "snapshots: per-step walk overhead and write_path_csv"),
}

# Salts keep the four workloads' random streams apart for one seed.
_SALT = {name: i + 1 for i, name in enumerate(WORKLOADS)}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, _SALT[workload]])


# ---------------------------------------------------------------------------
# exact points


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def sphere_pair(rng: np.random.Generator, dist: float) -> tuple[list, list]:
    """A pair on the unit 2-sphere at geodesic distance ``dist`` < pi."""
    x = _unit(rng.standard_normal(3))
    u = rng.standard_normal(3)
    u = _unit(u - (u @ x) * x)
    y = _unit(math.cos(dist) * x + math.sin(dist) * u)
    return x.tolist(), y.tolist()


def circle_pair(rng: np.random.Generator, dist: float) -> tuple[list, list]:
    a = rng.uniform(0.0, 2.0 * math.pi)
    return [math.cos(a), math.sin(a)], [math.cos(a + dist), math.sin(a + dist)]


def _mink(u: np.ndarray, v: np.ndarray) -> float:
    return float(u[1:] @ v[1:] - u[0] * v[0])


def _on_hyperboloid(p: np.ndarray) -> np.ndarray:
    return p / math.sqrt(-_mink(p, p))


def hyperbolic_pair(rng: np.random.Generator, dist: float) -> tuple[list, list]:
    """A pair on the unit hyperboloid (curvature -1) at distance ``dist``."""
    spatial = 0.5 * rng.standard_normal(2)
    x = _on_hyperboloid(np.concatenate([[math.sqrt(1.0 + spatial @ spatial)], spatial]))
    w = np.concatenate([[0.0], rng.standard_normal(2)])
    v = w + _mink(x, w) * x                      # tangent at x
    v = v / math.sqrt(_mink(v, v))
    y = _on_hyperboloid(math.cosh(dist) * x + math.sinh(dist) * v)
    return x.tolist(), y.tolist()


def euclidean_pair(rng: np.random.Generator, dist: float, dim: int = 2) -> tuple[list, list]:
    x = rng.standard_normal(dim)
    y = x + dist * _unit(rng.standard_normal(dim))
    return x.tolist(), y.tolist()


# ---------------------------------------------------------------------------
# verify workloads

_S2 = {"kind": "sphere", "dim": 2}
_S1 = {"kind": "sphere", "dim": 1}
_H2 = {"kind": "hyperbolic", "dim": 2}
_E2 = {"kind": "euclidean", "dim": 2}
_E1 = {"kind": "euclidean", "dim": 1}
_OU = {"kind": "euclidean_ou", "dim": 1, "lam": 1.0}


def _pair(rng, space: dict, dist: float):
    if space["kind"] == "sphere":
        return sphere_pair(rng, dist)
    if space["kind"] == "hyperbolic":
        return hyperbolic_pair(rng, dist)
    return euclidean_pair(rng, dist, space.get("dim", 2))


def _curved(space: dict) -> dict:
    # K' = 0.9 K lowers the bound on S2, which the comparison-function
    # control needs strictly below the native K.  On H2 the same factor
    # would claim K' = -0.9 > K = -1, not a valid lower bound, so H2
    # keeps its native K.
    return {"k_prime_factor": 0.9} if space["kind"] == "sphere" else {}


def _mc_checks(rng, space: dict, plan: dict) -> list[dict]:
    """The acceptance mix on one space: prectl p=2 and p=3 with beta, lp2,
    swc, wp, w2_control and wvar_ode."""
    out = []
    x, y = _pair(rng, space, 1.0)
    # twice the trajectories: a coupled walk alone then costs about what
    # a two-sided check costs, which keeps the median operation away from
    # the edge between cheap and dear checks
    for p in (2.0, 3.0):
        out.append({"id": "prectl", "space": space, **_curved(space), "x": x, "y": y,
                    "tau1": 0.2, "tau2": 0.4, "p": p, "beta": 2.0,
                    **plan, "n_trajectories": 2 * plan["n_trajectories"]})
    x, y = _pair(rng, space, 1.5)
    out.append({"id": "lp2", "space": space, **_curved(space), "x": x, "y": y,
                "tau1": 0.2, "tau2": 0.4, "p": 2.0, **plan})
    x, y = _pair(rng, space, 2.0)
    out.append({"id": "swc", "space": space, **_curved(space), "x": x, "y": y,
                "s": 0.1, "t": 0.4, **plan})
    x, y = _pair(rng, space, 1.0)
    out.append({"id": "wp", "space": space, **_curved(space), "x": x, "y": y,
                "s": 0.25, "t": 1.0, "p": 3.0, "beta": 2.0, **plan})
    # the flat case is sharp: W2^2 equals the right side exactly, so its
    # margin shows the block-transport bias
    x, y = _pair(rng, space, 1.0)
    out.append({"id": "w2_control", "space": space, **_curved(space), "x": x, "y": y,
                "s": 0.25, "t": 1.0, **plan})
    x, y = _pair(rng, space, 1.0)
    out.append({"id": "wvar_ode", "space": space, **_curved(space), "x": x, "y": y,
                "t": 0.3, **plan})
    return out


def mc_suite(seed: int) -> dict:
    rng = _rng("mc_suite", seed)
    # Scaled from the shipped plan (n=5000, k=30, 1000-point blocks): one
    # pass of the shipped plan over 21 checks takes minutes.  Smaller
    # blocks keep the walk near two thirds of the work, as in the shipped
    # plan, because assignment cost grows faster than the block size.
    plan = {"n_trajectories": 560, "k": 9, "block_size": 280}
    checks = []
    for space in (_S2, _H2, _E2):
        checks += _mc_checks(rng, space, plan)
    return {"schema": SUITE_SCHEMA, "seed": int(rng.integers(1, 2**31)), "checks": checks}


def transport_blocks(seed: int) -> dict:
    rng = _rng("transport_blocks", seed)
    walk = {"k": 3}  # 9 walk steps: the walk is a small share here
    checks = []
    # 1000-point assignment blocks, 4 per pass
    for space, cid, n, extra in (
            (_E2, "w2_control", 2000, {"s": 0.25, "t": 1.0}),
            (_S2, "lp2", 2000, {"tau1": 0.2, "tau2": 0.4})):
        x, y = _pair(rng, space, 1.0)
        checks.append({"id": cid, "space": space, **_curved(space), "x": x, "y": y,
                       "n_trajectories": n, "block_size": 1000, **walk, **extra})
    # n < block_size takes block_cost_estimate's single-block bootstrap
    # path, which re-solves the assignment for each of 200 resamples.
    # Seven of them keep the median operation on this path.
    for space, cid, extra in (
            (_E2, "w2_control", {"s": 0.25, "t": 1.0}),
            (_S2, "swc", {"s": 0.1, "t": 0.4}),
            (_H2, "wp", {"s": 0.25, "t": 1.0, "p": 3.0, "beta": 2.0}),
            (_E2, "lp2", {"tau1": 0.2, "tau2": 0.4}),
            (_S2, "w2_control", {"s": 0.25, "t": 1.0}),
            (_H2, "lp2", {"tau1": 0.2, "tau2": 0.4}),
            (_E2, "wp", {"s": 0.25, "t": 1.0, "p": 3.0, "beta": 2.0})):
        x, y = _pair(rng, space, 1.0)
        checks.append({"id": cid, "space": space, **_curved(space), "x": x, "y": y,
                       "n_trajectories": 48, "block_size": 1000, **walk, **extra})
    return {"schema": SUITE_SCHEMA, "seed": int(rng.integers(1, 2**31)), "checks": checks}


def _negative_control(src_root: str) -> dict:
    path = os.path.join(src_root, "ctlab", "configs", "negative_control.json")
    with open(path) as fh:
        (check,) = json.load(fh)["checks"]
    return check


def gradient_suite(seed: int, src_root: str) -> dict:
    rng = _rng("gradient_suite", seed)
    # (space, field, grid points of bl0/blp, mono_app cases): counts are
    # raised until heat evaluations dominate the pass.  The S2 and S1
    # checks take about the same time, as do the E1 and OU ones, so that
    # the median and tail operations fall inside a group of similar
    # operations rather than on the edge between two.
    table = ((_S2, "cos_theta", 160, 600), (_S1, "sin", 1600, 4200),
             (_E1, "sin", 1600, 2000), (_OU, "sin", 1600, 2000))
    checks = []
    for space, f, grid, cases in table:
        t = float(rng.uniform(0.2, 0.8))
        checks.append({"id": "bl0", "space": space, "t": t, "f": f, "grid_n": grid})
        checks.append({"id": "blp", "space": space, "t": t, "f": f, "grid_n": grid,
                       "p": 3.0, "beta": 2.0})
        checks.append({"id": "mono_app", "space": space, "t": float(rng.uniform(0.2, 0.6)),
                       "extra": {"n_cases": cases}})
    # bl_int needs finite N, which the linear-drift space does not have
    for space, f, pair in ((_S2, "cos_theta", sphere_pair), (_S1, "sin", circle_pair),
                           (_E1, "sin", lambda r, d: euclidean_pair(r, d, 1))):
        x, y = pair(rng, float(rng.uniform(0.5, 1.5)))
        checks.append({"id": "bl_int", "space": space, "x": x, "y": y,
                       "s": 0.2, "t": 0.5, "f": f})
    # gamma2 grids sized so each check costs about what an E1 or OU check
    # costs: the median operation then sits inside that group
    for space, f, grid in ((_S2, "cos_theta", 80000), (_S1, "sin", 130000),
                           (_E1, "sin", 320000)):
        checks.append({"id": "gamma2", "space": space, "f": f, "grid_n": grid,
                       "delta": 0.1})
    for space, dist in ((_S2, 1.0), (_H2, 1.5), (_E2, 1.0), (_E1, 1.0)):
        x, y = _pair(rng, space, dist)
        checks.append({"id": "laplacian_comparison", "space": space, "x": x, "y": y})
    checks.append(_negative_control(src_root))
    return {"schema": SUITE_SCHEMA, "seed": int(rng.integers(1, 2**31)), "checks": checks}


# ---------------------------------------------------------------------------
# simulate workload


def walk_paths(seed: int) -> list[dict]:
    """ctl simulate dumps: each entry has the argument list and what the
    CSV must hold (space, trajectories, steps)."""
    rng = _rng("walk_paths", seed)
    dumps = []
    # three light, five middle and two heavy dumps: the median and tail
    # operations fall inside the middle group, five dumps of the same size
    for kind, k, n in (("sphere", 12, 4), ("hyperbolic", 12, 4), ("hyperbolic", 14, 4),
                       ("sphere", 26, 4), ("sphere", 26, 4), ("sphere", 26, 4),
                       ("sphere", 26, 4), ("sphere", 26, 4),
                       ("sphere", 60, 2), ("hyperbolic", 40, 2)):
        pair = sphere_pair if kind == "sphere" else hyperbolic_pair
        x, y = pair(rng, float(rng.uniform(0.5, 1.5)))
        argv = ["simulate", "--space", kind, "--dim", "2",
                # the = form keeps a leading minus sign from reading as an option
                "--x=" + ",".join(repr(v) for v in x), "--y=" + ",".join(repr(v) for v in y),
                "--tau1", "0.2", "--tau2", "0.4", "-k", str(k), "-n", str(n),
                "--seed", str(int(rng.integers(0, 2**31))), "--retain-every", "1"]
        dumps.append({"argv": argv, "space": kind, "k": k, "n": n})
    return dumps


def expected_failures(doc: dict, src_root: str) -> list[int]:
    """Indices of the checks that must fail: copies of the bundled
    negative control."""
    neg = _negative_control(src_root)
    return [i for i, c in enumerate(doc["checks"]) if c == neg]


def generate(workload: str, seed: int, src_root: str):
    """The program input of one workload: a suite document or a dump list."""
    if workload == "mc_suite":
        return mc_suite(seed)
    if workload == "transport_blocks":
        return transport_blocks(seed)
    if workload == "gradient_suite":
        return gradient_suite(seed, src_root)
    if workload == "walk_paths":
        return walk_paths(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: workloads.py <workload> <seed>")
    json.dump(generate(sys.argv[1], int(sys.argv[2]), os.path.join(os.getcwd(), "src")),
              sys.stdout, indent=1)
    print()
