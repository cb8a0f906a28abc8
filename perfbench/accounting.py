"""Correctness accounting behind ``failed_frac``.

Every operation (one check of a suite, one ``ctl simulate`` dump) is
judged on its own, and each failure is kept with the operation and the
reason.  An operation fails when

* its verdict is ``error``;
* its verdict is ``fail`` on a true inequality;
* it is a negative control and does not fail;
* its margin (or its CSV, for a dump) is not bitwise-identical to the
  first run of the same workload seed;
* it is a dump whose CSV has the wrong row count or a point off the
  manifold by more than 1e-9.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np


def margin_key(margin) -> str:
    """Exact text of a margin, so that repeats compare bit for bit."""
    if margin is None:
        return "none"
    return float(margin).hex()


def judge_check(row: dict, negative_control: bool) -> str | None:
    """Reason a reported check fails, or None."""
    verdict = row.get("verdict")
    if verdict == "error":
        return f"error: {row.get('error')}"
    if negative_control:
        if verdict != "fail":
            return f"negative control did not fail (verdict {verdict})"
        return None
    if verdict == "fail":
        return (f"fail on a true inequality (margin {row.get('margin')!r}, "
                f"sigma {row.get('sigma')!r})")
    return None


def judge_suite(reports: list[dict] | None, n_checks: int, negatives: set[int]) -> list:
    """(key, reason or None) per check of one pass of a suite."""
    if reports is None or len(reports) != n_checks:
        got = "no report" if reports is None else f"{len(reports)} report rows"
        return [(None, f"{got} for {n_checks} checks")] * n_checks
    out = []
    for i, row in enumerate(reports):
        out.append((margin_key(row.get("margin")), judge_check(row, i in negatives)))
    return out


def csv_rows_expected(n: int, k: int) -> int:
    """Rows of a dump that keeps every step: n trajectories x (k^2 + 1) snapshots."""
    return n * (k * k + 1)


def judge_dump(path: str, dump: dict, rc, space=None) -> tuple:
    """(key, reason or None) of one dump.  ``space`` is the ctlab model
    space used for the manifold check; the key is the CSV's sha256."""
    if rc != 0:
        return None, f"ctl simulate exited {rc}"
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        return None, f"no CSV: {exc}"
    key = hashlib.sha256(raw).hexdigest()
    lines = raw.decode().splitlines()
    header, body = lines[0].split(","), lines[1:]
    want = csv_rows_expected(dump["n"], dump["k"])
    if len(body) != want:
        return key, f"CSV has {len(body)} rows, expected {want}"
    if space is not None:
        data = np.loadtxt(body, delimiter=",", ndmin=2)
        emb = space.emb_dim
        cols = [header.index(f"x1_{i}") for i in range(emb)]
        cols2 = [header.index(f"x2_{i}") for i in range(emb)]
        for c in (cols, cols2):
            try:
                space.check_point(data[:, c], tol=1e-9)
            except ValueError as exc:
                return key, f"point off the manifold: {exc}"
    return key, None


def compare_repeats(passes: list[list], reference: dict | None) -> tuple[list, dict]:
    """Bitwise-repeat check across passes and runs of one seed.

    ``passes`` holds, per pass, the (key, reason) list of its operations.
    Each key is compared with the reference from an earlier run of the
    same seed or, on the first run, with the first pass.  Returns the
    reasons with repeat failures added, and the reference to keep."""
    if reference is None and passes:
        reference = {str(i): key for i, (key, _) in enumerate(passes[0]) if key is not None}
    judged = []
    for ops in passes:
        row = []
        for i, (key, reason) in enumerate(ops):
            ref = reference.get(str(i))
            if reason is None and ref is not None and key != ref:
                reason = f"not bitwise-identical to the first run of this seed ({key} != {ref})"
            row.append(reason)
        judged.append(row)
    return judged, reference


def load_reference(path: str) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def save_reference(path: str, reference: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
    os.replace(tmp, path)


def gaussian_w2_squared(x, y, s: float, t: float) -> float:
    """W2^2 between the flat heat distributions N(x, 2sI) and N(y, 2tI)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    return float(np.sum((x - y) ** 2)) + 2.0 * x.size * (math.sqrt(t) - math.sqrt(s)) ** 2


def flat_bias_sigma(checks: list[dict], reports: list[dict]) -> list[float]:
    """(lhs - W2^2 oracle) / sigma of the flat quadratic w2_control checks."""
    out = []
    for spec, row in zip(checks, reports):
        flat = spec["space"]["kind"] == "euclidean" and spec["id"] == "w2_control"
        quadratic = float(spec.get("p", 2.0)) == 2.0 and float(spec.get("beta", 2.0)) == 2.0
        if not (flat and quadratic) or row.get("lhs") is None or not row.get("sigma"):
            continue
        oracle = gaussian_w2_squared(spec["x"], spec["y"], spec["s"], spec["t"])
        out.append((row["lhs"] - oracle) / row["sigma"])
    return out
