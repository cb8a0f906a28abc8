"""Command-line front end.

Subcommands: verify (run a declarative suite of inequality checks),
simulate (dump coupled-walk trajectories), wasserstein (exact transport
between point-cloud CSVs), hopflax (inf-convolution on a grid) and
report (re-validate and summarize an emitted JSON report).

A suite's check keys and their JSON types come from CheckSpec (SUITE_KEYS),
and each check's required fields from checks.REQUIRED_FIELDS; verify exits 2
on any other key (in 'extra' too), a value of the wrong type, a sample size
below its least value, an 'extra' n_cases below 1 or grid that is not a
non-empty list of points, or a missing field before any check runs.

Exit codes: 0 all pass, 1 any fail (or check error), 2 configuration,
input, set-up or output error (a suite whose compiled solver cannot be
loaded, or an --out directory that cannot be created, exits 2 before any
check runs; a report that cannot be written, after), 3 inconclusive
results without any failure.  The log level
comes from the CTL_LOG_LEVEL environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import typing
from importlib import resources

import numpy as np

from .checks import (
    CHECKS,
    EPS,
    TRANSPORT_CHECKS,
    Z,
    CheckSpec,
    VerificationReport,
    require_fields,
    run_suite,
)
from .comparison import CurvatureDimension, ExponentPair
from .geometry import Euclidean, EuclideanOU, Hyperbolic, ModelSpace, Sphere
from .hopflax import FiniteMetricSpace, hopf_lax
from .transport import (
    ComparisonCost,
    EmpiricalMeasure,
    PthPowerDistance,
    _flapack,
    _lsap,
    exact_cost,
)
from .walk import WalkConfig, run_coupled, write_path_csv

log = logging.getLogger("ctl")

SUITE_SCHEMA = "ctl-suite/1"
REPORT_SCHEMA = "ctl-report/1"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing


#: the JSON value each suite type takes
_JSON_NAMES = {float: "a number", int: "an integer", bool: "true or false",
               str: "a string", dict: "an object", np.ndarray: "a list of numbers"}


def _typed(value, typ, label: str):
    """value as the suite type typ: a float from any JSON number, an int
    from an integral one, an array from a list of numbers, and a bool, str
    or dict from itself; a ConfigError naming label for any other value."""
    number = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    if typ is np.ndarray:
        ok = isinstance(value, list) and all(map(number, value))
    elif typ in (int, float):
        ok = number(value) and (typ is float or isinstance(value, int) or value.is_integer())
    else:
        ok = isinstance(value, typ)
    if not ok:
        raise ConfigError(f"{label} must be {_JSON_NAMES[typ]}, got {value!r}")
    return np.asarray(value, dtype=float) if typ is np.ndarray else typ(value)


def _config(label: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ValueError raised as a ConfigError naming label."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


#: each space kind: its class and the one geometry key it takes (with
#: that key's default); besides "kind" and "dim", any other key is an error
_SPACES = {
    "euclidean": (Euclidean, None, None),
    "euclidean_ou": (EuclideanOU, "lam", 1.0),
    "sphere": (Sphere, "radius", 1.0),
    "hyperbolic": (Hyperbolic, "curvature", -1.0),
}


def build_space(obj) -> ModelSpace:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("space must be an object with a 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _SPACES:
        raise ConfigError(f"unknown space kind {kind!r}")
    cls, key, default = _SPACES[kind]
    extra = set(obj) - {"kind", "dim", key}
    if extra:
        raise ConfigError(f"keys not taken by a {kind} space: {sorted(extra)}")
    args = [_typed(obj.get("dim", 2), int, f"{kind} space 'dim'")]
    if key is not None:
        args.append(_typed(obj.get(key, default), float, f"{kind} space {key!r}"))
    return _config(f"{kind} space", cls, *args)


#: suite keys that are not CheckSpec fields of the same name, with their type
_DERIVED_KEYS = {"id": str, "space": dict, "K": float, "N": float,
                 "k_prime_factor": float, "p": float, "beta": float}
#: CheckSpec fields a suite does not set by name
_LIBRARY_ONLY = {"check_id", "space", "cd", "exponents", "mu0", "mu1"}
#: every key a suite check may hold, with its type.  A field's type is its
#: annotation, with Optional[X] read as X and a callable-or-name as the name.
SUITE_KEYS = {**_DERIVED_KEYS, **{
    name: next(t for t in typing.get_args(hint) or (hint,) if t in _JSON_NAMES)
    for name, hint in typing.get_type_hints(CheckSpec).items() if name not in _LIBRARY_ONLY}}


def _suite_extra(extra: dict, space: ModelSpace, label: str) -> dict:
    """A suite's 'extra', typed: n_cases an integer of at least 1 and grid a
    non-empty list of points, each a list of the space's embedding
    coordinates; any other key is an error (grad_f, a callable, is
    library-only)."""
    unknown = set(extra) - {"grid", "n_cases"}
    if unknown:
        raise ConfigError(f"unknown keys in {label} 'extra': {sorted(unknown)}")
    typed = {}
    if "n_cases" in extra:
        typed["n_cases"] = _typed(extra["n_cases"], int, f"{label} 'extra' 'n_cases'")
        if typed["n_cases"] < 1:
            raise ConfigError(f"{label} 'extra' 'n_cases' must be at least 1, "
                              f"got {typed['n_cases']}")
    if "grid" in extra:
        grid = extra["grid"]
        name = f"{label} 'extra' 'grid'"
        if not isinstance(grid, list) or not grid:
            raise ConfigError(f"{name} must be a non-empty list of points, got {grid!r}")
        points = [_typed(p, np.ndarray, f"{name} point {i}") for i, p in enumerate(grid)]
        if any(p.shape != (space.emb_dim,) for p in points):
            raise ConfigError(f"{name} points must each have {space.emb_dim} coordinates")
        typed["grid"] = np.stack(points)
    return typed


def build_check(obj, global_seed: int, index: int) -> CheckSpec:
    """One suite entry as a CheckSpec, or a ConfigError naming what is wrong."""
    if not isinstance(obj, dict):
        raise ConfigError("each check must be an object")
    label = f"check {index} ({obj.get('id')!r})"
    unknown = set(obj) - set(SUITE_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys in {label}: {sorted(unknown)}")
    missing = {"id", "space"} - set(obj)
    if missing:
        raise ConfigError(f"{label} is missing {sorted(missing)}")
    given = {key: _typed(value, SUITE_KEYS[key], f"{label} {key!r}")
             for key, value in obj.items()}
    check_id = given.pop("id")
    if check_id not in CHECKS:
        raise ConfigError(f"unknown inequality id {check_id!r}")
    space = build_space(given.pop("space"))
    if "extra" in given:
        given["extra"] = _suite_extra(given["extra"], space, label)
    cd = None
    if given.keys() & {"K", "N", "k_prime_factor"}:
        native = space.cd
        K = given.pop("K", native.K) * given.pop("k_prime_factor", 1.0)
        cd = _config(f"{label} 'N'", CurvatureDimension, K, given.pop("N", native.N))
    p = given.pop("p", 2.0)
    exponents = _config(f"{label} 'p', 'beta'", ExponentPair, p, given.pop("beta", min(2.0, p)))
    given.setdefault("seed", global_seed + index)
    spec = _config(label, CheckSpec, check_id=check_id, space=space, cd=cd,
                   exponents=exponents, **given)
    _config(f"check {index}", require_fields, spec)
    return spec


def load_suite(path: str, seed_override: int | None = None) -> list[CheckSpec]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SUITE_SCHEMA:
        raise ConfigError(f"config must declare schema {SUITE_SCHEMA!r}")
    unknown = set(doc) - {"schema", "seed", "checks"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    seed = _typed(doc.get("seed", 0), int, "'seed'") if seed_override is None else seed_override
    checks = doc.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("'checks' must be a list")
    specs = [build_check(c, seed, i) for i, c in enumerate(checks)]
    # the solvers' loads are set-up, not part of the first check to solve;
    # the transport checks also draw with numpy's lazily imported numpy.random.
    # LAPACK comes last: the OpenBLAS threads it starts spin for a while, and
    # would slow the import of numpy.random on a machine with few CPUs
    if any(spec.check_id in TRANSPORT_CHECKS for spec in specs):
        _lsap()
        import numpy.random  # noqa: F401
        _flapack()
    return specs


# ---------------------------------------------------------------------------
# report emission


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    return value


def report_to_dict(rep: VerificationReport) -> dict:
    row = _json_safe(rep.to_row())
    row["stderr_lhs"] = _json_safe(rep.stderr_lhs)
    row["stderr_rhs"] = _json_safe(rep.stderr_rhs)
    row["z"] = Z
    row["eps"] = EPS
    row["metadata"] = _json_safe(rep.metadata)
    row["error"] = rep.error
    return row


def write_reports(reports: list[VerificationReport], out_dir: str) -> tuple[str, str]:
    csv_path = os.path.join(out_dir, "report.csv")
    json_path = os.path.join(out_dir, "report.json")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=VerificationReport.COLUMNS)
        writer.writeheader()
        for rep in reports:
            writer.writerow(rep.to_row())
    with open(json_path, "w") as fh:
        json.dump({"schema": REPORT_SCHEMA,
                   "reports": [report_to_dict(r) for r in reports]}, fh, indent=2)
    return csv_path, json_path


_VERDICTS = {"pass", "fail", "inconclusive", "error"}
_REPORT_STRINGS = ("check_id", "space", "verdict")
_REQUIRED_REPORT_KEYS = set(VerificationReport.COLUMNS) | {"stderr_lhs", "stderr_rhs",
                                                          "metadata", "error"}


def load_report(path: str) -> list[dict]:
    """Load and re-validate an emitted JSON report."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != REPORT_SCHEMA:
        raise ConfigError(f"report must declare schema {REPORT_SCHEMA!r}")
    rows = doc.get("reports")
    if not isinstance(rows, list):
        raise ConfigError("'reports' must be a list")
    for row in rows:
        if not isinstance(row, dict):
            raise ConfigError(f"each report row must be an object, got {row!r}")
        missing = _REQUIRED_REPORT_KEYS - set(row)
        if missing:
            raise ConfigError(f"report row missing keys: {sorted(missing)}")
        for key in sorted(_REQUIRED_REPORT_KEYS - {"metadata", "error"}):
            value = row[key]  # a string, or a number (null when not finite)
            number = value is None or isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (isinstance(value, str) if key in _REPORT_STRINGS else number):
                raise ConfigError(f"report field {key!r} has the wrong type: {value!r}")
        if row["verdict"] not in _VERDICTS:
            raise ConfigError(f"invalid verdict {row['verdict']!r}")
        if row["error"] is None:
            lhs, rhs = row["lhs"], row["rhs"]
            if lhs is not None and rhs is not None and row["margin"] is not None:
                if abs((rhs - lhs) - row["margin"]) > 1e-9 * max(1.0, abs(rhs), abs(lhs)):
                    raise ConfigError("margin does not equal rhs - lhs")
    return rows


def exit_code(verdicts) -> int:
    verdicts = list(verdicts)
    if any(v in ("fail", "error") for v in verdicts):
        return 1
    if any(v == "inconclusive" for v in verdicts):
        return 3
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    try:
        specs = load_suite(args.config, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ImportError as exc:  # a compiled solver that cannot be loaded
        print(f"set-up error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    reports = run_suite(specs, jobs=args.jobs)
    try:
        csv_path, json_path = write_reports(reports, args.out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    for rep in reports:
        msg = (f"{rep.verdict.upper():12s} {rep.check_id:22s} {rep.space:18s} "
               f"margin={rep.margin:+.4e} sigma={rep.sigma:.3e}")
        if rep.error:
            msg += f"  [{rep.error}]"
        print(msg)
    print(f"wrote {csv_path} and {json_path}")
    return exit_code(r.verdict for r in reports)


def _given(args, *names) -> dict:
    """The geometry options set on the command line, zero included, so
    that the space constructor rejects a zero rather than a default
    silently replacing it."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def cmd_simulate(args) -> int:
    try:
        space = build_space({"kind": args.space, "dim": args.dim,
                             **_given(args, "radius", "curvature", "lam")})
        x = np.asarray([float(v) for v in args.x.split(",")])
        y = np.asarray([float(v) for v in args.y.split(",")])
        space.check_point(x)
        space.check_point(y)
    except (ConfigError, ValueError) as exc:
        print(f"bad geometry arguments: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = WalkConfig(k=args.k, n_trajectories=args.n, seed=args.seed)
        path = run_coupled(space, x, y, args.tau1, args.tau2, cfg, retain_every=args.retain_every)
    except ValueError as exc:
        print(f"bad walk arguments: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w") as fh:
        write_path_csv(path, space, fh)
    print(f"wrote {args.out} ({args.n} trajectories, {cfg.n_steps} steps, "
          f"near-cut events: {path.near_cut_events})")
    return 0


def _read_cloud(path: str) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot parse point cloud {path}: {exc}") from exc
    return data


def cmd_wasserstein(args) -> int:
    try:
        a = _read_cloud(args.file_a)
        b = _read_cloud(args.file_b)
        space = build_space({"kind": args.space, "dim": args.dim,
                             **_given(args, "radius", "curvature")})
        for path, cloud in ((args.file_a, a), (args.file_b, b)):
            _config(f"point cloud {path}", space.check_point, cloud)
        mu = EmpiricalMeasure.uniform(a)
        nu = EmpiricalMeasure.uniform(b)
        if args.cost == "comparison":
            cost = ComparisonCost(p=args.p, kstar=args.kstar)
        else:
            cost = PthPowerDistance(p=args.p)
        value, _ = exact_cost(space, mu, nu, cost)
    except (ConfigError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    print(f"cost={value:.17g}")
    if args.cost == "power":
        print(f"W_{args.p:g}={value ** (1.0 / args.p):.17g}")
    return 0


def cmd_hopflax(args) -> int:
    try:
        kind, _, n_str = args.grid.partition(":")
        n = int(n_str)
        build = {"circle": FiniteMetricSpace.circle_grid,
                 "interval": FiniteMetricSpace.interval_grid}.get(kind)
        if build is None:
            raise ConfigError(f"unknown grid kind {kind!r} (use circle:N or interval:N)")
        # a given length is passed on, zero included, for the grid to reject
        grid = build(n) if args.length is None else build(n, args.length)
        coords = grid.coords[:, 0]
        fields = {
            "sin": np.sin(coords),
            "cos": np.cos(coords),
            "smooth_mix": np.sin(coords) + 0.3 * np.cos(2 * coords),
            "linear": coords.copy(),
            "abs": np.abs(coords - coords.mean()),
        }
        if args.f not in fields:
            raise ConfigError(f"unknown field {args.f!r} (choose from {sorted(fields)})")
        f = fields[args.f]
        q = hopf_lax(grid, f, args.s, args.p)
    except (ConfigError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    print(f"Q_s f on {args.grid}: min={q.min():.9g} max={q.max():.9g} mean={q.mean():.9g}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("coord,f,Qsf\n")
            for c, v, w in zip(coords, f, q):
                fh.write(f"{c:.12g},{v:.17g},{w:.17g}\n")
        print(f"wrote {args.out}")
    return 0


def cmd_report(args) -> int:
    try:
        rows = load_report(args.input)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return 2
    for row in rows:
        print(f"{row['verdict'].upper():12s} {row['check_id']:22s} {row['space']:18s} "
              f"margin={row['margin']:+.4e}" if row["margin"] is not None else
              f"{row['verdict'].upper():12s} {row['check_id']:22s} (error)")
    print(f"{len(rows)} checks: "
          + ", ".join(f"{v}={sum(1 for r in rows if r['verdict'] == v)}"
                      for v in ("pass", "fail", "inconclusive", "error")))
    return exit_code(r["verdict"] for r in rows)


def bundled_config(name: str) -> str:
    """Path of a packaged suite config such as 'acceptance.json'."""
    return str(resources.files("ctlab.configs").joinpath(name))


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ctl", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a suite of inequality checks")
    v.add_argument("--config", required=True)
    v.add_argument("--seed", type=int, default=None, help="override the config seed")
    v.add_argument("--out", default=".", help="directory for report.csv / report.json")
    v.add_argument("--jobs", type=int, default=1,
                   help="run this many checks concurrently (default 1); the "
                        "assignment solves of a multi-block transport estimate "
                        "already use every CPU")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("simulate", help="dump coupled-walk trajectories to CSV")
    s.add_argument("--space", default="euclidean",
                   choices=["euclidean", "euclidean_ou", "sphere", "hyperbolic"])
    s.add_argument("--dim", type=int, default=2)
    s.add_argument("--radius", type=float, default=None)
    s.add_argument("--curvature", type=float, default=None)
    s.add_argument("--lam", type=float, default=None)
    s.add_argument("--x", required=True, help="comma-separated embedding coordinates")
    s.add_argument("--y", required=True)
    s.add_argument("--tau1", type=float, required=True)
    s.add_argument("--tau2", type=float, required=True)
    s.add_argument("-k", type=int, default=10)
    s.add_argument("-n", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--retain-every", type=int, default=1)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simulate)

    w = sub.add_parser("wasserstein", help="exact transport cost between CSV clouds")
    w.add_argument("file_a")
    w.add_argument("file_b")
    w.add_argument("--p", type=float, default=2.0)
    w.add_argument("--cost", choices=["power", "comparison"], default="power")
    w.add_argument("--kstar", type=float, default=0.0)
    w.add_argument("--space", default="euclidean",
                   choices=["euclidean", "sphere", "hyperbolic"])
    w.add_argument("--dim", type=int, default=2)
    w.add_argument("--radius", type=float, default=None)
    w.add_argument("--curvature", type=float, default=None)
    w.set_defaults(func=cmd_wasserstein)

    h = sub.add_parser("hopflax", help="inf-convolution semigroup on a 1-D grid")
    h.add_argument("--grid", required=True, help="circle:N or interval:N")
    h.add_argument("--length", type=float, default=None)
    h.add_argument("--f", required=True)
    h.add_argument("--s", type=float, required=True)
    h.add_argument("--p", type=float, default=2.0)
    h.add_argument("--out", default=None)
    h.set_defaults(func=cmd_hopflax)

    r = sub.add_parser("report", help="validate and summarize a JSON report")
    r.add_argument("--in", dest="input", required=True)
    r.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("CTL_LOG_LEVEL", "WARNING"))
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
