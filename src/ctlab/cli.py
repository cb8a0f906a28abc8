"""Command-line front end.

Subcommands: verify (run a declarative suite of inequality checks),
simulate (dump coupled-walk trajectories), wasserstein (exact transport
between point-cloud CSVs), hopflax (inf-convolution on a grid) and
report (re-validate and summarize an emitted JSON report).

Exit codes: 0 all pass, 1 any fail (or check error), 2 configuration or
input error, 3 inconclusive results without any failure.  The log level
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
from importlib import resources

import numpy as np

from .checks import CHECKS, CheckSpec, VerificationReport, run_suite
from .comparison import CurvatureDimension, ExponentPair
from .geometry import Euclidean, EuclideanOU, Hyperbolic, ModelSpace, Sphere
from .hopflax import FiniteMetricSpace, hopf_lax
from .transport import (
    ComparisonCost,
    EmpiricalMeasure,
    PthPowerDistance,
    exact_cost,
)
from .walk import WalkConfig, run_coupled, write_path_csv

log = logging.getLogger("ctl")

SUITE_SCHEMA = "ctl-suite/1"
REPORT_SCHEMA = "ctl-report/1"

CSV_COLUMNS = ["check_id", "space", "K", "N", "p", "beta", "s", "t",
               "tau1", "tau2", "lhs", "rhs", "sigma", "margin", "verdict", "seed"]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing


def build_space(obj) -> ModelSpace:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("space must be an object with a 'kind'")
    kind = obj["kind"]
    dim = int(obj.get("dim", 2))
    known = {"kind", "dim", "radius", "curvature", "lam"}
    extra = set(obj) - known
    if extra:
        raise ConfigError(f"unknown space keys: {sorted(extra)}")
    if kind == "euclidean":
        return Euclidean(dim)
    if kind == "euclidean_ou":
        return EuclideanOU(dim, float(obj.get("lam", 1.0)))
    if kind == "sphere":
        return Sphere(dim, float(obj.get("radius", 1.0)))
    if kind == "hyperbolic":
        return Hyperbolic(dim, float(obj.get("curvature", -1.0)))
    raise ConfigError(f"unknown space kind {kind!r}")


_CHECK_KEYS = {
    "id", "space", "K", "N", "k_prime_factor", "p", "beta", "x", "y",
    "s", "t", "tau1", "tau2", "n_trajectories", "k", "seed", "block_size",
    "f", "lam", "backend_modes", "grid_n", "h", "dt", "delta", "z", "eps",
    "share_noise", "extra",
}


def build_check(obj, global_seed: int, index: int) -> CheckSpec:
    if not isinstance(obj, dict):
        raise ConfigError("each check must be an object")
    if "id" not in obj:
        raise ConfigError("check is missing 'id'")
    if obj["id"] not in CHECKS:
        raise ConfigError(f"unknown inequality id {obj['id']!r}")
    unknown = set(obj) - _CHECK_KEYS
    if unknown:
        raise ConfigError(f"unknown keys in check {obj['id']!r}: {sorted(unknown)}")
    if "space" not in obj:
        raise ConfigError(f"check {obj['id']!r} is missing 'space'")
    space = build_space(obj["space"])

    cd = None
    native = space.cd
    if "K" in obj or "N" in obj:
        cd = CurvatureDimension(float(obj.get("K", native.K)),
                                float(obj.get("N", native.N)))
    if "k_prime_factor" in obj:
        base = cd if cd is not None else native
        cd = CurvatureDimension(base.K * float(obj["k_prime_factor"]), base.N)

    p = float(obj.get("p", 2.0))
    beta = float(obj.get("beta", min(2.0, p)))
    kwargs = {}
    for key in ("s", "t", "tau1", "tau2", "lam", "block_size", "h", "dt",
                "delta", "z", "eps", "backend_modes", "grid_n",
                "n_trajectories", "k"):
        if key in obj:
            cast = int if key in ("block_size", "backend_modes", "grid_n",
                                  "n_trajectories", "k") else float
            kwargs[key] = cast(obj[key])
    if "x" in obj:
        kwargs["x"] = np.asarray(obj["x"], dtype=float)
    if "y" in obj:
        kwargs["y"] = np.asarray(obj["y"], dtype=float)
    if "f" in obj:
        kwargs["f"] = obj["f"]
    if "share_noise" in obj:
        kwargs["share_noise"] = bool(obj["share_noise"])
    if "extra" in obj:
        if not isinstance(obj["extra"], dict):
            raise ConfigError("'extra' must be an object")
        kwargs["extra"] = obj["extra"]
    seed = int(obj.get("seed", global_seed + index))
    return CheckSpec(check_id=obj["id"], space=space, cd=cd,
                     exponents=ExponentPair(p, beta), seed=seed, **kwargs)


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
    seed = int(doc.get("seed", 0)) if seed_override is None else seed_override
    checks = doc.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("'checks' must be a list")
    return [build_check(c, seed, i) for i, c in enumerate(checks)]


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
    row["z"] = rep.z
    row["eps"] = rep.eps
    row["metadata"] = _json_safe(rep.metadata)
    row["error"] = rep.error
    return row


def write_reports(reports: list[VerificationReport], out_dir: str) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "report.csv")
    json_path = os.path.join(out_dir, "report.json")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for rep in reports:
            writer.writerow({k: rep.to_row()[k] for k in CSV_COLUMNS})
    with open(json_path, "w") as fh:
        json.dump({"schema": REPORT_SCHEMA,
                   "reports": [report_to_dict(r) for r in reports]}, fh, indent=2)
    return csv_path, json_path


_VERDICTS = {"pass", "fail", "inconclusive", "error"}
_REQUIRED_REPORT_KEYS = set(CSV_COLUMNS) | {"stderr_lhs", "stderr_rhs", "metadata", "error"}


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
        missing = _REQUIRED_REPORT_KEYS - set(row)
        if missing:
            raise ConfigError(f"report row missing keys: {sorted(missing)}")
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
    reports = run_suite(specs, jobs=args.jobs)
    csv_path, json_path = write_reports(reports, args.out)
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
    cfg = WalkConfig(k=args.k, n_trajectories=args.n, seed=args.seed,
                     retain_every=args.retain_every)
    path = run_coupled(space, x, y, args.tau1, args.tau2, cfg)
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
        if kind == "circle":
            grid = FiniteMetricSpace.circle_grid(n, args.length or 2 * math.pi)
        elif kind == "interval":
            grid = FiniteMetricSpace.interval_grid(n, args.length or 1.0)
        else:
            raise ConfigError(f"unknown grid kind {kind!r} (use circle:N or interval:N)")
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
    v.add_argument("--jobs", type=int, default=1)
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
