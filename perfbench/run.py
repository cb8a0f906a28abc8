"""ctlab benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a ctlab checkout:

    python3 perfbench/run.py --workload mc_suite --seed 1 --seconds 20 --trace 0

The workload's input is generated from ``--seed`` (see workloads.py) and
run through ``ctlab.cli.main`` in fresh interpreters, one process per
pass, ``--jobs 1``, with BLAS/OpenMP threads capped at the CPU count.
Passes repeat until ``--seconds`` is spent, with a minimum per workload.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
Every operation's output is checked (accounting.py); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, with the environment and the
failure list, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import accounting  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

# Passes a run makes at least.  Each pass is a fresh process, so the
# repeat check also sees a second run of the seed inside one run.
MIN_PASSES = {"mc_suite": 3, "transport_blocks": 3, "gradient_suite": 3, "walk_paths": 4}
SETUP_SAMPLES = 5          # set-up measured at least this often per run
DEADLINE_S = 170.0         # a run must end within 180 s
#: every end-to-end metric an untraced run reports
END_TO_END = ("wall_s", "op_s_p50", "op_s_tail", "peak_rss_mb", "setup_s")


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def thread_caps() -> dict:
    n = str(nproc())
    return {k: n for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: str, seed: int, input_seed) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc(), "cpu_model": cpu_model(),
            "platform": platform.platform(), "thread_caps": thread_caps(),
            "workload_seed": seed, "input_seed": input_seed}


class Runner:
    """Spawns passes of one workload and collects their results."""

    def __init__(self, root: str, workload: str, out: str, input_path: str, deadline: float):
        self.root, self.workload, self.out = root, workload, out
        self.input_path, self.deadline = input_path, deadline
        self.kind = "simulate" if workload == "walk_paths" else "verify"
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **thread_caps())
        self.count = 0

    def spawn(self, mode: str, trace: bool) -> dict:
        """One child process; returns its result with the spawn time added."""
        self.count += 1
        pdir = os.path.join(self.out, f"pass{self.count:03d}")
        os.makedirs(pdir, exist_ok=True)
        job = {"mode": mode, "kind": self.kind, "input": self.input_path, "out": pdir,
               "trace": trace, "run_id": self.count,
               "result": os.path.join(pdir, "result.json")}
        job_path = os.path.join(pdir, "job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline reached")
        with open(os.path.join(pdir, "output.txt"), "w") as log:
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), job_path],
                                      cwd=self.root, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=timeout)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"pass {self.count} did not end before the deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"pass {self.count} exited {proc.returncode}; see {log.name}")
        with open(job["result"]) as fh:
            res = json.load(fh)
        if res["t_loaded"] is None:
            raise BenchError(f"pass {self.count} never finished set-up; see {log.name}")
        res.update(t_spawn=t_spawn, dir=pdir, trace=trace,
                   setup_s=res["t_loaded"] - t_spawn, wall_s=res["t_end"] - res["t_loaded"])
        return res


def run_passes(runner: Runner, seconds: float, min_passes: int, trace: bool) -> list[dict]:
    """Passes until ``seconds`` are spent: plain ones, or plain and traced
    alternately with ``trace`` (at least two of each, for the overhead)."""
    passes = []
    t0 = time.monotonic()
    need = 4 if trace else min_passes
    while True:
        passes.append(runner.spawn("run", trace and len(passes) % 2 == 1))
        if len(passes) >= need:
            took = statistics.median(p["t_end"] - p["t_spawn"] for p in passes)
            if time.monotonic() - t0 + took > seconds:
                return passes


def tail_percentile(ops_per_pass: int, min_passes: int) -> int:
    """Highest whole percentile with at least ten operations beyond it in
    a run of the minimum number of passes."""
    n = ops_per_pass * min_passes
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n)))


# ---------------------------------------------------------------------------
# correctness


def judge_passes(workload: str, doc, passes: list[dict], src: str) -> list[list]:
    """(key, reason) per operation of each pass."""
    out = []
    if workload == "walk_paths":
        spaces = _spaces(src)
        for p in passes:
            ops = []
            for i, dump in enumerate(doc):
                rc = p["rcs"][i] if i < len(p["rcs"]) else None
                # the manifold check reads every point; once per run suffices,
                # later passes are held to the same bytes by the repeat check
                space = spaces[dump["space"]] if p is passes[0] else None
                ops.append(accounting.judge_dump(
                    os.path.join(p["dir"], f"dump{i}.csv"), dump, rc, space))
            out.append(ops)
        return out
    negatives = set(workloads.expected_failures(doc, src))
    for p in passes:
        reports = _reports(p["dir"])
        out.append(accounting.judge_suite(reports, len(doc["checks"]), negatives))
    return out


def _spaces(src: str) -> dict:
    sys.path.insert(0, src)
    from ctlab.geometry import Hyperbolic, Sphere
    return {"sphere": Sphere(2), "hyperbolic": Hyperbolic(2)}


def _reports(pdir: str):
    try:
        with open(os.path.join(pdir, "report.json")) as fh:
            return json.load(fh)["reports"]
    except (OSError, ValueError, KeyError):
        return None


def op_label(workload: str, doc, i: int) -> str:
    if workload == "walk_paths":
        d = doc[i]
        return f"dump{i} {d['space']} k={d['k']} n={d['n']}"
    c = doc["checks"][i]
    return f"check{i} {c['id']} {c['space']['kind']}{c['space'].get('dim', 2)}"


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload: str, passes: list[dict], n_ops: int) -> tuple[dict, dict]:
    """Metric values and their sample descriptions."""
    plain = [p for p in passes if not p["trace"]]
    ops = [o["s"] for p in plain for o in p["ops"]]
    q = tail_percentile(n_ops, MIN_PASSES[workload])
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "op_s_p50": statistics.median(ops),
        "op_s_tail": statistics.quantiles(ops, n=100, method="inclusive")[q - 1],
        "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
    }
    notes = {
        "wall_s": f"median of {len(plain)} passes",
        "op_s_p50": f"median of {len(ops)} operations",
        "op_s_tail": f"p{q} of {len(ops)} operations",
        "peak_rss_mb": f"max of {len(plain)} passes",
    }
    return values, notes


def per_layer(workload: str, doc, passes: list[dict]) -> tuple[dict, dict]:
    traced = [p for p in passes if p["trace"]]
    plain = [p for p in passes if not p["trace"]]
    per_pass = []
    for p in traced:
        m = dict(p["layers"])
        if workload != "walk_paths":
            reports = _reports(p["dir"]) or []
            for v in ("pass", "inconclusive", "fail", "error"):
                m[f"checks.verdict.{v}"] = sum(1 for r in reports if r.get("verdict") == v)
            biases = accounting.flat_bias_sigma(doc["checks"], reports)
            m["checks.flat_bias_sigma"] = statistics.mean(biases) if biases else 0.0
            inv_var = stat_s = 0.0
            for row, op in zip(reports, p["ops"]):
                if row.get("sigma"):
                    inv_var += 1.0 / row["sigma"] ** 2
                    stat_s += op["s"]
            m["checks.inv_var_per_s"] = inv_var / stat_s if stat_s else 0.0
        per_pass.append(m)
    keys = sorted(set().union(*per_pass))
    values = {k: statistics.median(m.get(k, 0.0) for m in per_pass) for k in keys}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    notes = {"passes": f"median of {len(traced)} traced passes against {len(plain)} plain",
             "missing": sorted(set(x for p in traced for x in p.get("missing", [])))}
    return values, notes


# ---------------------------------------------------------------------------


def load_benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ctlab", "cli.py")):
        print(f"no ctlab source under {src}: run from the root of a ctlab checkout",
              file=sys.stderr)
        return 2
    bench = load_benchmark(root)

    out = os.path.join(root, ".perfbench", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    doc = workloads.generate(args.workload, args.seed, src)
    input_path = os.path.join(out, "input.json")
    with open(input_path, "w") as fh:
        json.dump(doc, fh, indent=1)
    n_ops = len(doc) if args.workload == "walk_paths" else len(doc["checks"])

    runner = Runner(root, args.workload, out, input_path, start + DEADLINE_S)
    try:
        runner.spawn("setup", False)                      # warm caches, untimed
        passes = run_passes(runner, args.seconds, MIN_PASSES[args.workload], bool(args.trace))
        setups = [p["setup_s"] for p in passes if not p["trace"]]
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.spawn("setup", False)["setup_s"])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    judged = judge_passes(args.workload, doc, passes, src)
    # keyed by the input itself, so a changed generator starts afresh
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]
    ref_path = os.path.join(root, ".perfbench", "ref",
                            f"{args.workload}-{args.seed}-{digest}.json")
    reference = accounting.load_reference(ref_path)
    reasons, reference = accounting.compare_repeats(judged, reference)
    accounting.save_reference(ref_path, reference)
    failures = [{"pass": pi + 1, "op": op_label(args.workload, doc, i), "reason": r}
                for pi, row in enumerate(reasons) for i, r in enumerate(row) if r is not None]
    attempted = sum(len(row) for row in reasons)

    if args.trace:
        values, notes = per_layer(args.workload, doc, passes)
        wanted = bench["per_layer"]
    else:
        values, notes = end_to_end(args.workload, passes, n_ops)
        values["setup_s"] = statistics.median(setups)
        notes["setup_s"] = f"median of {len(setups)} cold starts"
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}

    input_seed = doc.get("seed") if isinstance(doc, dict) else None
    record = {"workload": args.workload, "why": workloads.WHY[args.workload],
              "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(root, args.seed, input_seed),
              "passes": len(passes), "operations_per_pass": n_ops,
              "pass_wall_s": [p["wall_s"] for p in passes],
              "pass_cpu_s": [p["cpu_s"] for p in passes],
              "attempted": attempted, "failed": len(failures),
              "failed_frac": len(failures) / attempted, "failures": failures,
              "metrics": metrics, "notes": notes,
              "all_values": values}
    res_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(res_dir, exist_ok=True)
    res_path = os.path.join(res_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(res_path, "w") as fh:
        json.dump(record, fh, indent=1)

    env = record["environment"]
    print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
    print(f"env: python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"nproc {env['nproc']} cpu {env['cpu_model']!r} threads capped at {env['nproc']}")
    for name, m in metrics.items():
        note = notes.get(name, notes.get("passes", ""))
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}  ({note})")
    if args.trace:
        shares = ", ".join(f"{lay} {values.get('share.' + lay, 0.0):.2f}" for lay in LAYERS)
        print(f"  layer shares of wall_s: {shares}")
        if values.get("transport.block_size"):
            print(f"  transport.s_per_block is for {values['transport.block_size']:.0f}-point blocks")
        if notes["missing"]:
            print(f"  missing from the trace: {', '.join(notes['missing'])}")
    print(f"  failed_frac {record['failed_frac']:.6g} ({len(failures)} of {attempted} operations)")
    for f in failures[:20]:
        print(f"    FAILED pass {f['pass']} {f['op']}: {f['reason']}")
    print(f"  record: {os.path.relpath(res_path, root)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
