"""One pass of a workload in a fresh interpreter.

Usage: ``python3 perfbench/child.py <job.json>``.  The job names the
workload kind (``verify`` or ``simulate``), its input, the output
directory, whether to trace, and where to write the pass result.

The pass goes through the public CLI entry point ``ctlab.cli.main``.
Two probes are always on, each one call per boundary: the end of set-up
(``load_suite`` returning, or the first ``run_coupled`` starting) and the
duration of each operation (``ctlab.checks.run_check``, or one
``main(["simulate", ...])``).  With ``trace`` set, the tracer patches every
layer as well.  In ``setup`` mode the pass stops at the end of set-up.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


class _SetupDone(Exception):
    pass


def _rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run(job: dict) -> dict:
    import ctlab.checks
    import ctlab.cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer(run_id=job["run_id"], clock=time.monotonic).install()

    stamps = {"loaded": None}
    ops = []
    suite_cpu = {}

    def mark_loaded():
        if stamps["loaded"] is None:
            stamps["loaded"] = time.monotonic()
            if job["mode"] == "setup":
                raise _SetupDone

    if job["kind"] == "verify":
        load_suite = ctlab.cli.load_suite

        def loaded_probe(*a, **k):
            specs = load_suite(*a, **k)
            mark_loaded()
            return specs

        ctlab.cli.load_suite = loaded_probe
        run_check = ctlab.checks.run_check

        def op_probe(spec):
            t0 = time.monotonic()
            try:
                return run_check(spec)
            finally:
                ops.append({"id": spec.check_id, "s": time.monotonic() - t0})

        ctlab.checks.run_check = op_probe
        if tracer is not None:
            run_suite = ctlab.cli.run_suite

            def cpu_probe(*a, **k):
                c0, w0 = _cpu_s(), time.monotonic()
                try:
                    return run_suite(*a, **k)
                finally:
                    suite_cpu["cpu_s"] = _cpu_s() - c0
                    suite_cpu["wall_s"] = time.monotonic() - w0

            ctlab.cli.run_suite = cpu_probe
        argv = ["verify", "--config", job["input"], "--out", job["out"], "--jobs", "1"]
        try:
            rcs = [ctlab.cli.main(argv)]
        except _SetupDone:
            rcs = []
    else:
        run_coupled = ctlab.cli.run_coupled

        def coupled_probe(*a, **k):
            mark_loaded()
            return run_coupled(*a, **k)

        ctlab.cli.run_coupled = coupled_probe
        with open(job["input"]) as fh:
            dumps = json.load(fh)
        rcs = []
        try:
            for i, dump in enumerate(dumps):
                t0 = time.monotonic()
                csv = os.path.join(job["out"], f"dump{i}.csv")
                rcs.append(ctlab.cli.main(dump["argv"] + ["--out", csv]))
                ops.append({"id": f"dump{i}", "s": time.monotonic() - t0})
        except _SetupDone:
            pass
    t_end = time.monotonic()

    result = {"t_start": T_START, "t_loaded": stamps["loaded"], "t_end": t_end,
              "rcs": rcs, "ops": ops, "peak_rss_mb": _rss_mb(), "cpu_s": _cpu_s()}
    if tracer is not None:
        from tracer import layer_metrics
        tracer.uninstall()
        spans = tracer.spans()
        metrics = layer_metrics(spans, tracer.counters, stamps["loaded"], t_end)
        if suite_cpu:
            metrics["checks.run_suite.cpu_s"] = suite_cpu["cpu_s"]
            metrics["checks.run_suite.cpu_per_wall"] = suite_cpu["cpu_s"] / suite_cpu["wall_s"]
        result["layers"] = metrics
        result["missing"] = tracer.missing
        result["n_spans"] = len(spans)
        with open(os.path.join(job["out"], "spans.tsv"), "w") as fh:
            fh.write("name\tstart\tend\tparent\trun_id\n")
            for name, s, e, p, rid in spans:
                fh.write(f"{name}\t{s!r}\t{e!r}\t{p}\t{rid}\n")
    return result


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    result = run(job)
    tmp = job["result"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, job["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
