"""Outside-in tracer for ctlab: spans around the public entry points of
each layer, patched from the benchmark's own files.

A span has a name, a start, an end, a parent and the run id of the pass
that made it.  Spans are kept in memory and written when the pass ends.
A span's self time is its duration minus what its child spans cover.
Counts (point-steps, assignment points, near-cut events, CSV bytes) are
read from the arguments and results at the same boundaries.

Names are patched where the caller binds them (``ctlab.checks.run_single``
rather than ``ctlab.walk.run_single``), plus the public methods of the
geometry space classes, the ``CostSpec`` classes and the heat backends.
A name that no longer exists is listed in ``Tracer.missing`` and the
run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

LAYERS = ("cli", "checks", "walk", "geometry", "transport", "heat", "comparison")

GEOMETRY_METHODS = ("exp_map", "log_map", "parallel_transport", "transport_frame",
                    "distance", "is_near_cut", "project_tangent", "frame", "drift",
                    "geodesic_point")
SPACE_CLASSES = ("ModelSpace", "Euclidean", "EuclideanOU", "Sphere", "Hyperbolic")
HEAT_BACKENDS = ("SphereZonal", "GaussHermite", "OUMehler", "CircleFourier", "MonteCarlo")
COMPARISON_FUNCTIONS = ("coeff_A", "comp_s", "comp_c", "comp_t", "j_measure",
                        "swc_reparam", "tau_star", "theta_exponent", "bakry_ledoux",
                        "inv_comp_c", "psi")
CHECK_IDS = ("w2_control", "swc", "wp", "prectl", "lp2", "wvar_ode",
             "bl0", "blp", "bl_int", "gamma2", "laplacian_comparison", "mono_app")


def _per_layer_names() -> tuple:
    names = []
    for kind in ("single", "coupled"):
        names += [f"walk.{kind}.{x}" for x in ("calls", "s", "point_steps", "point_steps_per_s")]
    names += ["walk.coupled.near_cut_events", "walk.self_s"]
    names += [f"walk.{sp}.point_steps_per_s" for sp in ("sphere", "hyperbolic", "euclidean")]
    for meth in GEOMETRY_METHODS:
        names += [f"geometry.{meth}.calls", f"geometry.{meth}.s"]
    names.append("geometry.share_of_walk")
    names += [f"transport.block_estimate.{x}" for x in
              ("calls", "s", "points", "blocks", "single_block_calls")]
    names.append("transport.s_per_block")
    for part in ("cost_matrix", "exact_cost", "sinkhorn"):
        names += [f"transport.{part}.calls", f"transport.{part}.s"]
    names += ["heat.apply.calls", "heat.apply.s", "heat.apply.per_s",
              "heat.grad.calls", "heat.grad.s", "heat.generator.calls", "heat.generator.s"]
    names += [f"heat.backend.{b}.calls" for b in HEAT_BACKENDS if b != "MonteCarlo"]
    names += ["comparison.calls", "comparison.s"]
    names += [f"checks.{cid}.s" for cid in CHECK_IDS]
    names += ["checks.sample_s", "checks.transport_s", "checks.rhs_s"]
    names += [f"checks.verdict.{v}" for v in ("pass", "inconclusive", "fail", "error")]
    names += ["checks.flat_bias_sigma", "checks.inv_var_per_s",
              "checks.run_suite.cpu_s", "checks.run_suite.cpu_per_wall"]
    names += ["cli.load_suite_s", "cli.write_reports_s", "cli.write_path_csv_s",
              "cli.csv_mb_per_s", "trace.overhead_frac", "trace.coverage"]
    return tuple(names)


#: every per-layer metric the traced run reports, in BENCHMARK.json order
PER_LAYER = _per_layer_names()


class Tracer:
    """Collects spans and counters for one pass of the program."""

    def __init__(self, run_id: int = 0, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, count=None):
        """``fn`` recorded as a span.  ``name`` is a string or a function of
        the call's bound arguments; ``count(tracer, args, result)`` adds
        counters after the call returns."""
        sig = None
        if callable(name) or count is not None:
            try:
                sig = inspect.signature(fn)
            except (TypeError, ValueError):
                sig = None
        tracer = self

        @functools.wraps(fn)
        def traced(*a, **k):
            args = None
            if sig is not None:
                try:
                    bound = sig.bind(*a, **k)
                    bound.apply_defaults()
                    args = bound.arguments
                except TypeError:
                    args = None
            label = name(args) if callable(name) and args is not None else (
                name if isinstance(name, str) else fn.__qualname__)
            idx = len(tracer.start)
            tracer.name_of.append(tracer._name_id(label))
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.start.append(tracer.clock())
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            try:
                result = fn(*a, **k)
            finally:
                tracer.end[idx] = tracer.clock()
                tracer._stack.pop()
            if count is not None and args is not None:
                try:
                    count(tracer, args, result)
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    tracer.add(f"trace.count_errors.{label}", 1)
                    tracer.missing.append(f"counter of {label}: {exc!r}")
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def spans(self) -> list[tuple]:
        """(name, start, end, parent, run_id) for every span, in start order."""
        return [(self.names[n], s, e, p, self.run_id)
                for n, s, e, p in zip(self.name_of, self.start, self.end, self.parent)]

    # -- patching ------------------------------------------------------------

    def patch_attr(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` (a module global or a class method) by a span."""
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return
        if getattr(original, "__isabstractmethod__", False):
            return
        setattr(owner, attr, self.wrap(original, name, count))
        self._patches.append((owner, attr, original, False))

    def patch_item(self, mapping: dict, key: str, name, count=None) -> None:
        original = mapping.get(key)
        if original is None:
            self.missing.append(f"[{key}]")
            return
        mapping[key] = self.wrap(original, name, count)
        self._patches.append((mapping, key, original, True))

    def uninstall(self) -> None:
        for owner, attr, original, is_item in reversed(self._patches):
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> "Tracer":
        """Patch every layer of ctlab.  Missing modules or names are
        recorded, not raised."""
        mods = {}
        for short in ("cli", "checks", "walk", "geometry", "transport", "heat", "comparison"):
            try:
                mods[short] = importlib.import_module(f"ctlab.{short}")
            except ImportError:
                self.missing.append(f"ctlab.{short}")
        cli, checks = mods.get("cli"), mods.get("checks")
        geometry, transport = mods.get("geometry"), mods.get("transport")
        heat, comparison = mods.get("heat"), mods.get("comparison")

        if cli is not None:
            self.patch_attr(cli, "load_suite", "cli.load_suite")
            self.patch_attr(cli, "write_reports", "cli.write_reports")
            self.patch_attr(cli, "write_path_csv", "cli.write_path_csv", _count_csv)
            self.patch_attr(cli, "run_suite", "checks.run_suite")
            self.patch_attr(cli, "run_coupled", _walk_name("coupled"), _count_coupled)
            self.patch_attr(cli, "exact_cost", "transport.exact_cost")
        if checks is not None:
            for cid in list(getattr(checks, "CHECKS", {})):
                self.patch_item(checks.CHECKS, cid, f"checks.{cid}")
            self.patch_attr(checks, "run_single", _walk_name("single"), _count_single)
            self.patch_attr(checks, "run_coupled", _walk_name("coupled"), _count_coupled)
            self.patch_attr(checks, "block_cost_estimate", _block_name, _count_blocks)
            self.patch_attr(checks, "exact_cost", "transport.exact_cost")
            for fn in ("heat_apply", "grad_heat", "generator_heat"):
                self.patch_attr(checks, fn, _HEAT_SPANS[fn])
            for fn in COMPARISON_FUNCTIONS:
                if fn in vars(checks):
                    self.patch_attr(checks, fn, "comparison")
        if heat is not None:
            self.patch_attr(heat, "heat_apply", "heat.apply")
            self.patch_attr(heat, "run_single", _walk_name("single"), _count_single)
            for cls in HEAT_BACKENDS:
                backend = getattr(heat, cls, None)
                if backend is None:
                    self.missing.append(f"ctlab.heat.{cls}")
                    continue
                self.patch_attr(backend, "apply", f"heat.backend.{cls}")
        if transport is not None:
            cost_spec = getattr(transport, "CostSpec", None)
            if cost_spec is None:
                self.missing.append("ctlab.transport.CostSpec")
            else:
                self.patch_attr(cost_spec, "matrix", "transport.cost_matrix")
            self.patch_attr(transport, "sinkhorn_cost", "transport.sinkhorn")
            if "comp_s" in vars(transport):
                self.patch_attr(transport, "comp_s", "comparison")
        if comparison is not None:
            for fn in COMPARISON_FUNCTIONS:
                self.patch_attr(comparison, fn, "comparison")
        if geometry is not None:
            for cls_name in SPACE_CLASSES:
                cls = getattr(geometry, cls_name, None)
                if cls is None:
                    self.missing.append(f"ctlab.geometry.{cls_name}")
                    continue
                for method in GEOMETRY_METHODS:
                    if method in cls.__dict__:
                        self.patch_attr(cls, method, f"geometry.{method}")
            for method in GEOMETRY_METHODS:
                if not any(method in getattr(geometry, c).__dict__
                           for c in SPACE_CLASSES if hasattr(geometry, c)):
                    self.missing.append(f"ctlab.geometry.*.{method}")
        return self


_HEAT_SPANS = {"heat_apply": "heat.apply", "grad_heat": "heat.grad",
               "generator_heat": "heat.generator"}


def _walk_name(kind: str):
    def name(args):
        return f"walk.{kind}.{getattr(args.get('space'), 'kind', 'unknown')}"
    return name


def _count_single(tracer: Tracer, args, result) -> None:
    cfg = args["cfg"]
    tracer.add(f"walk.single.point_steps.{args['space'].kind}", cfg.n_trajectories * cfg.n_steps)


def _count_coupled(tracer: Tracer, args, result) -> None:
    cfg = args["cfg"]
    tracer.add(f"walk.coupled.point_steps.{args['space'].kind}", cfg.n_trajectories * cfg.n_steps)
    tracer.add("walk.coupled.near_cut_events", result.near_cut_events)


def _n_blocks(args) -> int:
    return max(1, len(args["xs"]) // int(args["block_size"]))


def _block_name(args) -> str:
    # one block takes the bootstrap path, which re-solves per resample
    return "transport.block_estimate." + ("single" if _n_blocks(args) == 1 else "multi")


def _count_blocks(tracer: Tracer, args, result) -> None:
    blocks = _n_blocks(args)
    tracer.add("transport.block_estimate.points", len(args["xs"]))
    tracer.add("transport.block_estimate.blocks", blocks)
    if blocks > 1:
        tracer.add("transport.multi_blocks", blocks)
        tracer.add("transport.multi_points", blocks * int(args["block_size"]))


def _count_csv(tracer: Tracer, args, result) -> None:
    tracer.add("cli.csv_bytes", args["fh"].tell())


# ---------------------------------------------------------------------------
# aggregation


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans come in start order with parents before children, as one
    thread of calls produces them."""
    child = [0.0] * len(spans)
    for name, s, e, p, _ in spans:
        if p >= 0:
            child[p] += e - s
    return [(e - s) - c for (name, s, e, p, _), c in zip(spans, child)]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


# spans that only contain other work: they do not count towards coverage
_CONTAINERS = {"checks.run_suite"}


def layer_metrics(spans, counters: dict, wall_lo: float, wall_hi: float) -> dict:
    """Per-layer metrics of one pass from its spans and counters.

    ``wall_lo``/``wall_hi`` bound the pass's wall_s interval (loaded
    input to written output) on the tracer's clock."""
    selfs = self_times(spans)
    n = len(spans)
    layer = [layer_of(sp[0]) for sp in spans]
    # outer[i]: no ancestor of span i is in the same layer
    anc_mask = [0] * n
    bit = {name: 1 << i for i, name in enumerate(LAYERS)}
    outer = [True] * n
    check_anc = [-1] * n
    for i, (name, s, e, p, _) in enumerate(spans):
        if p >= 0:
            anc_mask[i] = anc_mask[p] | bit.get(layer[p], 0)
            check_anc[i] = p if (layer[p] == "checks" and spans[p][0] not in _CONTAINERS) \
                else check_anc[p]
        outer[i] = not (anc_mask[i] & bit.get(layer[i], 0))

    m: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)

    def add(key, v):
        m[key] = m.get(key, 0.0) + v

    walk_s = walk_self = geo_in_walk = 0.0
    walk_space_s: dict[str, float] = {}
    for i, (name, s, e, p, _) in enumerate(spans):
        d = e - s
        lay = layer[i]
        if lay == "walk":
            _, kind, space = name.split(".", 2)
            add(f"walk.{kind}.calls", 1)
            add(f"walk.{kind}.s", d)
            walk_space_s[space] = walk_space_s.get(space, 0.0) + d
            if outer[i]:
                walk_s += d
            walk_self += selfs[i]
        elif lay == "geometry":
            meth = name.split(".", 1)[1]
            add(f"geometry.{meth}.calls", 1)
            add(f"geometry.{meth}.s", selfs[i])
            if outer[i] and p >= 0 and layer[p] == "walk":
                geo_in_walk += d
        elif lay == "transport":
            add(f"{name}.calls", 1)
            add(f"{name}.s", d)
        elif lay == "heat":
            add(f"{name}.calls", 1)
            if not name.startswith("heat.backend."):
                add(f"{name}.s", d)
        elif lay == "comparison":
            add("comparison.calls", 1)
            if outer[i]:
                add("comparison.s", d)
        elif lay == "checks" and name not in _CONTAINERS:
            add(f"{name}.s", d)
            add("checks.rhs_s", selfs[i])
        elif lay == "cli":
            add(f"{name}_s", d)
        if check_anc[i] >= 0 and outer[i]:
            if lay == "walk":
                add("checks.sample_s", d)
            elif name.startswith("transport.block_estimate") or name == "transport.exact_cost":
                add("checks.transport_s", d)

    ps_by_space: dict[str, float] = {}
    for key, v in counters.items():
        if key.startswith("walk.") and ".point_steps." in key:
            kind, space = key.split(".")[1], key.split(".")[3]
            add(f"walk.{kind}.point_steps", v)
            ps_by_space[space] = ps_by_space.get(space, 0.0) + v
        elif key.startswith("trace.count_errors."):
            add("trace.count_errors", v)
        else:
            add(key, v)
    for kind in ("single", "coupled"):
        s = m.get(f"walk.{kind}.s", 0.0)
        m[f"walk.{kind}.point_steps_per_s"] = m.get(f"walk.{kind}.point_steps", 0.0) / s if s else 0.0
    for space in ("sphere", "hyperbolic", "euclidean"):
        s = walk_space_s.get(space, 0.0)
        m[f"walk.{space}.point_steps_per_s"] = ps_by_space.get(space, 0.0) / s if s else 0.0
    m["walk.self_s"] = walk_self
    m["geometry.share_of_walk"] = geo_in_walk / walk_s if walk_s else 0.0

    multi_s = m.pop("transport.block_estimate.multi.s", 0.0)
    single_s = m.pop("transport.block_estimate.single.s", 0.0)
    multi_calls = m.pop("transport.block_estimate.multi.calls", 0.0)
    single_calls = m.pop("transport.block_estimate.single.calls", 0.0)
    m["transport.block_estimate.calls"] = multi_calls + single_calls
    m["transport.block_estimate.s"] = multi_s + single_s
    m["transport.block_estimate.single_block_calls"] = single_calls
    multi_blocks = m.pop("transport.multi_blocks", 0.0)
    multi_points = m.pop("transport.multi_points", 0.0)
    m["transport.s_per_block"] = multi_s / multi_blocks if multi_blocks else 0.0
    m["transport.block_size"] = multi_points / multi_blocks if multi_blocks else 0.0

    hs = m.get("heat.apply.s", 0.0)
    m["heat.apply.per_s"] = m.get("heat.apply.calls", 0.0) / hs if hs else 0.0
    ws = m.get("cli.write_path_csv_s", 0.0)
    m["cli.csv_mb_per_s"] = m.pop("cli.csv_bytes", 0.0) / 1e6 / ws if ws else 0.0

    wall = wall_hi - wall_lo
    covered = _covered([(s, e) for name, s, e, p, _ in spans if name not in _CONTAINERS],
                       wall_lo, wall_hi)
    m["trace.coverage"] = covered / wall if wall > 0 else 0.0
    for lay in LAYERS:
        union = _covered([(s, e) for (name, s, e, p, _), l in zip(spans, layer)
                          if l == lay and name not in _CONTAINERS], wall_lo, wall_hi)
        m[f"share.{lay}"] = union / wall if wall > 0 else 0.0
    return m
