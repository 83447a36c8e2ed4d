"""Span tracing of utilsens' public functions, from outside the library.

``Tracer.install`` wraps every public function defined in a utilsens module
and rebinds the wrapper in every module namespace that holds the original,
so calls made through ``from .x import f`` are traced as well.  Each call
becomes a span (module, function, thread, start, end, parent).  Spans that
start on a worker thread with no traced caller on that thread (``normals_for``
inside the path-block pool) are attributed to the innermost main-thread
simulation span that encloses them in time.

``layer_metrics`` turns the spans into the per-module figures the benchmark
reports.  A span's self time is its duration minus the part of it covered by
the union of its children's intervals; children on other threads may overlap
each other, so the union (not the sum) is subtracted.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import itertools
import math
import threading
import time
from dataclasses import dataclass, field

MODULES = ("models", "eigenpairs", "coefficients", "valuation",
           "sensitivities", "simulation", "cli")

# unit of every metric ``layer_metrics`` returns
UNITS = {
    **{f"{m}.busy_s": "s" for m in MODULES},
    **{f"{m}.calls": "count" for m in MODULES},
    "simulation.normals_s": "s", "simulation.normals_drawn": "count",
    "simulation.ns_per_normal": "ns", "simulation.normals_calls_per_1e6": "count",
    "simulation.wall_s": "s", "simulation.cpu_s": "s",
    "simulation.parallel_efficiency": "ratio", "simulation.mc_se": "1",
    "simulation.halving_combined_se": "1",
    "coefficients.oracle_s": "s", "coefficients.oracle_steps": "count",
    "coefficients.oracle_ns_per_step": "ns",
    "coefficients.richardson_disagreement_max": "1",
    "coefficients.build_path_s": "s", "coefficients.quad_nodes": "count",
    "coefficients.quad_ns_per_node": "ns",
    "coefficients.oracle_s.kim_omberg": "s", "coefficients.oracle_s.heston": "s",
    "coefficients.quad_ns_per_node.kim_omberg": "ns",
    "coefficients.quad_ns_per_node.heston": "ns",
    "valuation.cache_lookups": "count", "valuation.cache_hit_ratio": "ratio",
    "valuation.dual_value_s": "s", "valuation.utility_underflows": "count",
    "sensitivities.lambda_fd_calls": "count", "sensitivities.lambda_fd_s": "s",
    "sensitivities.diagnostic_s": "s",
    "eigenpairs.eigenpair_calls": "count", "eigenpairs.residual_s": "s",
    "models.validate_calls": "count", "models.validate_us": "us",
    "cli.verify_s.heston": "s", "cli.verify_s.kim_omberg": "s",
    "cli.verify_s.ou_complete": "s", "cli.self_s": "s",
    "trace.spans": "count", "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s", "trace.overhead_pct": "%",
}


@dataclass
class Span:
    sid: int
    parent: int | None
    module: str
    name: str
    thread: int
    t0: float
    t1: float = math.nan
    cpu: float = 0.0          # process CPU seconds; main-thread simulation spans
    info: dict = field(default_factory=dict)


def oracle_steps(grid, h_ode: float) -> int:
    """RK4 steps ``riccati_oracle`` takes on ``grid``: one pass at ``h_ode``
    and one at ``h_ode / 2``, each interval split into ceil(span / h) steps."""
    total = 0
    for h in (h_ode, h_ode / 2.0):
        for a, b in zip(grid[:-1], grid[1:]):
            total += max(1, math.ceil((b - a) / h))
    return total


def _normals_info(args, kwargs, result):
    return {"drawn": int(result.size)}


def _kind(args, kwargs) -> str:
    return (args[0] if args else kwargs["model"]).kind


def _build_info(args, kwargs, result):
    return {"kind": _kind(args, kwargs), "nodes": int(result.meta.get("n_quad_nodes", 0))}


def _oracle_info(args, kwargs, result):
    meta = result.meta
    return {"kind": _kind(args, kwargs),
            "steps": oracle_steps(result.grid, meta["h_ode"]),
            "disagreement": meta["richardson_disagreement"]}


def _decomposition_info(args, kwargs, result):
    return {"se": result.mc_se, "halving_se": result.halved_dt_combined_se or 0.0}


def _pair_se_info(args, kwargs, result):
    return {"se": result[1]}


def _dual_value_info(args, kwargs, result):
    return {"underflow": result.utility == 0.0}


# per-function extraction of exact work counts from arguments and results
_INFO = {
    ("simulation", "normals_for"): _normals_info,
    ("coefficients", "build_path"): _build_info,
    ("coefficients", "riccati_oracle"): _oracle_info,
    ("simulation", "decomposition_check"): _decomposition_info,
    ("simulation", "simulate_phat_value"): _pair_se_info,
    ("simulation", "mc_bump_sensitivity"): _pair_se_info,
    ("valuation", "dual_value"): _dual_value_info,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self.main = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, module: str, fn):
        info = _INFO.get((module, fn.__name__))
        want_cpu = module == "simulation"
        spans, local, ids, main = self.spans, self._local, self._ids, self.main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            tid = threading.get_ident()
            span = Span(next(ids), stack[-1].sid if stack else None, module,
                        fn.__name__, tid, 0.0)
            # CPU time is read around outermost simulation calls only
            cpu = want_cpu and tid == main and not any(
                s.module == "simulation" for s in stack)
            stack.append(span)
            if cpu:
                c0 = time.process_time()
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                if cpu:
                    span.cpu = time.process_time() - c0
                stack.pop()
                spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s modules everywhere they
        are bound: the modules themselves, the package and each other."""
        mods = {m: importlib.import_module(f"{package.__name__}.{m}")
                for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(short, obj))
        for ns in [package, *mods.values()]:
            for name, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((ns, name, obj))
                    setattr(ns, name, hit[1])

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._undo):
            setattr(ns, name, obj)
        self._undo.clear()


def attribute_orphans(spans: list[Span], main: int) -> dict[int, int]:
    """Parent for each worker-thread span with no traced caller: the innermost
    main-thread simulation span whose interval encloses it."""
    hosts = sorted((s for s in spans if s.thread == main and s.module == "simulation"),
                   key=lambda s: s.t0)
    starts = [s.t0 for s in hosts]
    out = {}
    for s in spans:
        if s.thread == main or s.parent is not None:
            continue
        # spans nest, so the latest-starting host that encloses s is innermost
        for i in range(bisect.bisect_right(starts, s.t0) - 1, -1, -1):
            if hosts[i].t1 >= s.t1:
                out[s.sid] = hosts[i].sid
                break
    return out


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[Span], parents: dict[int, int | None]) -> dict[int, float]:
    """Self time of each span given its (possibly cross-thread) parent."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        p = parents.get(s.sid)
        if p is not None:
            children.setdefault(p, []).append((s.t0, s.t1))
    return {s.sid: (s.t1 - s.t0) - covered(children.get(s.sid, []), s.t0, s.t1)
            for s in spans}


def layer_metrics(spans: list[Span], main: int, workers: int,
                  verify_s: dict[str, float]) -> dict[str, float]:
    """Per-module metrics of one traced pass with ``workers`` simulation
    threads."""
    parents = {s.sid: s.parent for s in spans}
    parents.update(attribute_orphans(spans, main))
    selfs = self_times(spans, parents)
    by_id = {s.sid: s for s in spans}

    def pick(module, name=None):
        return [s for s in spans if s.module == module
                and (name is None or s.name == name)]

    def dur(ss):
        return sum(s.t1 - s.t0 for s in ss)

    def ratio(a, b):
        return a / b if b else 0.0

    def outermost(s, module):
        p = parents.get(s.sid)
        while p is not None:
            if by_id[p].module == module:
                return False
            p = parents.get(p)
        return True

    m: dict[str, float] = {}
    for mod in MODULES:
        ss = pick(mod)
        m[f"{mod}.busy_s"] = sum(selfs[s.sid] for s in ss)
        m[f"{mod}.calls"] = len(ss)

    normals = pick("simulation", "normals_for")
    drawn = sum(s.info["drawn"] for s in normals)
    m["simulation.normals_s"] = dur(normals)
    m["simulation.normals_drawn"] = drawn
    m["simulation.ns_per_normal"] = 1e9 * ratio(dur(normals), drawn)
    m["simulation.normals_calls_per_1e6"] = 1e6 * ratio(len(normals), drawn)
    top = [s for s in pick("simulation")
           if s.thread == main and outermost(s, "simulation")]
    wall, cpu = dur(top), sum(s.cpu for s in top)
    m["simulation.wall_s"] = wall
    m["simulation.cpu_s"] = cpu
    m["simulation.parallel_efficiency"] = ratio(cpu, wall * workers)
    se_spans = [s for s in pick("simulation") if "se" in s.info]
    m["simulation.mc_se"] = math.fsum(s.info["se"] for s in se_spans)
    m["simulation.halving_combined_se"] = math.fsum(
        s.info.get("halving_se", 0.0) for s in se_spans)

    oracle = pick("coefficients", "riccati_oracle")
    steps = sum(s.info["steps"] for s in oracle)
    m["coefficients.oracle_s"] = dur(oracle)
    m["coefficients.oracle_steps"] = steps
    m["coefficients.oracle_ns_per_step"] = 1e9 * ratio(dur(oracle), steps)
    m["coefficients.richardson_disagreement_max"] = max(
        (s.info["disagreement"] for s in oracle), default=0.0)
    builds = pick("coefficients", "build_path")
    nodes = sum(s.info["nodes"] for s in builds)
    m["coefficients.build_path_s"] = dur(builds)
    m["coefficients.quad_nodes"] = nodes
    m["coefficients.quad_ns_per_node"] = 1e9 * ratio(dur(builds), nodes)
    for kind in ("kim_omberg", "heston"):
        m[f"coefficients.oracle_s.{kind}"] = dur(
            [s for s in oracle if s.info["kind"] == kind])
        mine = [s for s in builds if s.info["kind"] == kind]
        m[f"coefficients.quad_ns_per_node.{kind}"] = 1e9 * ratio(
            dur(mine), sum(s.info["nodes"] for s in mine))

    lookups = pick("valuation", "cached_path")
    built = {parents[s.sid] for s in builds}
    m["valuation.cache_lookups"] = len(lookups)
    m["valuation.cache_hit_ratio"] = ratio(sum(s.sid not in built for s in lookups),
                                           len(lookups))
    values = pick("valuation", "dual_value")
    m["valuation.dual_value_s"] = dur(values)
    m["valuation.utility_underflows"] = sum(s.info["underflow"] for s in values)

    fd = pick("sensitivities", "lambda_fd")
    m["sensitivities.lambda_fd_calls"] = len(fd)
    m["sensitivities.lambda_fd_s"] = dur(fd)
    m["sensitivities.diagnostic_s"] = dur(pick("sensitivities", "convergence_diagnostic"))
    m["eigenpairs.eigenpair_calls"] = len(pick("eigenpairs", "eigenpair"))
    m["eigenpairs.residual_s"] = dur(pick("eigenpairs", "ergodic_residual"))
    validates = pick("models", "validate")
    m["models.validate_calls"] = len(validates)
    m["models.validate_us"] = 1e6 * dur(validates)
    for cfg in ("heston", "kim_omberg", "ou_complete"):
        m[f"cli.verify_s.{cfg}"] = verify_s.get(cfg, 0.0)
    m["cli.self_s"] = m["cli.busy_s"]  # verify wall minus busy library calls
    m["trace.spans"] = len(spans)
    return m
