"""Span tracing of stablebranch from outside the package.

While a `Tracer` is installed, every function that one stablebranch module
imports from another is rebound, at its importing site, to a wrapper that
records a span: name, layer (the defining module), start, end, parent span and
the id of the benchmark op it ran under.  `cumulant.solve_extinction` is also
rebound inside its own module, so that calls from `weighted_extinction_norm`
open a span and the certification runs under it can be found.
`CumulantCurve.evaluate` and `OdeSolution.__call__` are wrapped on their
classes.  The benchmark's own calls go through the namespace `install`
returns, which wraps them the same way.  `uninstall` puts every original back.

A few wrappers also read counts off the returned objects (solver steps,
Picard iterations, simulated site-steps, CLI exit codes); these are kept in
the span's `info` dict.  Spans stay in memory; `layer_metrics` turns one traced
pass into per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

from stablebranch import (
    _ivp,
    analysis,
    cli,
    cumulant,
    limitlaw,
    model,
    simulate,
    spine,
)

MODULES = (model, cumulant, _ivp, limitlaw, analysis, simulate, spine, cli)
# Metric names may not start with "_", so the `_ivp` module reports as "ivp".
LAYER_NAMES = {m.__name__: m.__name__.rsplit(".", 1)[1].lstrip("_") for m in MODULES}
LAYERS = tuple(LAYER_NAMES.values())


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "info")

    def __init__(self, name, layer, start, parent, op):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.info = {}

    @property
    def duration(self):
        return self.end - self.start


def _dir_bytes(path):
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def _count_ode(span, args, kwargs, result):
    report = result.report
    span.info.update(
        accepted=report.accepted,
        rejected=report.rejected,
        fallback=int("etd2" in report.engine),
    )


def _count_sim(span, args, kwargs, result):
    model_, config = args[0], args[2]
    span.info.update(
        site_steps=config.replicates * len(config.step_sizes) * model_.d,
        survivors=result.survivors,
        replicates=result.replicates,
    )


def _count_fk(span, args, kwargs, result):
    span.info.update(paths=args[4] * args[0].d)


def _count_picard(span, args, kwargs, result):
    span.info.update(iterations=result.iterations)


def _count_cli(span, args, kwargs, result):
    span.info.update(exit=result, bytes=_dir_bytes(args[0].output_dir))


COUNTERS = {
    "solve_branching_ode": _count_ode,
    "simulate_paths": _count_sim,
    "feynman_kac_estimate": _count_fk,
    "solve_delay_equation": _count_picard,
    "run": _count_cli,
}


class Tracer:
    """Records spans while installed; `op` names the benchmark op running."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    def wrap(self, fn, layer, name):
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, layer, clock(), parent, self.op)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            if counter is not None:
                counter(span, args, kwargs, result)
            return result

        return traced

    def _rebind(self, owner, attr, fn, layer, name):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, self.wrap(fn, layer, name))

    def install(self, api):
        """Rebind the package's cross-module imports; wrap `api` for the benchmark."""
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                if (
                    inspect.isfunction(val)
                    and val.__module__ in LAYER_NAMES
                    and val.__module__ != mod.__name__
                ):
                    self._rebind(mod, attr, val, LAYER_NAMES[val.__module__], attr)
        self._rebind(cumulant, "solve_extinction", cumulant.solve_extinction,
                     "cumulant", "solve_extinction")
        self._rebind(cumulant.CumulantCurve, "evaluate", cumulant.CumulantCurve.evaluate,
                     "cumulant", "evaluate")
        self._rebind(_ivp.OdeSolution, "__call__", _ivp.OdeSolution.__call__,
                     "ivp", "OdeSolution.__call__")
        wrapped = {}
        for attr, fn in vars(api).items():
            wrapped[attr] = self.wrap(fn, LAYER_NAMES[fn.__module__], attr)
        return type(api)(**wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_metrics(spans, op_walls, ops):
    """Per-layer numbers of one traced pass.

    `op_walls` maps op name to its traced wall time and `ops` gives each op's
    stored properties (live share).  Self time of a span is its duration minus
    that of its direct children; a layer's self time is the sum over its spans.
    The benchmark's own time per op is the op's wall time minus its top-level
    spans, so per op the layers' self times plus the benchmark's add up to the
    op's wall time.  Returns (metrics, worst relative accounting gap).
    """
    child_time = defaultdict(float)
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] += s.duration
            children[id(s.parent)].append(s)
    self_time = {id(s): s.duration - child_time[id(s)] for s in spans}

    layer_self = dict.fromkeys(LAYERS, 0.0)
    op_layer_self = defaultdict(float)
    op_top = defaultdict(float)
    for s in spans:
        layer_self[s.layer] += self_time[id(s)]
        op_layer_self[s.op] += self_time[id(s)]
        if s.parent is None:
            op_top[s.op] += s.duration

    bench_self = 0.0
    worst_gap = 0.0
    for name, wall in op_walls.items():
        own = wall - op_top[name]
        bench_self += own
        gap = abs(op_layer_self[name] + own - wall) / wall
        worst_gap = max(worst_gap, gap)

    def named(name):
        return [s for s in spans if s.name == name]

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in named(name))

    def descendants(span, name):
        found = []
        todo = list(children[id(span)])
        while todo:
            s = todo.pop()
            if s.name == name:
                found.append(s)
            todo.extend(children[id(s)])
        return sorted(found, key=lambda s: s.start)

    extinction = named("solve_extinction")
    cert_s = sum(
        s.duration
        for ext in extinction
        for s in descendants(ext, "solve_branching_ode")[:2]
    )
    extinction_s = sum(s.duration for s in extinction)

    accepted = info_sum("solve_branching_ode", "accepted")
    rejected = info_sum("solve_branching_ode", "rejected")
    ivp_s = layer_self["ivp"]

    sims = named("simulate_paths")
    site_steps = info_sum("simulate_paths", "site_steps")
    replicates = info_sum("simulate_paths", "replicates")
    live_weighted = sum(s.info["site_steps"] * ops[s.op].live_share for s in sims)
    fk = named("feynman_kac_estimate")
    fk_nodes = sum(
        s.info["paths"] * len([c for c in children[id(s)] if c.name == "solve_cumulant"])
        for s in fk
    )
    fk_self = sum(self_time[id(s)] for s in fk)
    runs = named("run")

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "ivp.busy_s": ivp_s,
        "ivp.steps_accepted": accepted,
        "ivp.steps_rejected": rejected,
        "ivp.us_per_step": ratio(ivp_s * 1e6, accepted),
        "ivp.accept_ratio": ratio(accepted, accepted + rejected),
        "ivp.fallback_calls": info_sum("solve_branching_ode", "fallback"),
        "cumulant.cert_s": cert_s,
        "cumulant.cert_share": ratio(cert_s, extinction_s),
        "cumulant.self_s": layer_self["cumulant"],
        "cumulant.solve_cumulant_calls": len(named("solve_cumulant")),
        "simulate.busy_s": layer_self["simulate"],
        "simulate.site_steps": site_steps,
        "simulate.ns_per_site_step": ratio(layer_self["simulate"] * 1e9, site_steps),
        "simulate.survivor_share": ratio(info_sum("simulate_paths", "survivors"), replicates),
        "simulate.live_share": ratio(live_weighted, site_steps),
        "spine.busy_s": layer_self["spine"],
        "spine.fk_path_nodes": fk_nodes,
        "spine.ns_per_path_node": ratio(fk_self * 1e9, fk_nodes),
        "limitlaw.busy_s": layer_self["limitlaw"],
        "limitlaw.picard_iterations": info_sum("solve_delay_equation", "iterations"),
        "analysis.self_s": layer_self["analysis"],
        "model.busy_s": layer_self["model"],
        "model.calibrate_calls": len(named("calibrate_critical")),
        "cli.self_s": layer_self["cli"],
        "cli.runs": len(runs),
        "cli.nonzero_exits": sum(1 for s in runs if s.info.get("exit")),
        "cli.bytes_written": info_sum("run", "bytes"),
        "bench.self_s": bench_self,
    }
    return metrics, worst_gap

