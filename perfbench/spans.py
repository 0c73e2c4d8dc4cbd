"""Span recorder for the traced run, and the per-layer metrics read off it.

The recorder wraps the package's public entry points from outside: each
function is rebound, in every package module that holds it, to a wrapper that
records a span (name, start, end, parent span, task id).  It also wraps
``numpy.linalg.solve`` and counts oracle calls on the MDP objects the
benchmark built.  ``installed()`` undoes every rebinding on exit, so that
untraced passes run the original functions.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy

from transientmdp.simulate import FreshTail

LAYERS = ("core", "solvers", "simulate", "synthesis", "transforms", "verify", "cli")
# Leaf helpers called once per state or per run: a span each would cost more
# than the work it times.
UNWRAPPED = {
    "core.successor_states",
    "core.require_sink",
    "core.require_tail",
    "simulate.derive_seed",
    "verify.win_objective",
}
# Private engines that the per-layer metrics name: (module, attribute, span).
ENGINES = (
    ("simulate", "_run_is_transient", "simulate.scalar"),
    ("simulate", "_vector_estimate", "simulate.vector"),
)
LINSOLVE = "solvers.linsolve"
REFERENCE_TASK = "reference"
VECTOR_CELL_CAP = 64_000_000  # batch cap of simulate._vector_estimate


@dataclass
class Span:
    ident: int
    name: str
    start: float
    parent: int | None
    task: str | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _vector_bytes(args, kwargs) -> int:
    """Bytes of the visit array one batch of the vector engine allocates,
    computed from its arguments the way the engine sizes it."""
    chain, s0, horizon, runs, proxy = args[:5]
    bound = int(chain.ordinal_bound(s0.ordinal, horizon)) + 1
    batch = max(1, min(runs, VECTOR_CELL_CAP // bound))
    itemsize = 1 if isinstance(proxy, FreshTail) else 4
    return batch * bound * itemsize


# Span attributes recorded from arguments and results.
ANNOTATIONS = {
    "core.truncate": lambda a, k, r: {
        "states": r.num_states, "frontier": r.frontier is not None},
    LINSOLVE: lambda a, k, r: {"rows": len(a[0])},
    "solvers.interval_value": lambda a, k, r: {"width": r.upper - r.lower},
    "simulate.simulate": lambda a, k, r: {"steps": _arg(a, k, 3, "horizon")},
    "simulate.scalar": lambda a, k, r: {"steps": a[3]},
    "simulate.vector": lambda a, k, r: {
        "runs": a[3], "steps": a[2] * a[3], "bytes": _vector_bytes(a, k)},
    "synthesis.plastering_uniformize": lambda a, k, r: {"rounds": len(r[1].rounds)},
    "synthesis.safety_md_universally_transient": lambda a, k, r: {"choices": len(r.choice)},
}


class Recorder:
    """Spans kept in memory; ``task`` names the benchmark task in progress."""

    def __init__(self):
        self.spans: list[Span] = []
        self.task: str | None = None
        self.oracle_calls = 0
        self.oracle_states: set = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object, bool]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = ANNOTATIONS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, clock(), stack[-1] if stack else None, self.task)
            spans.append(span)
            stack.append(span.ident)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        return traced

    def _counting(self, method):
        states = self.oracle_states

        def counted(s):
            self.oracle_calls += 1
            states.add(s)
            return method(s)

        return counted

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, value)

    def install(self, mdps=()) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "transientmdp" or n.startswith("transientmdp.")
        ]
        targets = []
        for layer in LAYERS:
            module = importlib.import_module(f"transientmdp.{layer}")
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    targets.append((fn, name))
        for layer, attr, name in ENGINES:
            targets.append((getattr(importlib.import_module(f"transientmdp.{layer}"), attr), name))
        for fn, name in targets:
            wrapper = self.wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, attr, wrapper)
        self._rebind(numpy.linalg, "solve", self.wrap(LINSOLVE, numpy.linalg.solve))
        for mdp in mdps:
            for attr in ("kind_of", "successors_of"):
                self._rebind(mdp, attr, self._counting(getattr(mdp, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, previous, own = self._saved.pop()
            if own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    @contextlib.contextmanager
    def installed(self, mdps=()):
        try:
            self.install(mdps)
            yield self
        finally:
            self.restore()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - child[s.ident] for s in self.spans]

    def dump(self, path: Path, header: dict) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        doc = dict(header)
        doc["oracle"] = {"calls": self.oracle_calls, "states": len(self.oracle_states)}
        doc["spans"] = [
            dict(asdict(s), start=s.start - origin, end=s.end - origin) for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("core.truncate.calls", "count", "lower"),
    ("core.truncate.self_s", "s", "lower"),
    ("core.truncate.states", "count", "lower"),
    ("core.truncate.frontier_frac", "ratio", "lower"),
    ("core.bubble.calls", "count", "lower"),
    ("core.bubble.self_s", "s", "lower"),
    ("core.oracle.calls", "count", "lower"),
    ("core.oracle.calls_per_state", "calls/state", "lower"),
    ("solvers.linsolve.calls", "count", "lower"),
    ("solvers.linsolve.s", "s", "lower"),
    ("solvers.linsolve.rows_max", "rows", "lower"),
    ("solvers.linsolve.flops", "flop", "lower"),
    ("solvers.linsolve.bytes", "B", "lower"),
    ("solvers.linsolve.gflops_per_s", "Gflop/s", "higher"),
    ("solvers.optimal_boundary_value.calls", "count", "lower"),
    ("solvers.optimal_boundary_value.self_s", "s", "lower"),
    ("solvers.evaluate_md.calls", "count", "lower"),
    ("solvers.evaluate_md.self_s", "s", "lower"),
    ("solvers.min_expected_cost_md.calls", "count", "lower"),
    ("solvers.min_expected_cost_md.self_s", "s", "lower"),
    ("solvers.pi_evals_per_solve", "calls/solve", "lower"),
    ("solvers.interval_value.calls", "count", "lower"),
    ("solvers.interval_value.self_s", "s", "lower"),
    ("solvers.interval_value.width_mean", "prob", "lower"),
    ("solvers.return_probability.calls", "count", "lower"),
    ("solvers.return_probability.self_s", "s", "lower"),
    ("solvers.md_policy_oracle.self_s", "s", "lower"),
    ("simulate.simulate.calls", "count", "lower"),
    ("simulate.simulate.self_s", "s", "lower"),
    ("simulate.simulate.steps_per_s", "1/s", "higher"),
    ("simulate.scalar.runs", "count", "lower"),
    ("simulate.scalar.self_s", "s", "lower"),
    ("simulate.scalar.steps_per_s", "1/s", "higher"),
    ("simulate.vector.runs", "count", "lower"),
    ("simulate.vector.self_s", "s", "lower"),
    ("simulate.vector.steps_per_s", "1/s", "higher"),
    ("simulate.vector.bytes", "B", "lower"),
    ("synthesis.transience_md.self_s", "s", "lower"),
    ("synthesis.buchi_transience_one_bit.self_s", "s", "lower"),
    ("synthesis.plastering_uniformize.self_s", "s", "lower"),
    ("synthesis.plastering_uniformize.rounds", "count", "lower"),
    ("synthesis.optimal_md_where_exists.self_s", "s", "lower"),
    ("synthesis.safety_md_universally_transient.self_s", "s", "lower"),
    ("synthesis.safety.interval_calls_per_choice", "calls/choice", "lower"),
    ("transforms.reduce_to_finitely_branching.self_s", "s", "lower"),
    ("transforms.conditioned.self_s", "s", "lower"),
    ("transforms.plus_variant.self_s", "s", "lower"),
    ("verify.run_suite.self_s", "s", "lower"),
    ("verify.certify_universal_transience.self_s", "s", "lower"),
    ("cli.run_scenario.calls", "count", "lower"),
    ("cli.run_scenario.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of the traced pass.  Spans of the reference checks
    count only towards ``solvers.md_policy_oracle.self_s``."""
    self_s = rec.self_times()
    spans = rec.spans
    calls = defaultdict(int)
    own = defaultdict(float)
    total = defaultdict(float)
    attrs = defaultdict(list)
    for s in spans:
        if s.task == REFERENCE_TASK:
            continue
        calls[s.name] += 1
        own[s.name] += self_s[s.ident]
        total[s.name] += s.end - s.start
        if s.attrs:  # calls that raised carry no attributes
            attrs[s.name].append(s.attrs)

    def ancestors(s: Span):
        while s.parent is not None:
            s = spans[s.parent]
            yield s

    m = {}
    for name, _, _ in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if stat == "calls" and fn != "core.oracle":
            m[name] = calls[fn]
        elif stat == "self_s":
            m[name] = own[fn]
    trunc = attrs["core.truncate"]
    m["core.truncate.states"] = sum(a["states"] for a in trunc)
    m["core.truncate.frontier_frac"] = _ratio(sum(a["frontier"] for a in trunc), len(trunc))
    m["core.oracle.calls"] = rec.oracle_calls
    m["core.oracle.calls_per_state"] = _ratio(rec.oracle_calls, len(rec.oracle_states))

    rows = [a["rows"] for a in attrs[LINSOLVE]]
    flops = sum(2.0 / 3.0 * n**3 for n in rows)  # computed, not counted
    m["solvers.linsolve.s"] = total[LINSOLVE]
    m["solvers.linsolve.rows_max"] = max(rows, default=0)
    m["solvers.linsolve.flops"] = flops
    m["solvers.linsolve.bytes"] = sum(8.0 * n * n for n in rows)  # computed
    m["solvers.linsolve.gflops_per_s"] = _ratio(flops, total[LINSOLVE]) / 1e9

    obv = "solvers.optimal_boundary_value"
    pi_evals = sum(
        1 for s in spans
        if s.name == "solvers.evaluate_md" and s.task != REFERENCE_TASK
        and s.parent is not None and spans[s.parent].name == obv
    )
    m["solvers.pi_evals_per_solve"] = _ratio(pi_evals, calls[obv])
    widths = [a["width"] for a in attrs["solvers.interval_value"]]
    m["solvers.interval_value.width_mean"] = _ratio(sum(widths), len(widths))
    m["solvers.md_policy_oracle.self_s"] = sum(
        self_s[s.ident] for s in spans if s.name == "solvers.md_policy_oracle"
    )

    for fn in ("simulate.simulate", "simulate.scalar", "simulate.vector"):
        steps = sum(a["steps"] for a in attrs[fn])
        m[f"{fn}.steps_per_s"] = _ratio(steps, total[fn])
    m["simulate.scalar.runs"] = calls["simulate.scalar"]
    vec = attrs["simulate.vector"]
    m["simulate.vector.runs"] = sum(a["runs"] for a in vec)
    m["simulate.vector.bytes"] = max((a["bytes"] for a in vec), default=0)

    m["synthesis.plastering_uniformize.rounds"] = sum(
        a["rounds"] for a in attrs["synthesis.plastering_uniformize"]
    )
    safety = "synthesis.safety_md_universally_transient"
    under_safety = sum(
        1 for s in spans
        if s.name == "solvers.interval_value" and s.task != REFERENCE_TASK
        and any(p.name == safety for p in ancestors(s))
    )
    m["synthesis.safety.interval_calls_per_choice"] = _ratio(
        under_safety, sum(a["choices"] for a in attrs[safety])
    )

    top = sum(
        s.end - s.start for s in spans if s.parent is None and s.task != REFERENCE_TASK
    )
    m["trace.overhead_frac"] = _ratio(traced_wall, untraced_wall) - 1.0
    m["trace.coverage_frac"] = _ratio(top, traced_wall)
    return {name: float(m[name]) for name, _, _ in PER_LAYER}
