"""Batch experiment runner: scenarios in, CSV/JSON artifacts out.

A scenario is a single JSON document that fully determines a reproducible
run: the MDP source (registered gadget or FiniteMdp JSON file), the task, and
all parameters.  Every derived random seed comes from the master seed, so
identical scenario files produce byte-identical outputs.

Exit codes: 0 success, 2 verification failure, 1 error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .core import FiniteMdp, Objective, StateId, _Layers
from .errors import BadParameter, NotSink, ScenarioError, TransientMdpError
from .gadgets import REGISTRY, build_gadget
from .simulate import FreshTail, RevisitCap, derive_seed, estimate_transience
from .solvers import interval_value, reach_value, safety_value
from .synthesis import (
    BubbleSchedule,
    SafetySchedule,
    TransienceBudgets,
    _one_bit_on,
    one_bit_tables,
    optimal_md_where_exists,
    plastering_uniformize,
    safety_md_universally_transient,
    transience_md,
)
from .verify import run_suite


def _load_mdp(spec: dict, base: Path):
    spec = _object(spec, "mdp")
    if "gadget" in spec:
        name = spec["gadget"]
        try:
            return build_gadget(name, spec.get("params"))
        except (BadParameter, TypeError) as exc:
            raise ScenarioError(f"cannot build gadget {name!r}: {exc}") from exc
    if "file" in spec:
        try:
            path = base / spec["file"]
            return FiniteMdp.load(path), None
        except (OSError, TypeError, ValueError, NotSink) as exc:  # BadModel is a ValueError
            raise ScenarioError(f"cannot load MDP file {spec['file']!r}: {exc!r}") from exc
    raise ScenarioError("mdp needs a 'gadget' name or a 'file' path")


def _parse_objective(doc: dict, mdp) -> Objective:
    """The objective of ``doc``; the states it lists must be states of an
    MDP file."""
    doc = _object(doc, "objective")
    kind = doc.get("type")
    if kind in ("reach", "safety", "buechi"):
        if "label_prefix" in doc:
            prefix = doc["label_prefix"]
            if not isinstance(prefix, str):
                raise ScenarioError(f"label_prefix must be a string, not {prefix!r}")
            pred = lambda s, p=prefix: s.label.startswith(p)
            return getattr(Objective, kind)(pred)
        states = doc.get("states", [])
        if not isinstance(states, list):
            raise ScenarioError(f"objective states must be a list, not {states!r}")
        states = {StateId(_number(int, o, "objective state")) for o in states}
        if not states:
            raise ScenarioError(f"objective {kind!r} needs 'states' or 'label_prefix'")
        if isinstance(mdp, FiniteMdp):
            missing = sorted(s.ordinal for s in states if s.ordinal not in mdp.by_ordinal)
            if missing:
                raise ScenarioError(f"objective state {missing[0]} is not in the MDP")
        return getattr(Objective, kind)(states)
    if kind == "transience":
        return Objective.transience()
    raise ScenarioError(f"unknown objective type {doc.get('type')!r}")


def _parse_proxy(doc: dict | None):
    doc = _object(doc or {"type": "revisit_cap", "max_visits": 30}, "proxy")
    try:
        if doc.get("type") == "revisit_cap":
            return RevisitCap(_number(int, doc.get("max_visits", 30), "max_visits"))
        if doc.get("type") == "fresh_tail":
            return FreshTail(_number(int, _field(doc, "window", "fresh_tail proxy"), "window"))
    except BadParameter as exc:
        raise ScenarioError(str(exc)) from exc
    raise ScenarioError(f"unknown proxy {doc.get('type')!r}")


def _estimate(mdp, s0, strategy, cfg: dict, horizon: int, runs: int, seed: int):
    """``estimate_transience`` with the scenario's ``horizon``, ``runs`` and
    ``proxy`` (defaults ``horizon`` and ``runs``); settings it rejects are
    scenario errors."""
    horizon = _number(int, cfg.get("horizon", horizon), "horizon")
    runs = _number(int, cfg.get("runs", runs), "runs")
    proxy = _parse_proxy(cfg.get("proxy"))
    try:
        return estimate_transience(mdp, s0, strategy, horizon, runs, proxy, seed)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _state(mdp, meta, ordinal) -> StateId:
    """The state of ``mdp`` with the integer ``ordinal``: one of an MDP
    file, or one that the gadget of ``meta`` declares."""
    if type(ordinal) is not int:
        raise ScenarioError(f"state {ordinal!r} is not an integer ordinal")
    if isinstance(mdp, FiniteMdp):
        if ordinal not in mdp.by_ordinal:
            raise ScenarioError(f"no state {ordinal!r} in the MDP")
        return mdp.by_ordinal[ordinal]
    if not meta.is_state(ordinal):
        raise ScenarioError(f"no state {ordinal!r} in gadget {meta.name!r}")
    return meta.state(ordinal)


def _number(convert, value, what: str):
    """``convert(value)``; a value it rejects is a scenario error."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{what} must be a number, not {value!r}") from exc


def _object(value, what: str) -> dict:
    """``value`` if it is a JSON object; anything else is a scenario error."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be an object, not {value!r}")
    return value


def _list(value, what: str) -> list:
    """``value`` if it is a JSON list; anything else is a scenario error."""
    if not isinstance(value, list):
        raise ScenarioError(f"{what} must be a list, not {value!r}")
    return value


def _field(doc: dict, key: str, where: str):
    """``doc[key]``; a missing key is a scenario error."""
    if key not in doc:
        raise ScenarioError(f"{where} needs {key!r}")
    return doc[key]


def _write_json(out_dir: Path, name: str, doc) -> Path:
    path = out_dir / name
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def run_scenario(path: Path, seed: int | None, out_dir: Path) -> int:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot parse scenario {path}: {exc}") from exc
    master = seed if seed is not None else _number(int, doc.get("seed", 0), "seed")
    task = doc.get("task")
    if not isinstance(task, dict) or "kind" not in task:
        raise ScenarioError("scenario needs a 'task' object with a 'kind'")
    out_dir.mkdir(parents=True, exist_ok=True)
    base = Path(path).parent  # an MDP "file" is relative to the scenario
    kind = task["kind"]
    if kind == "simulate":
        return _task_simulate(doc, task, master, out_dir, base)
    if kind == "solve":
        return _task_solve(doc, task, master, out_dir, base)
    if kind == "synthesize":
        return _task_synthesize(doc, task, master, out_dir, base)
    if kind == "verify":
        suites = _list(task.get("suites") or [task.get("suite", "conditioned")], "suites")
        return _run_verify(suites, master, out_dir)
    if kind == "sweep":
        return _task_sweep(doc, task, master, out_dir, base)
    raise ScenarioError(f"unknown task kind {kind!r}")


def _task_simulate(doc, task, master, out_dir, base) -> int:
    mdp, meta = _load_mdp(_field(doc, "mdp", "scenario"), base)
    s0 = _state(mdp, meta, _field(task, "state", "task"))
    est, half = _estimate(mdp, s0, None, task, 10_000, 1000, derive_seed(master, "simulate"))
    result = {"estimate": est, "half_width_95": half, "proxy": task.get("proxy")}
    path = _write_json(out_dir, "estimate.json", result)
    print(f"transience estimate {est:.4f} +- {half:.4f} -> {path}")
    return 0


def _task_solve(doc, task, master, out_dir, base) -> int:
    mdp, meta = _load_mdp(_field(doc, "mdp", "scenario"), base)
    objective = _parse_objective(_field(task, "objective", "task"), mdp)
    if objective.kind not in (Objective.REACH, Objective.SAFETY):
        raise ScenarioError(f"solve supports reach and safety objectives, not {objective.kind!r}")
    s = _state(mdp, meta, _field(task, "state", "task"))
    if isinstance(mdp, FiniteMdp):
        if objective.kind == Objective.REACH:
            vm = reach_value(mdp, objective.states)
        else:
            vm = safety_value(mdp, objective.states)
        path = _write_json(out_dir, "values.json", vm.to_json())
        print(f"val({s.label or s.ordinal}) = {vm[s]:.6f} -> {path}")
        return 0
    radii = task.get("radii", [50, 200])
    if not isinstance(radii, list) or not radii:
        raise ScenarioError(f"radii must be a non-empty list, not {radii!r}")
    radii = [_number(int, r, "radius") for r in radii]
    iv = interval_value(mdp, s, objective, radii)
    path = _write_json(out_dir, "interval.json", iv.to_json())
    print(
        f"val({s.label or s.ordinal}) in [{iv.lower:.6f}, {iv.upper:.6f}] "
        f"at radius {iv.radius} -> {path}"
    )
    return 0


def _task_synthesize(doc, task, master, out_dir, base) -> int:
    mdp, meta = _load_mdp(_field(doc, "mdp", "scenario"), base)
    method = task.get("method")
    epsilon = _number(float, task.get("epsilon", 0.1), "epsilon")
    if not 0.0 < epsilon < math.inf:
        raise ScenarioError(f"epsilon must be positive and finite, not {epsilon!r}")
    if method == "transience_md":
        s0 = _state(mdp, meta, _field(task, "state", "task"))
        budgets = TransienceBudgets(radius=_number(int, task.get("radius", 40), "radius"))
        sigma, partition = transience_md(mdp, s0, epsilon, budgets=budgets)
        _write_json(out_dir, "strategy.json", sigma.to_json())
        attained, half = _estimate(
            mdp, s0, sigma, task, 5000, 400, derive_seed(master, "attained")
        )
        report = {
            "bad_states": partition.input_ordinals(partition.s_bad),
            "good_prime": partition.input_ordinals(partition.s_good_prime),
            "one_bit_attainment": partition.attainment,
            "attained_estimate": attained,
            "half_width_95": half,
        }
        path = _write_json(out_dir, "synthesis_report.json", report)
        print(
            f"MD strategy with {len(sigma.choice)} choices, attained "
            f"{attained:.4f} +- {half:.4f} -> {path}"
        )
        return 0
    if method == "one_bit":
        s0 = _state(mdp, meta, _field(task, "state", "task"))
        goal = _parse_objective(_field(task, "objective", "task"), mdp)
        if goal.kind == Objective.TRANSIENCE:
            raise ScenarioError("one_bit needs a goal family, not a transience objective")
        # The plan's own search and truncation, so each state is asked once.
        strategy, plan, region = _one_bit_on(
            _Layers(mdp, [s0]), [s0], goal.predicate or goal.states.__contains__, epsilon,
            BubbleSchedule(),
        )
        _write_json(out_dir, "strategy.json", one_bit_tables(strategy, region))
        path = _write_json(out_dir, "bubble_plan.json", plan.to_json())
        print(f"1-bit strategy over {len(plan.levels)} levels -> {path}")
        return 0
    if method == "plastering":
        if not isinstance(mdp, FiniteMdp):
            raise ScenarioError("plastering runs on finite MDPs")
        phi = _parse_objective(_field(task, "objective", "task"), mdp)
        sigma, state = plastering_uniformize(mdp, phi, epsilon)
        _write_json(out_dir, "strategy.json", sigma.to_json())
        path = _write_json(out_dir, "plastering_audit.json", state.to_json())
        print(f"uniform strategy after {len(state.rounds)} rounds -> {path}")
        return 0
    if method == "optimal_md":
        if not isinstance(mdp, FiniteMdp):
            raise ScenarioError("optimal_md runs on finite MDPs")
        phi = _parse_objective(_field(task, "objective", "task"), mdp)
        sigma = optimal_md_where_exists(mdp, phi)
        path = _write_json(out_dir, "strategy.json", sigma.to_json())
        print(f"optimal-where-exists strategy -> {path}")
        return 0
    if method == "safety_md":
        phi = _parse_objective(_field(task, "objective", "task"), mdp)
        roots = _list(task.get("roots", [task.get("state", 0)]), "roots")
        roots = [_state(mdp, meta, o) for o in roots]
        schedule = SafetySchedule()
        sigma = safety_md_universally_transient(
            mdp, phi, epsilon, schedule, roots,
            assume_transient=bool(task.get("assume_transient", False)),
        )
        path = _write_json(out_dir, "strategy.json", sigma.to_json())
        print(f"safety strategy with {len(sigma.choice)} choices -> {path}")
        return 0
    raise ScenarioError(f"unknown synthesis method {method!r}")


def _task_sweep(doc, task, master, out_dir, base) -> int:
    gadget = task.get("gadget") or _object(doc.get("mdp", {}), "mdp").get("gadget")
    param = _field(task, "param", "sweep task")
    if not isinstance(param, str):
        raise ScenarioError(f"sweep param must be a string, not {param!r}")
    values = _list(_field(task, "values", "sweep task"), "sweep values")
    est_cfg = _object(task.get("estimate", {}), "sweep estimate")
    rows = []
    for v in values:
        mdp, meta = _load_mdp({"gadget": gadget, "params": {param: v}}, base)
        s0 = _state(mdp, meta, task.get("state", 0))
        est, half = _estimate(mdp, s0, None, est_cfg, 5000, 1000, derive_seed(master, "sweep", v))
        rows.append({param: v, "estimate": est, "half_width_95": half})
    path = out_dir / "sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[param, "estimate", "half_width_95"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"{len(rows)} sweep points -> {path}")
    return 0


def _run_verify(suites, master, out_dir) -> int:
    reports = [rep for s in suites for rep in run_suite(s, master)]
    reports.sort(key=lambda r: r.name)
    for rep in reports:
        print(rep.line())
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir, "check_reports.json", [r.to_json() for r in reports])
    return 0 if all(r.passed for r in reports) else 2


def _list_gadgets() -> int:
    width = max(len(name) for name in REGISTRY)
    for name in sorted(REGISTRY):
        entry = REGISTRY[name]
        schema = json.dumps(entry.schema) if entry.schema else "{}"
        print(f"{name:<{width}}  {schema:<24} {entry.summary}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="transientmdp",
        description="Batch runner for transience experiments on countable MDPs",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="artifact directory")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", type=Path)
    verify_p = sub.add_parser("verify", help="run a named check suite")
    verify_p.add_argument("suite", choices=["conditioned", "transience", "solvers"])
    sub.add_parser("list-gadgets", help="registered gadgets and parameter schemas")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_scenario(args.scenario, args.seed, args.out_dir)
        if args.command == "verify":
            return _run_verify([args.suite], args.seed or 0, args.out_dir)
        return _list_gadgets()
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except TransientMdpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
