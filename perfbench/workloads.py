"""The four benchmark workloads: task lists and reference checks.

Every call into the package goes through a module attribute looked up at
call time (``SOLVERS.reach_value``, not a name imported once), so that the
traced run sees the rebound entry points.  References are computed outside
the timed section; checks read the results a pass left behind.
"""
from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
from transientmdp.core import Distribution, FiniteMdp, Objective, StateId, StateKind

CORE = importlib.import_module("transientmdp.core")
SOLVERS = importlib.import_module("transientmdp.solvers")
SIMULATE = importlib.import_module("transientmdp.simulate")
SYNTHESIS = importlib.import_module("transientmdp.synthesis")
VERIFY = importlib.import_module("transientmdp.verify")
GADGETS = importlib.import_module("transientmdp.gadgets")
CLI = importlib.import_module("transientmdp.cli")

ORACLE_TOL = 1e-6
ORACLE_MAX_CONTROLLED = 6


@dataclass
class Task:
    ident: str
    run: Callable[["PassContext"], object]


@dataclass
class PassContext:
    """Where one pass writes its artifacts, and the results of its tasks so
    far (later tasks may consume earlier results)."""

    directory: Path
    results: dict[str, object] = field(default_factory=dict)


@dataclass
class Prepared:
    tasks: list[Task]
    # Countable MDPs built by the benchmark; the traced run counts their
    # oracle calls.
    oracle_mdps: list
    # Independent references; computed once per process, outside timing.
    reference: Callable[[], dict]
    # (reference, pass context, first pass context) -> {task id: failure}
    check: Callable[[dict, PassContext, PassContext], dict[str, str]]
    min_passes: int = 1


def _everywhere(_state) -> bool:
    return True


def _binomial_band(p: float, runs: int) -> float:
    """Four binomial standard deviations of an estimate of ``p`` from
    ``runs`` runs, and at least one run's worth."""
    return max(4.0 * math.sqrt(p * (1.0 - p) / runs), 1.0 / runs)


# ---------------------------------------------------------------------------
# finite_solvers


def _solve_instance(inst: inputs.FiniteInstance) -> dict:
    fm = inst.fm
    spec = SOLVERS.BoundedRewardSpec(frozenset(fm.states), inst.rewards)
    out = {
        "reach": SOLVERS.reach_value(fm, {inst.win}).values,
        "safety": SOLVERS.safety_value(fm, {inst.lose}).values,
        "cost": SOLVERS.min_expected_cost_md(fm, inst.cost)[1],
        "reward": SOLVERS.bounded_total_reward_md(spec, fm)[1],
    }
    if inst.n_states <= inputs.PLASTERING_MAX_STATES:
        phi = Objective.reach({inst.win})
        out["plastering"] = SYNTHESIS.plastering_uniformize(fm, phi, 0.1)[0]
        out["optimal_md"] = SYNTHESIS.optimal_md_where_exists(fm, phi)
    return out


def _fixed_policy(fm: FiniteMdp, sigma) -> FiniteMdp:
    """The Markov chain ``sigma`` induces on ``fm``, with no controlled
    state left, so that the enumeration oracle evaluates it exactly."""
    kinds, transitions = {}, {}
    for s in fm.states:
        kinds[s] = StateKind.RANDOM
        transitions[s] = (
            Distribution([(sigma.successor(fm, s), 1.0)])
            if fm.kind_of(s) is StateKind.CONTROLLED else fm.successors_of(s)
        )
    return FiniteMdp(fm.states, kinds, transitions, fm.sinks, check=False)


def _finite_reference(corpus) -> dict:
    ref = {}
    for inst in corpus:
        fm = inst.fm
        if len(fm.controlled_states()) > ORACLE_MAX_CONTROLLED:
            continue
        oracle = SOLVERS.md_policy_oracle
        ref[inst.ident] = {
            "reach": oracle(fm, Objective.reach({inst.win})).values,
            "safety": oracle(fm, Objective.safety({inst.lose})).values,
            "cost": oracle(fm, cost=inst.cost).values,
            "reward": oracle(fm, boundary=inst.rewards).values,
        }
    return ref


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= ORACLE_TOL


def _check_instance(inst: inputs.FiniteInstance, out: dict, ref: dict | None) -> str | None:
    fm = inst.fm
    for name in ("reach", "safety", "reward"):
        if not all(-1e-9 <= out[name][s] <= 1.0 + 1e-9 for s in out[name]):
            return f"{name} value outside [0, 1]"
    costs = out["cost"]
    if any(c < 0.0 for c in costs.values()):
        return "negative expected cost"
    if inst.infinite_cost != any(math.isinf(c) for c in costs.values()):
        return "infinite-cost stratum does not match the solver"
    if ref is not None:
        for name in ("reach", "safety", "cost"):
            bad = [s for s in fm.states if not _close(out[name][s], ref[name][s])]
            if bad:
                return f"{name} differs from md_policy_oracle at {bad[0]}"
        bad = [
            s for s in fm.states
            if s not in inst.rewards and not _close(out["reward"][s], ref["reward"][s])
        ]
        if bad:
            return f"reward differs from md_policy_oracle at {bad[0]}"
    for name in ("plastering", "optimal_md"):
        sigma = out.get(name)
        if sigma is None:
            continue
        for s in fm.controlled_states():
            if sigma.successor(fm, s) not in fm.successors_of(s):
                return f"{name} picks a non-successor at {s}"
        if ref is None:
            continue
        phi = Objective.reach({inst.win})
        attained = SOLVERS.md_policy_oracle(_fixed_policy(fm, sigma), phi).values
        best = ref["reach"]
        if name == "plastering":
            short = [s for s in fm.states if attained[s] < best[s] - 0.1 - 1e-9]
        else:
            short = [
                s for s in fm.states
                if best[s] > ORACLE_TOL and attained[s] < best[s] - ORACLE_TOL
            ]
        if short:
            return f"{name} strategy falls short of the optimum at {short[0]}"
    return None


def prepare_finite(seed: int, work_dir: Path) -> Prepared:
    corpus = inputs.finite_corpus(seed)
    by_id = {inst.ident: inst for inst in corpus}
    tasks = [
        Task(inst.ident, lambda ctx, inst=inst: _solve_instance(inst))
        for inst in corpus
    ]
    for name in ("conditioned", "solvers"):
        suite_seed = inputs.bench_seed(seed, "suite", name)
        tasks.append(
            Task(f"suite-{name}", lambda ctx, n=name, s=suite_seed: VERIFY.run_suite(n, s))
        )

    def check(ref, ctx, first):
        failures = {}
        for ident, result in ctx.results.items():
            if ident.startswith("suite-"):
                bad = [r.name for r in result if not r.passed]
                reason = f"checks failed: {bad}" if bad else None
            else:
                reason = _check_instance(by_id[ident], result, ref.get(ident))
            if reason:
                failures[ident] = reason
        return failures

    return Prepared(tasks, [], lambda: _finite_reference(corpus), check)


# ---------------------------------------------------------------------------
# countable_bounds

GAMBLER_P = 0.6
GAMBLER_RADII = (200, 800, 3200)
LADDER_RADII = (50, 100, 200)
CERTIFY_PS = (0.3, 0.5, 0.7, 0.9)
# Criterion 12 of the acceptance suite: drift walks transient iff p > 1/2.
CERTIFY_VERDICTS = {0.3: "NO", 0.5: "NO", 0.7: "YES", 0.9: "YES", "acyclic": "YES"}
SAFETY_EPSILON = 0.1


def _is_safe_core(s: StateId) -> bool:
    return s.label.startswith("a_")


def prepare_countable(seed: int, work_dir: Path) -> Prepared:
    k = inputs.gambler_start(seed)
    gambler, _ = GADGETS.gamblers_ruin(GAMBLER_P)
    ladder, _ = GADGETS.no_optimal_ladder()
    walks = {p: GADGETS.gamblers_ruin(p)[0] for p in CERTIFY_PS}
    chain, _ = GADGETS.acyclic_chain()
    fan, _ = GADGETS.safety_fan()
    w0, w1 = StateId(0, "w_0"), StateId(1, "w_1")
    start = StateId(k, f"w_{k}")
    ell0 = GADGETS.ladder_state("ell", 0)
    bot = GADGETS.ladder_state("bot", 0)
    fan_root = StateId(0, "fan")

    tasks = []
    for r in GAMBLER_RADII:
        tasks.append(Task(f"gambler-reach-r{r}", lambda ctx, r=r: SOLVERS.interval_value(
            gambler, start, Objective.reach({w0}), [r])))
        tasks.append(Task(f"gambler-return-r{r}", lambda ctx, r=r: SOLVERS.return_probability(
            gambler, w0, [r])))
    for r in LADDER_RADII:
        tasks.append(Task(f"ladder-reach-r{r}", lambda ctx, r=r: SOLVERS.interval_value(
            ladder, ell0, Objective.reach({bot}), [r])))
    for p, walk in walks.items():
        tasks.append(Task(f"certify-p{p}", lambda ctx, w=walk: (
            VERIFY.certify_universal_transience(w, [w0, w1], radii=(50, 200)))))
    tasks.append(Task("certify-acyclic", lambda ctx: VERIFY.certify_universal_transience(
        chain, [StateId(0, "c_0")], radii=(30,))))
    tasks.append(Task("safety-fan", lambda ctx: SYNTHESIS.safety_md_universally_transient(
        fan,
        Objective.safety(GADGETS.safety_fan_avoid),
        SAFETY_EPSILON,
        SYNTHESIS.SafetySchedule(radii=(20, 40), synthesis_radius=6),
        roots=[fan_root],
        safe_core=_is_safe_core,
    )))

    def reference():
        q = (1.0 - GAMBLER_P) / GAMBLER_P
        return {
            "gambler-reach": q**k,
            "gambler-return": q,
            # Reach(bot) from ell_0: move to ell_1 and exit at r_1, which
            # falls to bot with probability 2^-1; exits further up fall with
            # 2^-i.  (From higher levels the ring-consistent upper end is an
            # estimate below 1/2 at any finite radius.)
            "ladder-reach": 0.5,
        }

    def check(ref, ctx, first):
        failures = {}
        for ident, result in ctx.results.items():
            family = ident.rsplit("-r", 1)[0]
            reason = None
            if family in ("gambler-reach", "ladder-reach"):
                if not result.contains(ref[family]):
                    reason = f"{ref[family]} not in [{result.lower}, {result.upper}]"
            elif family == "gambler-return":
                if not result.re.contains(ref[family]):
                    reason = f"{ref[family]} not in [{result.re.lower}, {result.re.upper}]"
            elif ident.startswith("certify-"):
                key = ident[len("certify-"):]
                want = CERTIFY_VERDICTS["acyclic" if key == "acyclic" else float(key[1:])]
                if result.verdict != want:
                    reason = f"verdict {result.verdict}, expected {want}"
            elif ident == "safety-fan":
                j = result.choice[fan_root].ordinal // 3
                if 1.0 - 2.0**-j < 1.0 - SAFETY_EPSILON:
                    reason = f"branch b_{j} has value below {1.0 - SAFETY_EPSILON}"
            if reason:
                failures[ident] = reason
        return failures

    mdps = [gambler, ladder, *walks.values(), chain, fan]
    return Prepared(tasks, mdps, reference, check)


# ---------------------------------------------------------------------------
# mc_synthesis

FAN_EPSILON = 0.2
LADDER_EPSILON = 0.1
ONE_BIT_EPSILON = 0.1
ESTIMATE_RUNS = 100
ESTIMATE_HORIZON = 1000
BUCHI_RUNS = 60
LADDER_CHECK_RADIUS = 160


def _budgets(seed: int):
    return SYNTHESIS.TransienceBudgets(
        radius=40,
        mc_runs=80,
        mc_horizon=1000,
        seed=seed,
        one_bit_schedule=SYNTHESIS.BubbleSchedule(
            mc_runs=60, mc_horizon=800, seed=inputs.bench_seed(seed, "one-bit")
        ),
    )


def prepare_synthesis(seed: int, work_dir: Path) -> Prepared:
    cfg = inputs.synthesis_inputs(seed)
    fan, _ = GADGETS.transience_fan()
    ladder, _ = GADGETS.no_optimal_ladder()
    walk, _ = GADGETS.gamblers_ruin(0.7)
    fan_root = StateId(0, "fan")
    ell0 = GADGETS.ladder_state("ell", 0)
    w0 = StateId(0, "w_0")
    cap = SIMULATE.RevisitCap(30)

    def estimate(mdp, root, key):
        return lambda ctx: SIMULATE.estimate_transience(
            mdp, root, ctx.results[key][0], ESTIMATE_HORIZON, ESTIMATE_RUNS, cap,
            cfg.estimate_seed,
        )

    def buchi_estimate(ctx):
        strategy, plan = ctx.results["one-bit"]
        return SIMULATE.estimate_buchi_transience(
            walk, w0, strategy, _everywhere, ESTIMATE_HORIZON, BUCHI_RUNS, cap,
            max(plan.levels[-1].l, 200), cfg.estimate_seed,
        )

    tasks = [
        Task("fan-synthesis", lambda ctx: SYNTHESIS.transience_md(
            fan, fan_root, FAN_EPSILON, budgets=_budgets(cfg.fan_seed))),
        Task("fan-estimate", estimate(fan, fan_root, "fan-synthesis")),
        Task("ladder-synthesis", lambda ctx: SYNTHESIS.transience_md(
            ladder, ell0, LADDER_EPSILON, budgets=_budgets(cfg.ladder_seed))),
        Task("ladder-estimate", estimate(ladder, ell0, "ladder-synthesis")),
        Task("one-bit", lambda ctx: SYNTHESIS.buchi_transience_one_bit(
            walk, [w0], _everywhere, ONE_BIT_EPSILON,
            SYNTHESIS.BubbleSchedule(max_radius=72, mc_horizon=800, mc_runs=60,
                                     seed=cfg.one_bit_seed))),
        Task("buchi-estimate", buchi_estimate),
    ]

    def fan_value(sigma) -> float:
        # Branch b_j reaches the transient chain with probability 1 - 2^-j.
        return 1.0 - 2.0 ** -(sigma.successor(fan, fan_root).ordinal // 3)

    def ladder_value(sigma) -> float:
        # Exact attainment of Reach(x-chain) on a pessimistic truncation, a
        # sound lower bound on the Transience value of the strategy
        # (acceptance criterion 3).
        fm = CORE.truncate(ladder, {ell0}, LADDER_CHECK_RADIUS, "pessimistic")
        chain = _fixed_policy(fm, sigma)
        targets = {s for s in fm.states if s.label.startswith("x_")}
        return SOLVERS.md_policy_oracle(chain, Objective.reach(targets)).values[ell0]

    def check(ref, ctx, first):
        failures = {}
        res = ctx.results
        if "fan-synthesis" in res:
            value = fan_value(res["fan-synthesis"][0])
            if value < 1.0 - FAN_EPSILON:
                failures["fan-synthesis"] = f"branch value {value} below {1.0 - FAN_EPSILON}"
            # The revisit-cap proxy is exact on the fan: runs either follow
            # the acyclic chain or loop in the trap.
            est = res.get("fan-estimate", (value,))[0]
            if abs(est - value) > _binomial_band(value, ESTIMATE_RUNS):
                failures["fan-estimate"] = f"estimate {est} far from {value}"
        if "ladder-synthesis" in res:
            value = ladder_value(res["ladder-synthesis"][0])
            if value < 1.0 - LADDER_EPSILON:
                failures["ladder-synthesis"] = f"attains {value} < {1.0 - LADDER_EPSILON}"
            # Runs that linger on the recurrent ladder exceed the revisit cap
            # and count as recurrent, so up to sampling error the proxy stays
            # below the attained value.
            est = res.get("ladder-estimate", (0.0,))[0]
            if est > value + _binomial_band(value, ESTIMATE_RUNS):
                failures["ladder-estimate"] = f"estimate {est} above {value}"
        # Buechi(everywhere) and Transience has value 1 on the drifting walk;
        # the 1-bit strategy attains at least 1 - 2 eps.
        floor = 1.0 - 2 * ONE_BIT_EPSILON
        est = res.get("buchi-estimate", (1.0,))[0]
        if est < floor - _binomial_band(floor, BUCHI_RUNS):
            failures["buchi-estimate"] = f"estimate {est} below {floor}"
        return failures

    return Prepared(tasks, [fan, ladder, walk], lambda: {}, check)


# ---------------------------------------------------------------------------
# chain_sweep


def _run_cli(scenario: Path, out_dir: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return CLI.main(["--out-dir", str(out_dir), "run", str(scenario)])


ARTIFACTS = {"sweep": "sweep.csv", "simulate": "estimate.json"}


def _check_sweep(path: Path) -> str | None:
    with open(path, newline="") as fh:
        rows = [(float(r["p"]), float(r["estimate"])) for r in csv.DictReader(fh)]
    rows.sort()
    if len(rows) != len(inputs.SWEEP_BANDS):
        return f"{len(rows)} sweep points"
    (_, low), (_, mid), (_, high) = rows
    # Below 1/2 the walk is recurrent and revisits its start far more than
    # the cap within the horizon; well above 1/2 every state is visited a
    # geometric number of times with ratio < 1/2.
    if low > 0.05 or high < 0.95 or not low <= mid <= high:
        return f"sweep estimates {rows} outside the stated ranges"
    return None


def _check_fresh(path: Path) -> str | None:
    doc = json.loads(path.read_text())
    p = inputs.FRESH_P
    # The tail is fresh when the walk sits at its running maximum when the
    # window opens (stationary probability 1 - q/p), steps up (p) and never
    # comes back down (1 - q/p): (2p - 1)^2 / p.
    expected = (2.0 * p - 1.0) ** 2 / p
    slack = 4.0 * doc["half_width_95"] / 1.96 + 0.01
    if abs(doc["estimate"] - expected) > slack:
        return f"fresh-tail estimate {doc['estimate']} not within {slack:.3f} of {expected:.4f}"
    return None


def prepare_chain(seed: int, work_dir: Path) -> Prepared:
    scenarios = inputs.chain_scenarios(seed, work_dir / "scenarios")
    tasks = [
        Task(name, lambda ctx, name=name, path=path: _run_cli(path, ctx.directory / name))
        for name, path in scenarios.items()
    ]

    def check(ref, ctx, first):
        failures = {}
        for name, code in ctx.results.items():
            artifact = ctx.directory / name / ARTIFACTS[name]
            if code != 0:
                reason = f"exit code {code}"
            elif artifact.read_bytes() != (first.directory / name / artifact.name).read_bytes():
                reason = "artifact differs from the first pass with the same seed"
            else:
                reason = (_check_sweep if name == "sweep" else _check_fresh)(artifact)
            if reason:
                failures[name] = reason
        return failures

    return Prepared(tasks, [], lambda: {}, check, min_passes=2)


# Workload name -> prepare(seed, work_dir).  Why each workload exists is
# recorded next to its name in BENCHMARK.json.
WORKLOADS: dict[str, Callable[[int, Path], Prepared]] = {
    "finite_solvers": prepare_finite,
    "countable_bounds": prepare_countable,
    "mc_synthesis": prepare_synthesis,
    "chain_sweep": prepare_chain,
}
