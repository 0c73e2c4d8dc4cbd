"""Brute-force verification harness for the desk-scale property checks.

Each check runs on seeded random instances (or the gadget families), reports
the maximal violation magnitude, and carries the seeds of any failures so a
violation can be replayed exactly.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable

from .core import (
    Distribution,
    FiniteMdp,
    MdStrategy,
    Mdp,
    Objective,
    StateId,
    StateKind,
    bubble,
    successor_states,
)
from .errors import BadParameter, TooLarge
from .gadgets import acyclic_chain, gamblers_ruin
from .simulate import derive_seed, estimate_transience, mean_visits, RevisitCap
from .solvers import (
    ValueMap,
    evaluate_md_reach,
    reach_value,
    return_probability,
)
from .synthesis import plastering_uniformize
from .transforms import INFINITE_CHAIN, conditioned, plus_variant


@dataclass
class CheckReport:
    name: str
    instances: int
    max_violation: float
    passed: bool
    failures: list[int] = field(default_factory=list)  # seeds reproducing violations
    note: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "max_violation": self.max_violation,
            "passed": self.passed,
            "failures": self.failures,
            "note": self.note,
        }

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: {self.instances} instances, "
            f"max violation {self.max_violation:.3g}"
            + (f" ({self.note})" if self.note else "")
        )


# ---------------------------------------------------------------------------
# Random instance generator


def random_finite_mdp(
    seed: int,
    n_states: int = 8,
    max_branching: int = 3,
    p_controlled: float = 0.5,
    n_sinks: int = 2,
) -> FiniteMdp:
    """Connected finite MDP with designated win/lose sinks, reproducible from
    the seed.  The win sink is the last state, the lose sink the one before
    it (when two sinks are requested)."""
    if n_states < 1:
        raise BadParameter("need at least one state")
    rng = random.Random(seed)
    n_sinks = min(n_sinks, max(n_states - 1, 0))
    states = [StateId(i, f"q_{i}") for i in range(n_states)]
    sink_states = states[n_states - n_sinks :] if n_sinks else [states[-1]]
    interior = [s for s in states if s not in sink_states]
    if not interior:  # single state: one absorbing sink
        s = states[0]
        return FiniteMdp(
            [s], {s: StateKind.RANDOM}, {s: Distribution([(s, 1.0)])}, [[s]]
        )

    # Spanning structure first: every non-root state gets an in-edge from an
    # earlier interior state with a free branching slot, so the MDP is
    # connected from state 0 and the branching cap is respected.
    children: dict[StateId, list[StateId]] = {s: [] for s in interior}
    for i, s in enumerate(states[1:], start=1):
        eligible = [
            q for q in interior[: max(i, 1)] if len(children[q]) < max_branching
        ] or [q for q in interior if len(children[q]) < max_branching]
        host = rng.choice(eligible)
        children[host].append(s)

    kinds: dict[StateId, StateKind] = {}
    transitions: dict[StateId, object] = {}
    for s in sink_states:
        kinds[s] = StateKind.RANDOM
        transitions[s] = Distribution([(s, 1.0)])
    for s in interior:
        kinds[s] = (
            StateKind.CONTROLLED if rng.random() < p_controlled else StateKind.RANDOM
        )
        targets = list(children[s])
        budget = rng.randint(max(1, len(targets)), max_branching)
        pool = [t for t in states if t not in targets]
        rng.shuffle(pool)
        targets.extend(pool[: budget - len(targets)])
        if kinds[s] is StateKind.RANDOM:
            cuts = sorted(rng.random() for _ in range(len(targets) - 1))
            probs = [b - a for a, b in zip([0.0] + cuts, cuts + [1.0])]
            pairs = [(t, max(p, 1e-6)) for t, p in zip(targets, probs)]
            total = sum(p for _, p in pairs)
            transitions[s] = Distribution([(t, p / total) for t, p in pairs])
        else:
            transitions[s] = targets

    sinks = [{t} for t in sink_states]
    return FiniteMdp(states, kinds, transitions, sinks)


def random_transient_core_mdp(
    seed: int,
    n_states: int = 12,
    max_branching: int = 3,
    p_controlled: float = 0.6,
) -> FiniteMdp:
    """Finite surrogate for universally transient instances: acyclic outside
    two absorbing sinks (safe and unsafe), so every non-absorbing state has
    return probability 0.  The absorbing sinks stand in for infinite
    transient tails at desk scale."""
    rng = random.Random(seed)
    states = [StateId(i, f"d_{i}") for i in range(n_states)]
    safe, lose = states[-2], states[-1]
    kinds: dict[StateId, StateKind] = {
        safe: StateKind.RANDOM,
        lose: StateKind.RANDOM,
    }
    transitions: dict[StateId, object] = {
        safe: Distribution([(safe, 1.0)]),
        lose: Distribution([(lose, 1.0)]),
    }
    interior = states[:-2]
    for i, s in enumerate(interior):
        kinds[s] = (
            StateKind.CONTROLLED if rng.random() < p_controlled else StateKind.RANDOM
        )
        pool = states[i + 1 :]  # forward edges only: acyclic interior
        k = rng.randint(1, min(max_branching, len(pool)))
        targets = rng.sample(pool, k)
        if kinds[s] is StateKind.RANDOM:
            cuts = sorted(rng.random() for _ in range(len(targets) - 1))
            probs = [b - a for a, b in zip([0.0] + cuts, cuts + [1.0])]
            pairs = [(t, max(p, 1e-6)) for t, p in zip(targets, probs)]
            total = sum(p for _, p in pairs)
            transitions[s] = Distribution([(t, p / total) for t, p in pairs])
        else:
            transitions[s] = targets
    return FiniteMdp(states, kinds, transitions, [{safe}, {lose}])


def win_objective(fm: FiniteMdp) -> Objective:
    return Objective.reach({fm.states[-1]})


def random_md_strategy(fm: FiniteMdp, seed: int) -> MdStrategy:
    rng = random.Random(seed)
    choice = {}
    for s in fm.controlled_states():
        succ = list(fm.successors_of(s))
        choice[s] = rng.choice(succ)
    return MdStrategy(choice)


# ---------------------------------------------------------------------------
# Conditioned-MDP checks


def _cylinder_prob(mdp, kind_of, successors_of, sigma: MdStrategy, run) -> float:
    """Probability of the cylinder of ``run`` under the MD strategy."""
    p = 1.0
    for s, t in zip(run, run[1:]):
        if kind_of(s) is StateKind.CONTROLLED:
            if sigma.successor(mdp, s) != t:
                return 0.0
        else:
            p *= successors_of(s).prob(t)
            if p == 0.0:
                return 0.0
    return p


def check_conditioned_item1(
    fm: FiniteMdp,
    values: ValueMap,
    sigma: MdStrategy,
    max_len: int = 6,
    phi: Objective | None = None,
    tol: float = 1e-9,
) -> CheckReport:
    """Cylinder identity: val(s_0) P*(w) = P(contract(w)) val(s_n) over every
    partial run w of the conditioned MDP up to ``max_len`` ending in an
    original state, under an MD strategy interpreted in both MDPs."""
    if len(fm.states) > 10:
        raise TooLarge("item-1 enumeration caps at 10 states")
    if max_len > 8:
        raise TooLarge("item-1 enumeration caps at length 8")
    phi = phi or win_objective(fm)
    cm = conditioned(fm, phi, values)
    star = cm.finite
    sigma_star = cm.md_to_conditioned(sigma)

    worst = 0.0
    count = 0
    for s0 in sorted(cm.positive):
        stack = [(s0,)]
        while stack:
            run = stack.pop()
            if len(run) - 1 <= max_len and run[-1] in cm.positive:
                count += 1
                p_star = _cylinder_prob(
                    star, star.kind_of, star.successors_of, sigma_star, run
                )
                base_run = cm.contract_run(run)
                p_base = _cylinder_prob(
                    fm, fm.kind_of, fm.successors_of, sigma, base_run
                )
                lhs = values[s0] * p_star
                rhs = p_base * values[run[-1]]
                worst = max(worst, abs(lhs - rhs))
            if len(run) - 1 >= max_len + 1:
                continue
            here = run[-1]
            if cm.is_bottom(here):
                continue
            for t in successor_states(star, here):
                if len(run) <= max_len + 1:
                    stack.append(run + (t,))
    return CheckReport(
        name="conditioned-item1",
        instances=count,
        max_violation=worst,
        passed=worst <= tol,
    )


def check_conditioned_item3(
    fm: FiniteMdp,
    phi: Objective | None = None,
    n_strategies: int = 4,
    seed: int = 0,
    tol: float = 1e-6,
) -> CheckReport:
    """val_{M*}(s0) = 1 for every positive-value s0, and per MD strategy
    val(s0) P_{M*}(phi) = P_M(phi), both by exact evaluation."""
    phi = phi or win_objective(fm)
    values = reach_value(fm, phi.states)
    try:
        cm = conditioned(fm, phi, values)
    except Exception as exc:  # no positive states
        return CheckReport("conditioned-item3", 0, 0.0, True, note=str(exc))
    star = cm.finite
    target_star = bubble(star, {t for t in phi.states if t in cm.positive}, math.inf)
    star_values = reach_value(star, target_star)
    worst = 0.0
    for s0 in cm.positive:
        worst = max(worst, abs(star_values[s0] - 1.0))
    for i in range(n_strategies):
        sigma = random_md_strategy(fm, derive_seed(seed, "item3", i))
        sigma_star = cm.md_to_conditioned(sigma)
        attained = evaluate_md_reach(fm, sigma, phi.states)
        attained_star = evaluate_md_reach(star, sigma_star, target_star)
        for s0 in cm.positive:
            worst = max(
                worst, abs(values[s0] * attained_star[s0] - attained[s0])
            )
    return CheckReport(
        name="conditioned-item3",
        instances=len(cm.positive) * (n_strategies + 1),
        max_violation=worst,
        passed=worst <= tol,
    )


def check_multiplicative(
    fm: FiniteMdp,
    phi: Objective | None = None,
    epsilon: float = 0.05,
    tol: float = 1e-6,
) -> CheckReport:
    """A uniformly eps-optimal MD strategy in M* (from plastering on M*) is
    multiplicatively eps-optimal in M: P(phi) >= (1-eps) val at every state."""
    phi = phi or win_objective(fm)
    values = reach_value(fm, phi.states)
    try:
        cm = conditioned(fm, phi, values)
    except Exception as exc:
        return CheckReport("multiplicative", 0, 0.0, True, note=str(exc))
    star = cm.finite
    target_star = frozenset(bubble(star, {t for t in phi.states if t in cm.positive}, math.inf))
    sigma_star, _ = plastering_uniformize(star, Objective.reach(target_star), epsilon)
    sigma = cm.md_to_base(sigma_star)
    attained = evaluate_md_reach(fm, sigma, phi.states)
    worst = 0.0
    for s in fm.states:
        want = (1.0 - epsilon) * values[s]
        worst = max(worst, want - attained[s])
    return CheckReport(
        name="multiplicative",
        instances=len(fm.states),
        max_violation=max(worst, 0.0),
        passed=worst <= tol,
    )


# ---------------------------------------------------------------------------
# Universal transience


YES = "YES"
NO = "NO"
INCONCLUSIVE = "INCONCLUSIVE"
NOT_APPLICABLE = "NotApplicable"


@dataclass
class TransienceCertificate:
    verdict: str
    worst_upper: float
    worst_lower: float
    details: dict[str, tuple[float, float]]


# Verdict thresholds: NO when some certified lower bound reaches
# 1 - NO_TOLERANCE, YES when every upper estimate stays at most 1 - YES_MARGIN.
NO_TOLERANCE = 1e-2
YES_MARGIN = 1e-2


def certify_universal_transience(
    mdp: Mdp,
    sample: Iterable[StateId],
    radii: Iterable[int] = (50, 200),
) -> TransienceCertificate:
    """Semi-decision: YES when every sampled state's return-probability upper
    estimate stays below 1 by the margin; NO when some certified lower bound
    reaches 1 within tolerance; INCONCLUSIVE otherwise.  NO rests on the
    sound lower bound; YES inherits the ring-consistency caveat of
    return_probability."""
    return _certified(mdp, sample, radii)[0]


def _certified(mdp: Mdp, sample: Iterable[StateId], radii: Iterable[int]):
    """The certificate over ``sample`` with the return analysis of each
    sampled state, in sample order."""
    sample, radii = list(sample), list(radii)
    analyses = [return_probability(mdp, s, radii) for s in sample]
    details = {}
    worst_upper, worst_lower = 0.0, 0.0
    for s, analysis in zip(sample, analyses):
        details[s.label or str(s.ordinal)] = (analysis.re.lower, analysis.re.upper)
        worst_upper = max(worst_upper, analysis.re.upper)
        worst_lower = max(worst_lower, analysis.re.lower)
    if worst_lower >= 1.0 - NO_TOLERANCE:
        verdict = NO
    elif worst_upper <= 1.0 - YES_MARGIN:
        verdict = YES
    else:
        verdict = INCONCLUSIVE
    return TransienceCertificate(verdict, worst_upper, worst_lower, details), analyses


def check_universal_transience(
    mdp: Mdp,
    sample: Iterable[StateId],
    radii: Iterable[int] = (50, 200),
    horizon: int = 10_000,
    runs: int = 60,
    seed: int = 0,
    expected: str | None = None,
    strategy=None,
) -> CheckReport:
    """Certify and cross-check: condition (4) via Monte Carlo visit counts
    against B(s), condition (1) via the transience estimate when YES."""
    sample = list(sample)
    cert, analyses = _certified(mdp, sample, radii)
    violation = 0.0
    notes = [cert.verdict]
    if cert.verdict == YES:
        for s, analysis in zip(sample, analyses):
            mean, se = mean_visits(mdp, s, s, strategy, min(horizon, 4000), runs, seed)
            excess = mean - (analysis.b_bound + 3.0 * se)
            violation = max(violation, excess)
        est, half = estimate_transience(
            mdp, sample[0], strategy, horizon, max(runs, 100), RevisitCap(30), seed
        )
        if est < 0.99 - half:
            violation = max(violation, 0.99 - est)
        notes.append(f"transience estimate {est:.3f}")
    passed = violation <= 0.0 and (expected is None or cert.verdict == expected)
    return CheckReport(
        name="universal-transience",
        instances=len(sample),
        max_violation=max(violation, 0.0),
        passed=passed,
        note=", ".join(notes),
    )


def check_conditioning_preserves_transience(
    fm: FiniteMdp,
    phi: Objective | None = None,
    radii: Iterable[int] = (30, 60),
) -> CheckReport:
    """On finite instances whose transient core certifies (Re < 1 outside
    absorbing sinks), the chain-variant conditioned MDP and the restricted
    variant certify as well.  Absorbing target sinks stand in for infinite
    transient tails and are excluded from the sampling."""
    phi = phi or win_objective(fm)
    values = reach_value(fm, phi.states)

    def absorbing(s: StateId) -> bool:
        return successor_states(fm, s) == [s]

    core = [s for s in fm.states if not absorbing(s)]
    base_cert = certify_universal_transience(fm, core, radii)
    if base_cert.verdict != YES:
        return CheckReport(
            "conditioning-preserves-transience", 0, 0.0, True, note=NOT_APPLICABLE
        )
    try:
        cm = conditioned(fm, phi, values, bottom=INFINITE_CHAIN)
    except Exception as exc:
        return CheckReport(
            "conditioning-preserves-transience", 0, 0.0, True, note=str(exc)
        )
    sample = [
        s for s in cm.positive if not absorbing(s)
    ] + [cm.pair_of[e] for e in itertools.islice(sorted(cm.pair_of), 4)]
    star_cert = certify_universal_transience(cm.mdp, sample, radii)
    ok = star_cert.verdict == YES
    note = f"M* {star_cert.verdict}"

    plus = plus_variant(fm, phi, values)
    plus_core = [s for s in plus.states if not absorbing(s)]
    if plus_core:
        plus_cert = certify_universal_transience(plus, plus_core, radii)
        ok = ok and plus_cert.verdict == YES
        note += f", M+ {plus_cert.verdict}"
    return CheckReport(
        name="conditioning-preserves-transience",
        instances=len(sample) + len(plus_core),
        max_violation=0.0 if ok else 1.0,
        passed=ok,
        note=note,
    )


# ---------------------------------------------------------------------------
# Check suites (used by the CLI)


def run_suite(name: str, seed: int = 0) -> list[CheckReport]:
    if name == "conditioned":
        return _suite_conditioned(seed)
    if name == "transience":
        return _suite_transience(seed)
    if name == "solvers":
        return _suite_solvers(seed)
    raise BadParameter(f"unknown suite {name!r}; choose conditioned|transience|solvers")


def _suite_conditioned(seed: int) -> list[CheckReport]:
    def item1(fm, i):
        values = reach_value(fm, win_objective(fm).states)
        sigma = random_md_strategy(fm, derive_seed(seed, "c1s", i))
        return check_conditioned_item1(fm, values, sigma, max_len=5)

    def item3(fm, i):
        return check_conditioned_item3(fm, seed=derive_seed(seed, "c3s", i))

    checks = (
        ("conditioned-item1", "c1", 20, 7, item1),
        ("conditioned-item3", "c3", 40, 9, item3),
        ("multiplicative", "mul", 25, 10, lambda fm, i: check_multiplicative(fm)),
    )
    reports = []
    for name, tag, count, n_states, check in checks:
        worst = CheckReport(name, 0, 0.0, True)
        for i in range(count):
            fm = random_finite_mdp(derive_seed(seed, tag, i), n_states=n_states)
            rep = check(fm, i)
            worst.instances += rep.instances
            worst.max_violation = max(worst.max_violation, rep.max_violation)
            worst.passed = worst.passed and rep.passed
            if not rep.passed:
                worst.failures.append(derive_seed(seed, tag, i))
        reports.append(worst)
    return reports


def _suite_transience(seed: int) -> list[CheckReport]:
    reports = []
    for p, want in ((0.7, YES), (0.5, NO), (0.3, NO)):
        mdp, _ = gamblers_ruin(p)
        rep = check_universal_transience(
            mdp,
            [StateId(0, "w_0"), StateId(1, "w_1")],
            horizon=4000,
            runs=40,
            seed=derive_seed(seed, p),
            expected=want,
        )
        rep.name = f"universal-transience(p={p})"
        reports.append(rep)
    chain, _ = acyclic_chain()
    rep = check_universal_transience(
        chain, [StateId(0, "c_0")], horizon=2000, runs=20,
        seed=derive_seed(seed, "chain"), expected=YES,
    )
    rep.name = "universal-transience(acyclic)"
    reports.append(rep)
    return reports


def _suite_solvers(seed: int) -> list[CheckReport]:
    from .solvers import md_policy_oracle, safety_value

    report = CheckReport("solver-oracle-equivalence", 0, 0.0, True)
    for i in range(60):
        fm = random_finite_mdp(derive_seed(seed, "orc", i), n_states=8, max_branching=3)
        target = {fm.states[-1]}
        lose = {fm.states[-2]}
        vm = reach_value(fm, target)
        oracle = md_policy_oracle(fm, Objective.reach(target))
        worst = max(abs(vm[s] - oracle.values[s]) for s in fm.states)
        sv = safety_value(fm, lose)
        oracle_s = md_policy_oracle(fm, Objective.safety(lose))
        worst = max(worst, max(abs(sv[s] - oracle_s.values[s]) for s in fm.states))
        report.instances += 2
        report.max_violation = max(report.max_violation, worst)
        if worst > 1e-6:
            report.passed = False
            report.failures.append(derive_seed(seed, "orc", i))
    return [report]
