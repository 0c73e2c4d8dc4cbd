"""The four strategy-synthesis procedures.

* Bubble 1-bit construction: per-level MD strategies on growing bubbles,
  assembled into a deterministic 1-bit strategy with a normal/next mode
  discipline that flips on first entry to each level's goal frontier.
* Cost-labeled MD extraction: classify bad states under a 1-bit strategy,
  repair memory modes, solve the expected visits on the (mode, state)
  product chain, label edges with costs, and take the min-expected-cost MD
  policy.
* Ornstein plastering: per-round fixing of a near-optimal MD strategy on the
  set of states where it does well, with the round budgets eps_i = (eps/2) 2^-i.
* Safety slack rule for universally transient MDPs: pick successors whose
  certified value lower bound is within eps / (2^{iota(s)+1} R(s)) of the
  state's upper bound.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import (
    Distribution,
    FiniteMdp,
    GeneralStrategy,
    InfiniteSuccessors,
    LazyMdp,
    MdStrategy,
    Mdp,
    Objective,
    OneBitStrategy,
    PESSIMISTIC,
    StateId,
    StateKind,
    _absorb,
    _backward_reach,
    bubble,
    mint,
    require_tail,
    successor_states,
    truncate,
)
from .errors import (
    BudgetExhausted,
    EmptyFrontier,
    InfiniteBranching,
    NoFiniteCostPolicy,
    NotTail,
    NotUniversallyTransient,
    RadiusExhausted,
)
from .simulate import _walk, derive_seed
from .solvers import (
    BoundedRewardSpec,
    CostLabel,
    ValueMap,
    _linsolve,
    bounded_total_reward_md,
    evaluate_md,
    evaluate_md_reach,
    evaluate_md_safety,
    interval_value,
    min_expected_cost_md,
    reach_strategy,
    return_probability,
    safety_strategy,
    safety_value,
)
from .transforms import _identity_reduction, plus_variant, reduce_to_finitely_branching


@dataclass(frozen=True)
class SynthesisParams:
    """The constants the constructions are parameterized by."""

    epsilon: float

    @property
    def epsilon_prime(self) -> float:
        return self.epsilon / 2.0

    @property
    def big_k(self) -> float:
        ep = self.epsilon_prime
        return (1.0 + ep) / ep

    def plastering_epsilon(self, i: int) -> float:
        return (self.epsilon / 2.0) * 2.0**-i

    def bubble_epsilon(self, i: int) -> float:
        return self.epsilon * 2.0 ** -(i + 1)


# ---------------------------------------------------------------------------
# Overlays (shared by plastering and the verification harness)


def fix_choices(fm: FiniteMdp, fixed: dict[StateId, StateId]) -> FiniteMdp:
    """Copy of ``fm`` with the controlled states in ``fixed`` restricted to
    their single chosen successor."""
    transitions = dict(fm.transitions)
    for s, t in fixed.items():
        transitions[s] = [t]
    return FiniteMdp(fm.states, fm.kinds, transitions, [], frontier=fm.frontier,
                     frontier_policy=fm.frontier_policy, check=False)


def _optimal(fm: FiniteMdp, phi: Objective):
    if phi.kind == Objective.REACH:
        vm, sigma = reach_strategy(fm, phi.states)
        return vm, sigma
    if phi.kind == Objective.SAFETY:
        return safety_strategy(fm, phi.states)
    raise NotTail(f"unsupported finite tail objective {phi.kind}")


def _evaluate(fm: FiniteMdp, sigma: MdStrategy, phi: Objective) -> dict[StateId, float]:
    if phi.kind == Objective.REACH:
        return evaluate_md_reach(fm, sigma, phi.states)
    if phi.kind == Objective.SAFETY:
        return evaluate_md_safety(fm, sigma, phi.states)
    raise NotTail(f"unsupported finite tail objective {phi.kind}")


# ---------------------------------------------------------------------------
# Ornstein plastering


@dataclass
class PlasteringRound:
    index: int
    pivot: StateId
    epsilon_i: float
    g_size: int
    escape_probability: float  # P(reach S \ G) from the pivot under sigma
    max_value_drop: float  # max_s val_{M_i}(s) - val_{M_{i+1}}(s)


@dataclass
class PlasteringState:
    """Audit trail of the plastering rounds."""

    rounds: list[PlasteringRound] = field(default_factory=list)
    fixed: dict[StateId, StateId] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "rounds": [
                {
                    "index": r.index,
                    "pivot": r.pivot.ordinal,
                    "epsilon_i": r.epsilon_i,
                    "g_size": r.g_size,
                    "escape_probability": r.escape_probability,
                    "max_value_drop": r.max_value_drop,
                }
                for r in self.rounds
            ],
            "fixed": {str(s.ordinal): t.ordinal for s, t in self.fixed.items()},
        }


def plastering_uniformize(
    fm: FiniteMdp, phi: Objective, epsilon: float
) -> tuple[MdStrategy, PlasteringState]:
    """Uniformly epsilon-optimal MD strategy by round-based fixing.

    Round i runs with budget eps_i = (eps/2) 2^{-i}: take an optimal MD
    strategy of the current overlay MDP (exact, so eps_i^2-optimal from the
    round's pivot), fix it on the set G of states where it is eps_i-optimal,
    and continue.  On finite MDPs every state is fixed after its own round
    turns up, so the limit MD strategy is reached after |S| rounds.  Each
    overlay is solved and evaluated once: its optimal strategy comes with
    its values, and a round that fixes no new choice keeps the overlay.
    """
    require_tail(fm, phi)
    params = SynthesisParams(epsilon)
    state = PlasteringState()
    current = fm
    values, sigma = _optimal(current, phi)
    attained = _evaluate(current, sigma, phi)
    for i, pivot in enumerate(sorted(fm.states, key=lambda s: s.ordinal), start=1):
        eps_i = params.plastering_epsilon(i)
        g = {s for s in current.states if attained[s] >= values[s] - eps_i - 1e-12}
        escape = _escape_probability(current, sigma, g, pivot)
        new = {
            s: sigma.successor(current, s)
            for s in g
            if current.kind_of(s) is StateKind.CONTROLLED and s not in state.fixed
        }
        drop = 0.0  # an unchanged overlay keeps its values
        if new:
            state.fixed.update(new)
            current = fix_choices(fm, state.fixed)
            nxt_values, sigma = _optimal(current, phi)
            drop = max(values[s] - nxt_values[s] for s in current.states)
            values = nxt_values
            attained = _evaluate(current, sigma, phi)
        state.rounds.append(PlasteringRound(i, pivot, eps_i, len(g), escape, drop))
    return MdStrategy(dict(state.fixed)), state


def _escape_probability(fm, sigma, g, pivot) -> float:
    outside = [s for s in fm.states if s not in g]
    if not outside:
        return 0.0
    # Make S \ G absorbing, then the chance of ever entering it is a plain
    # absorption probability under sigma.
    chain = _absorb(fm, outside)
    vals = evaluate_md(chain, sigma, {s: 1.0 for s in outside})
    return vals[pivot]


def optimal_md_where_exists(fm: FiniteMdp, phi: Objective) -> MdStrategy:
    """Single MD strategy that attains val(s) exactly at every state with an
    optimal strategy (on finite MDPs: every positive-value state), via
    plastering with budget 1/2 on the value-preserving conditioned variant."""
    values, _ = _optimal(fm, phi)
    vm = ValueMap(values, phi)
    positive = {s for s in fm.states if values[s] > 1e-12}
    if not positive:
        return MdStrategy({})
    plus = plus_variant(fm, phi, vm)
    target = frozenset(t for t in phi.states if t in positive)
    plus_phi = Objective.reach(target)
    # Restrict to states that can win almost surely in the conditioned
    # variant; on finite MDPs these are exactly its value-1 states.
    plus_values, _ = _optimal(plus, plus_phi)
    capable = {s for s in plus.states if plus_values[s] >= 1.0 - 1e-9}
    kinds = {s: plus.kinds[s] for s in capable}
    transitions = {}
    for s in capable:
        succ = plus.successors_of(s)
        if isinstance(succ, Distribution):
            transitions[s] = succ
        else:
            kept = [t for t in succ if t in capable]
            transitions[s] = kept if kept else list(succ)
    restricted = FiniteMdp(sorted(capable), kinds, transitions, [], check=False)
    sigma_plus, _ = plastering_uniformize(restricted, Objective.reach(target & capable), 0.5)
    return MdStrategy(dict(sigma_plus.choice))


# ---------------------------------------------------------------------------
# Bubble 1-bit construction


@dataclass
class BubbleLevel:
    index: int
    k: int
    l: int
    K: set[StateId]
    L: set[StateId]
    F: set[StateId]
    epsilon_i: float
    residual_far_goal: float  # observed P(no F_i visit within k_i)
    residual_late_return: float  # observed P(K_i visited at time >= l_i)


@dataclass
class BubblePlan:
    levels: list[BubbleLevel]
    epsilon: float
    reference: str
    reward_depth: int
    capped: bool = False

    def level_of(self, s: StateId) -> int | None:
        for lv in self.levels:
            if s in lv.K:
                return lv.index
        return None

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "reference": self.reference,
            "reward_depth": self.reward_depth,
            "capped": self.capped,
            "levels": [
                {
                    "index": lv.index,
                    "k": lv.k,
                    "l": lv.l,
                    "K_size": len(lv.K),
                    "L_size": len(lv.L),
                    "F_size": len(lv.F),
                    "epsilon_i": lv.epsilon_i,
                    "residual_far_goal": lv.residual_far_goal,
                    "residual_late_return": lv.residual_late_return,
                }
                for lv in self.levels
            ],
        }


@dataclass
class BubbleSchedule:
    max_levels: int = 3
    max_radius: int = 96
    mc_runs: int = 160
    mc_horizon: int = 1600
    reward_depth: int = 3
    proxy_visits: int = 20  # revisit cap classifying reference runs as transient
    seed: int = 0


def _uniform_reference(mdp: Mdp) -> GeneralStrategy:
    """Uniform choice among a controlled state's successors, geometric over
    the first 8 of an infinite family; one distribution per state ordinal."""
    dists: dict[int, Distribution] = {}

    def decide(run: Sequence[StateId]) -> Distribution:
        here = run[-1]
        dist = dists.get(here.ordinal)
        if dist is None:
            dist = dists[here.ordinal] = _uniform_over(mdp.successors_of(here))
        return dist

    return GeneralStrategy(decide)


def _uniform_over(succ) -> Distribution:
    if isinstance(succ, InfiniteSuccessors):
        # geometric over the enumeration; finite-support surrogate
        states = list(itertools.islice(succ.iter_states(), 8))
        weights = [2.0 ** -(i + 1) for i in range(len(states))]
        weights[-1] += 1.0 - sum(weights)
        return Distribution(list(zip(states, weights)), check=False)
    states = list(succ)
    return Distribution([(t, 1.0 / len(states)) for t in states], check=False)


def buchi_transience_one_bit(
    mdp: Mdp,
    initial: Iterable[StateId],
    goal,
    epsilon: float,
    schedule: BubbleSchedule | None = None,
    reference: GeneralStrategy | None = None,
) -> tuple[OneBitStrategy, BubblePlan]:
    """Deterministic 1-bit strategy for Buechi(goal) intersected with
    Transience, assembled from per-level bounded-reward MD strategies.

    The level radii are chosen empirically: sampled runs under a reference
    strategy must put the residual events (goal frontier not hit within k_i;
    the level bubble revisited at or after l_i) below the level budget
    eps_i = eps 2^{-(i+1)}, with the schedule capping the search.  Goal
    frontier rewards approximate the value of the remaining pattern suffix by
    a depth-limited optimistic recursion; both approximations are recorded in
    the plan.
    """
    initial = sorted(set(initial))
    if not initial:
        raise ValueError("need at least one initial state")
    goal_pred = goal if callable(goal) else (lambda s, gs=frozenset(goal): s in gs)
    schedule = schedule or BubbleSchedule()
    ref_name = "supplied"
    if reference is None:
        reference = _uniform_reference(mdp)
        ref_name = "uniform"

    # Sampled reference runs drive the radius search.  The residual events
    # being budgeted are intersections with the objective, so only runs the
    # transience proxy classifies as candidate satisfying runs count against
    # the budgets (a trap-absorbed run visits no fresh states and never
    # satisfies the objective).  Run 0 is sampled even with no run budget:
    # it stands in when no run qualifies.
    table = {}
    runs = []
    for i in range(max(schedule.mc_runs, 1)):
        run, counts, _ = _walk(
            mdp, initial[i % len(initial)], reference, schedule.mc_horizon,
            derive_seed(schedule.seed, "bubble", i), math.inf, table,
        )
        if i == 0:
            first = run
        if max(counts.values()) - 1 < schedule.proxy_visits and (
            callable(goal) or any(goal_pred(s) for s in run)
        ):
            runs.append(run)
    if not runs:
        runs = [first]

    levels: list[BubbleLevel] = []
    capped = False
    l_prev = 0
    # F_1 = goal ∩ K_1 with no subtraction; only F_{i+1} removes L_i.
    L_prev: set[StateId] = set()
    layers = _Layers(mdp, initial)
    for i in range(1, schedule.max_levels + 1):
        eps_i = epsilon * 2.0 ** -(i + 1)
        if l_prev >= schedule.max_radius:
            capped = True
            break
        k_i, K_i, F_i, far = _grow_goal_radius(
            layers, goal_pred, L_prev, l_prev, runs, eps_i, schedule
        )
        if F_i is None:
            if i == 1:
                # No goal state reachable within the whole schedule: value
                # evidence that the objective has value 0 from the roots.
                raise EmptyFrontier(
                    f"goal frontier empty at radius {schedule.max_radius}"
                )
            capped = True
            break
        l_i, L_i, late = _grow_quiet_radius(layers, K_i, k_i, runs, eps_i, schedule)
        capped = capped or far > eps_i or late > eps_i
        levels.append(
            BubbleLevel(i, k_i, l_i, K_i, L_i, F_i, eps_i, far, late)
        )
        l_prev, L_prev = l_i, L_i

    plan = BubblePlan(
        levels=levels,
        epsilon=epsilon,
        reference=ref_name,
        reward_depth=schedule.reward_depth,
        capped=capped,
    )

    strategy = _assemble_one_bit(mdp, initial, plan, schedule)
    return strategy, plan


def _half_width(frac: float, runs: int) -> float:
    """Normal-approximation 95% half-width of a fraction over ``runs`` runs,
    with the variance floored at 1e-9 so that it stays positive at 0 and 1."""
    return 1.96 * math.sqrt(max(frac * (1 - frac), 1e-9) / runs)


class _Layers:
    """Breadth-first layers of the states reachable from ``roots``, grown on
    demand: layer d holds the states first reached in d steps, and
    ``within(k)`` is ``bubble(mdp, roots, k)``."""

    def __init__(self, mdp: Mdp, roots: Iterable[StateId]):
        self.mdp = mdp
        self.seen = set(roots)
        self.layers = [set(self.seen)]

    def layer(self, d: int) -> set[StateId]:
        while len(self.layers) <= d:
            nxt = set()
            for s in self.layers[-1]:
                for t in successor_states(self.mdp, s):
                    if t not in self.seen:
                        self.seen.add(t)
                        nxt.add(t)
            self.layers.append(nxt)
        return self.layers[d]

    def within(self, k: int) -> set[StateId]:
        self.layer(k)
        return set().union(*self.layers[: k + 1])


def _grow_goal_radius(layers: _Layers, goal_pred, L_prev, l_prev, runs, eps_i, schedule):
    # Each run's first visit to a goal state outside L_prev; a run misses
    # radius k when that visit comes after step k.
    first_goal = [
        next((t for t, s in enumerate(run) if goal_pred(s) and s not in L_prev), math.inf)
        for run in runs
    ]
    F = set()  # the goal states outside L_prev within radius k
    for k in range(schedule.max_radius + 1):
        F.update(s for s in layers.layer(k) if goal_pred(s) and s not in L_prev)
        if k > l_prev and F:
            frac = sum(1 for t in first_goal if t > k) / len(runs)
            if frac + _half_width(frac, len(runs)) <= eps_i or k == schedule.max_radius:
                return k, layers.within(k), F, frac
    return schedule.max_radius, None, None, 1.0


def _grow_quiet_radius(layers: _Layers, K_i, k_i, runs, eps_i, schedule):
    last_visit = []
    for run in runs:
        last = -1
        for t, s in enumerate(run):
            if s in K_i:
                last = t
        last_visit.append(last)
    l = k_i + 1
    while l < schedule.max_radius:
        frac = sum(1 for t in last_visit if t >= l) / len(runs)
        if frac + _half_width(frac, len(runs)) <= eps_i:
            break
        l += 1
    frac = sum(1 for t in last_visit if t >= l) / len(runs)
    return l, layers.within(l), frac


def _assemble_one_bit(mdp, initial, plan: BubblePlan, schedule: BubbleSchedule):
    levels = plan.levels
    top_k = levels[-1].k + 1
    fm = truncate(mdp, initial, top_k, PESSIMISTIC)

    # For subspace and pattern purposes both K_0 and K_{-1} are empty: the
    # two-levels-back avoidance starts at level 3 (avoiding K_1), so the
    # level-1 and level-2 strategies see their whole bubbles.
    k_sets: dict[int, set[StateId]] = {0: set(), -1: set()}
    f_sets: dict[int, set[StateId]] = {}
    for lv in levels:
        k_sets[lv.index] = lv.K
        f_sets[lv.index] = lv.F

    # Pattern-suffix values at goal frontiers, depth-limited and optimistic.
    reward_cache: dict[tuple[int, int], dict[StateId, float]] = {}

    def suffix_rewards(i: int, depth: int) -> dict[StateId, float]:
        # Value of continuing the pattern chain from F_i states.
        if (i, depth) in reward_cache:
            return reward_cache[(i, depth)]
        if i >= len(levels) or depth <= 0:
            result = {s: 1.0 for s in f_sets.get(i, set())}
        else:
            nxt = suffix_rewards(i + 1, depth - 1)
            sub = (k_sets[i + 1] - k_sets[i - 1]) & set(fm.states)
            rewards = {s: nxt.get(s, 1.0) for s in f_sets[i + 1] if s in sub}
            if rewards:
                spec = BoundedRewardSpec(frozenset(sub), rewards)
                _, vals = bounded_total_reward_md(spec, fm)
            else:
                vals = {}
            result = {s: vals.get(s, 1.0) for s in f_sets[i]}
        reward_cache[(i, depth)] = result
        return result

    sigmas: dict[int, MdStrategy] = {}
    for lv in levels:
        sub = (k_sets[lv.index] - k_sets[lv.index - 2]) & set(fm.states)
        rewards = suffix_rewards(lv.index, schedule.reward_depth)
        rewards = {s: r for s, r in rewards.items() if s in sub}
        if not rewards:
            sigmas[lv.index] = MdStrategy({})
            continue
        spec = BoundedRewardSpec(frozenset(sub), rewards)
        sigma_i, _ = bounded_total_reward_md(spec, fm)
        sigmas[lv.index] = sigma_i

    max_level = levels[-1].index
    fallback = MdStrategy({})
    level_at: dict[StateId, int] = {}
    for lv in levels:
        for s in lv.K:
            level_at.setdefault(s, lv.index)  # the first level holding s

    def level_of(s: StateId) -> int:
        return level_at.get(s, max_level + 1)

    def arrival_mode(mode: int, s: StateId) -> int:
        i = level_of(s)
        if i <= max_level and mode == i % 2 and s in f_sets.get(i, ()):
            return (i + 1) % 2
        return mode

    def pick(mode: int, s: StateId) -> StateId:
        i = level_of(s)
        target_level = i + 1 if mode == (i + 1) % 2 else i
        target_level = max(target_level, 1)
        sigma = sigmas.get(target_level)
        if sigma is None or s not in sigma.choice:
            return fallback.successor(mdp, s)
        return sigma.choice[s]

    def controlled(mode: int, s: StateId) -> tuple[int, StateId]:
        m2 = arrival_mode(mode, s)
        return m2, pick(m2, s)

    def random_update(mode: int, s: StateId, realized: StateId) -> int:
        return arrival_mode(mode, s)

    return OneBitStrategy(1, controlled, random_update)


def one_bit_tables(strategy: OneBitStrategy, fm: FiniteMdp) -> dict:
    """Materialize a (possibly closure-backed) 1-bit strategy over the
    controlled states of a finite MDP, in the serializable table form
    {"mode:ordinal": [mode, ordinal]} plus the initial mode."""
    table = {}
    for s in fm.controlled_states():
        for mode in (0, 1):
            table[(mode, s)] = strategy.controlled(mode, s)
    return OneBitStrategy.tables_to_json(strategy.initial_mode, table)


def match_patterns(plan: BubblePlan, run: Sequence[StateId]) -> tuple[int, bool]:
    """Greedy parse of a sampled run against the patterns R_1 R_2 R_3 ...

    Segment i stays inside K_i minus (F_i and, from level 3 on, K_{i-2})
    until it hits F_i.  Returns (levels completed, conformant): conformant
    means every plan level was completed in order and the remaining suffix
    never returns to the second-to-last bubble.
    """
    k_sets: dict[int, set] = {0: set(), -1: set()}
    for lv in plan.levels:
        k_sets[lv.index] = lv.K
    pos = 0
    completed = 0
    for lv in plan.levels:
        avoid = k_sets[lv.index - 2]
        matched = False
        while pos < len(run):
            s = run[pos]
            pos += 1
            if s in lv.F:
                matched = True
                break
            if s not in lv.K or s in avoid:
                return completed, False
        if not matched:
            return completed, False
        completed = lv.index
    tail_avoid = k_sets[plan.levels[-1].index - 1]
    tail_ok = all(s not in tail_avoid for s in run[pos:])
    return completed, tail_ok


def revisit_violations(plan: BubblePlan, run: Sequence[StateId]) -> bool:
    """True iff the run visits some K_i after its first visit to F_{i+1}."""
    first_f: dict[int, int] = {}
    for lv in plan.levels:
        for t, s in enumerate(run):
            if s in lv.F:
                first_f[lv.index] = t
                break
    for lv in plan.levels[:-1]:
        t0 = first_f.get(lv.index + 1)
        if t0 is not None and any(s in lv.K for s in run[t0 + 1 :]):
            return True
    return False


# ---------------------------------------------------------------------------
# Cost-labeled MD extraction for Transience


@dataclass
class GoodBadPartition:
    s_bad: set[StateId]
    s_good: set[StateId]
    s_good_prime: set[StateId]  # the good states reached from the root
    expected_visits: dict[StateId, float]  # under the repaired 1-bit strategy
    mode_repairs: dict[StateId, int] = field(default_factory=dict)
    attainment: float = 0.0  # P(reach the frontier) under the same strategy


@dataclass
class TransienceBudgets:
    """``mc_runs`` and ``mc_horizon`` are unused; callers may still pass them."""

    radius: int = 40
    mc_runs: int = 240
    mc_horizon: int = 2500
    seed: int = 0
    one_bit_schedule: BubbleSchedule | None = None


def transience_md(
    mdp: Mdp,
    s0: StateId,
    epsilon: float,
    one_bit: OneBitStrategy | None = None,
    budgets: TransienceBudgets | None = None,
) -> tuple[MdStrategy, GoodBadPartition]:
    """Epsilon-optimal MD strategy for Transience from ``s0``.

    Pipeline: reduce to finite branching, take an eps/2-optimal 1-bit
    strategy, classify the states where it attains zero in both memory modes
    (graph-trapped in the truncation bubble), make them losing sinks, repair
    memory modes, solve the expected visits and the attainment exactly on
    the (mode, state) product chain, label edges with costs, and extract the
    min-expected-cost MD policy.  ``budgets.seed`` matters only through the
    1-bit schedule it seeds.
    """
    budgets = budgets or TransienceBudgets()
    params = SynthesisParams(epsilon)
    schedule = budgets.one_bit_schedule or BubbleSchedule(
        seed=derive_seed(budgets.seed, "one-bit")
    )
    maps = _reduction_if_needed(mdp, s0, max(budgets.radius, schedule.max_radius))
    work = maps.reduced
    root = maps.embed(s0)

    if one_bit is None:
        one_bit, _ = buchi_transience_one_bit(
            work, [root], lambda s: True, params.epsilon_prime, schedule
        )

    fm = truncate(work, {root}, budgets.radius)
    cm, frontier = fm.compiled, fm.frontier
    states = cm.states
    f = cm.index.get(frontier)  # None when nothing leaves the bubble
    product = _one_bit_product(fm, one_bit)
    reaching = _backward_reach({k: [j for j, _ in row] for k, row in enumerate(product)},
                               [2 * f + m for m in (0, 1) if f is not None])
    good_modes = {
        i: [m for m in (0, 1) if 2 * i + m in reaching]
        for i in range(len(states)) if i != f
    }
    bad = {states[i] for i, modes in good_modes.items() if not modes}
    if root in bad:
        # The 1-bit strategy is trapped everywhere: value 0 from the root, and
        # any strategy attains it.
        return MdStrategy({}), GoodBadPartition(bad, set(), set(), {})

    # M': bad states become losing self-loop sinks.
    m_prime = _absorb(fm, bad)

    # Memory-mode repair: where only one mode reaches the frontier, product
    # row (m, s) becomes row (repairs[s], s).  Then every node reached from
    # the root reaches the frontier, so the chain is absorbing and I - Q is
    # invertible.  A reached node outside the sinks has a good state, so its
    # row is the row of a good node.  Every node on that node's path to the
    # frontier is good too, so it is a good mode of a good state, and the
    # repair keeps its row, because a repair keeps the only good mode.
    fix = {i: modes[0] for i, modes in good_modes.items() if len(modes) == 1}
    repairs = {states[i]: m for i, m in fix.items()}
    repaired = [product[k - k % 2 + fix.get(k // 2, k % 2)] for k in range(len(product))]
    sinks = {k for k in range(len(product)) if k // 2 == f or not good_modes[k // 2]}
    node_visits = _expected_visits(
        repaired, 2 * cm.index[root] + one_bit.initial_mode, sinks
    )
    visits: dict[StateId, float] = {}
    attainment = 0.0
    for k, r in node_visits.items():
        visits[states[k // 2]] = visits.get(states[k // 2], 0.0) + r
        attainment += r * sum(p for j, p in repaired[k] if j // 2 == f)

    good = {states[i] for i, modes in good_modes.items() if modes}
    good_prime = {s for s, r in visits.items() if r > 0.0}
    partition = GoodBadPartition(bad, good, good_prime, visits, repairs, attainment)

    # Cost labels.  iota is the rank within the truncation (an enumeration of
    # the finite working space; raw ordinals of reduced states overflow the
    # 2^-iota scale).
    rank = {s: i for i, s in enumerate(sorted(good, key=lambda q: q.ordinal))}
    bad_cost = params.big_k / (1.0 - attainment + params.epsilon_prime)
    cost_map: dict[tuple[StateId, StateId], float] = {}
    for s in m_prime.states:
        if s in bad:
            continue  # bad self-loops cost 0
        for t in successor_states(m_prime, s):
            if t in bad:
                cost_map[(s, t)] = bad_cost
            elif t == frontier:
                cost_map[(s, t)] = 0.0
            elif t in good_prime:
                cost_map[(s, t)] = 2.0 ** -min(rank[t], 900) / visits[t]
            else:
                cost_map[(s, t)] = 1.0
    label = CostLabel(cost_map)
    try:
        sigma, _costs = min_expected_cost_md(m_prime, label, root)
    except NoFiniteCostPolicy as exc:
        raise BudgetExhausted(
            f"no finite-cost MD policy within radius {budgets.radius}: {exc}"
        ) from exc

    # Choices aimed at the truncation frontier are meaningless outside the
    # bubble; drop them so the default rule takes over beyond the synthesis
    # radius.
    sigma = MdStrategy({s: t for s, t in sigma.choice.items() if t != frontier})
    lowered = maps.lower_md(sigma)
    return lowered, partition


def _reduction_if_needed(mdp: Mdp, s0: StateId, probe_radius: int):
    """Reduce only when infinite branching is actually reachable within the
    working radius; otherwise the identity keeps original state ids."""
    try:
        bubble(mdp, {s0}, probe_radius)
    except InfiniteBranching:
        return reduce_to_finitely_branching(mdp)
    return _identity_reduction(mdp)


def _one_bit_product(fm: FiniteMdp, one_bit: OneBitStrategy) -> list[list[tuple[int, float]]]:
    """The (mode, state) product chain of a 1-bit strategy on a truncation:
    the edges (node, probability) of node 2i + mode, for state i of
    ``fm.compiled``.  A controlled row holds the one pick, a pick outside
    ``fm`` going to the frontier; a random row holds the positive edges with
    their updated modes; the frontier stays put."""
    cm = fm.compiled
    index, states, indptr, succ, prob = cm.index, cm.states, cm.indptr, cm.succ, cm.prob
    f = index.get(fm.frontier)
    rows = []
    for i, s in enumerate(states):
        for mode in (0, 1):
            if i == f:
                rows.append([(2 * i + mode, 1.0)])
            elif cm.controlled[i]:
                m2, t = one_bit.controlled(mode, s)
                rows.append([(2 * index.get(t, f) + m2, 1.0)])
            else:
                rows.append([
                    (2 * succ[k] + one_bit.random_update(mode, s, states[succ[k]]), prob[k])
                    for k in range(indptr[i], indptr[i + 1]) if prob[k] > 0.0
                ])
    return rows


def _expected_visits(rows: list[list[tuple[int, float]]], start: int,
                     sinks: set[int]) -> dict[int, float]:
    """Expected visits from ``start`` to each node of a Markov chain (edges
    (node, probability) per node) that it reaches before ``sinks``: the
    ``start`` row of the fundamental matrix N = (I - Q)^-1, by the solve
    (I - Q)^T r = e_start over the reached nodes."""
    order, pos = [start], {start: 0}
    for k in order:
        for j, _ in rows[k]:
            if j not in pos and j not in sinks:
                pos[j] = len(order)
                order.append(j)
    n = len(order)
    r_idx, c_idx, vals = list(range(n)), list(range(n)), [1.0] * n
    for a, k in enumerate(order):
        for j, p in rows[k]:
            b = pos.get(j)
            if b is not None:
                r_idx.append(b)
                c_idx.append(a)
                vals.append(-p)
    e = [1.0] + [0.0] * (n - 1)
    return dict(zip(order, _linsolve(n, r_idx, c_idx, vals, e).tolist()))


# ---------------------------------------------------------------------------
# Safety slack rule


@dataclass
class SafetySchedule:
    radii: tuple[int, ...] = (20, 40, 80)
    synthesis_radius: int = 20
    branch_budget: int = 4096


def safety_md_universally_transient(
    mdp: Mdp,
    avoid,
    epsilon: float,
    schedule: SafetySchedule | None = None,
    roots: Iterable[StateId] = (),
    safe_core=None,
    assume_transient: bool = False,
) -> MdStrategy:
    """Safety strategy for universally transient MDPs via the slack rule: at
    state s pick the smallest-ordinal successor whose certified value lower
    bound is at least ub(s) - eps / (2^{iota(s)+1} R(s)).

    Finite MDPs take the exact route (values and return probabilities are
    exact); countable ones use interval bounds, widening through the radius
    schedule until a qualifier appears.
    """
    objective = avoid if isinstance(avoid, Objective) else Objective.safety(avoid)
    schedule = schedule or SafetySchedule()
    roots = list(roots)

    if isinstance(mdp, FiniteMdp):
        return _safety_md_finite(mdp, objective, epsilon, assume_transient)

    if not roots:
        raise ValueError("countable synthesis needs root states")
    # Random states are walked through the prefix view that the certificate
    # uses, so an infinitely branching one leads to its first branches and the
    # tail stub; choices are made only at controlled states.
    view = _prefix_restricted(mdp, schedule)
    choice: dict[StateId, StateId] = {}
    seen: set[StateId] = set()
    queue = list(roots)
    horizon = schedule.synthesis_radius
    steps = {s: 0 for s in queue}
    while queue:
        s = queue.pop(0)
        if s in seen or steps[s] > horizon:
            continue
        seen.add(s)
        if view.kind_of(s) is StateKind.CONTROLLED:
            succ = mdp.successors_of(s)
            if isinstance(succ, InfiniteSuccessors):
                picked = _pick_slack_successor_lazy(
                    mdp, s, succ, objective, epsilon, schedule, safe_core,
                    assume_transient,
                )
            else:
                picked = _pick_slack_successor(
                    mdp, s, list(succ), objective, epsilon, schedule, safe_core,
                    assume_transient,
                )
            choice[s] = picked
            nexts = [picked]
        else:
            nexts = successor_states(view, s)
        for t in nexts:
            if t not in seen:
                steps[t] = steps[s] + 1
                queue.append(t)
    return MdStrategy(choice)


def _slack(mdp, s, epsilon, schedule, assume_transient) -> float:
    if assume_transient:
        r_bound = 1.0
    else:
        try:
            analysis = return_probability(mdp, s, list(schedule.radii))
        except InfiniteBranching:
            # Certify on the enumerated-prefix restriction: infinite families
            # are cut to their first branches with the tail lumped into an
            # absorbing (never-returning) stub.  The certificate is relative
            # to the prefix.
            analysis = return_probability(
                _prefix_restricted(mdp, schedule), s, list(schedule.radii)
            )
        if analysis.re.lower >= 1.0 - 1e-9:
            raise NotUniversallyTransient(
                f"certified return probability 1 at {s.label or s.ordinal}"
            )
        if not math.isfinite(analysis.r_bound):
            raise NotUniversallyTransient(
                f"return-probability upper estimate 1 at {s.label or s.ordinal}"
            )
        r_bound = analysis.r_bound
    return _slack_at(s, epsilon, r_bound)


def _slack_at(s: StateId, epsilon: float, r_bound: float) -> float:
    """The slack eps / (2^{iota(s)+1} R(s)) with iota the ordinal; scaled by
    ldexp so that large ordinals underflow towards 0 instead of overflowing."""
    return math.ldexp(epsilon / r_bound, -(s.ordinal + 1))


def _prefix_restricted(mdp: Mdp, schedule: SafetySchedule) -> Mdp:
    """View of ``mdp`` with infinite successor families cut to their first
    ``branch_budget // 16`` members (16 when that is 0); the residual
    probability mass of random families goes to a fresh absorbing stub."""
    cap = schedule.branch_budget // 16 or 16

    # An ordinal above every host state's keeps the stub's ordinal unique
    # in each truncation of the view.
    stub = mint("tail_stub", 1 << 62)

    def kind(s: StateId) -> StateKind:
        if s == stub:
            return StateKind.RANDOM
        return mdp.kind_of(s)

    def successors(s: StateId):
        if s == stub:
            return Distribution([(stub, 1.0)])
        succ = mdp.successors_of(s)
        if not isinstance(succ, InfiniteSuccessors):
            return succ
        if succ.random:
            kept = []
            total = 0.0
            for t, p in succ.iter_weighted():
                kept.append((t, p))
                total += p
                if len(kept) >= cap:
                    break
            if total < 1.0 - 1e-12:
                kept.append((stub, 1.0 - total))
            return Distribution(kept, check=False)
        return list(itertools.islice(succ.iter_states(), cap))

    return LazyMdp(kind, successors)


def _pick_slack_successor(mdp, s, succ, objective, epsilon, schedule, safe_core,
                          assume_transient) -> StateId:
    slack = _slack(mdp, s, epsilon, schedule, assume_transient)
    for radius_idx in range(len(schedule.radii)):
        radii = list(schedule.radii[: radius_idx + 1])
        ub = interval_value(mdp, s, objective, radii, safe_core).upper
        for t in sorted(succ, key=lambda q: q.ordinal):
            lb = interval_value(mdp, t, objective, radii, safe_core).lower
            if lb >= ub - slack - 1e-12:
                return t
    raise RadiusExhausted(
        f"no successor of {s.label or s.ordinal} qualified within the schedule"
    )


def _pick_slack_successor_lazy(mdp, s, succ: InfiniteSuccessors, objective, epsilon,
                               schedule, safe_core, assume_transient) -> StateId:
    slack = _slack(mdp, s, epsilon, schedule, assume_transient)
    radii = list(schedule.radii)
    # ub(s) on an infinitely branching state is not computable by truncation;
    # 1 is the only sound upper bound, which makes the rule demand
    # lb >= 1 - slack.  The value supremum guarantees a qualifier whenever
    # val(s) = 1; otherwise the enumeration budget runs out.
    for t in itertools.islice(succ.iter_states(), schedule.branch_budget):
        lb = interval_value(mdp, t, objective, radii, safe_core).lower
        if lb >= 1.0 - slack - 1e-12:
            return t
    raise RadiusExhausted(
        f"no branch of {s.label or s.ordinal} qualified within the budget"
    )


def _safety_md_finite(fm: FiniteMdp, objective: Objective, epsilon: float,
                      assume_transient: bool) -> MdStrategy:
    values = safety_value(fm, objective.states)
    avoid = set(objective.states or ())
    choice: dict[StateId, StateId] = {}
    for s in fm.states:
        if fm.kind_of(s) is not StateKind.CONTROLLED or s in avoid:
            continue
        succ = list(fm.successors_of(s))
        if len(succ) > 1 and not assume_transient:
            analysis = return_probability(fm, s, [len(fm.states) + 1])
            if analysis.re.lower >= 1.0 - 1e-9:
                raise NotUniversallyTransient(
                    f"certified return probability 1 at {s.label or s.ordinal}"
                )
            r_bound = analysis.r_bound
        else:
            r_bound = 1.0
        slack = _slack_at(s, epsilon, r_bound)
        qualifiers = [t for t in succ if values[t] >= values[s] - slack - 1e-12]
        if not qualifiers:
            # float drift only: the max-value successor always qualifies
            best = max(values[t] for t in succ)
            qualifiers = [t for t in succ if values[t] >= best - 1e-12]
        choice[s] = min(qualifiers, key=lambda t: t.ordinal)
    return MdStrategy(choice)
