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
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .core import (
    Distribution,
    FiniteMdp,
    InfiniteSuccessors,
    LazyMdp,
    MdStrategy,
    Mdp,
    Objective,
    OneBitStrategy,
    StateId,
    StateKind,
    _Layers,
    _absorb,
    _backward_reach,
    _default_pick,
    _with_rows,
    mint,
    require_tail,
    successor_states,
    truncate,
)
from .errors import (
    BadParameter,
    BudgetExhausted,
    EmptyFrontier,
    InfiniteBranching,
    NoFiniteCostPolicy,
    NotTail,
    NotUniversallyTransient,
    RadiusExhausted,
)
from .solvers import (
    BoundedRewardSpec,
    CostLabel,
    _expected_visits,
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
from .transforms import (
    _conditioning,
    _identity_reduction,
    plus_variant,
    reduce_to_finitely_branching,
)


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


# ---------------------------------------------------------------------------
# Overlays (shared by plastering and the verification harness)


def fix_choices(fm: FiniteMdp, fixed: dict[StateId, StateId]) -> FiniteMdp:
    """Copy of ``fm`` with the controlled states in ``fixed`` restricted to
    their single chosen successor."""
    index = fm.index
    return _with_rows(fm, {
        index[s]: (fm.controlled[index[s]], [index[t]], [math.nan]) for s, t in fixed.items()
    })


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
    # The chance of ever entering S \ G under sigma is a plain absorption
    # probability with S \ G as the boundary, whose rows are never read.
    return evaluate_md(fm, sigma, {s: 1.0 for s in outside})[pivot]


def optimal_md_where_exists(fm: FiniteMdp, phi: Objective) -> MdStrategy:
    """Single MD strategy that attains val(s) exactly at every state with an
    optimal strategy (on finite MDPs: every positive-value state), via
    plastering with budget 1/2 on the value-preserving conditioned variant."""
    values, _ = _optimal(fm, phi)
    positive, _ = _conditioning(fm, values)
    if not positive:
        return MdStrategy({})
    plus = plus_variant(fm, phi, values)
    target = frozenset(t for t in phi.states if t in plus.index)
    plus_phi = Objective.reach(target)
    # Restrict to states that can win almost surely in the conditioned
    # variant; on finite MDPs these are exactly its value-1 states.
    plus_values, _ = _optimal(plus, plus_phi)
    capable = sorted(s for s in plus.states if plus_values[s] >= 1.0 - 1e-9)
    # Controlled states keep their edges into ``capable``; each has one, to a
    # successor of its own value.
    pos = {plus.index[s]: k for k, s in enumerate(capable)}
    indptr, succ, prob = [0], [], []
    for i in pos:
        edges = range(plus.indptr[i], plus.indptr[i + 1])
        if plus.controlled[i]:
            edges = [k for k in edges if plus.succ[k] in pos]
        succ += [pos[plus.succ[k]] for k in edges]
        prob += [plus.prob[k] for k in edges]
        indptr.append(len(succ))
    restricted = FiniteMdp._of_rows(capable, [plus.controlled[i] for i in pos], indptr, succ, prob)
    sigma_plus, _ = plastering_uniformize(restricted, Objective.reach(target & set(capable)), 0.5)
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
    residual_far_goal: float  # exact P(no F_i visit within k_i steps, untrapped)
    residual_late_return: float  # exact P(a K_i visit at a step in [l_i, H], untrapped)


@dataclass
class BubblePlan:
    """The levels of a 1-bit plan and how their residuals were measured.

    The residuals are exact probabilities under the uniform ``reference``
    chain, conditioned by one rule: the mass that enters a state unable to
    reach the boundary of the explored region is dropped.  Such a state lies
    in a finite closed set, where every run fails Transience, so each
    residual is P(event and not yet trapped), an upper bound on P(event and
    objective).  ``horizon`` is the H of the late-return residuals.  The
    strategy built on the plan solves each level once, from the last level
    down (see ``_assemble_one_bit``)."""

    levels: list[BubbleLevel]
    epsilon: float
    horizon: int
    capped: bool = False
    reference: ClassVar[str] = "uniform"
    conditioning: ClassVar[str] = "trapped mass dropped"
    residuals: ClassVar[str] = "exact"

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "reference": self.reference,
            "conditioning": self.conditioning,
            "residuals": self.residuals,
            "horizon": self.horizon,
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
    """Budgets of the 1-bit plan: at most ``max_levels`` levels with radii up
    to ``max_radius``, late returns counted up to the horizon H =
    ``mc_horizon``.  ``mc_runs`` and ``seed`` are inert: the plan samples
    nothing, and callers may still pass them."""

    max_levels: int = 3
    max_radius: int = 96
    mc_runs: int = 160
    mc_horizon: int = 1600
    seed: int = 0

    @property
    def region_radius(self) -> int:
        """The radius the plan explores.  A run of k steps stays within
        radius k, and one at radius d by step t cannot return to K_i
        (radius k_i <= max_radius) before step t + d - k_i; so beyond
        max(max_radius, (H + max_radius) // 2) no state changes a residual,
        and the next layer is the region's boundary."""
        m = self.max_radius
        return max(m, (self.mc_horizon + m) // 2) + 1


def _uniform_over(succ) -> Distribution:
    """Uniform choice among a controlled state's successors, geometric over
    the first 8 of an infinite family."""
    if isinstance(succ, InfiniteSuccessors):
        # geometric over the enumeration; finite-support surrogate
        states = list(itertools.islice(succ.iter_states(), 8))
        weights = [2.0 ** -(i + 1) for i in range(len(states))]
        weights[-1] += 1.0 - sum(weights)
        return Distribution(list(zip(states, weights)), check=False)
    states = list(succ)
    return Distribution([(t, 1.0 / len(states)) for t in states], check=False)


class _ReferenceChain:
    """The uniform reference chain on the index form of ``layers`` grown to
    ``radius``: a controlled state moves by ``_uniform_over`` its successors,
    a random state by its Distribution.  The edges of the states within
    ``radius - 1`` are kept as (row, col, prob) arrays in row order; the
    states of layer ``radius`` are the boundary and have no edges.  An edge
    into a trapped state, one that reaches no boundary state, carries
    probability 0, so the mass that enters it is dropped.

    A distribution after t steps lives on the states within t steps, a prefix
    of ``layers.order``; ``ends[d]`` is that prefix's length and ``edge_end[d]``
    the number of edges leaving it."""

    def __init__(self, layers: _Layers, initial: Sequence[StateId], radius: int):
        self.ends = [layers.end(d) for d in range(radius + 1)]
        n_rows, n = self.ends[radius - 1], self.ends[radius]
        rows, cols, probs, edge_end = [], [], [], [0]
        preds: dict[int, list[int]] = {}
        for i in range(n_rows):
            answer, targets = layers.answers[i], layers.targets[i]
            dist = answer if isinstance(answer, Distribution) else _uniform_over(answer)
            rows.extend([i] * len(targets))
            cols.extend(targets)
            probs.extend(p for _, p in dist)
            edge_end.append(len(cols))
            for j in targets:
                preds.setdefault(j, []).append(i)
        self.edge_end = [edge_end[e] for e in self.ends[:radius]]
        reaching = _backward_reach(range(n_rows, n), preds=(preds,))
        untrapped = np.zeros(n, dtype=bool)
        untrapped[list(reaching)] = True
        self.rows = np.array(rows, dtype=np.intp)
        self.cols = np.array(cols, dtype=np.intp)
        self.probs = np.array(probs) * untrapped[self.cols]
        start = np.zeros(self.ends[0])
        for s in initial:
            start[layers.ids[s.ordinal]] += 1.0 / len(initial)
        self.occupancy = [start * untrapped[:self.ends[0]]]
        self.n = n

    def push(self, x: np.ndarray, d: int) -> np.ndarray:
        """One step forward of the mass ``x`` on the states within ``d``
        steps."""
        e = self.edge_end[d]
        return np.bincount(self.cols[:e], self.probs[:e] * x[self.rows[:e]], self.ends[d + 1])

    def pull(self, h: np.ndarray, d: int) -> np.ndarray:
        """The expectation of ``h`` one step ahead, for the states within
        ``d`` steps."""
        e = self.edge_end[d]
        return np.bincount(self.rows[:e], self.probs[:e] * h[self.cols[:e]], self.ends[d])

    def at(self, t: int) -> np.ndarray:
        """The untrapped mass after ``t`` steps."""
        occ = self.occupancy
        while len(occ) <= t:
            occ.append(self.push(occ[-1], len(occ) - 1))
        return occ[t]

    def far(self, absorbing: np.ndarray, k: int) -> list[float]:
        """far(j) for j <= k: the untrapped mass that has not entered an
        ``absorbing`` state within j steps."""
        x = self.at(0) * ~absorbing[:self.ends[0]]
        out = [x.sum()]
        for d in range(k):
            x = self.push(x, d)
            x[absorbing[:len(x)]] = 0.0
            out.append(x.sum())
        return out

    def late(self, k: int, horizon: int, top: int) -> np.ndarray:
        """late(l) for l <= ``top``: the untrapped mass that visits the
        states within ``k`` steps at some step in [l, horizon].  One backward
        pass: h_t(s) is the chance from s at step t of such a visit by the
        horizon.  It is computed only on the states within min(t, k +
        horizon - t) steps: no mass sits further out at step t, and from
        further out the states within k steps are out of reach by the
        horizon, so h_t is exactly 0 there."""
        late = np.zeros(top + 1)
        end_k = self.ends[k]
        h = np.zeros(self.n)
        h[:end_k] = 1.0
        for t in range(horizon, k, -1):
            if t < horizon:
                d = min(t, k + horizon - t)
                h[:self.ends[d]] = self.pull(h, d)
                h[:end_k] = 1.0
            if t <= top:
                late[t] = self.at(t) @ h[:self.ends[t]]
        return late


def buchi_transience_one_bit(
    mdp: Mdp,
    initial: Iterable[StateId],
    goal,
    epsilon: float,
    schedule: BubbleSchedule | None = None,
) -> tuple[OneBitStrategy, BubblePlan]:
    """Deterministic 1-bit strategy for Buechi(goal) intersected with
    Transience, assembled from per-level bounded-reward MD strategies.

    Level i takes the smallest radius k_i past l_{i-1} whose residual far
    event (no visit to a goal state outside L_{i-1} within k_i steps) is at
    most the level budget eps_i = eps 2^{-(i+1)}, then the smallest l_i past
    k_i whose late event (a visit to K_i at some step in [l_i, H]) is too,
    with the schedule capping both.  The residuals are exact under the
    uniform reference chain started uniformly on ``initial``, with trapped
    mass dropped (see ``BubblePlan``).  The level strategies come from one
    backward pass, one bounded-reward solve per level: level i's goal
    frontier F_i is rewarded with the values of level i + 1's solve there,
    and with 1 past the last level.
    """
    initial = sorted(set(initial))
    if not initial:
        raise BadParameter("need at least one initial state")
    goal_pred = goal if callable(goal) else (lambda s, gs=frozenset(goal): s in gs)
    strategy, plan, _ = _one_bit_on(_Layers(mdp, initial), initial, goal_pred, epsilon,
                                    schedule or BubbleSchedule())
    return strategy, plan


def _one_bit_on(layers: _Layers, initial: list[StateId], goal_pred, epsilon: float,
                schedule: BubbleSchedule) -> tuple[OneBitStrategy, BubblePlan, FiniteMdp]:
    """``buchi_transience_one_bit`` on the search ``layers`` from ``initial``,
    which it grows to the schedule's region and reuses for its truncation,
    returned too: the level strategies' MDP, of radius ``levels[-1].k + 1``."""
    top = schedule.max_radius
    chain = _ReferenceChain(layers, initial, schedule.region_radius)
    goal_at = np.array([bool(goal_pred(s)) for s in layers.order[:chain.ends[top]]])

    levels: list[BubbleLevel] = []
    capped = False
    l_prev = 0
    # F_1 = goal ∩ K_1 with no subtraction; only F_{i+1} removes L_i.
    inside = 0  # L_{i-1} is the first ``inside`` states of ``layers.order``
    for i in range(1, schedule.max_levels + 1):
        eps_i = epsilon * 2.0 ** -(i + 1)
        if l_prev >= top:
            capped = True
            break
        fresh = goal_at.copy()
        fresh[:inside] = False
        first = np.flatnonzero(fresh)
        if not first.size:
            if i == 1:
                # No goal state reachable within the whole schedule: value
                # evidence that the objective has value 0 from the roots.
                raise EmptyFrontier(f"goal frontier empty at radius {top}")
            capped = True
            break
        # k_i: the first radius past l_prev with a fresh goal state within it
        # and far(k_i) <= eps_i, or the largest radius
        far = chain.far(fresh, top)
        k_i = max(l_prev + 1, next(d for d, e in enumerate(chain.ends) if e > first[0]))
        while k_i < top and far[k_i] > eps_i:
            k_i += 1
        late = chain.late(k_i, schedule.mc_horizon, top + 1)
        l_i = k_i + 1
        while l_i < top and late[l_i] > eps_i:
            l_i += 1
        F_i = {layers.order[j] for j in first if j < chain.ends[k_i]}
        level = BubbleLevel(i, k_i, l_i, layers.within(k_i), layers.within(l_i), F_i, eps_i,
                            float(far[k_i]), float(late[l_i]))
        capped = capped or level.residual_far_goal > eps_i or level.residual_late_return > eps_i
        levels.append(level)
        l_prev, inside = l_i, chain.ends[l_i]

    plan = BubblePlan(levels, epsilon, schedule.mc_horizon, capped)
    fm = truncate(layers.mdp, initial, levels[-1].k + 1, layers=layers)
    return _assemble_one_bit(layers, fm, plan), plan, fm


def _assemble_one_bit(layers: _Layers, fm: FiniteMdp, plan: BubblePlan) -> OneBitStrategy:
    """The 1-bit strategy of ``plan`` on its truncation ``fm``, by backward
    induction: one bounded-reward solve per level, from the last level down.
    Level i's MD strategy sigma_i maximises the value of reaching F_i inside
    K_i minus K_{i-2} (the whole bubble for levels 1 and 2); an F_i state is
    worth what level i + 1's solve gives it, and 1 past the last level or
    where that solve has no value.

    A state plays by its first level i: in mode i % 2 it follows sigma_i,
    otherwise sigma_{i+1}, and where that has no choice the default pick.
    Arriving at an F_i state in mode i % 2 flips the mode; F_i lies outside
    L_{i-1}, so i is the first level of each of its states."""
    mdp = layers.mdp
    kept = set(fm.states)
    choices: dict[int, dict[StateId, StateId]] = {}
    first: dict[StateId, int] = {}
    flip: dict[StateId, int] = {}
    values: dict[StateId, float] = {}
    for lv in reversed(plan.levels):
        i = lv.index
        avoid = plan.levels[i - 3].K if i > 2 else set()
        sub = (lv.K - avoid) & kept
        rewards = {s: values.get(s, 1.0) for s in lv.F if s in sub}
        sigma, values = MdStrategy({}), {}
        if rewards:
            sigma, values = bounded_total_reward_md(BoundedRewardSpec(frozenset(sub), rewards), fm)
        choices[i] = sigma.choice
        first.update(dict.fromkeys(lv.K, i))
        flip.update(dict.fromkeys(lv.F, i % 2))

    beyond = plan.levels[-1].index + 1
    # MdStrategy's default pick on the truncation's controlled states, from
    # the answers of the search, which asked their oracles already.
    default = {s: _default_pick(layers.answers[layers.ids[s.ordinal]], s)
               for s in fm.controlled_states()}

    def arrival_mode(mode: int, s: StateId) -> int:
        return 1 - mode if flip.get(s) == mode else mode

    def controlled(mode: int, s: StateId) -> tuple[int, StateId]:
        mode = arrival_mode(mode, s)
        i = first.get(s, beyond)
        t = choices.get(i if mode == i % 2 else i + 1, {}).get(s)
        if t is None:
            t = default[s] if s in default else MdStrategy({}).successor(mdp, s)
        return mode, t

    def random_update(mode: int, s: StateId, realized: StateId) -> int:
        return arrival_mode(mode, s)

    return OneBitStrategy(1, controlled, random_update)


def one_bit_tables(strategy: OneBitStrategy, fm: FiniteMdp) -> dict:
    """Materialize a (possibly closure-backed) 1-bit strategy over a finite
    MDP in the serializable table form: the initial mode, the move of every
    controlled state, {"mode:ordinal": [mode, ordinal]}, and at every random
    state the successors whose move changes the mode, {"mode:ordinal":
    [ordinal, ...]}, listed where there is one."""
    table, flip = {}, {}
    for s, is_controlled in zip(fm.states, fm.controlled):
        for mode in (0, 1):
            if is_controlled:
                table[(mode, s)] = strategy.controlled(mode, s)
                continue
            changed = [t for t in successor_states(fm, s)
                       if strategy.random_update(mode, s, t) != mode]
            if changed:
                flip[(mode, s)] = changed
    return OneBitStrategy.tables_to_json(strategy.initial_mode, table, flip)


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
    reduced: bool = False  # whether the states are the finite-branching reduction's

    def input_ordinals(self, states: Iterable[StateId]) -> list[int]:
        """The sorted ordinals of ``states`` in the input MDP.  The reduction
        embeds input state o at ordinal 2o and mints its ladder and chain
        states at odd ordinals; those are left out."""
        if not self.reduced:
            return sorted(s.ordinal for s in states)
        return sorted(s.ordinal // 2 for s in states if s.ordinal % 2 == 0)


@dataclass
class TransienceBudgets:
    """Budgets of ``transience_md``: the truncation ``radius`` and the
    schedule of its 1-bit plan.  ``mc_runs``, ``mc_horizon`` and ``seed``
    are inert, since nothing is sampled; callers may still pass them."""

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
    min-expected-cost MD policy.  Every step is exact, so the result
    depends on no seed.

    The strategy is a table over the states of ``mdp`` (``lower_md``); the
    states outside it take MdStrategy's default rule.  The partition is over
    the working MDP, the reduction when ``partition.reduced``.
    """
    budgets = budgets or TransienceBudgets()
    params = SynthesisParams(epsilon)
    schedule = budgets.one_bit_schedule or BubbleSchedule()
    maps, layers = _reduction_if_needed(mdp, s0, max(budgets.radius, schedule.region_radius))
    work = maps.reduced
    root = maps.embed(s0)

    if one_bit is None:
        one_bit, _, _ = _one_bit_on(
            layers, [root], lambda s: True, params.epsilon_prime, schedule
        )

    fm = truncate(work, {root}, budgets.radius, layers=layers)
    states, frontier = fm.states, fm.frontier
    f = fm.index.get(frontier)  # None when nothing leaves the bubble
    product = _one_bit_product(fm, one_bit)
    reaching = _backward_reach([2 * f + m for m in (0, 1) if f is not None],
                               preds=(product.random_preds(),))
    good_modes = {
        i: [m for m in (0, 1) if 2 * i + m in reaching]
        for i in range(len(states)) if i != f
    }
    bad = {states[i] for i, modes in good_modes.items() if not modes}
    if root in bad:
        # The 1-bit strategy is trapped everywhere: value 0 from the root, and
        # any strategy attains it.
        return MdStrategy({}), GoodBadPartition(bad, set(), set(), {},
                                                reduced=not maps.is_identity)

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
    ptr, succ, prob = product.indptr, product.succ, product.prob
    repaired = _with_rows(product, {
        k ^ 1: (False, succ[ptr[k]:ptr[k + 1]], prob[ptr[k]:ptr[k + 1]])
        for k in (2 * i + m for i, m in fix.items())
    })
    # The sinks: the nodes of bad states lose, the frontier's nodes win.
    sinks = {2 * i + m: 0.0 for i, modes in good_modes.items() if not modes for m in (0, 1)}
    sinks.update({2 * f: 1.0, 2 * f + 1: 1.0})
    node_visits, attainment = _expected_visits(
        repaired, 2 * fm.index[root] + one_bit.initial_mode, sinks
    )
    visits: dict[StateId, float] = {}
    for k, r in node_visits.items():
        visits[states[k // 2]] = visits.get(states[k // 2], 0.0) + r

    # Built by insertion, a set of about a hundred states holds twice the
    # slots that its copy holds; callers keep the partition, so it keeps the
    # copy.
    good = {states[i] for i, modes in good_modes.items() if modes}.copy()
    good_prime = {s for s, r in visits.items() if r > 0.0}
    partition = GoodBadPartition(bad, good, good_prime, visits, repairs, attainment,
                                 not maps.is_identity)

    # Cost labels.  iota is the rank within the truncation (an enumeration of
    # the finite working space; raw ordinals of reduced states overflow the
    # 2^-iota scale).
    rank = {s: i for i, s in enumerate(sorted(good, key=lambda q: q.ordinal))}
    bad_cost = params.big_k / (1.0 - attainment + params.epsilon_prime)
    cost_map: dict[tuple[StateId, StateId], float] = {}
    for i, s in enumerate(states):
        if s in bad:
            continue  # bad self-loops cost 0
        for t in (states[j] for j in m_prime.row(i)):
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
    return maps.lower_md(sigma), partition


def _reduction_if_needed(mdp: Mdp, s0: StateId, probe_radius: int):
    """Reduce only when infinite branching is actually reachable within the
    working radius; otherwise the identity keeps original state ids.  Also
    returns the breadth-first search from the working root, for the caller
    to grow and reuse: the probe's own when nothing was reduced."""
    layers = _Layers(mdp, [s0])
    try:
        layers.grow(probe_radius)
    except InfiniteBranching:
        maps = reduce_to_finitely_branching(mdp)
        return maps, _Layers(maps.reduced, [maps.embed(s0)])
    return _identity_reduction(mdp), layers


def _one_bit_product(fm: FiniteMdp, one_bit: OneBitStrategy) -> FiniteMdp:
    """The (mode, state) product chain of a 1-bit strategy on a truncation,
    as a FiniteMdp of random rows: row 2i + mode, for state i of ``fm``.  A
    controlled row holds the one pick, a pick outside ``fm`` going to the
    frontier; a random row holds the positive edges with their updated
    modes; the frontier stays put.  Its states are the node numbers, not
    StateIds, so only code that reads rows by index (``row``,
    ``random_preds``, ``_with_rows``, ``_chain_system``) may take it."""
    index, states, indptr, succ, prob = fm.index, fm.states, fm.indptr, fm.succ, fm.prob
    f = index.get(fm.frontier)
    nodes, probs, ptr = [], [], [0]
    for i, s in enumerate(states):
        for mode in (0, 1):
            if i == f:
                nodes.append(2 * i + mode)
                probs.append(1.0)
            elif fm.controlled[i]:
                m2, t = one_bit.controlled(mode, s)
                nodes.append(2 * index.get(t, f) + m2)
                probs.append(1.0)
            else:
                for k in range(indptr[i], indptr[i + 1]):
                    if prob[k] > 0.0:
                        nodes.append(2 * succ[k] + one_bit.random_update(mode, s, states[succ[k]]))
                        probs.append(prob[k])
            ptr.append(len(nodes))
    n = len(ptr) - 1
    return FiniteMdp._of_rows(range(n), [False] * n, ptr, nodes, probs)


# ---------------------------------------------------------------------------
# Safety slack rule


@dataclass
class SafetySchedule:
    """Budgets of ``safety_md_universally_transient``: interval ``radii``, the
    walk's ``synthesis_radius`` and an infinite family's ``branch_budget``."""

    radii: tuple[int, ...] = (20, 40, 80)
    synthesis_radius: int = 20
    branch_budget: int = 4096

    def __post_init__(self):
        if self.synthesis_radius < 0:
            raise BadParameter(
                f"synthesis_radius must be non-negative, got {self.synthesis_radius}")
        if self.branch_budget < 1:
            raise BadParameter(f"branch_budget must be positive, got {self.branch_budget}")


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
    exact).  Countable ones are walked breadth-first from ``roots``: every
    controlled state within ``synthesis_radius`` steps gets a pick, and the
    walk goes on only through the picks and through the random states'
    successors in the prefix view, where an infinite family is cut to its
    first branches and a tail stub.  A pick uses interval bounds, widening
    through the radius schedule until a qualifier appears.
    """
    objective = avoid if isinstance(avoid, Objective) else Objective.safety(avoid)
    schedule = schedule or SafetySchedule()
    roots = list(roots)

    if isinstance(mdp, FiniteMdp):
        return _safety_md_finite(mdp, objective, epsilon, assume_transient)

    if not roots:
        raise BadParameter("countable synthesis needs root states")
    view = _prefix_restricted(mdp, schedule)
    choice: dict[StateId, StateId] = {}

    def successors(s: StateId):
        # The walk's view of s: its pick, made when the search first asks.
        if view.kind_of(s) is not StateKind.CONTROLLED:
            return view.successors_of(s)
        choice[s] = _pick_slack_successor(
            mdp, view, s, objective, epsilon, schedule, safe_core, assume_transient
        )
        return [choice[s]]

    # As in ``truncate``: growing layer d + 1 asks every state of layer d.
    _Layers(LazyMdp(view.kind_of, successors), roots).grow(schedule.synthesis_radius + 1)
    return MdStrategy(choice)


def _slack(view, s, epsilon, schedule, assume_transient) -> float:
    """The slack at ``s``, with R(s) certified on the walk's prefix ``view``:
    infinite families are cut to their first branches with the tail lumped
    into an absorbing (never-returning) stub, so the certificate is relative
    to the prefix."""
    if assume_transient:
        return _slack_at(s, epsilon, 1.0)
    analysis = return_probability(view, s, list(schedule.radii))
    if analysis.re.lower >= 1.0 - 1e-9:
        raise NotUniversallyTransient(
            f"certified return probability 1 at {s.label or s.ordinal}"
        )
    if not math.isfinite(analysis.r_bound):
        raise NotUniversallyTransient(
            f"return-probability upper estimate 1 at {s.label or s.ordinal}"
        )
    return _slack_at(s, epsilon, analysis.r_bound)


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


def _pick_slack_successor(mdp, view, s, objective, epsilon, schedule, safe_core,
                          assume_transient) -> StateId:
    """The slack rule at controlled ``s``: for each running maximum of the
    radius schedule, the first successor in ordinal order whose lower bound
    at that radius is at least ub(s) - slack."""
    slack = _slack(view, s, epsilon, schedule, assume_transient)
    radii = sorted(set(itertools.accumulate(schedule.radii, max)))
    succ = mdp.successors_of(s)
    infinite = isinstance(succ, InfiniteSuccessors)
    if infinite:
        # ub(s) on an infinitely branching state is not computable by
        # truncation; 1 is the only sound upper bound, which makes the rule
        # demand lb >= 1 - slack at the largest radius.  The value supremum
        # guarantees a qualifier whenever val(s) = 1; otherwise the
        # enumeration budget runs out.
        radii = radii[-1:]
        candidates = itertools.islice(succ.iter_states(), schedule.branch_budget)
    else:
        candidates = sorted(succ, key=lambda q: q.ordinal)
    for radius in radii:
        ub = 1.0 if infinite else interval_value(mdp, s, objective, [radius], safe_core).upper
        for t in candidates:
            if interval_value(mdp, t, objective, [radius], safe_core).lower >= ub - slack - 1e-12:
                return t
    raise RadiusExhausted(
        f"no successor of {s.label or s.ordinal} qualified within the schedule"
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
