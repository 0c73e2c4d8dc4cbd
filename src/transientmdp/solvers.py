"""Exact value computation on finite MDPs and certified bounds on truncations.

The optimal-value engine runs qualitative graph precomputation, Gauss-Seidel
value iteration in ordinal order, greedy policy extraction (value-maximal
edges, ties broken by distance-to-boundary then smallest ordinal), and a final
exact linear-solve evaluation of the extracted policy.  The returned values are
the exact evaluation, which matches the iterated fixed point within 1e-9 on
the tested corpora; md_policy_oracle provides the independent cross-check.

Minimum expected total cost is a stochastic shortest-path problem decided by
graph precomputation plus policy iteration: the almost-sure attractor of the
zero-cost region separates the states whose cost is exactly ``math.inf``
(there is no sweep cap and no 1e15 cut-off), and policy iteration with exact
linear solves, started from the proper attractor policy, settles the rest.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .core import (
    Distribution,
    FiniteMdp,
    MdStrategy,
    Mdp,
    Objective,
    PESSIMISTIC,
    StateId,
    StateKind,
    _absorb,
    _backward_reach,
    _restrict,
    _stay_region,
    require_sink,
    successor_states,
    truncate,
)
from .errors import NoFiniteCostPolicy, TooLarge

VI_TOL = 1e-9
TIE_TOL = 1e-12
# Relative margin by which a policy-iteration switch must improve, so that
# rounding in the linear solve cannot pass for an improvement.
IMPROVE_TOL = 1e-12


@dataclass
class ValueMap:
    """State values for one objective; residual of the fixed point <= tolerance."""

    values: dict[StateId, float]
    objective: Objective | str
    tolerance: float = VI_TOL

    def __getitem__(self, s: StateId) -> float:
        return self.values[s]

    def get(self, s: StateId, default: float = 0.0) -> float:
        return self.values.get(s, default)

    def to_json(self) -> dict:
        return {str(s.ordinal): v for s, v in sorted(self.values.items())}


@dataclass(frozen=True)
class ValueInterval:
    lower: float
    upper: float
    radius: int

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValueError(f"inverted interval [{self.lower}, {self.upper}]")

    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, v: float, slack: float = 1e-9) -> bool:
        return self.lower - slack <= v <= self.upper + slack

    def to_json(self) -> dict:
        return {"lower": self.lower, "upper": self.upper, "radius": self.radius}


@dataclass
class ReturnAnalysis:
    """Interval for the return probability Re(s) plus the derived bounds
    B(s) = 1/(1-Re)^2 on expected visits and R(s) = 1/(1-Re) on visit count,
    both computed from the upper end so they stay valid upper bounds."""

    re: ValueInterval
    b_bound: float
    r_bound: float


@dataclass
class CostLabel:
    """Non-negative real cost per transition; missing edges cost 0."""

    cost: dict[tuple[StateId, StateId], float] = field(default_factory=dict)

    def __post_init__(self):
        for edge, c in self.cost.items():
            if not (c >= 0.0 and math.isfinite(c)):
                raise ValueError(f"cost {c} on {edge} must be finite and >= 0")

    def of(self, s: StateId, t: StateId) -> float:
        return self.cost.get((s, t), 0.0)


@dataclass
class BoundedRewardSpec:
    """Terminal rewards in [0,1] on an absorbing reward frontier inside a
    finite subspace; leaving the subspace yields the exit reward 0."""

    subspace: frozenset[StateId]
    terminal_rewards: dict[StateId, float]

    def __post_init__(self):
        for s, r in self.terminal_rewards.items():
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"reward {r} at {s} outside [0,1]")
            if s not in self.subspace:
                raise ValueError(f"frontier state {s} outside the subspace")


# ---------------------------------------------------------------------------
# Exact policy evaluation


def _chain_edges(fm: FiniteMdp, sigma: MdStrategy, s: StateId):
    if fm.kind_of(s) is StateKind.CONTROLLED:
        return [(sigma.successor(fm, s), 1.0)]
    return list(fm.successors_of(s))


def evaluate_md(
    fm: FiniteMdp,
    sigma: MdStrategy,
    boundary: Mapping[StateId, float],
) -> dict[StateId, float]:
    """Exact absorption values of the Markov chain induced by ``sigma``.

    Boundary states are treated as absorbing with the given values; states
    that cannot reach the boundary get the least-fixed-point value 0.
    """
    boundary = dict(boundary)
    inner = [s for s in fm.states if s not in boundary]
    # Backward reachability to the boundary along chain edges.
    can_reach = _backward_reach(
        {s: [t for t, p in _chain_edges(fm, sigma, s) if p > 0.0] for s in inner},
        boundary,
    )

    values = {s: 0.0 for s in fm.states}
    values.update(boundary)
    solve_states = [s for s in inner if s in can_reach]
    if solve_states:
        idx = {s: i for i, s in enumerate(solve_states)}
        n = len(solve_states)
        a = np.eye(n)
        b = np.zeros(n)
        for s in solve_states:
            for t, p in _chain_edges(fm, sigma, s):
                if t in boundary:
                    b[idx[s]] += p * boundary[t]
                elif t in idx:
                    a[idx[s], idx[t]] -= p
                # edges to non-reaching states contribute value 0
        x = np.linalg.solve(a, b)
        for s, v in zip(solve_states, x):
            values[s] = float(min(max(v, 0.0), max(boundary.values(), default=1.0)))
    return values


def evaluate_md_reach(fm: FiniteMdp, sigma: MdStrategy, target: Iterable[StateId]) -> dict:
    return evaluate_md(fm, sigma, {t: 1.0 for t in target})


def evaluate_md_safety(fm: FiniteMdp, sigma: MdStrategy, avoid: Iterable[StateId]) -> dict:
    """Exact safety values under ``sigma``: 1 - P(F avoid) on the chain with
    ``avoid`` made absorbing."""
    fm_abs = _absorb(fm, avoid)
    reach = evaluate_md(fm_abs, sigma, {t: 1.0 for t in avoid})
    return {s: 1.0 - reach[s] for s in fm.states}


def evaluate_md_cost(
    fm: FiniteMdp, sigma: MdStrategy, cost: CostLabel
) -> dict[StateId, float]:
    """Exact expected total cost under ``sigma``; math.inf where some
    positive-cost recurrent class is reachable."""
    succ = {s: [(t, p) for t, p in _chain_edges(fm, sigma, s) if p > 0.0] for s in fm.states}
    comps = _bottom_sccs(succ)
    infinite: set[StateId] = set()
    boundary: set[StateId] = set()
    for comp in comps:
        costly = any(cost.of(s, t) > 0.0 for s in comp for t, _ in succ[s] if t in comp)
        (infinite if costly else boundary).update(comp)
    # Positive-probability reachability of an infinite-cost class propagates.
    infinite = set(_backward_reach(
        {s: [t for t, _ in out] for s, out in succ.items()}, infinite
    ))

    solve_states = [s for s in fm.states if s not in infinite and s not in boundary]
    values = _solve_costs(succ, solve_states, cost)
    for s in boundary:
        values[s] = 0.0
    for s in infinite:
        values[s] = math.inf
    return values


def _solve_costs(
    succ: Mapping[StateId, list[tuple[StateId, float]]],
    solve_states: list[StateId],
    cost: CostLabel,
) -> dict[StateId, float]:
    """Exact expected total cost on ``solve_states`` of the chain ``succ``;
    edges leaving ``solve_states`` pay their cost and then count as value 0.
    The chain must leave ``solve_states`` almost surely."""
    values: dict[StateId, float] = {}
    if not solve_states:
        return values
    idx = {s: i for i, s in enumerate(solve_states)}
    n = len(solve_states)
    a = np.eye(n)
    b = np.zeros(n)
    for s in solve_states:
        for t, p in succ[s]:
            b[idx[s]] += p * cost.of(s, t)
            if t in idx:
                a[idx[s], idx[t]] -= p
    x = np.linalg.solve(a, b)
    for s, v in zip(solve_states, x):
        values[s] = float(max(v, 0.0))
    return values


def _bottom_sccs(succ: Mapping[StateId, list]) -> list[set[StateId]]:
    """Bottom strongly connected components of the chain graph."""
    order: list[StateId] = []
    seen: set[StateId] = set()
    for root in succ:
        if root in seen:
            continue
        stack = [(root, iter([t for t, _ in succ[root]]))]
        seen.add(root)
        while stack:
            node, it = stack[-1]
            advanced = False
            for t in it:
                if t not in seen:
                    seen.add(t)
                    stack.append((t, iter([u for u, _ in succ[t]])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    # Kosaraju second pass on the reverse graph.
    rev: dict[StateId, list[StateId]] = {s: [] for s in succ}
    for s, out in succ.items():
        for t, _ in out:
            rev[t].append(s)
    comp_of: dict[StateId, int] = {}
    comps: list[set[StateId]] = []
    for root in reversed(order):
        if root in comp_of:
            continue
        comp = set()
        stack2 = [root]
        comp_of[root] = len(comps)
        while stack2:
            node = stack2.pop()
            comp.add(node)
            for t in rev[node]:
                if t not in comp_of:
                    comp_of[t] = len(comps)
                    stack2.append(t)
        comps.append(comp)
    bottoms = []
    for comp in comps:
        if all(t in comp for s in comp for t, _ in succ[s]):
            bottoms.append(comp)
    return bottoms


# ---------------------------------------------------------------------------
# Optimal values with boundary conditions


def optimal_boundary_value(
    fm: FiniteMdp,
    boundary: Mapping[StateId, float],
    maximize: bool = True,
) -> tuple[dict[StateId, float], MdStrategy]:
    """Least fixed point of the Bellman operator with fixed boundary values,
    plus an MD strategy attaining it."""
    boundary = dict(boundary)
    inner = [s for s in fm.states if s not in boundary]
    values = {s: 0.0 for s in fm.states}
    values.update(boundary)

    if maximize:
        # States that cannot graph-reach the boundary keep value 0.
        live = _backward_reach({s: successor_states(fm, s) for s in inner}, boundary)
        active = [s for s in inner if s in live]
        frozen_zero = {s for s in inner if s not in live}
    else:
        # Largest closed set from which the boundary is surely avoidable.
        frozen_zero = _stay_region(fm, inner)
        active = [s for s in inner if s not in frozen_zero]

    order = sorted(active, key=lambda s: s.ordinal)
    better = max if maximize else min
    has_choice = any(
        fm.kind_of(s) is StateKind.CONTROLLED and len(list(fm.successors_of(s))) > 1
        for s in order
    )
    # Short Gauss-Seidel warmup; Howard iteration below does the real work.
    warmup = 200 if has_choice else 0
    for sweep in range(warmup):
        residual = 0.0
        for s in order:
            succ = fm.successors_of(s)
            if isinstance(succ, Distribution):
                new = sum(p * values[t] for t, p in succ)
            else:
                new = better(values[t] for t in succ)
            residual = max(residual, abs(new - values[s]))
            values[s] = new
        if residual <= 1e-10:
            break

    # Policy iteration with exact linear-solve evaluations: extract a greedy
    # policy, evaluate it exactly, repeat until no Bellman improvement.
    sigma = _extract_policy(fm, values, boundary, frozen_zero, maximize)
    exact = evaluate_md(fm, sigma, boundary)
    for _ in range(200):
        improvable = False
        for s in order:
            if fm.kind_of(s) is not StateKind.CONTROLLED:
                continue
            succ = list(fm.successors_of(s))
            best = better(exact[t] for t in succ)
            gain = best - exact[s] if maximize else exact[s] - best
            if gain > 1e-11:
                improvable = True
                break
        if not improvable:
            break
        sigma = _extract_policy(fm, exact, boundary, frozen_zero, maximize)
        nxt = evaluate_md(fm, sigma, boundary)
        if all(abs(nxt[s] - exact[s]) <= 1e-13 for s in order):
            exact = nxt
            break
        exact = nxt
    else:
        raise ArithmeticError("policy iteration did not settle")

    result = {s: (boundary[s] if s in boundary else exact[s]) for s in fm.states}
    return result, sigma


def _extract_policy(fm, values, boundary, frozen_zero, maximize) -> MdStrategy:
    # Candidate edges: value-optimal successors.  Ties are broken toward the
    # boundary (BFS distance through candidate edges), then smallest ordinal;
    # distance-based progress prevents value-preserving cycles that never
    # absorb.
    candidates: dict[StateId, list[StateId]] = {}
    for s in fm.states:
        if s in boundary or fm.kind_of(s) is not StateKind.CONTROLLED:
            continue
        succ = list(fm.successors_of(s))
        if s in frozen_zero:
            if maximize:
                pool = succ  # everything is value 0 here
            else:
                pool = [t for t in succ if t in frozen_zero] or succ
        else:
            best = (max if maximize else min)(values[t] for t in succ)
            pool = [t for t in succ if abs(values[t] - best) <= TIE_TOL]
        candidates[s] = pool

    dist = _backward_reach(
        {
            s: candidates.get(s, []) if fm.kind_of(s) is StateKind.CONTROLLED
            else fm.successors_of(s).states()
            for s in fm.states if s not in boundary
        },
        boundary,
    )

    choice = {}
    for s, pool in candidates.items():
        choice[s] = min(
            pool, key=lambda t: (dist.get(t, math.inf), t.ordinal)
        )
    return MdStrategy(choice)


# ---------------------------------------------------------------------------
# Public solver operations


def reach_value(fm: FiniteMdp, target: Iterable[StateId], tol: float = VI_TOL) -> ValueMap:
    """Least fixed point of the max-Bellman operator for Reach(target);
    target must be a sink."""
    target = frozenset(target)
    require_sink(fm, target)
    values, _ = optimal_boundary_value(fm, {t: 1.0 for t in target}, True)
    return ValueMap(values, Objective.reach(target), tol)


def reach_strategy(fm: FiniteMdp, target: Iterable[StateId], tol: float = VI_TOL):
    target = frozenset(target)
    require_sink(fm, target)
    values, sigma = optimal_boundary_value(fm, {t: 1.0 for t in target}, True)
    return ValueMap(values, Objective.reach(target), tol), sigma


def safety_value(fm: FiniteMdp, avoid: Iterable[StateId], tol: float = VI_TOL) -> ValueMap:
    """Greatest fixed point for Safety(avoid), via the exact complement
    1 - min-reach(avoid) on finite MDPs."""
    values, _ = safety_strategy(fm, avoid, tol)
    return values


def safety_strategy(fm: FiniteMdp, avoid: Iterable[StateId], tol: float = VI_TOL):
    avoid = frozenset(avoid)
    fm_abs = _absorb(fm, avoid)
    reach_min, sigma = optimal_boundary_value(fm_abs, {t: 1.0 for t in avoid}, False)
    values = {s: 1.0 - reach_min[s] for s in fm.states}
    return ValueMap(values, Objective.safety(avoid), tol), sigma


def interval_value(
    mdp: Mdp,
    s: StateId,
    objective: Objective,
    radii: Iterable[int],
    safe_core=None,
) -> ValueInterval:
    """Bounds on the value of ``s`` from one truncation at the largest radius
    of the schedule, whose frontier sink loses for the lower bound and wins
    for the upper bound.

    For Safety objectives on countable MDPs the pessimistic lower bound is
    vacuous whenever safe behavior escapes every bubble (acyclic MDPs); a
    caller-declared certified-safe core (predicate over states, e.g. an
    all-safe absorbing family) turns the lower bound into reach-the-core
    before hitting the avoid set, which is sound given the declaration.
    """
    if objective.kind not in (Objective.REACH, Objective.SAFETY):
        raise ValueError("interval_value supports Reach and Safety objectives")
    radii = sorted(set(radii))
    if not radii:
        raise ValueError("empty radius schedule")
    last = radii[-1]
    fm = truncate(mdp, {s}, last, PESSIMISTIC)
    members = objective.members_in([q for q in fm.states if q is not fm.frontier])
    if objective.kind == Objective.REACH:
        # First-visit semantics: boundary states absorb, so the target need
        # not be a sink inside the truncation.
        values, _ = optimal_boundary_value(fm, {t: 1.0 for t in members}, True)
        lo = hi = values[s]
        if fm.frontier is not None:
            # The escape-wins upper bound is vacuous whenever escape to
            # infinity has positive probability; refine it with the
            # ring-consistent estimate (an estimate, not a certificate, for
            # arbitrary MDPs; see return_probability).
            escape_wins, _ = optimal_boundary_value(
                fm, {t: 1.0 for t in [*members, fm.frontier]}, True
            )
            hi = min(escape_wins[s], _ring_estimate(fm, values, lo, members))
    else:
        avoid = members
        hi = safety_value(fm, avoid)[s]
        if safe_core is not None:
            # Sound lower bound: reach the declared safe core before the
            # avoid set or the frontier.
            core = {q for q in fm.states if q is not fm.frontier and safe_core(q)}
            boundary = {t: 1.0 for t in core if t not in avoid}
            boundary.update({t: 0.0 for t in avoid})
            if fm.frontier is not None:
                boundary[fm.frontier] = 0.0
            lo = optimal_boundary_value(fm, boundary, True)[0][s]
        elif fm.frontier is not None:
            lo = safety_value(fm, avoid | {fm.frontier})[s]
        else:
            lo = hi
    return ValueInterval(lower=min(lo, hi), upper=max(lo, hi), radius=last)


def _ring_estimate(fm: FiniteMdp, values, lower: float, exclude) -> float:
    """Ring-consistent upper estimate ``L + (1 - L) * max_ring v(t)``: escapes
    through the frontier are assumed to succeed at most as often as the
    likeliest frontier-adjacent state outside ``exclude`` does from inside."""
    if fm.frontier is None:
        return lower
    if lower >= 1.0 - 1e-12:
        return 1.0
    ring = {q for q in fm.states if q != fm.frontier and fm.frontier in successor_states(fm, q)}
    rho = max((values[t] for t in ring if t not in exclude), default=0.0)
    return min(1.0, lower + (1.0 - lower) * rho)


def return_probability(mdp: Mdp, s: StateId, radii: Iterable[int]) -> ReturnAnalysis:
    """Interval for Re(s), the supremum probability of revisiting ``s`` after
    at least one step, reduced to reachability by state splitting: a fresh
    entry copy of ``s`` keeps its transitions while the original becomes the
    target sink.

    The lower end (returns inside the bubble) is sound unconditionally.  A
    truncation-sound upper bound is vacuously 1 whenever escape has positive
    probability, so the upper end is the ring-consistent estimate
    ``L + (1 - L) * max_ring L(t)``: escapes are assumed to return at most as
    likely as the worst frontier-adjacent state does from inside.  This is
    exact in the radius limit when return probabilities vanish with distance
    (drift walks, ladders, acyclic chains); it is an estimate, not a
    certificate, for arbitrary MDPs.
    """
    radii = sorted(set(radii))
    if not radii:
        raise ValueError("empty radius schedule")
    radius = radii[-1]
    fm = truncate(mdp, {s}, radius, PESSIMISTIC)
    entry = StateId(max(q.ordinal for q in fm.states) + 1, f"entry({s.label or s.ordinal})")
    copied = FiniteMdp(fm.states + [entry], {**fm.kinds, entry: fm.kinds[s]},
                       {**fm.transitions, entry: fm.transitions[s]}, check=False)
    split = _absorb(copied, {s})
    values, _ = optimal_boundary_value(split, {s: 1.0}, True)
    lower = values[entry]
    upper = _ring_estimate(fm, values, lower, {s})
    interval = ValueInterval(lower=min(lower, upper), upper=max(lower, upper), radius=radius)
    if interval.upper < 1.0:
        b = 1.0 / (1.0 - interval.upper) ** 2
        r = 1.0 / (1.0 - interval.upper)
    else:
        b = math.inf
        r = math.inf
    return ReturnAnalysis(re=interval, b_bound=b, r_bound=r)


def min_expected_cost_md(
    fm: FiniteMdp,
    cost: CostLabel,
    root: StateId | None = None,
) -> tuple[MdStrategy, dict[StateId, float]]:
    """MD policy minimizing expected total cost (non-negative edge costs).

    A stochastic shortest-path problem towards the zero-cost region: from
    outside its almost-sure attractor every policy has infinite cost, so
    those states get exactly ``math.inf`` and a root there raises
    NoFiniteCostPolicy.  Inside, policy iteration starts from the attractor
    policy, which is proper, and switches a controlled state only on a
    strict improvement, so every policy it evaluates stays proper.
    """
    # The zero-cost region: where cost 0 can be sustained forever.
    free = _stay_region(fm, fm.states, lambda s, t: cost.of(s, t) == 0.0)
    rank = _almost_sure_attractor(fm, free)
    if root is not None:
        if not free:
            raise NoFiniteCostPolicy("no zero-cost absorbing region exists")
        if root not in rank:
            raise NoFiniteCostPolicy(
                f"zero-cost region unreachable almost surely from {root}"
            )

    values = {s: 0.0 if s in free else math.inf for s in fm.states}
    solve = [s for s in fm.states if s in rank and s not in free]
    options = {
        s: [t for t in fm.successors_of(s) if t in rank]
        for s in solve if fm.kind_of(s) is StateKind.CONTROLLED
    }
    policy = {s: min(opts, key=lambda t: (rank[t], t.ordinal)) for s, opts in options.items()}
    # Rounding can make two equal-cost policies each look better than the
    # other; a repeated policy ends the iteration.
    seen = set()
    chain = {s: list(fm.successors_of(s)) for s in solve}
    while True:
        seen.add(tuple(policy.values()))
        chain.update((s, [(t, 1.0)]) for s, t in policy.items())
        values.update(_solve_costs(chain, solve, cost))
        switched = False
        for s, opts in options.items():
            current = cost.of(s, policy[s]) + values[policy[s]]
            best = min(opts, key=lambda t: (cost.of(s, t) + values[t], t.ordinal))
            if cost.of(s, best) + values[best] < current * (1.0 - IMPROVE_TOL):
                policy[s] = best
                switched = True
        if not switched or tuple(policy.values()) in seen:
            break

    choice = {}
    for s in fm.states:
        if fm.kind_of(s) is not StateKind.CONTROLLED:
            continue
        succ = list(fm.successors_of(s))
        if s in free:
            pool = [t for t in succ if t in free and cost.of(s, t) == 0.0] or succ
            choice[s] = min(pool, key=lambda t: t.ordinal)
            continue
        scored = [(cost.of(s, t) + values[t], t) for t in succ]
        best = min(v for v, _ in scored)
        pool = [t for v, t in scored if v <= best + TIE_TOL * min(best, 1.0)]
        choice[s] = min(pool, key=lambda t: t.ordinal)
    sigma = MdStrategy(choice)
    exact = evaluate_md_cost(fm, sigma, cost)
    if root is not None and not math.isfinite(exact[root]):
        raise NoFiniteCostPolicy(f"extracted policy has infinite cost from {root}")
    return sigma, exact


def _almost_sure_attractor(fm: FiniteMdp, target: set[StateId]) -> dict[StateId, int]:
    """States from which some MD strategy reaches ``target`` with probability
    one, mapped to their attractor rank (the usual nested fixpoint: shrink
    the kept set to the states that reach ``target`` while no random state
    can leave it, until it is stable).  A state of rank k > 0 has a successor
    of rank k - 1, and a random one has all its successors inside."""
    succ = {s: successor_states(fm, s) for s in fm.states if s not in target}
    keep = set(fm.states)
    while True:
        rank = _backward_reach(
            succ,
            target,
            lambda s: s in keep and (
                fm.kind_of(s) is StateKind.CONTROLLED or all(t in keep for t in succ[s])
            ),
        )
        if len(rank) == len(keep):
            return rank
        keep = set(rank)


def bounded_total_reward_md(
    spec: BoundedRewardSpec, fm: FiniteMdp
) -> tuple[MdStrategy, dict[StateId, float]]:
    """MD policy maximizing the expected terminal reward collected on first
    entry to the reward frontier of the induced finite MDP; leaving the
    subspace yields 0."""
    exit_sink = StateId(max(s.ordinal for s in fm.states) + 1, "exit")
    induced = _absorb(_restrict(fm, spec.subspace, exit_sink), spec.terminal_rewards)
    boundary = dict(spec.terminal_rewards)
    if induced.frontier is not None:
        boundary[exit_sink] = 0.0
    values, sigma = optimal_boundary_value(induced, boundary, True)
    values.pop(exit_sink, None)
    # The exit sink exists only inside the induced MDP; a choice pointing at
    # it means "leave the subspace" and must not escape as an explicit entry
    # (its ordinal aliases arbitrary host states).
    sigma = MdStrategy({s: t for s, t in sigma.choice.items() if t != exit_sink})
    return sigma, values


# ---------------------------------------------------------------------------
# Brute-force oracle (kept independent of the solvers above)


@dataclass
class OracleResult:
    values: dict[StateId, float]
    policy: MdStrategy


def md_policy_oracle(
    fm: FiniteMdp,
    objective: Objective | None = None,
    cost: CostLabel | None = None,
    boundary: Mapping[StateId, float] | None = None,
    max_controlled: int = 10,
    max_branching: int = 4,
) -> OracleResult:
    """Enumerate every MD policy and evaluate each with a self-contained
    linear absorption solve; returns the per-state optimum and a witnessing
    policy (the one with the best state sum)."""
    controlled = fm.controlled_states()
    if len(controlled) > max_controlled:
        raise TooLarge(f"{len(controlled)} controlled states > cap {max_controlled}")
    options = []
    for s in controlled:
        succ = list(fm.successors_of(s))
        if len(succ) > max_branching:
            raise TooLarge(f"branching {len(succ)} at {s} > cap {max_branching}")
        options.append(succ)

    minimize = cost is not None
    best: dict[StateId, float] = {}
    best_policy = None
    best_sum = None
    for combo in itertools.product(*options) if options else [()]:
        policy = MdStrategy(dict(zip(controlled, combo)))
        vals = _oracle_evaluate(fm, policy, objective, cost, boundary)
        total = sum(v for v in vals.values() if math.isfinite(v))
        n_inf = sum(1 for v in vals.values() if not math.isfinite(v))
        key = (n_inf, total) if minimize else (-total,)
        if best_sum is None or key < best_sum:
            best_sum = key
            best_policy = policy
        for s, v in vals.items():
            if s not in best:
                best[s] = v
            else:
                best[s] = min(best[s], v) if minimize else max(best[s], v)
    return OracleResult(values=best, policy=best_policy)


def _oracle_evaluate(fm, policy, objective, cost, boundary) -> dict[StateId, float]:
    # Independent evaluation path: build the chain, do plain linear algebra.
    succ: dict[StateId, list[tuple[StateId, float]]] = {}
    for s in fm.states:
        if fm.kind_of(s) is StateKind.CONTROLLED:
            succ[s] = [(policy.successor(fm, s), 1.0)]
        else:
            succ[s] = list(fm.successors_of(s))

    if cost is not None:
        return _oracle_cost(fm, succ, cost)

    if objective is not None and objective.kind == Objective.SAFETY:
        avoid = set(objective.states or ())
        for s in avoid:
            succ[s] = [(s, 1.0)]
        reach = _oracle_absorption(fm, succ, {t: 1.0 for t in avoid})
        return {s: 1.0 - reach[s] for s in fm.states}

    if objective is not None and objective.kind == Objective.REACH:
        fixed = {t: 1.0 for t in (objective.states or ())}
    elif boundary is not None:
        fixed = dict(boundary)
    else:
        raise ValueError("oracle needs an objective, a cost label, or a boundary")
    for t in fixed:
        succ[t] = [(t, 1.0)]
    return _oracle_absorption(fm, succ, fixed)


def _oracle_absorption(fm, succ, fixed) -> dict[StateId, float]:
    reach_ok = set(fixed)
    changed = True
    while changed:
        changed = False
        for s in fm.states:
            if s in reach_ok:
                continue
            if any(t in reach_ok for t, p in succ[s] if p > 0):
                reach_ok.add(s)
                changed = True
    values = {s: 0.0 for s in fm.states}
    values.update(fixed)
    solve = [s for s in fm.states if s in reach_ok and s not in fixed]
    if solve:
        idx = {s: i for i, s in enumerate(solve)}
        a = np.eye(len(solve))
        b = np.zeros(len(solve))
        for s in solve:
            for t, p in succ[s]:
                if t in fixed:
                    b[idx[s]] += p * fixed[t]
                elif t in idx:
                    a[idx[s], idx[t]] -= p
        x = np.linalg.solve(a, b)
        for s, v in zip(solve, x):
            values[s] = float(v)
    return values


def _oracle_cost(fm, succ, cost) -> dict[StateId, float]:
    # States that can sustain zero cost forever evaluate to 0; states that can
    # positively reach a positive-cost cycle diverge.
    free = set(fm.states)
    changed = True
    while changed:
        changed = False
        for s in list(free):
            if not all(t in free and cost.of(s, t) == 0.0 for t, p in succ[s]):
                free.discard(s)
                changed = True
    # A state diverges iff the chain fails to be absorbed into the free
    # region almost surely: the remaining recurrent behavior pays a positive
    # cost infinitely often.
    absorb = _oracle_absorption(fm, {s: ([(s, 1.0)] if s in free else succ[s]) for s in fm.states},
                                {t: 1.0 for t in free}) if free else {s: 0.0 for s in fm.states}
    values: dict[StateId, float] = {}
    for s in fm.states:
        if s in free:
            values[s] = 0.0
        elif absorb[s] < 1.0 - 1e-9:
            values[s] = math.inf
        else:
            values[s] = None  # solved below
    solve = [s for s in fm.states if values[s] is None]
    if solve:
        idx = {s: i for i, s in enumerate(solve)}
        a = np.eye(len(solve))
        b = np.zeros(len(solve))
        for s in solve:
            for t, p in succ[s]:
                b[idx[s]] += p * cost.of(s, t)
                if t in idx:
                    a[idx[s], idx[t]] -= p
        x = np.linalg.solve(a, b)
        for s, v in zip(solve, x):
            values[s] = float(v)
    return values
