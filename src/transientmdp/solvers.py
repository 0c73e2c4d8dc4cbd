"""Exact value computation on finite MDPs and certified bounds on truncations.

Max-reach with a boundary, min-reach (for Safety) and minimum expected total
cost all run through one Howard policy-iteration kernel, ``_howard``
(Howard, *Dynamic Programming and Markov Processes*, 1960; Puterman,
*Markov Decision Processes*, 1994, ch. 7):

* qualitative graph precomputation fixes the states of value 0 for min-reach
  (where the boundary is surely avoidable) and of value ``math.inf`` for cost
  (outside the almost-sure attractor of the zero-cost region; there is no
  sweep cap and no 1e15 cut-off);
* a start policy: for reachability the choices that the boundary values
  alone give, for cost the attractor policy, which is proper;
* rounds of exact evaluation by linear solve, where a state switches only
  when its best edge beats its current one by more than ``IMPROVE_TOL``
  relative; a policy that comes back raises ``PolicyIterationStalled``;
* one extraction of the MD strategy from the final exact values, with one
  tie rule: the edges within ``TIE_TOL`` relative of the best, then the
  successor nearest to the boundary (for cost, the zero-cost region) by
  breadth-first distance, then the smallest ordinal.

So the strategy depends only on the final values, not on the start policy or
the rounds that led there.  ``md_policy_oracle`` is the independent
cross-check: it enumerates every MD policy over index rows it reads once per
call, and evaluates each by its own can-reach fixpoint and dense solve,
calling none of the routines above.

The solvers run on the compressed sparse rows of a ``FiniteMdp`` and
translate StateIds only on entry and exit.  Every policy evaluation is
assembled straight from its compressed sparse rows as sparse triplets and
solved by ``_linsolve``: dense LAPACK below ``SPARSE_MIN_ROWS`` (200) rows,
sparse LU at or above it, with scipy imported on first use.  Below the
cutoff the system is assembled on lists; from it on, on the numpy arrays
that ``FiniteMdp.arrays`` caches, where the backward reach (by scipy's
breadth-first search) and the clamp of an absorption solve also run from
that many states on.  Both assemblies give the same triplets and right-hand
side, bit for bit.  The sparse path may differ from a dense solve in the
last bits.  A system singular to working precision raises
``SingularSystem``.  The truncation bounds (``interval_value``,
``return_probability``) read the frontier as the last row and keep their
values as index lists.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .core import (
    FiniteMdp,
    MdStrategy,
    Mdp,
    Objective,
    StateId,
    StateKind,
    _backward_reach,
    _extended,
    _restrict,
    _stay_region,
    mint,
    require_sink,
    truncate,
)
from .errors import BadParameter, NoFiniteCostPolicy, PolicyIterationStalled, SingularSystem, TooLarge

TIE_TOL = 1e-12
# Relative margin by which a policy-iteration switch must improve, so that
# rounding in the linear solve cannot pass for an improvement.
IMPROVE_TOL = 1e-12


@dataclass
class ValueMap:
    """State values for one objective, from exact linear solves."""

    values: dict[StateId, float]
    objective: Objective | str

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
            raise BadParameter(f"inverted interval [{self.lower}, {self.upper}]")

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
                raise BadParameter(f"cost {c} on {edge} must be finite and >= 0")

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
                raise BadParameter(f"reward {r} at {s} outside [0,1]")
            if s not in self.subspace:
                raise BadParameter(f"frontier state {s} outside the subspace")


# ---------------------------------------------------------------------------
# Linear solves

# Systems of at least this many rows are solved by sparse LU, on triplets
# assembled from numpy arrays.  A dense solve holds 16n² bytes (the matrix
# and LAPACK's copy of it) and takes O(n³) time; the sparse path pays about
# 40 MB of peak resident memory and 0.3 s once to import scipy, so one-off
# CLI runs that meet a system of 200 to 511 rows now pay that import too.
# On the countable_bounds systems (one BLAS thread, 2-core x86 host) sparse
# LU takes 0.16 ms against 0.42 ms dense at 201 rows, 0.17 ms against
# 1.09 ms at 301 rows, 0.22 ms against 3.96 ms at 499 rows and 0.29 ms
# against 16.8 ms at 801 rows.  Array assembly is slower than list
# assembly on small systems (0.055 ms against 0.045 ms at 118 rows) and far
# faster on large ones (0.37 ms against 1.75 ms at 3,200 rows), so it
# starts at the same cutoff.  The cutoff stays above the systems of the
# finite_solvers and mc_synthesis benchmarks (at most 118 and 99 rows, from
# truncations of at most 120 and 141 states, on seeds 1, 11 and 12), so
# that they never import scipy.
SPARSE_MIN_ROWS = 200


def _linsolve(n: int, rows, cols, vals, b) -> np.ndarray:
    """Solution of A x = b for the n x n matrix A that is the sum of the COO
    triplets (rows[k], cols[k], vals[k]), lists or arrays; entries at one
    position add up in triplet order.  Dense LAPACK below SPARSE_MIN_ROWS,
    sparse LU from there on, with scipy imported on first use.  The sparse
    matrix is built from intp / float64 arrays of the triplets, converted
    once; given Python lists, scipy converts them several times over.  A
    singular A raises SingularSystem."""
    b = np.asarray(b, dtype=float)
    if n < SPARSE_MIN_ROWS:
        a = np.zeros((n, n))
        np.add.at(a, (rows, cols), vals)
        try:
            # A module attribute looked up per call, so wrappers see it.
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"{n}-row system: {exc}") from exc
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    ij = (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp))
    a = csc_matrix((np.asarray(vals, dtype=np.float64), ij), shape=(n, n))
    try:
        return splu(a).solve(b)
    except RuntimeError as exc:
        raise SingularSystem(f"{n}-row system: {exc}") from exc


def _chain_values(
    fm: FiniteMdp,
    solve: list[int],
    policy: Mapping[int, tuple[int | None, float]],
    fixed: Mapping[int, float],
    cost: list[float] | None = None,
) -> np.ndarray:
    """Expected total reward on the states ``solve`` (indices, ascending) of
    the Markov chain in which controlled state i moves to ``policy[i]`` =
    (successor index or None, edge cost) and random state i follows its row
    of ``fm``, the edge at position k of ``fm.succ`` costing ``cost[k]`` (0
    when ``cost`` is None).  An edge pays its cost plus, when it enters a
    ``fixed`` state, that state's value.  So x = b + Q x, where Q keeps the
    edges between ``solve`` states and b sums p * reward over all edges; an
    edge leaving ``solve`` ends the run, and the chain must leave ``solve``
    almost surely.  The system is assembled on lists below
    ``SPARSE_MIN_ROWS`` rows and on arrays from there on; both give the
    same triplets and ``b``, bit for bit."""
    assemble = _chain_system if len(solve) < SPARSE_MIN_ROWS else _chain_arrays
    return _linsolve(len(solve), *assemble(fm, solve, policy, fixed, cost))


def _expected_visits(
    chain: FiniteMdp, start: int, fixed: Mapping[int, float]
) -> tuple[dict[int, float], float]:
    """Expected visits from ``start`` to each state (index) of the Markov
    chain ``chain``, all of whose rows are random, that it reaches before
    the absorbing ``fixed`` states, and the expected value, by ``fixed``, of
    the state it is absorbed in.  The visits r are the ``start`` row of the
    fundamental matrix N = (I - Q)^-1 (Kemeny & Snell, *Finite Markov
    Chains*, 1960): the solve (I - Q)^T r = e_start, the transpose of
    ``_chain_system``'s triplets over the reached states in breadth-first
    order.  The value is r . b, summed in that order.  The chain must reach
    ``fixed`` almost surely from every reached state."""
    order, seen = [start], {start}
    for k in order:
        for j in chain.row(k):
            if j not in seen and j not in fixed:
                seen.add(j)
                order.append(j)
    rows, cols, vals, b = _chain_system(chain, order, {}, fixed)
    e = [1.0] + [0.0] * (len(order) - 1)
    r = _linsolve(len(order), cols, rows, vals, e).tolist()
    value = 0.0
    for rk, bk in zip(r, b):
        value += rk * bk
    return dict(zip(order, r)), value


def _chain_system(fm: FiniteMdp, solve, policy, fixed, cost=None) -> tuple[list, list, list, list]:
    """The COO triplets (rows, cols, vals) and right-hand side ``b`` of
    ``_chain_values``' system, on lists, for the states ``solve`` in any
    order: unknown k is state ``solve[k]``.  The triplets are the diagonal,
    then the edges row by row in CSR order; ``b`` sums a random row's terms
    in edge order, the cost before the fixed value on each edge."""
    indptr, succ, prob, controlled = fm.indptr, fm.succ, fm.prob, fm.controlled
    m = len(solve)
    pos = dict(zip(solve, range(m)))
    rows, cols, vals = list(range(m)), list(range(m)), [1.0] * m
    b = [0.0] * m
    for k, i in enumerate(solve):
        if controlled[i]:
            t, c = policy[i]
            b[k] = c + fixed.get(t, 0.0)
            j = pos.get(t)
            if j is not None:
                rows.append(k)
                cols.append(j)
                vals.append(-1.0)
            continue
        acc = 0.0
        for e in range(indptr[i], indptr[i + 1]):
            t, p = succ[e], prob[e]
            if cost is not None:
                acc += p * cost[e]
            if t in fixed:
                acc += p * fixed[t]
            j = pos.get(t)
            if j is not None:
                rows.append(k)
                cols.append(j)
                vals.append(-p)
        b[k] = acc
    return rows, cols, vals, b


def _chain_arrays(fm: FiniteMdp, solve, policy, fixed, cost=None) -> tuple[np.ndarray, ...]:
    """``_chain_system`` on the numpy arrays of ``fm.arrays()``: the same
    triplets in the same order and the same ``b``.  Each edge of a solved
    row is one entry, a controlled row's pick standing in for its edges;
    ``b`` of the random rows is ``np.bincount`` over their edges' terms in
    edge order, cost then fixed value, which adds them in the order of the
    list assembly.  Edges into no fixed state add a fixed term of exactly
    0.0, which changes no sum, since one that starts at 0.0 never reaches
    -0.0."""
    arrays = fm.arrays()
    n, m = len(fm.states), len(solve)
    sel = np.asarray(solve, dtype=np.intp)
    is_controlled = arrays.controlled[sel]
    lo, hi = arrays.indptr[sel], arrays.indptr[sel + 1]
    # Entries per solved row, and the row and the CSR position of each.
    count = np.where(is_controlled, 1, hi - lo)
    first = np.cumsum(count) - count
    row = np.repeat(np.arange(m), count)
    on_pick = np.repeat(is_controlled, count)
    on_edge = ~on_pick
    edge = (np.repeat(lo - first, count) + np.arange(len(row)))[on_edge]
    # A pick outside the state space (None) is the extra state n.
    picks = [policy[i] for i in sel[is_controlled].tolist()]
    pick_target = np.array([n if t is None else t for t, _ in picks], dtype=np.intp)
    pick_cost = np.array([c for _, c in picks], dtype=np.float64)
    target = np.empty(len(row), dtype=np.intp)
    target[on_edge] = arrays.succ[edge]
    target[on_pick] = pick_target
    p = np.empty(len(row))
    p[on_edge] = arrays.prob[edge]
    p[on_pick] = 1.0
    # Positions in the system, -1 outside ``solve``; values of the fixed
    # states, 0.0 elsewhere.
    pos = np.full(n + 1, -1, dtype=np.intp)
    pos[sel] = np.arange(m)
    value = np.zeros(n + 1)
    if fixed:
        value[np.fromiter(fixed, np.intp, len(fixed))] = list(fixed.values())
    col = pos[target]
    inside = col >= 0
    diagonal = np.arange(m)
    rows = np.concatenate([diagonal, row[inside]])
    cols = np.concatenate([diagonal, col[inside]])
    vals = np.concatenate([np.ones(m), -p[inside]])
    edge_target, edge_p = target[on_edge], p[on_edge]
    terms = [edge_p * value[edge_target]]
    if cost is not None:
        terms.insert(0, edge_p * np.asarray(cost, dtype=np.float64)[edge])
    # Without random edges, bincount returns integers.
    b = np.bincount(np.repeat(row[on_edge], len(terms)),
                    np.stack(terms, axis=1).ravel(), minlength=m).astype(np.float64)
    b[is_controlled] = pick_cost + value[pick_target]
    return rows, cols, vals, b


# ---------------------------------------------------------------------------
# Exact policy evaluation
#
# The solvers work on the rows of a FiniteMdp: states are indices, a policy
# maps each controlled state to a successor index, and values are lists.
# StateIds are translated only on entry and exit.


def _fixed(fm: FiniteMdp, values: Mapping[StateId, float]) -> dict[int, float]:
    """``values`` by index, restricted to the states of ``fm``."""
    index = fm.index
    return {index[s]: v for s, v in values.items() if s in index}


def _absorption(
    fm: FiniteMdp, policy: Mapping[int, tuple[int | None, float]], fixed: Mapping[int, float]
) -> list[float]:
    """Exact absorption values, by index, of the Markov chain in which
    controlled state i outside ``fixed`` moves to ``policy[i]`` = (successor
    index or None, 0.0).  The ``fixed`` states absorb with their values, and
    their rows are never read; states that cannot reach them get the
    least-fixed-point value 0.  From ``SPARSE_MIN_ROWS`` states on, the
    reach and the clamp run on arrays, with the same results."""
    if len(fm.states) >= SPARSE_MIN_ROWS:
        return _absorption_arrays(fm, policy, fixed)
    picked: dict[int | None, list[int]] = {}
    for i, (t, _) in policy.items():
        picked.setdefault(t, []).append(i)
    reach = _backward_reach(fixed, preds=(fm.random_preds(), picked))
    n = len(fm.states)
    x = [0.0] * n
    for i, v in fixed.items():
        x[i] = v
    solve = [i for i in range(n) if i in reach and i not in fixed]
    if solve:
        top = max(fixed.values(), default=1.0)
        for i, v in zip(solve, _chain_values(fm, solve, policy, fixed)):
            x[i] = float(min(max(v, 0.0), top))
    return x


def _absorption_arrays(fm: FiniteMdp, policy, fixed) -> list[float]:
    """``_absorption`` on arrays.  The clamp ``min(max(v, 0), top)`` keeps
    Python's rule, which returns the first argument unless the second is
    strictly greater, so NaN and -0.0 come out as they do on lists."""
    reach = _reaching(fm, policy, fixed)
    reach[list(fixed)] = False
    solve = np.flatnonzero(reach).tolist()
    x = np.zeros(len(fm.states))
    if solve:
        top = max(fixed.values(), default=1.0)
        v = _chain_values(fm, solve, policy, fixed)
        v = np.where(0.0 > v, 0.0, v)
        x[solve] = np.where(top < v, top, v)
    x = x.tolist()
    for i, v in fixed.items():
        x[i] = v
    return x


def _reaching(fm: FiniteMdp, policy, fixed) -> np.ndarray:
    """Which states of ``fm`` (bool by index) reach the ``fixed`` states
    along positive random edges and the picks of ``policy``: the backward
    reach of ``_absorption``, as scipy's breadth-first search of
    ``_backward_graph``."""
    from scipy.sparse.csgraph import breadth_first_order

    n = len(fm.states)
    pickers = np.fromiter(policy, np.intp, len(policy))
    # Node n stands for a pick outside the state space.
    picks = np.fromiter((n if t is None else t for t, _ in policy.values()), np.intp, len(policy))
    graph = _backward_graph(fm, pickers, picks, fixed)
    hit = np.zeros(n + 2, dtype=bool)
    hit[breadth_first_order(graph, n + 1, return_predecessors=False)] = True
    return hit[:n]


def _backward_graph(fm: FiniteMdp, sources: np.ndarray, targets: np.ndarray, seeds):
    """The reversed graph, as a scipy CSR matrix, of the positive random
    edges of ``fm`` and of the edges ``sources[k] -> targets[k]``, plus a
    root, node n + 1, with an edge to every state of ``seeds``.  Node n is
    free for a target outside the state space."""
    from scipy.sparse import csr_matrix

    n = len(fm.states)
    arrays = fm.arrays()
    seeds = np.fromiter(seeds, np.intp, len(seeds))
    heads = np.concatenate([arrays.random_target, targets, np.full(len(seeds), n + 1)])
    tails = np.concatenate([arrays.random_source, sources, seeds])
    # The rows built directly, in the int32 indices the searches read: on
    # these graphs scipy's conversion from triplets takes longer than the
    # search.
    indptr = np.zeros(n + 3, dtype=np.int32)
    np.cumsum(np.bincount(heads, minlength=n + 2), out=indptr[1:])
    tails = tails[np.argsort(heads, kind="stable")].astype(np.int32)
    return csr_matrix((np.ones(len(tails)), tails, indptr), shape=(n + 2, n + 2))


def evaluate_md(
    fm: FiniteMdp,
    sigma: MdStrategy,
    boundary: Mapping[StateId, float],
) -> dict[StateId, float]:
    """Exact absorption values of the Markov chain induced by ``sigma``.

    Boundary states are treated as absorbing with the given values; states
    that cannot reach the boundary get the least-fixed-point value 0.
    """
    fixed = _fixed(fm, boundary)
    # Boundary rows are never read, so ``sigma`` is asked only outside the
    # boundary.  A pick outside the state space (index None) counts as value 0.
    policy = {
        i: (fm.index.get(sigma.successor(fm, s)), 0.0)
        for i, s in enumerate(fm.states) if fm.controlled[i] and i not in fixed
    }
    values = dict(zip(fm.states, _absorption(fm, policy, fixed)))
    values.update(boundary)
    return values


def evaluate_md_reach(fm: FiniteMdp, sigma: MdStrategy, target: Iterable[StateId]) -> dict:
    return evaluate_md(fm, sigma, {t: 1.0 for t in target})


def evaluate_md_safety(fm: FiniteMdp, sigma: MdStrategy, avoid: Iterable[StateId]) -> dict:
    """Exact safety values under ``sigma``: 1 - P(F avoid) on the chain with
    ``avoid`` made absorbing (boundary rows are never read, so no absorbing
    copy is made)."""
    reach = evaluate_md(fm, sigma, {t: 1.0 for t in avoid})
    return {s: 1.0 - reach[s] for s in fm.states}


def evaluate_md_cost(
    fm: FiniteMdp, sigma: MdStrategy, cost: CostLabel
) -> dict[StateId, float]:
    """Exact expected total cost under ``sigma``; math.inf where some
    positive-cost recurrent class is reachable."""
    states, index, indptr, succ = fm.states, fm.index, fm.indptr, fm.succ
    n = len(states)
    policy, picked = {}, {}
    ecost = [0.0] * len(succ)
    free_edge = [False] * len(succ)
    for i, s in enumerate(states):
        lo, hi = indptr[i], indptr[i + 1]
        if fm.controlled[i]:
            t = sigma.successor(fm, s)
            j, c = index.get(t), cost.of(s, t)
            policy[i] = (j, c)
            picked.setdefault(j, []).append(i)
            for k in range(lo, hi):
                free_edge[k] = succ[k] == j and c == 0.0
        else:
            for k in range(lo, hi):
                ecost[k] = c = cost.of(s, states[succ[k]])
                free_edge[k] = c == 0.0
    preds = (fm.random_preds(), picked)
    # Runs that stay in ``free`` pay nothing; runs that can never reach it
    # end in a positive-cost recurrent class, and so does, with positive
    # probability, every run that can reach such a state.
    free = _stay_region(fm, range(n), free_edge)
    reach_free = _backward_reach(free, preds=preds)
    infinite = _backward_reach([i for i in range(n) if i not in reach_free], preds=preds)
    values = [math.inf if i in infinite else 0.0 for i in range(n)]
    solve = [i for i in range(n) if i not in infinite and i not in free]
    if solve:
        for i, v in zip(solve, _chain_values(fm, solve, policy, {}, ecost)):
            values[i] = float(max(v, 0.0))
    return dict(zip(states, values))


# ---------------------------------------------------------------------------
# Policy iteration
#
# A policy maps a controlled state (index) to one of its options, an edge
# (successor index, edge cost); the value of an edge is its cost plus the
# value of its successor.  Reachability has cost 0 on every edge.


def _howard(fm: FiniteMdp, options, policy, evaluate, seeds, maximize: bool):
    """Howard's policy iteration from the MD ``policy`` (``_improve``), then
    one extraction: the final values and the MD strategy of the choices
    ``_extract`` makes from them.  So the strategy depends only on the
    final values."""
    x = _improve(options, policy, evaluate, maximize)
    states = fm.states
    choice = _extract(fm, x, options, seeds, maximize)
    return x, MdStrategy({states[i]: states[t] for i, (t, _) in choice.items()})


def _improve(options, policy, evaluate, maximize: bool) -> list[float]:
    """The exact values, by index, of the policy that Howard's rounds reach
    from the MD ``policy``, which they edit in place.

    ``evaluate(policy)`` returns the exact values of ``policy`` by index.
    Each round, a state of ``policy`` switches to its best option only when
    that improves on its current edge by more than IMPROVE_TOL relative, so
    rounding cannot pass for an improvement.  The rounds stop when no state
    switches.  A policy that comes back means rounding keeps it from
    settling, and raises PolicyIterationStalled.
    """
    sign = -1.0 if maximize else 1.0
    seen = set()
    while True:
        key = tuple(policy.values())
        if key in seen:
            raise PolicyIterationStalled(
                f"policy iteration revisited a policy after {len(seen)} rounds"
            )
        seen.add(key)
        x = evaluate(policy)
        switched = False
        for i, (t, c) in policy.items():
            current = sign * (c + x[t])
            best, top = None, current
            for edge in options[i]:
                v = sign * (edge[1] + x[edge[0]])
                if v < top:
                    best, top = edge, v
            if top < current - IMPROVE_TOL * abs(current):
                policy[i] = best
                switched = True
        if not switched:
            return x


def _extract(fm: FiniteMdp, x, options, seeds, maximize: bool) -> dict:
    """The MD choice of every state of ``options`` from the values ``x``.

    The candidates of a state are its options whose value lies within
    TIE_TOL, relative, of the best.  Among them it takes the one whose
    successor is nearest to ``seeds`` by BFS through positive random edges
    and candidate edges, then the smallest ordinal.  Progress in distance
    keeps tied choices from closing a cycle that never reaches the seeds."""
    if not options:
        return {}
    sign = -1.0 if maximize else 1.0
    pools = {}
    for i, opts in options.items():
        values = [sign * (c + x[t]) for t, c in opts]
        best = min(values)
        bar = best + TIE_TOL * abs(best)
        pools[i] = [edge for v, edge in zip(values, opts) if v <= bar]
    candidates = {}
    for i, pool in pools.items():
        for t, _ in pool:
            candidates.setdefault(t, []).append(i)
    dist = _backward_reach(seeds, preds=(fm.random_preds(), candidates))
    states = fm.states
    return {
        i: pool[0] if len(pool) == 1 else
        min(pool, key=lambda edge: (dist.get(edge[0], math.inf), states[edge[0]].ordinal))
        for i, pool in pools.items()
    }


# ---------------------------------------------------------------------------
# Optimal values with boundary conditions


def optimal_boundary_value(
    fm: FiniteMdp,
    boundary: Mapping[StateId, float],
    maximize: bool = True,
) -> tuple[dict[StateId, float], MdStrategy]:
    """Least fixed point of the Bellman operator with fixed boundary values,
    plus an MD strategy attaining it.  The rows of boundary states are never
    read, so they may be anything."""
    fixed = _fixed(fm, boundary)
    options, policy, evaluate = _boundary_problem(fm, fixed, maximize)
    x, sigma = _howard(fm, options, policy, evaluate, fixed, maximize)
    return dict(zip(fm.states, x)), sigma


def _boundary_values(fm: FiniteMdp, fixed: Mapping[int, float], maximize: bool) -> list[float]:
    """The values of ``optimal_boundary_value`` by index, for the boundary
    ``fixed`` (index -> value), without its strategy: the bound queries
    read a few values and no choice."""
    options, policy, evaluate = _boundary_problem(fm, fixed, maximize)
    return _improve(options, policy, evaluate, maximize)


def _boundary_problem(fm: FiniteMdp, fixed: Mapping[int, float], maximize: bool):
    """Max- or min-reach with the boundary ``fixed`` (index -> value) as
    input to ``_howard``: the options of every controlled state outside the
    boundary, the start policy and the exact evaluation.  The start takes
    the choices of the boundary values alone: toward the boundary when
    maximizing, away from it when minimizing."""
    n, controlled = len(fm.states), fm.controlled
    # For min-reach, a state from which the boundary is surely avoidable
    # (the largest such closed set) must keep to such states: value 0.
    zero = set() if maximize else _stay_region(fm, [i for i in range(n) if i not in fixed])
    options = {
        i: [(t, 0.0) for t in fm.row(i) if i not in zero or t in zero]
        for i in range(n) if controlled[i] and i not in fixed
    }
    start = _extract(fm, [fixed.get(i, 0.0) for i in range(n)], options, fixed, maximize)

    def evaluate(policy):
        return _absorption(fm, policy, fixed)

    return options, start, evaluate


# ---------------------------------------------------------------------------
# Public solver operations


def reach_value(fm: FiniteMdp, target: Iterable[StateId]) -> ValueMap:
    """Least fixed point of the max-Bellman operator for Reach(target);
    target must be a sink."""
    target = frozenset(target)
    require_sink(fm, target)
    values, _ = optimal_boundary_value(fm, {t: 1.0 for t in target}, True)
    return ValueMap(values, Objective.reach(target))


def reach_strategy(fm: FiniteMdp, target: Iterable[StateId]):
    target = frozenset(target)
    require_sink(fm, target)
    values, sigma = optimal_boundary_value(fm, {t: 1.0 for t in target}, True)
    return ValueMap(values, Objective.reach(target)), sigma


def safety_value(fm: FiniteMdp, avoid: Iterable[StateId]) -> ValueMap:
    """Greatest fixed point for Safety(avoid), via the exact complement
    1 - min-reach(avoid) on finite MDPs."""
    values, _ = safety_strategy(fm, avoid)
    return values


def safety_strategy(fm: FiniteMdp, avoid: Iterable[StateId]):
    # Boundary rows are never read, so ``avoid`` need not be made absorbing.
    avoid = frozenset(avoid)
    reach_min, sigma = optimal_boundary_value(fm, {t: 1.0 for t in avoid}, False)
    values = {s: 1.0 - reach_min[s] for s in fm.states}
    return ValueMap(values, Objective.safety(avoid)), sigma


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
        raise BadParameter("interval_value supports Reach and Safety objectives")
    radii = sorted(set(radii))
    if not radii:
        raise BadParameter("empty radius schedule")
    last = radii[-1]
    fm = truncate(mdp, {s}, last)
    # The solves run on indices; the frontier, when there is one, is the
    # last row, ``inner``.
    inner = len(fm.states) - (fm.frontier is not None)
    members = objective.rows_in(fm)
    i = fm.index[s]
    if objective.kind == Objective.REACH:
        # First-visit semantics: boundary states absorb, so the target need
        # not be a sink inside the truncation.
        target = dict.fromkeys(members, 1.0)
        values = _boundary_values(fm, target, True)
        lo = hi = values[i]
        if fm.frontier is not None:
            # The escape-wins upper bound is vacuous whenever escape to
            # infinity has positive probability; refine it with the
            # ring-consistent estimate (an estimate, not a certificate, for
            # arbitrary MDPs; see return_probability).
            escape_wins = _boundary_values(fm, {**target, inner: 1.0}, True)
            hi = min(escape_wins[i], _ring_estimate(fm, values, lo, members))
    else:
        avoid = dict.fromkeys(members, 1.0)
        hi = 1.0 - _boundary_values(fm, avoid, False)[i]
        if safe_core is not None:
            # Sound lower bound: reach the declared safe core before the
            # avoid set or the frontier.
            states = fm.states
            boundary = {j: 1.0 for j in range(inner) if safe_core(states[j]) and j not in avoid}
            boundary.update(dict.fromkeys(avoid, 0.0))
            if fm.frontier is not None:
                boundary[inner] = 0.0
            lo = _boundary_values(fm, boundary, True)[i]
        elif fm.frontier is not None:
            lo = 1.0 - _boundary_values(fm, {**avoid, inner: 1.0}, False)[i]
        else:
            lo = hi
    return ValueInterval(lower=lo, upper=hi, radius=last)


def _ring_estimate(fm: FiniteMdp, values, lower: float, exclude) -> float:
    """Ring-consistent upper estimate ``L + (1 - L) * max_ring v(t)``: escapes
    through the frontier are assumed to succeed at most as often as the
    likeliest frontier-adjacent state outside ``exclude`` does from inside.
    ``values`` and ``exclude`` are by index; the frontier is the last row."""
    if fm.frontier is None:
        return lower
    if lower >= 1.0 - 1e-12:
        return 1.0
    f, indptr = len(fm.states) - 1, fm.indptr
    # The rows holding an edge to the frontier, in one scan of the edges.
    rows = [bisect_right(indptr, k) - 1 for k, t in enumerate(fm.succ) if t == f]
    rho = max((values[i] for i in rows if i != f and i not in exclude), default=0.0)
    return min(1.0, lower + (1.0 - lower) * rho)


def return_probability(mdp: Mdp, s: StateId, radii: Iterable[int]) -> ReturnAnalysis:
    """Interval for Re(s), the supremum probability of revisiting ``s`` after
    at least one step, reduced to reachability by state splitting: a fresh
    entry copy of ``s`` keeps its transitions while the original becomes the
    target.  The entry is one row appended to a copy of the truncation's
    rows; the original needs no absorbing copy, because boundary rows are
    never read.

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
        raise BadParameter("empty radius schedule")
    radius = radii[-1]
    fm = truncate(mdp, {s}, radius)
    # The rows are in ordinal order, the frontier's last, so the last row
    # has the largest ordinal.
    entry = mint("entry", fm.states[-1].ordinal + 1, f"entry({s.label or s.ordinal})")
    i = fm.index[s]
    values = _boundary_values(_extended(fm, entry, s), {i: 1.0}, True)
    lower = values[-1]
    upper = _ring_estimate(fm, values, lower, {i})
    interval = ValueInterval(lower=lower, upper=upper, radius=radius)
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
    strict improvement, so every policy it evaluates stays proper.  The
    returned values are the exact evaluation of the extracted strategy.
    """
    options, policy, evaluate, free, rank = _cost_problem(fm, cost)
    if root is not None:
        if not free:
            raise NoFiniteCostPolicy("no zero-cost absorbing region exists")
        if fm.index.get(root) not in rank:
            raise NoFiniteCostPolicy(
                f"zero-cost region unreachable almost surely from {root}"
            )
    _, sigma = _howard(fm, options, policy, evaluate, free, False)
    exact = evaluate_md_cost(fm, sigma, cost)
    if root is not None and not math.isfinite(exact[root]):
        raise NoFiniteCostPolicy(f"extracted policy has infinite cost from {root}")
    return sigma, exact


def _cost_problem(fm: FiniteMdp, cost: CostLabel):
    """Minimum expected total cost as input to ``_howard``: the options of
    every controlled state, the start policy and the exact evaluation, plus
    the zero-cost region and its almost-sure attractor with ranks."""
    states, controlled = fm.states, fm.controlled
    indptr, succ = fm.indptr, fm.succ
    n = len(states)
    ecost = [
        cost.of(states[i], states[succ[k]])
        for i in range(n) for k in range(indptr[i], indptr[i + 1])
    ]
    # The zero-cost region: where cost 0 can be sustained forever.
    free = _stay_region(fm, range(n), [c == 0.0 for c in ecost])
    rank = _almost_sure_attractor(fm, free)
    options = {
        i: [(succ[k], ecost[k]) for k in range(indptr[i], indptr[i + 1])]
        for i in range(n) if controlled[i]
    }
    solve = [i for i in range(n) if i in rank and i not in free]
    # A successor of lower rank in the attractor, for every controlled state
    # to solve: a proper policy.
    policy = {
        i: min((e for e in options[i] if e[0] in rank),
               key=lambda e: (rank[e[0]], states[e[0]].ordinal))
        for i in solve if controlled[i]
    }

    def evaluate(policy):
        x = [0.0 if i in free else math.inf for i in range(n)]
        if solve:
            for i, v in zip(solve, _chain_values(fm, solve, policy, {}, ecost)):
                x[i] = float(max(v, 0.0))
        return x

    return options, policy, evaluate, free, rank


def _almost_sure_attractor(fm: FiniteMdp, target: set[int]) -> dict[int, int]:
    """States (indices of ``fm``) from which some MD strategy reaches
    ``target`` with probability one, mapped to their attractor rank (the
    usual nested fixpoint: shrink the kept set to the states that reach
    ``target`` while no random state can leave it, until it is stable).  A
    state of rank k > 0 has a successor of rank k - 1, and a random one has
    all its successors inside."""
    controlled, row = fm.controlled, fm.row
    preds: dict[int, list[int]] = {}
    for i in range(len(fm.states)):
        if i not in target:
            for t in row(i):
                preds.setdefault(t, []).append(i)
    keep = set(range(len(fm.states)))
    while True:
        rank = _backward_reach(
            target,
            lambda i: i in keep and (controlled[i] or all(t in keep for t in row(i))),
            (preds,),
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
    exit_sink = mint("exit", max(s.ordinal for s in fm.states) + 1)
    # The reward frontier is the boundary, whose rows are never read.
    induced = _restrict(fm, spec.subspace, exit_sink)
    boundary = dict(spec.terminal_rewards)
    if induced.frontier is not None:
        boundary[exit_sink] = 0.0
    values, sigma = optimal_boundary_value(induced, boundary, True)
    values.pop(exit_sink, None)
    # The exit sink exists only inside the induced MDP; a choice pointing at
    # it means "leave the subspace" and must not escape as an explicit entry.
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
    policy: the first, in ``itertools.product`` order, with the best state
    sum (for cost, the fewest infinite values, then the least finite sum).

    Each state's ``kind_of`` and ``successors_of`` are read once per call
    into rows of indices: every random state's ``(index, p)`` row, every
    controlled state's options and, for cost, every edge's cost.  A policy
    then only swaps in the controlled rows, runs its can-reach fixpoint on
    index lists and solves one dense system with ``np.linalg.solve``.  No
    solver routine above is called."""
    states = fm.states
    index = {s: i for i, s in enumerate(states)}
    kinds = [fm.kind_of(s) for s in states]
    controlled = [i for i, kind in enumerate(kinds) if kind is StateKind.CONTROLLED]
    if len(controlled) > max_controlled:
        raise TooLarge(f"{len(controlled)} controlled states > cap {max_controlled}")
    # rows[i] = [(successor index, p)], costs[i] = the cost of each edge;
    # a controlled state's row is its pick under the current policy.
    rows: list = [None] * len(states)
    costs: list = [None] * len(states)
    options = []
    for i, s in enumerate(states):
        out = list(fm.successors_of(s))
        if kinds[i] is not StateKind.CONTROLLED:
            rows[i] = [(index[t], p) for t, p in out]
            if cost is not None:
                costs[i] = [cost.of(s, t) for t, _ in out]
            continue
        if len(out) > max_branching:
            raise TooLarge(f"branching {len(out)} at {s} > cap {max_branching}")
        options.append([
            ([(index[t], 1.0)], [cost.of(s, t)] if cost is not None else None)
            for t in out
        ])

    keys = list(states)
    minimize = cost is not None
    if minimize:
        def evaluate():
            return _oracle_cost(rows, costs)
    else:
        safety = objective is not None and objective.kind == Objective.SAFETY
        if safety:
            fixed = {t: 1.0 for t in set(objective.states or ())}
        elif objective is not None and objective.kind == Objective.REACH:
            fixed = {t: 1.0 for t in (objective.states or ())}
        elif boundary is not None:
            fixed = dict(boundary)
        else:
            raise BadParameter("oracle needs an objective, a cost label, or a boundary")
        inside = {index[t]: v for t, v in fixed.items() if t in index}
        # Boundary states outside ``fm`` keep their values in the result.
        extra = [(t, v) for t, v in fixed.items() if t not in index]
        if not safety:
            keys += [t for t, _ in extra]

        def evaluate():
            values = _oracle_absorption(rows, inside)
            if safety:
                return [1.0 - v for v in values]
            return values + [v for _, v in extra]

    best = best_combo = best_key = None
    for combo in itertools.product(*options):
        for i, (row, row_costs) in zip(controlled, combo):
            rows[i], costs[i] = row, row_costs
        vals = evaluate()
        total = sum(v for v in vals if math.isfinite(v))
        n_inf = sum(1 for v in vals if not math.isfinite(v))
        key = (n_inf, total) if minimize else (-total,)
        if best_key is None or key < best_key:
            best_key = key
            best_combo = combo
        if best is None:
            best = vals
        elif minimize:
            best = [min(b, v) for b, v in zip(best, vals)]
        else:
            best = [max(b, v) for b, v in zip(best, vals)]
    if best is None:
        return OracleResult(values={}, policy=None)
    policy = MdStrategy({
        states[i]: states[row[0][0]] for i, (row, _) in zip(controlled, best_combo)
    })
    return OracleResult(values=dict(zip(keys, best)), policy=policy)


def _oracle_reach(rows, seeds, positive: bool = True) -> list[bool]:
    """Which states reach ``seeds`` along the edges of ``rows`` (only those
    of positive probability when ``positive``), by backward search."""
    preds: list[list[int]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        for t, p in row:
            if p > 0 or not positive:
                preds[t].append(i)
    hit = [False] * len(rows)
    stack = list(seeds)
    for i in stack:
        hit[i] = True
    while stack:
        for i in preds[stack.pop()]:
            if not hit[i]:
                hit[i] = True
                stack.append(i)
    return hit


def _oracle_solve(rows, costs, solve, fixed) -> np.ndarray:
    """Dense solve of x = b + Q x on the states ``solve`` (ascending): b sums
    p * cost (when ``costs``) and p * value over edges into ``fixed``, and Q
    keeps the edges between ``solve`` states."""
    m = len(solve)
    pos = {i: k for k, i in enumerate(solve)}
    a = np.eye(m)
    b = [0.0] * m
    for k, i in enumerate(solve):
        acc = 0.0
        for e, (t, p) in enumerate(rows[i]):
            if costs is not None:
                acc += p * costs[i][e]
            if t in fixed:
                acc += p * fixed[t]
            elif t in pos:
                a[k, pos[t]] -= p
        b[k] = acc
    return np.linalg.solve(a, np.array(b))


def _oracle_absorption(rows, fixed) -> list[float]:
    """Absorption values by index: ``fixed`` states keep their values,
    states that cannot reach them get 0."""
    n = len(rows)
    values = [0.0] * n
    for i, v in fixed.items():
        values[i] = v
    ok = _oracle_reach(rows, fixed)
    solve = [i for i in range(n) if ok[i] and i not in fixed]
    if solve:
        for i, v in zip(solve, _oracle_solve(rows, None, solve, fixed)):
            values[i] = float(v)
    return values


def _oracle_cost(rows, costs) -> list[float]:
    """Expected total cost by index: 0 on the states that can only ever pay
    0, math.inf where the chain fails to reach them almost surely."""
    n = len(rows)
    # A state pays nothing forever iff no edge reachable from it costs.
    paying = [i for i in range(n) if any(c != 0.0 for c in costs[i])]
    free = [not hit for hit in _oracle_reach(rows, paying, False)]
    # A state diverges iff the chain fails to be absorbed into the free
    # region almost surely: the remaining recurrent behavior pays a positive
    # cost infinitely often.
    absorb = _oracle_absorption(rows, {i: 1.0 for i in range(n) if free[i]})
    values = [0.0 if free[i] else (math.inf if absorb[i] < 1.0 - 1e-9 else None)
              for i in range(n)]
    solve = [i for i in range(n) if values[i] is None]
    if solve:
        for i, v in zip(solve, _oracle_solve(rows, costs, solve, {})):
            values[i] = float(v)
    return values
