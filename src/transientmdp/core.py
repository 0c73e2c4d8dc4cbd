"""Countable and finite MDP models, objectives, strategies, and graph operations.

States live in two namespaces.  A host state (``StateId``) is a
non-negative ordinal (the enumeration of the host state space) plus a
human-readable label; its equality and hashing use the ordinal only, so labels
never have to round-trip exactly through transformations.  A synthetic state
(``SyntheticState``, minted only by ``mint``) is one that a construction adds:
a truncation frontier, a split entry copy, an exit sink, a conditioned MDP's
pair and bottom states, a prefix tail stub.  It equals another synthetic state
of the same kind and ordinal and never a host state, whatever the ordinals;
both namespaces sort together by ordinal.

A countable MDP is given by two pure oracles (state kind and successor family);
a finite MDP is the same interface backed by explicit tables.  Infinite
successor families are represented lazily so that reductions and the safety
synthesis can enumerate them on demand, while every operation that needs finite
branching raises ``InfiniteBranching`` instead of silently truncating.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import InfiniteBranching, NotSink, NotTail

PROB_TOL = 1e-9
Node = TypeVar("Node", bound=Hashable)


class StateKind(Enum):
    CONTROLLED = "C"
    RANDOM = "R"


@dataclass(frozen=True, order=True)
class StateId:
    ordinal: int
    label: str = field(default="", compare=False)

    def __repr__(self) -> str:
        return f"StateId({self.ordinal}, {self.label!r})"


@dataclass(frozen=True)
class SyntheticState(StateId):
    """A state that a construction adds to the MDP it works on.

    Equality and hashing use the ordinal and the ``kind``; the dataclass
    ``__eq__`` of each class answers only for its own class, so a synthetic
    state never equals a host state.  The ordinal still has to be unique
    among the states of any finite MDP the state joins.  Ordering is by
    ordinal against every StateId.
    """

    kind: str = ""

    def __lt__(self, other):
        return self.ordinal < other.ordinal if isinstance(other, StateId) else NotImplemented

    def __le__(self, other):
        return self.ordinal <= other.ordinal if isinstance(other, StateId) else NotImplemented

    def __gt__(self, other):
        return self.ordinal > other.ordinal if isinstance(other, StateId) else NotImplemented

    def __ge__(self, other):
        return self.ordinal >= other.ordinal if isinstance(other, StateId) else NotImplemented


def mint(kind: str, ordinal: int, label: str | None = None) -> SyntheticState:
    """A synthetic state of ``kind`` ("frontier", "entry", "exit", "pair",
    "bottom", "tail_stub") at ``ordinal``, labelled ``label`` (default: the
    kind)."""
    return SyntheticState(ordinal, kind if label is None else label, kind)


def is_synthetic(s: StateId, kind: str) -> bool:
    """Whether ``s`` is a synthetic state of ``kind``."""
    return isinstance(s, SyntheticState) and s.kind == kind


class Distribution:
    """Finite probability distribution over successor states.

    Probabilities are doubles normalized to 1 within ``PROB_TOL``; gadget
    constructors may attach exact rationals for test oracles via ``exact``.
    """

    __slots__ = ("support", "exact", "_cum")

    def __init__(
        self,
        support: Iterable[tuple[StateId, float]],
        exact: Mapping[StateId, Fraction] | None = None,
        check: bool = True,
    ):
        items = tuple((s, float(p)) for s, p in support)
        if check:
            seen = set()
            total = 0.0
            for s, p in items:
                if s in seen:
                    raise ValueError(f"duplicate support entry {s}")
                seen.add(s)
                if p <= 0.0:
                    raise ValueError(f"non-positive probability {p} at {s}")
                total += p
            if abs(total - 1.0) > PROB_TOL:
                raise ValueError(f"probabilities sum to {total}, not 1")
        self.support = items
        self.exact = dict(exact) if exact else None
        cum = []
        acc = 0.0
        for _, p in items:
            acc += p
            cum.append(acc)
        self._cum = cum

    def states(self) -> list[StateId]:
        return [s for s, _ in self.support]

    def prob(self, s: StateId) -> float:
        for t, p in self.support:
            if t == s:
                return p
        return 0.0

    def sample(self, u: float) -> StateId:
        # u uniform in [0,1); the final entry absorbs rounding slack.
        for (s, _), c in zip(self.support, self._cum):
            if u < c:
                return s
        return self.support[-1][0]

    def __iter__(self):
        return iter(self.support)

    def __len__(self):
        return len(self.support)

    def __repr__(self):
        inner = ", ".join(f"{s.label or s.ordinal}:{p:g}" for s, p in self.support)
        return f"Distribution({inner})"


@dataclass(frozen=True)
class InfiniteSuccessors:
    """Lazily enumerated infinite successor family.

    ``items()`` yields ``StateId`` for controlled states and
    ``(StateId, probability)`` pairs for random states, in increasing ordinal
    order (constructors guarantee the order; the default strategy rule relies
    on it).
    """

    items: Callable[[], Iterator]
    random: bool

    def iter_states(self) -> Iterator[StateId]:
        for item in self.items():
            yield item[0] if self.random else item

    def iter_weighted(self) -> Iterator[tuple[StateId, float]]:
        if not self.random:
            raise TypeError("controlled successor family has no weights")
        return self.items()


class Mdp:
    """Oracle view of a countable MDP.

    Both oracles must be pure: repeated queries return identical answers.
    """

    def kind_of(self, s: StateId) -> StateKind:
        raise NotImplementedError

    def successors_of(self, s: StateId):
        """Successor list (controlled) or Distribution (random) for ``s``."""
        raise NotImplementedError

    @property
    def num_states(self) -> int | None:
        """Number of states for finite MDPs, None for countable ones."""
        return None


@dataclass
class LazyMdp(Mdp):
    """Countable MDP assembled from two callables."""

    kind_fn: Callable[[StateId], StateKind]
    successors_fn: Callable[[StateId], object]

    def kind_of(self, s: StateId) -> StateKind:
        return self.kind_fn(s)

    def successors_of(self, s: StateId):
        return self.successors_fn(s)


def successor_states(mdp: Mdp, s: StateId) -> list[StateId]:
    """Finite successor list of ``s``; raises InfiniteBranching otherwise."""
    return _states_of(mdp.successors_of(s), s)


def _states_of(succ, s: StateId) -> list[StateId]:
    """Successor list of an already queried successor object of ``s``."""
    if isinstance(succ, InfiniteSuccessors):
        raise InfiniteBranching(f"state {s.label or s.ordinal} branches infinitely")
    if isinstance(succ, Distribution):
        return succ.states()
    return list(succ)


class FiniteMdp(Mdp):
    """Explicitly materialized finite MDP.

    ``sinks`` are designated subsets closed under the transition relation.
    Truncations additionally carry their frontier state and the optimistic
    or pessimistic tag they were asked for; the tag has no effect on the
    MDP, and no code reads it.  No code mutates a FiniteMdp after
    construction, so the index form that ``compiled`` builds on first use
    (or that ``truncate`` stores there) stays valid.
    """

    def __init__(
        self,
        states: Sequence[StateId],
        kinds: Mapping[StateId, StateKind],
        transitions: Mapping[StateId, object],
        sinks: Sequence[Iterable[StateId]] = (),
        frontier: StateId | None = None,
        frontier_policy: str | None = None,
        check: bool = True,
    ):
        self.states = list(states)
        self.kinds = dict(kinds)
        self.transitions = dict(transitions)
        self.sinks = [frozenset(t) for t in sinks]
        self.frontier = frontier
        self.frontier_policy = frontier_policy
        self.by_ordinal = {s.ordinal: s for s in self.states}
        if check:
            self.validate()

    @property
    def num_states(self) -> int:
        return len(self.states)

    def kind_of(self, s: StateId) -> StateKind:
        return self.kinds[s]

    def successors_of(self, s: StateId):
        return self.transitions[s]

    def controlled_states(self) -> list[StateId]:
        return [s for s in self.states if self.kinds[s] is StateKind.CONTROLLED]

    @cached_property
    def compiled(self) -> "CompiledMdp":
        """The index form the solvers work on, built on first use."""
        return CompiledMdp.of(self)

    def validate(self) -> None:
        if len(self.by_ordinal) != len(self.states):
            raise ValueError("state ordinals are not unique")
        state_set = set(self.states)
        for s in self.states:
            succ = self.transitions.get(s)
            if succ is None or len(succ) == 0:
                raise ValueError(f"state {s} has no successor")
            for t in _states_of(succ, s):
                if t not in state_set:
                    raise ValueError(f"edge {s} -> {t} leaves the state space")
            if self.kinds[s] is StateKind.RANDOM and not isinstance(succ, Distribution):
                raise ValueError(f"random state {s} lacks a distribution")
            if self.kinds[s] is StateKind.CONTROLLED and isinstance(succ, Distribution):
                raise ValueError(f"controlled state {s} carries a distribution")
        for sink in self.sinks:
            require_sink(self, sink)

    def to_json(self) -> dict:
        states = [
            {"id": s.ordinal, "label": s.label, "kind": self.kinds[s].value}
            for s in self.states
        ]
        transitions = []
        for s in self.states:
            succ = self.transitions[s]
            if isinstance(succ, Distribution):
                for t, p in succ:
                    transitions.append({"from": s.ordinal, "to": t.ordinal, "p": p})
            else:
                for t in succ:
                    transitions.append({"from": s.ordinal, "to": t.ordinal, "p": None})
        return {
            "states": states,
            "transitions": transitions,
            "sinks": [sorted(s.ordinal for s in sink) for sink in self.sinks],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FiniteMdp":
        states = [StateId(d["id"], d.get("label", str(d["id"]))) for d in doc["states"]]
        by_ord = {s.ordinal: s for s in states}
        kinds = {
            by_ord[d["id"]]: StateKind(d["kind"]) for d in doc["states"]
        }
        edges: dict[StateId, list[tuple[StateId, float | None]]] = {s: [] for s in states}
        for e in doc["transitions"]:
            edges[by_ord[e["from"]]].append((by_ord[e["to"]], e["p"]))
        transitions: dict[StateId, object] = {}
        for s, out in edges.items():
            if kinds[s] is StateKind.RANDOM:
                transitions[s] = Distribution([(t, p) for t, p in out])
            else:
                transitions[s] = [t for t, _ in out]
        sinks = [[by_ord[o] for o in sink] for sink in doc.get("sinks", [])]
        return cls(states, kinds, transitions, sinks)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)

    @classmethod
    def load(cls, path) -> "FiniteMdp":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


class CompiledMdp:
    """A FiniteMdp compiled to indices: state ``i`` is ``states[i]`` and
    ``index`` maps back.  The successors of ``i`` are
    ``succ[indptr[i]:indptr[i + 1]]`` in successor order, with probabilities
    at the same positions of ``prob`` (NaN on controlled edges): compressed
    sparse rows.  All fields are plain lists, which scalar loops index
    fastest."""

    __slots__ = ("states", "index", "ordinal", "controlled", "indptr", "succ", "prob", "_preds")

    def __init__(self, states, controlled, indptr, succ, prob, index=None):
        self.states = states
        self.index = {s: i for i, s in enumerate(states)} if index is None else index
        self.ordinal = [s.ordinal for s in states]
        self.controlled = controlled
        self.indptr, self.succ, self.prob = indptr, succ, prob
        self._preds = None

    @classmethod
    def of(cls, fm: FiniteMdp) -> "CompiledMdp":
        """The index form of ``fm``, rows in the order of ``fm.states``."""
        states, kinds, transitions = fm.states, fm.kinds, fm.transitions
        index = {s: i for i, s in enumerate(states)}
        indptr, succ, prob = [0], [], []
        for s in states:
            out = transitions[s]
            try:
                if isinstance(out, Distribution):
                    for t, p in out.support:
                        succ.append(index[t])
                        prob.append(p)
                else:
                    for t in out:
                        succ.append(index[t])
                        prob.append(math.nan)
            except KeyError as exc:
                raise ValueError(f"an edge of {s} leaves the state space") from exc
            indptr.append(len(succ))
        controlled = [kinds[s] is StateKind.CONTROLLED for s in states]
        return cls(states, controlled, indptr, succ, prob, index)

    def extended(self, s: StateId, like: int) -> "CompiledMdp":
        """Copy with the new last state ``s``, whose kind and row are those
        of state ``like``."""
        lo, hi = self.indptr[like], self.indptr[like + 1]
        index = dict(self.index)
        index[s] = len(self.states)
        return CompiledMdp(
            self.states + [s], self.controlled + [self.controlled[like]],
            self.indptr + [len(self.succ) + hi - lo], self.succ + self.succ[lo:hi],
            self.prob + self.prob[lo:hi], index,
        )

    def row(self, i: int) -> list[int]:
        """Successor indices of state ``i``."""
        return self.succ[self.indptr[i]:self.indptr[i + 1]]

    def random_preds(self) -> dict[int, list[int]]:
        """The predecessors along positive random edges: ``t`` maps to the
        random states, in index order, with an edge of positive probability
        to ``t``.  Built on first use and kept."""
        if self._preds is None:
            indptr, succ, prob = self.indptr, self.succ, self.prob
            preds: dict[int, list[int]] = {}
            for i, is_controlled in enumerate(self.controlled):
                if not is_controlled:
                    for k in range(indptr[i], indptr[i + 1]):
                        if prob[k] > 0.0:
                            preds.setdefault(succ[k], []).append(i)
            self._preds = preds
        return self._preds


def require_sink(mdp: Mdp, states: Iterable[StateId]) -> frozenset[StateId]:
    """Check that ``states`` is closed under the transition relation."""
    closed = frozenset(states)
    for s in closed:
        for t in successor_states(mdp, s):
            if t not in closed:
                raise NotSink(f"{s} -> {t} leaves the sink")
    return closed


# ---------------------------------------------------------------------------
# Objectives


@dataclass(frozen=True)
class Objective:
    """Run objective: Transience, Reach, Safety, Buechi, or Buechi+Transience.

    The relevant state family is given either explicitly (``states``) or, for
    countable MDPs with infinite families, as a membership predicate that is
    materialized per truncation.
    """

    kind: str
    states: frozenset[StateId] | None = None
    predicate: Callable[[StateId], bool] | None = field(default=None, compare=False)

    TRANSIENCE = "transience"
    REACH = "reach"
    SAFETY = "safety"
    BUECHI = "buechi"
    BUECHI_TRANSIENCE = "buechi_transience"

    @classmethod
    def transience(cls) -> "Objective":
        return cls(cls.TRANSIENCE)

    @classmethod
    def reach(cls, target) -> "Objective":
        if callable(target):
            return cls(cls.REACH, None, target)
        return cls(cls.REACH, frozenset(target))

    @classmethod
    def safety(cls, avoid) -> "Objective":
        if callable(avoid):
            return cls(cls.SAFETY, None, avoid)
        return cls(cls.SAFETY, frozenset(avoid))

    @classmethod
    def buechi(cls, goal) -> "Objective":
        if callable(goal):
            return cls(cls.BUECHI, None, goal)
        return cls(cls.BUECHI, frozenset(goal))

    @classmethod
    def buechi_transience(cls, goal) -> "Objective":
        if callable(goal):
            return cls(cls.BUECHI_TRANSIENCE, None, goal)
        return cls(cls.BUECHI_TRANSIENCE, frozenset(goal))

    def members_in(self, states: Iterable[StateId]) -> set[StateId]:
        """The objective's state family intersected with ``states``."""
        if self.states is not None:
            return set(self.states) & set(states)
        if self.predicate is not None:
            return {s for s in states if self.predicate(s)}
        return set()


def require_tail(mdp: Mdp, objective: Objective) -> None:
    """Accept only objectives that are tail in ``mdp``.

    Reach and Safety are tail exactly when their state set is a sink; the
    remaining variants are tail unconditionally.
    """
    if objective.kind in (Objective.REACH, Objective.SAFETY):
        try:
            require_sink(mdp, objective.states or ())
        except NotSink as exc:
            raise NotTail(f"{objective.kind} objective over a non-sink set") from exc


# ---------------------------------------------------------------------------
# Strategies


@dataclass
class MdStrategy:
    """Memoryless deterministic strategy: a fixed successor per controlled state.

    States outside ``choice`` fall back to the successor with the smallest
    ordinal (the first enumerated one for infinite families), which makes
    partially synthesized strategies total and reproducible.
    """

    choice: dict[StateId, StateId] = field(default_factory=dict)

    def successor(self, mdp: Mdp, s: StateId) -> StateId:
        picked = self.choice.get(s)
        if picked is not None:
            return picked
        succ = mdp.successors_of(s)
        if isinstance(succ, InfiniteSuccessors):
            return next(succ.iter_states())
        return min(_states_of(succ, s), key=lambda t: t.ordinal)

    def to_json(self) -> dict:
        return {str(s.ordinal): t.ordinal for s, t in sorted(self.choice.items())}

    @classmethod
    def from_json(cls, doc: Mapping[str, int], fm: FiniteMdp) -> "MdStrategy":
        return cls(
            {fm.by_ordinal[int(k)]: fm.by_ordinal[int(v)] for k, v in doc.items()}
        )


@dataclass
class OneBitStrategy:
    """Deterministic strategy with one bit of memory.

    ``controlled(mode, s)`` returns the next mode and the chosen successor;
    ``random_update(mode, s, realized)`` returns the next mode after the
    environment picked ``realized``.  Updates are deterministic functions of
    the realized successor.
    """

    initial_mode: int
    controlled: Callable[[int, StateId], tuple[int, StateId]]
    random_update: Callable[[int, StateId, StateId], int]

    @staticmethod
    def tables_to_json(
        initial_mode: int,
        controlled_table: Mapping[tuple[int, StateId], tuple[int, StateId]],
    ) -> dict:
        table = {
            f"{m}:{s.ordinal}": [m2, t.ordinal]
            for (m, s), (m2, t) in sorted(
                controlled_table.items(), key=lambda kv: (kv[0][0], kv[0][1].ordinal)
            )
        }
        return {"initial_mode": initial_mode, "update": table}


@dataclass
class GeneralStrategy:
    """History-dependent strategy: partial run ending in a controlled state
    maps to a distribution over its successors.

    ``decide`` receives the run so far, ending in the controlled state, as a
    list the simulator keeps extending; it must not mutate it.
    """

    decide: Callable[[Sequence[StateId]], Distribution]


# ---------------------------------------------------------------------------
# Graph operations


class _Layers:
    """Breadth-first layers of the states reachable from ``roots``, grown on
    demand: layer d holds the states first reached in d steps, so
    ``within(k)`` is the radius-k bubble.

    Growing layer d + 1 asks the oracle for the successors of every state of
    layer d, once.  ``order`` lists the states in the order they were first
    reached, ``ids`` maps each state to its position there, layer d is
    ``order[ends[d - 1]:ends[d]]``, and ``answers[i]`` and ``targets[i]``
    keep the successor answer of ``order[i]`` and the positions of its
    successors."""

    def __init__(self, mdp: Mdp, roots: Iterable[StateId]):
        self.mdp = mdp
        self.order = list(set(roots))
        if not self.order:
            raise ValueError("bubble of an empty set")
        self.ids = {s: i for i, s in enumerate(self.order)}
        self.ends = [len(self.order)]
        self.answers: list = []
        self.targets: list[list[int]] = []

    def grow(self, d: int) -> None:
        """Reach layer ``d``, or stop at the first empty layer."""
        mdp, order, ids = self.mdp, self.order, self.ids
        while len(self.ends) <= d and len(self.answers) < len(order):
            for i in range(len(self.answers), self.ends[-1]):
                s = order[i]
                answer = mdp.successors_of(s)
                row = []
                for t in _states_of(answer, s):
                    j = ids.get(t)
                    if j is None:
                        j = ids[t] = len(order)
                        order.append(t)
                    row.append(j)
                self.answers.append(answer)
                self.targets.append(row)
            self.ends.append(len(order))

    def end(self, d: int) -> int:
        """The number of states within ``d`` steps."""
        self.grow(d)
        return self.ends[min(d, len(self.ends) - 1)]

    def layer(self, d: int) -> set[StateId]:
        return set(self.order[self.end(d - 1) if d else 0:self.end(d)])

    def within(self, k: int) -> set[StateId]:
        return set(self.order[:self.end(k)])


def bubble(mdp: Mdp, roots: Iterable[StateId], k: int) -> set[StateId]:
    """States reachable from ``roots`` within at most ``k`` steps."""
    return _Layers(mdp, roots).within(k)


OPTIMISTIC = "optimistic"
PESSIMISTIC = "pessimistic"


def truncate(
    mdp: Mdp,
    roots: Iterable[StateId],
    radius: int,
    frontier: str = PESSIMISTIC,
    layers: _Layers | None = None,
) -> FiniteMdp:
    """Finite restriction of ``mdp`` to the radius-``radius`` bubble around
    ``roots``.  Random mass leaving the bubble is lumped, in support order,
    into one edge to a fresh absorbing frontier sink, and the controlled
    edges leaving it become one edge to that sink.  When nothing leaves the
    bubble the copy is exact and no frontier state is added.  The
    ``frontier`` tag (optimistic or pessimistic) is only recorded in
    ``frontier_policy``; it changes nothing, and callers that want the sink
    to win or lose say so in the boundary they solve with.

    One breadth-first search asks each kept state's ``kind_of`` and
    ``successors_of`` once and builds the index form, stored as
    ``compiled``, in the same pass: rows in ordinal order with the frontier
    last, successors in oracle order.  A state with no edge leaving the
    bubble keeps the oracle's own successor object.  The checks of
    ``FiniteMdp.validate`` run on each oracle answer, with its exception
    types.  A caller that already searched from ``roots`` may pass its
    ``layers``, which are grown as far as needed instead of searched again.
    """
    if frontier not in (OPTIMISTIC, PESSIMISTIC):
        raise ValueError(f"unknown frontier policy {frontier!r}")
    if layers is None:
        layers = _Layers(mdp, roots)
    layers.grow(radius + 1)  # asks the states of layer ``radius`` too
    n = layers.end(radius)
    order, answers, targets = layers.order, layers.answers, layers.targets
    # Positions in ``order`` from n on lie outside the bubble: where -1.
    rank = sorted(range(n), key=lambda i: order[i].ordinal)
    where = [-1] * len(order)
    for k, i in enumerate(rank):
        where[i] = k
    states = [order[i] for i in rank]
    sink = mint("frontier", states[-1].ordinal + 1)
    kinds: dict[StateId, StateKind] = {}
    transitions: dict[StateId, object] = {}
    controlled, indptr, succ, prob = [], [0], [], []
    used_sink = False
    for i, s in zip(rank, states):
        kind = kinds[s] = mdp.kind_of(s)
        answer = answers[i]
        if len(answer) == 0:
            raise ValueError(f"state {s} has no successor")
        is_dist = isinstance(answer, Distribution)
        if kind is StateKind.RANDOM and not is_dist:
            raise ValueError(f"random state {s} lacks a distribution")
        if kind is StateKind.CONTROLLED and is_dist:
            raise ValueError(f"controlled state {s} carries a distribution")
        controlled.append(kind is StateKind.CONTROLLED)
        ks = [where[j] for j in targets[i]]
        if min(ks) >= 0:
            succ += ks
            prob += [p for _, p in answer.support] if is_dist else [math.nan] * len(ks)
            transitions[s] = answer
        elif is_dist:
            kept, out_mass = [], 0
            for k, (t, p) in zip(ks, answer.support):
                if k < 0:
                    out_mass += p
                else:
                    kept.append((t, p))
                    succ.append(k)
                    prob.append(p)
            if out_mass > 0.0:
                kept.append((sink, out_mass))
                succ.append(n)
                prob.append(out_mass)
                used_sink = True
            transitions[s] = Distribution(kept, check=False)
        else:
            kept_c = [t for k, t in zip(ks, answer) if k >= 0]
            succ += [k for k in ks if k >= 0]
            kept_c.append(sink)
            succ.append(n)
            prob += [math.nan] * len(kept_c)
            used_sink = True
            transitions[s] = kept_c
        indptr.append(len(succ))

    if used_sink:
        states.append(sink)
        kinds[sink] = StateKind.RANDOM
        transitions[sink] = Distribution([(sink, 1.0)])
        controlled.append(False)
        succ.append(n)
        prob.append(1.0)
        indptr.append(len(succ))
        fm = FiniteMdp(states, kinds, transitions, [{sink}], frontier=sink,
                       frontier_policy=frontier, check=False)
    else:
        fm = FiniteMdp(states, kinds, transitions, check=False)
    if len(fm.by_ordinal) != len(fm.states):
        raise ValueError("state ordinals are not unique")
    fm.compiled = CompiledMdp(fm.states, controlled, indptr, succ, prob)
    return fm


def _restrict(
    mdp: Mdp, inside: set[StateId], sink: StateId, policy: str | None = None
) -> FiniteMdp:
    """Finite restriction of ``mdp`` to ``inside``: random mass leaving it is
    lumped into one edge to ``sink``, and controlled edges leaving it become
    one edge to ``sink``.  The sink is added as an absorbing random state,
    and recorded as the frontier tagged ``policy``, only when some edge uses
    it.  The result is not validated."""
    kinds: dict[StateId, StateKind] = {}
    transitions: dict[StateId, object] = {}
    used_sink = False
    states = sorted(inside)
    for s in states:
        kinds[s] = mdp.kind_of(s)
        succ = mdp.successors_of(s)
        if isinstance(succ, Distribution):
            kept = [(t, p) for t, p in succ if t in inside]
            out_mass = sum(p for t, p in succ if t not in inside)
            if out_mass > 0.0:
                kept.append((sink, out_mass))
                used_sink = True
            transitions[s] = Distribution(kept, check=False)
        else:
            if isinstance(succ, InfiniteSuccessors):
                raise InfiniteBranching(f"cannot truncate across {s}")
            kept_c = [t for t in succ if t in inside]
            if len(kept_c) < len(list(succ)):
                kept_c.append(sink)
                used_sink = True
            transitions[s] = kept_c

    if not used_sink:
        return FiniteMdp(states, kinds, transitions, check=False)
    kinds[sink] = StateKind.RANDOM
    transitions[sink] = Distribution([(sink, 1.0)])
    return FiniteMdp(states + [sink], kinds, transitions, [{sink}], frontier=sink,
                     frontier_policy=policy, check=False)


def _absorb(fm: FiniteMdp, states: Iterable[StateId]) -> FiniteMdp:
    """Copy of ``fm`` with ``states`` turned into absorbing random sinks."""
    kinds = dict(fm.kinds)
    transitions = dict(fm.transitions)
    for s in set(states):
        kinds[s] = StateKind.RANDOM
        transitions[s] = Distribution([(s, 1.0)])
    return FiniteMdp(fm.states, kinds, transitions, [], frontier=fm.frontier,
                     frontier_policy=fm.frontier_policy, check=False)


def reachable(mdp: Mdp, roots: Iterable[StateId]) -> set[StateId]:
    """All states reachable from ``roots`` (finite branching required)."""
    seen = set(roots)
    queue = deque(seen)
    while queue:
        s = queue.popleft()
        for t in successor_states(mdp, s):
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def _backward_reach(
    succ: Mapping[Node, Iterable[Node]] | None,
    seeds: Iterable[Node],
    admit: Callable[[Node], bool] | None = None,
    preds: Sequence[Mapping[Node, Sequence[Node]]] = (),
) -> dict[Node, int]:
    """Breadth-first search backwards from ``seeds`` along the edges of
    ``succ`` (state -> successor states) and of ``preds``, mappings that
    already list the predecessors of each state (such as
    ``CompiledMdp.random_preds``); ``succ`` may be None.  Returns the
    distance of every state reached, seeds at 0; ``admit(s)``, when given,
    may refuse a state.  States are any hashable keys: StateIds, indices of a
    CompiledMdp, product states."""
    if succ is not None:
        inverse: dict[Node, list[Node]] = {}
        for s, targets in succ.items():
            for t in targets:
                inverse.setdefault(t, []).append(s)
        preds = (*preds, inverse)
    dist = {s: 0 for s in seeds}
    queue = deque(dist)
    while queue:
        t = queue.popleft()
        d = dist[t] + 1
        for inverse in preds:
            for s in inverse.get(t, ()):
                if s not in dist and (admit is None or admit(s)):
                    dist[s] = d
                    queue.append(s)
    return dist


def _stay_region(
    cm: CompiledMdp,
    region: Iterable[int],
    allowed: Sequence[bool] | None = None,
) -> set[int]:
    """Largest subset of ``region`` (state indices of ``cm``) where the
    controller can stay forever along allowed edges (``allowed[k]`` for the
    edge at position k of ``cm.succ``; all edges when None): a controlled
    state keeps one allowed edge inside, and a random state needs all of its
    edges allowed and inside.  Each state counts its allowed edges into the
    kept set; a worklist removes the states whose count runs out."""
    indptr, succ, controlled = cm.indptr, cm.succ, cm.controlled
    keep = set(region)
    preds: dict[int, list[int]] = {}
    live: dict[int, int] = {}
    dropped = []
    for i in keep:
        lo, hi = indptr[i], indptr[i + 1]
        ok = [succ[k] for k in range(lo, hi)
              if succ[k] in keep and (allowed is None or allowed[k])]
        random = not controlled[i]
        if not ok or (random and len(ok) < hi - lo):
            dropped.append(i)
            continue
        live[i] = 1 if random else len(ok)
        for t in ok:
            preds.setdefault(t, []).append(i)
    keep.difference_update(dropped)
    while dropped:
        t = dropped.pop()
        for i in preds.get(t, ()):
            if i in keep:
                live[i] -= 1
                if live[i] == 0:
                    keep.discard(i)
                    dropped.append(i)
    return keep
