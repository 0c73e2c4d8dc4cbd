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
a finite MDP is the same interface backed by compressed sparse rows.  Infinite
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
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from .errors import BadModel, BadParameter, InfiniteBranching, NotSink, NotTail

PROB_TOL = 1e-9
Node = TypeVar("Node", bound=Hashable)


class StateKind(Enum):
    CONTROLLED = "C"
    RANDOM = "R"


@dataclass(frozen=True, order=True, slots=True)
class StateId:
    ordinal: int
    label: str = field(default="", compare=False)

    def __repr__(self) -> str:
        return f"StateId({self.ordinal}, {self.label!r})"


@dataclass(frozen=True, slots=True)
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

    Probabilities are doubles normalized to 1 within ``PROB_TOL``.  The
    running sums that ``sample`` draws by are built on first use, since
    most answers are only read.
    """

    __slots__ = ("support", "_cum")

    def __init__(self, support: Iterable[tuple[StateId, float]], check: bool = True):
        # A plain loop: in CPython 3.11 a comprehension costs one more call,
        # and the oracles build a Distribution per answer.
        items = []
        for s, p in support:
            items.append((s, float(p)))
        items = tuple(items)
        if check:
            seen = set()
            total = 0.0
            for s, p in items:
                if s in seen:
                    raise BadModel(f"duplicate support entry {s}")
                seen.add(s)
                if not p > 0.0:  # also NaN
                    raise BadModel(f"probability {p} at {s} is not positive")
                total += p
            if not abs(total - 1.0) <= PROB_TOL:
                raise BadModel(f"probabilities sum to {total}, not 1")
        self.support = items
        self._cum = None

    def cumulative(self) -> list[float]:
        """The running sums of the probabilities, in support order."""
        cum = self._cum
        if cum is None:
            cum = self._cum = []
            acc = 0.0
            for _, p in self.support:
                acc += p
                cum.append(acc)
        return cum

    def states(self) -> list[StateId]:
        return [s for s, _ in self.support]

    def prob(self, s: StateId) -> float:
        for t, p in self.support:
            if t == s:
                return p
        return 0.0

    def sample(self, u: float) -> StateId:
        # u uniform in [0,1); the final entry absorbs rounding slack.
        for (s, _), c in zip(self.support, self.cumulative()):
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
            raise BadParameter("controlled successor family has no weights")
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
    """Finite successor list of ``s``; raises InfiniteBranching otherwise.
    A finite MDP answers from its row, building no answer object."""
    if isinstance(mdp, FiniteMdp):
        i, states = mdp.index[s], mdp.states
        return [states[j] for j in mdp.succ[mdp.indptr[i]:mdp.indptr[i + 1]]]
    return _states_of(mdp.successors_of(s), s)


def _states_of(succ, s: StateId) -> list[StateId]:
    """Successor list of an already queried successor object of ``s``."""
    if isinstance(succ, InfiniteSuccessors):
        raise InfiniteBranching(f"state {s.label or s.ordinal} branches infinitely")
    if isinstance(succ, Distribution):
        return succ.states()
    return list(succ)


def _default_pick(succ, s: StateId) -> StateId:
    """MdStrategy's pick at a controlled ``s`` outside its table, from the
    successor answer ``succ`` of ``s``."""
    if isinstance(succ, InfiniteSuccessors):
        return next(succ.iter_states())
    return min(_states_of(succ, s), key=lambda t: t.ordinal)


_KINDS = (StateKind.RANDOM, StateKind.CONTROLLED)  # by ``controlled``; faster than a member


class RowArrays(NamedTuple):
    """The compressed sparse rows of a FiniteMdp as numpy arrays, plus its
    positive random edges as ``random_source[k] -> random_target[k]`` in
    edge order."""

    indptr: np.ndarray  # intp
    succ: np.ndarray  # intp
    prob: np.ndarray  # float64, NaN on controlled edges
    controlled: np.ndarray  # bool
    random_source: np.ndarray  # intp
    random_target: np.ndarray  # intp


class FiniteMdp(Mdp):
    """Explicitly materialized finite MDP, held as compressed sparse rows.

    State ``i`` is ``states[i]`` and ``index``, built on first use, maps
    back; ``controlled[i]`` is its kind.  The successors of ``i`` are
    ``succ[indptr[i]:indptr[i + 1]]`` in successor order, with
    probabilities at the same positions of ``prob`` (NaN on controlled
    edges).  All fields are plain lists, which scalar loops index fastest;
    ``arrays()`` gives the rows as numpy arrays for the solvers' large
    systems.  ``sinks`` are designated subsets closed under the transition
    relation, and a truncation carries its ``frontier`` sink.  No code
    edits the rows after construction; a derived MDP is built on copied
    arrays.
    """

    def __init__(
        self,
        states: Sequence[StateId],
        kinds: Mapping[StateId, StateKind],
        transitions: Mapping[StateId, object],
        sinks: Sequence[Iterable[StateId]] = (),
        frontier: StateId | None = None,
        check: bool = True,
    ):
        """Compile the table form: ``kinds`` and ``transitions`` (a
        successor list or a Distribution) of every state, rows in the order
        of ``states``.  With ``check``, every answer, the ordinals and the
        sinks are validated."""
        states = list(states)
        index = {s: i for i, s in enumerate(states)}
        controlled, indptr, succ, prob = [], [0], [], []
        for s in states:
            kind, out = kinds.get(s), transitions.get(s)
            if check:
                _check_answer(s, kind, out)
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
                raise BadModel(f"an edge of {s} leaves the state space") from exc
            controlled.append(kind is StateKind.CONTROLLED)
            indptr.append(len(succ))
        self._adopt(states, controlled, indptr, succ, prob, sinks, frontier, index)
        if check:
            self.validate()

    def _adopt(self, states, controlled, indptr, succ, prob, sinks=(), frontier=None,
               index=None) -> None:
        self.states = states
        if index is not None:
            self.index = index
        self.controlled = controlled
        self.indptr, self.succ, self.prob = indptr, succ, prob
        self.sinks = [frozenset(t) for t in sinks]
        self.frontier = frontier
        # Derived from the rows on first use, never edited.
        self._answers: dict[StateId, object] = {}
        self._preds = None
        self._arrays = None

    @classmethod
    def _of_rows(cls, states, controlled, indptr, succ, prob, sinks=(), frontier=None,
                 index=None) -> "FiniteMdp":
        """The MDP with these rows, taken as they are, unchecked."""
        fm = cls.__new__(cls)
        fm._adopt(states, controlled, indptr, succ, prob, sinks, frontier, index)
        return fm

    # Cached in the instance on first use, so that later reads, on the
    # finite solvers' hot paths, are plain attribute reads.
    @cached_property
    def index(self) -> dict[StateId, int]:
        """The position of each state in ``states``."""
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def by_ordinal(self) -> dict[int, StateId]:
        """The state at each ordinal."""
        return {s.ordinal: s for s in self.states}

    @property
    def num_states(self) -> int:
        return len(self.states)

    def kind_of(self, s: StateId) -> StateKind:
        return _KINDS[self.controlled[self.index[s]]]

    def successors_of(self, s: StateId):
        """The row of ``s``: a successor list if it is controlled, else a
        Distribution in row order.  Built on first ask and kept."""
        try:
            return self._answers[s]
        except KeyError:
            pass
        i, targets = self.index[s], successor_states(self, s)
        answer = self._answers[s] = targets if self.controlled[i] else Distribution(
            zip(targets, self.prob[self.indptr[i]:self.indptr[i + 1]]), check=False)
        return answer

    def controlled_states(self) -> list[StateId]:
        return [s for s, c in zip(self.states, self.controlled) if c]

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

    def arrays(self) -> RowArrays:
        """The rows as numpy arrays, for the solvers' paths on large
        systems.  Built on first use and kept."""
        if self._arrays is None:
            indptr = np.asarray(self.indptr, dtype=np.intp)
            succ = np.asarray(self.succ, dtype=np.intp)
            prob = np.asarray(self.prob, dtype=np.float64)
            controlled = np.asarray(self.controlled, dtype=bool)
            source = np.repeat(np.arange(len(self.states)), np.diff(indptr))
            positive = ~controlled[source] & (prob > 0.0)
            self._arrays = RowArrays(indptr, succ, prob, controlled, source[positive],
                                     succ[positive])
        return self._arrays

    def validate(self) -> None:
        """Unique ordinals and closed sinks; the constructor checks the rows."""
        if len(self.by_ordinal) != len(self.states):
            raise BadModel("state ordinals are not unique")
        for sink in self.sinks:
            require_sink(self, sink)

    def to_json(self) -> dict:
        states = [
            {"id": s.ordinal, "label": s.label, "kind": self.kind_of(s).value}
            for s in self.states
        ]
        transitions = []
        for i, s in enumerate(self.states):
            for k in range(self.indptr[i], self.indptr[i + 1]):
                transitions.append({
                    "from": s.ordinal, "to": self.states[self.succ[k]].ordinal,
                    "p": None if self.controlled[i] else self.prob[k],
                })
        return {
            "states": states,
            "transitions": transitions,
            "sinks": [sorted(s.ordinal for s in sink) for sink in self.sinks],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FiniteMdp":
        """The MDP of a ``to_json`` document; a malformed one raises
        BadModel."""
        try:
            states = [StateId(d["id"], d.get("label", str(d["id"]))) for d in doc["states"]]
            by_ord = {s.ordinal: s for s in states}

            def state(o) -> StateId:
                if o not in by_ord:
                    raise BadModel(f"no state has id {o!r}")
                return by_ord[o]

            # An unknown kind is left for the constructor to refuse.
            by_value = {k.value: k for k in StateKind}
            kinds = {by_ord[d["id"]]: by_value.get(d["kind"], d["kind"]) for d in doc["states"]}
            edges: dict[StateId, list] = {s: [] for s in states}
            for e in doc["transitions"]:
                edges[state(e["from"])].append((state(e["to"]), e["p"]))
            transitions = {
                s: Distribution(out) if kinds[s] is StateKind.RANDOM else [t for t, _ in out]
                for s, out in edges.items()
            }
            sinks = [[state(o) for o in sink] for sink in doc.get("sinks", [])]
        except (AttributeError, KeyError, TypeError) as exc:
            raise BadModel(f"malformed finite MDP document: {exc!r}") from exc
        return cls(states, kinds, transitions, sinks)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)

    @classmethod
    def load(cls, path) -> "FiniteMdp":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _check_answer(s: StateId, kind, answer) -> None:
    """Check one state's kind and successor answer against each other."""
    if isinstance(answer, InfiniteSuccessors):
        raise InfiniteBranching(f"state {s.label or s.ordinal} branches infinitely")
    if not answer:
        raise BadModel(f"state {s} has no successor")
    if kind not in (StateKind.RANDOM, StateKind.CONTROLLED):
        raise BadModel(f"state {s} has kind {kind!r}")
    if (kind is StateKind.RANDOM) != isinstance(answer, Distribution):
        raise BadModel(f"{kind.name.lower()} state {s} answers a {type(answer).__name__}")


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
    def _over(cls, kind: str, family) -> "Objective":
        """A callable ``family`` becomes the predicate, anything else the
        state set."""
        if callable(family):
            return cls(kind, None, family)
        return cls(kind, frozenset(family))

    @classmethod
    def transience(cls) -> "Objective":
        return cls(cls.TRANSIENCE)

    @classmethod
    def reach(cls, target) -> "Objective":
        return cls._over(cls.REACH, target)

    @classmethod
    def safety(cls, avoid) -> "Objective":
        return cls._over(cls.SAFETY, avoid)

    @classmethod
    def buechi(cls, goal) -> "Objective":
        return cls._over(cls.BUECHI, goal)

    @classmethod
    def buechi_transience(cls, goal) -> "Objective":
        return cls._over(cls.BUECHI_TRANSIENCE, goal)

    def rows_in(self, fm: FiniteMdp) -> set[int]:
        """The rows of ``fm`` whose states belong to the objective's family,
        its frontier (the last row, when there is one) aside."""
        inner = len(fm.states) - (fm.frontier is not None)
        if self.states is not None:
            index = fm.index
            return {j for t in self.states if (j := index.get(t, inner)) < inner}
        if self.predicate is not None:
            states, predicate = fm.states, self.predicate
            return {j for j in range(inner) if predicate(states[j])}
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
        return picked if picked is not None else _default_pick(mdp.successors_of(s), s)

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
        flip_table: Mapping[tuple[int, StateId], Iterable[StateId]],
    ) -> dict:
        """``controlled_table`` maps (mode, controlled state) to the next mode
        and successor; ``flip_table`` maps (mode, random state) to the
        successors whose move changes the mode."""

        def by_key(table):
            return sorted(table.items(), key=lambda kv: (kv[0][0], kv[0][1].ordinal))

        table = {f"{m}:{s.ordinal}": [m2, t.ordinal]
                 for (m, s), (m2, t) in by_key(controlled_table)}
        flip = {f"{m}:{s.ordinal}": sorted(t.ordinal for t in ts)
                for (m, s), ts in by_key(flip_table)}
        return {"initial_mode": initial_mode, "update": table, "flip": flip}


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
    reached, ``ids`` maps the ordinal of each state to its position there,
    layer d is ``order[ends[d - 1]:ends[d]]``, and ``answers[i]`` and
    ``targets[i]`` keep the successor answer of ``order[i]`` and the
    positions of its successors.  The search keys states by ordinal, which
    hashes an int instead of a StateId; a state met at a known ordinal must
    be the state kept there, or equal to it, else the MDP has two states at
    one ordinal and BadModel is raised."""

    def __init__(self, mdp: Mdp, roots: Iterable[StateId]):
        self.mdp = mdp
        self.order = list(set(roots))
        if not self.order:
            raise BadParameter("bubble of an empty set")
        self.ids = {}
        for i, s in enumerate(self.order):
            if self.ids.setdefault(s.ordinal, i) != i:
                raise _shared_ordinal(self.order[self.ids[s.ordinal]], s)
        self.ends = [len(self.order)]
        self.answers: list = []
        self.targets: list[list[int]] = []

    def grow(self, d: int) -> None:
        """Reach layer ``d``, or stop at the first empty layer."""
        successors_of, order, ids = self.mdp.successors_of, self.order, self.ids
        answers, targets, ends = self.answers, self.targets, self.ends
        i = len(answers)
        # A walk's layers hold a state or two each, so the loop over a layer
        # costs about as much as its states: one flat loop keeps it cheap.
        while len(ends) <= d and i < len(order):
            end = ends[-1]
            while i < end:
                s = order[i]
                i += 1
                answer = successors_of(s)
                row = []
                # A Distribution's support is read directly; other answers
                # go through ``_states_of``, which refuses infinite ones.
                if isinstance(answer, Distribution):
                    pairs = answer.support
                else:
                    pairs = [(t, None) for t in _states_of(answer, s)]
                for t, _ in pairs:
                    o = t.ordinal
                    j = ids.get(o)
                    if j is None:
                        j = ids[o] = len(order)
                        order.append(t)
                    elif order[j] is not t and order[j] != t:
                        raise _shared_ordinal(order[j], t)
                    row.append(j)
                answers.append(answer)
                targets.append(row)
            ends.append(len(order))

    def end(self, d: int) -> int:
        """The number of states within ``d`` steps."""
        self.grow(d)
        return self.ends[min(d, len(self.ends) - 1)]

    def within(self, k: int) -> set[StateId]:
        return set(self.order[:self.end(k)])


def _shared_ordinal(kept: StateId, met: StateId) -> BadModel:
    return BadModel(f"states {kept!r} and {met!r} share the ordinal {met.ordinal}")


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
    ``roots``, by the lumping rule of ``_lumped``: the edges leaving the
    bubble go to a fresh absorbing frontier sink, which is added only when
    some edge uses it.  The ``frontier`` tag must name a policy, optimistic
    or pessimistic, but changes nothing; callers that want the sink to win
    or lose say so in the boundary they solve with.

    One breadth-first search asks each kept state's ``kind_of`` and
    ``successors_of`` once and builds the rows in the same pass: rows in
    ordinal order with the frontier last, successors in oracle order.  The
    search reads a Distribution's support in place.  Each oracle answer
    gets the checks of the ``FiniteMdp`` constructor, with its exception
    types; a random state's non-empty Distribution passes them all, so it
    skips them.  A caller that already searched from ``roots`` may pass its
    ``layers``, which are grown as far as needed instead of searched again.
    The result needs no ``validate``: the search keeps one state per
    ordinal, the frontier's ordinal is above every kept one, and the
    frontier loops on itself.
    """
    if frontier not in (OPTIMISTIC, PESSIMISTIC):
        raise BadParameter(f"unknown frontier policy {frontier!r}")
    if radius < 0:
        raise BadParameter(f"radius must be non-negative, got {radius}")
    if layers is None:
        layers = _Layers(mdp, roots)
    layers.grow(radius + 1)  # asks the states of layer ``radius`` too
    n = layers.end(radius)
    order, answers, targets = layers.order, layers.answers, layers.targets
    # Positions in ``order`` from n on lie outside the bubble: where -1.
    ordinals = [s.ordinal for s in order[:n]]
    rank = sorted(range(n), key=ordinals.__getitem__)
    where = [-1] * len(order)
    for k, i in enumerate(rank):
        where[i] = k
    states = [order[i] for i in rank]
    kind_of, random = mdp.kind_of, StateKind.RANDOM

    def rows():
        for i, s in zip(rank, states):
            kind, answer = kind_of(s), answers[i]
            ks = [where[j] for j in targets[i]]
            # A random state answering a non-empty Distribution passes every
            # check of ``_check_answer``; any other answer goes through it,
            # and only a controlled state's answer passes.
            if kind is random and isinstance(answer, Distribution) and answer.support:
                yield False, ks, [p for _, p in answer.support]
                continue
            _check_answer(s, kind, answer)
            yield True, ks, [math.nan] * len(ks)

    return _lumped(states, rows(), mint("frontier", states[-1].ordinal + 1))


def _lumped(states: list[StateId], rows, sink: StateId) -> FiniteMdp:
    """The finite MDP over ``states`` whose row i is the i-th of ``rows``,
    (controlled, successor positions, probabilities), position -1 for a
    successor outside ``states``.  Random mass leaving ``states`` is summed,
    in support order, into one edge to ``sink``, and the controlled edges
    leaving it become one edge to ``sink``.  The sink is added last, as an
    absorbing random state recorded as the frontier, only when some edge
    uses it.  The result is not validated.  Callers pass a generator, since
    holding every row's lists at once triggers more garbage collections."""
    n = len(states)
    controlled, indptr, succ, prob = [], [0], [], []
    used_sink = False
    for is_controlled, ks, ps in rows:
        controlled.append(is_controlled)
        if min(ks) >= 0:
            succ += ks
            prob += ps
        elif is_controlled:
            succ += [k for k in ks if k >= 0]
            succ.append(n)
            prob += [math.nan] * (len(succ) - len(prob))
            used_sink = True
        else:
            out_mass = 0
            for k, p in zip(ks, ps):
                if k < 0:
                    out_mass += p
                else:
                    succ.append(k)
                    prob.append(p)
            if out_mass > 0.0:
                succ.append(n)
                prob.append(out_mass)
                used_sink = True
        indptr.append(len(succ))
    if not used_sink:
        return FiniteMdp._of_rows(states, controlled, indptr, succ, prob)
    succ.append(n)
    prob.append(1.0)
    indptr.append(len(succ))
    return FiniteMdp._of_rows(states + [sink], controlled + [False], indptr, succ, prob,
                              [{sink}], sink)


def _restrict(fm: FiniteMdp, inside: Iterable[StateId], sink: StateId) -> FiniteMdp:
    """Finite restriction of ``fm`` to the states ``inside``, in ordinal
    order, by the lumping rule of ``_lumped``."""
    states = sorted(inside)
    pos = {fm.index[s]: k for k, s in enumerate(states)}
    indptr, succ, prob = fm.indptr, fm.succ, fm.prob
    rows = (
        (fm.controlled[i], [pos.get(j, -1) for j in succ[indptr[i]:indptr[i + 1]]],
         prob[indptr[i]:indptr[i + 1]])
        for i in pos
    )
    return _lumped(states, rows, sink)


def _with_rows(fm: FiniteMdp, edits: Mapping[int, tuple]) -> FiniteMdp:
    """Copy of ``fm`` whose row i is ``edits[i]`` = (controlled, successor
    indices, probabilities) where given.  It keeps the frontier, not the
    sinks."""
    controlled = list(fm.controlled)
    indptr, succ, prob = [0], [], []
    for i in range(len(fm.states)):
        edit = edits.get(i)
        if edit is None:
            lo, hi = fm.indptr[i], fm.indptr[i + 1]
            succ += fm.succ[lo:hi]
            prob += fm.prob[lo:hi]
        else:
            controlled[i], ks, ps = edit
            succ += ks
            prob += ps
        indptr.append(len(succ))
    return FiniteMdp._of_rows(fm.states, controlled, indptr, succ, prob,
                              frontier=fm.frontier, index=fm.index)


def _absorb(fm: FiniteMdp, states: Iterable[StateId]) -> FiniteMdp:
    """Copy of ``fm`` with ``states`` turned into absorbing random sinks."""
    index = fm.index
    return _with_rows(fm, {index[s]: (False, [index[s]], [1.0]) for s in set(states)})


def _extended(fm: FiniteMdp, s: StateId, like: StateId) -> FiniteMdp:
    """Copy of ``fm`` with the new last state ``s``, whose kind and row are
    those of ``like``.  It keeps the frontier, not the sinks."""
    i = fm.index[like]
    lo, hi = fm.indptr[i], fm.indptr[i + 1]
    index = dict(fm.index)
    index[s] = len(fm.states)
    return FiniteMdp._of_rows(
        fm.states + [s], fm.controlled + [fm.controlled[i]],
        fm.indptr + [len(fm.succ) + hi - lo], fm.succ + fm.succ[lo:hi],
        fm.prob + fm.prob[lo:hi], frontier=fm.frontier, index=index,
    )


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
    seeds: Iterable[Node],
    admit: Callable[[Node], bool] | None = None,
    preds: Sequence[Mapping[Node, Sequence[Node]]] = (),
) -> dict[Node, int]:
    """Breadth-first search backwards from ``seeds`` along the edges of
    ``preds``, mappings that list the predecessors of each state (such as
    ``FiniteMdp.random_preds``).  Returns the distance of every state
    reached, seeds at 0; ``admit(s)``, when given, may refuse a state.
    States are any hashable keys: StateIds, indices of a FiniteMdp, nodes of
    a product."""
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
    fm: FiniteMdp,
    region: Iterable[int],
    allowed: Sequence[bool] | None = None,
) -> set[int]:
    """Largest subset of ``region`` (state indices of ``fm``) where the
    controller can stay forever along allowed edges (``allowed[k]`` for the
    edge at position k of ``fm.succ``; all edges when None): a controlled
    state keeps one allowed edge inside, and a random state needs all of its
    edges allowed and inside.  Each state counts its allowed edges into the
    kept set; a worklist removes the states whose count runs out."""
    indptr, succ, controlled = fm.indptr, fm.succ, fm.controlled
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
