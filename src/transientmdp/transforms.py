"""MDP-to-MDP constructions: the finite-branching reduction and the
conditioned MDP, with the run/strategy translation maps both directions.

The reduction replaces every infinitely branching controlled state by a
recurrent ladder whose level-i state may leave to the i-th successor, and
every infinitely branching random state by a chain of binary random states
with adjusted probabilities p_i' = p_i / prod_{j<i}(1 - p_j'), so the chain
is left at the i-th successor with exactly the original probability p_i.

The conditioned MDP rescales transition probabilities by value ratios so that
every positive-value state has value 1; controlled edges go through pair
states that either commit to the chosen successor or fall to the bottom
state, with probability val(t)/val(s).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    Distribution,
    FiniteMdp,
    GeneralStrategy,
    InfiniteSuccessors,
    LazyMdp,
    MdStrategy,
    Mdp,
    Objective,
    StateId,
    StateKind,
    is_synthetic,
    mint,
    require_sink,
)
from .errors import BadParameter, HitBottom, NotSink, NotTail, ZeroValueRoot
from .solvers import ValueMap

SELF_LOOP = "self_loop"
INFINITE_CHAIN = "infinite_chain"

_POSITIVE = 1e-12


def _cantor(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


# ---------------------------------------------------------------------------
# Finite-branching reduction


class _ReducedMdp(Mdp):
    """Lazy view of the reduced MDP.

    Original states keep their labels at doubled ordinals; gadget states use
    odd ordinals derived from a pairing of the host ordinal and the level.
    """

    def __init__(self, base: Mdp):
        self.base = base
        self._orig_of: dict[StateId, StateId] = {}
        self._gadget: dict[StateId, tuple[str, StateId, int]] = {}
        self._exits: dict[StateId, list[StateId]] = {}
        self._exit_iters: dict[StateId, object] = {}
        self._weights: dict[StateId, list[float | None]] = {}
        self._adjusted: dict[StateId, list[float]] = {}

    # -- state minting ------------------------------------------------------

    def embed(self, s: StateId) -> StateId:
        rs = StateId(2 * s.ordinal, s.label)
        self._orig_of[rs] = s
        return rs

    def original(self, rs: StateId) -> StateId | None:
        return self._orig_of.get(rs)

    def _mint(self, family: str, host: StateId, i: int) -> StateId:
        c = _cantor(host.ordinal, i)
        if family == "ell":
            rs = StateId(4 * c + 1, f"ell({host.label},{i})")
        elif family == "ellp":
            rs = StateId(4 * c + 3, f"ell'({host.label},{i})")
        else:  # z-chain for random hosts; host kinds keep families disjoint
            rs = StateId(4 * c + 1, f"z({host.label},{i})")
        self._gadget[rs] = (family, host, i)
        return rs

    # -- exits and adjusted probabilities ------------------------------------

    def _exit(self, host: StateId, i: int) -> StateId:
        """The i-th enumerated successor of the infinitely branching ``host``;
        a random host's weights are kept alongside."""
        if host not in self._exit_iters:
            succ = self.base.successors_of(host)
            self._exit_iters[host] = (succ.iter_weighted() if succ.random
                                      else ((t, None) for t in succ.iter_states()))
            self._exits[host], self._weights[host] = [], []
        exits, weights = self._exits[host], self._weights[host]
        while len(exits) < i:
            t, p = next(self._exit_iters[host])
            exits.append(t)
            weights.append(p)
        return exits[i - 1]

    def adjusted_probs(self, host: StateId, n: int) -> list[float]:
        """First ``n`` adjusted probabilities p_i' for an infinitely branching
        random host."""
        self._exit(host, n)
        adj = self._adjusted.setdefault(host, [])
        weights = self._weights[host]
        while len(adj) < n:
            i = len(adj)
            prefix = 1.0
            for q in adj:
                prefix *= 1.0 - q
            p = weights[i]
            if p <= 0.0:
                adj.append(0.0)
            elif prefix <= _POSITIVE:
                adj.append(0.0)
            else:
                adj.append(min(1.0, p / prefix))
        return adj[:n]

    # -- MDP oracle -----------------------------------------------------------

    def kind_of(self, rs: StateId) -> StateKind:
        info = self._gadget.get(rs)
        if info is not None:
            family = info[0]
            return StateKind.CONTROLLED if family == "ell" else StateKind.RANDOM
        return self.base.kind_of(self._orig_of[rs])

    def successors_of(self, rs: StateId):
        info = self._gadget.get(rs)
        if info is not None:
            return self._gadget_successors(*info)
        s = self._orig_of[rs]
        succ = self.base.successors_of(s)
        if isinstance(succ, InfiniteSuccessors):
            if succ.random:
                return Distribution([(self._mint("z", s, 1), 1.0)])
            return [self._mint("ell", s, 0)]
        if isinstance(succ, Distribution):
            return Distribution([(self.embed(t), p) for t, p in succ], check=False)
        return [self.embed(t) for t in succ]

    def _gadget_successors(self, family: str, host: StateId, i: int):
        if family == "ell":
            if i == 0:
                return [self._mint("ell", host, 1)]
            return [self._mint("ellp", host, i), self.embed(self._exit(host, i))]
        if family == "ellp":
            lo = self._mint("ell", host, i - 1)
            hi = self._mint("ell", host, i + 1)
            return Distribution([(lo, 0.5), (hi, 0.5)])
        # z-chain level i: leave at exit i with p_i', continue otherwise
        adj = self.adjusted_probs(host, i)
        q = adj[i - 1]
        exit_state = self.embed(self._exit(host, i))
        nxt = self._mint("z", host, i + 1)
        if q >= 1.0:
            return Distribution([(exit_state, 1.0)])
        if q <= 0.0:
            return Distribution([(nxt, 1.0)])
        return Distribution([(exit_state, q), (nxt, 1.0 - q)], check=False)


@dataclass
class ReductionMaps:
    """Outputs of the finite-branching reduction."""

    base: Mdp
    reduced: Mdp
    lift_strategy: Callable[[GeneralStrategy], GeneralStrategy]
    lower_md: Callable[[MdStrategy], MdStrategy]
    adjusted_probs: Callable[[StateId, int], list[float]]
    embed: Callable[[StateId], StateId]
    is_identity: bool = False
    ladder_cap: int = 1000


def _identity_reduction(mdp: Mdp, ladder_cap: int = 1000) -> ReductionMaps:
    """The reduction of an MDP without infinite branching: itself."""
    return ReductionMaps(
        base=mdp,
        reduced=mdp,
        lift_strategy=lambda sigma: sigma,
        lower_md=lambda sigma: sigma,
        adjusted_probs=lambda s, n: [],
        embed=lambda s: s,
        is_identity=True,
        ladder_cap=ladder_cap,
    )


def reduce_to_finitely_branching(mdp: Mdp, ladder_cap: int = 1000) -> ReductionMaps:
    """Finite-branching reduction with strategy maps in both directions.

    ``lower_md`` carries an MD strategy of the reduction back to ``mdp`` as a
    plain table, complete when it is returned.  An embedded state keeps its
    pick.  An infinitely branching controlled host that the strategy decides,
    at its embedding or at a ladder level, picks the exit where its ladder
    trace first leaves the ladder, or the level-1 exit if the trace stays
    ``ladder_cap`` levels.  A host the strategy never decides takes
    MdStrategy's default rule, the first enumerated successor.

    Finite MDPs, and finite truncations generally, contain no infinite
    branching; for those the reduction is the identity.
    """
    if isinstance(mdp, FiniteMdp):
        return _identity_reduction(mdp, ladder_cap)

    reduced = _ReducedMdp(mdp)

    def lift(alpha: GeneralStrategy) -> GeneralStrategy:
        carried: list = [None, 0, []]  # a run, its length then, its contraction

        def contract(run: Sequence[StateId]) -> list[StateId]:
            # The stepper extends one list per run, so the contraction of the
            # part already seen carries over: each state is looked up once.
            if run is not carried[0] or len(run) < carried[1]:
                carried[:] = [run, 0, []]
            out = carried[2]
            for rs in run[carried[1]:]:
                orig = reduced.original(rs)
                if orig is not None:
                    out.append(orig)
            carried[1] = len(run)
            return out

        def decide(run: Sequence[StateId]) -> Distribution:
            here = run[-1]
            info = reduced._gadget.get(here)
            if info is None:
                s = reduced._orig_of[here]
                succ = mdp.successors_of(s)
                if isinstance(succ, InfiniteSuccessors):
                    return Distribution([(reduced._mint("ell", s, 0), 1.0)])
                base_run = contract(run)
                dist = alpha.decide(base_run)
                return Distribution(
                    [(reduced.embed(t), p) for t, p in dist], check=False
                )
            family, host, i = info
            if family == "ell" and i == 0:
                return Distribution([(reduced._mint("ell", host, 1), 1.0)])
            assert family == "ell"
            # Conditional exit probability given the levels already passed.
            base_run = contract(run)
            dist = alpha.decide(base_run)
            visited: set[int] = set()
            for idx in range(len(run) - 2, -1, -1):
                ginfo = reduced._gadget.get(run[idx])
                if ginfo is None:
                    break
                if ginfo[0] == "ell" and ginfo[2] >= 1:
                    visited.add(ginfo[2])
            visited.discard(i)
            p_here = dist.prob(reduced._exit(host, i))
            denom = 1.0 - sum(
                dist.prob(reduced._exit(host, j)) for j in sorted(visited)
            )
            stay = reduced._mint("ellp", host, i)
            exit_state = reduced.embed(reduced._exit(host, i))
            if denom <= _POSITIVE or p_here <= 0.0:
                return Distribution([(stay, 1.0)])
            q = min(1.0, p_here / denom)
            if q >= 1.0:
                return Distribution([(exit_state, 1.0)])
            return Distribution([(exit_state, q), (stay, 1.0 - q)], check=False)

        return GeneralStrategy(decide)

    def trace(host: StateId, beta: MdStrategy) -> StateId:
        for level in range(1, ladder_cap + 1):
            t = reduced.original(beta.successor(reduced, reduced._mint("ell", host, level)))
            if t is not None:
                return t
        return reduced._exit(host, 1)

    def lower(beta: MdStrategy) -> MdStrategy:
        choice: dict[StateId, StateId] = {}
        for rs, rt in beta.choice.items():
            s, t = reduced.original(rs), reduced.original(rt)
            if s is not None and t is not None:
                choice[s] = t
                continue
            host = s if s is not None else reduced._gadget[rs][1]
            if host not in choice:
                choice[host] = trace(host, beta)
        return MdStrategy(choice)

    return ReductionMaps(
        base=mdp,
        reduced=reduced,
        lift_strategy=lift,
        lower_md=lower,
        adjusted_probs=reduced.adjusted_probs,
        embed=reduced.embed,
        is_identity=False,
        ladder_cap=ladder_cap,
    )


# ---------------------------------------------------------------------------
# Conditioned MDP


@dataclass
class ConditionedMdp:
    """Conditioned version of a finite MDP w.r.t. a tail objective.

    Holds the rescaled MDP (finite for the self-loop bottom, lazy for the
    infinite-chain bottom) together with the pair-state correspondence and
    the strategy translations in both directions.
    """

    base: FiniteMdp
    values: ValueMap
    objective: Objective
    bottom_variant: str
    mdp: Mdp
    finite: FiniteMdp | None
    pair_of: dict[tuple[StateId, StateId], StateId]
    bottom: StateId
    positive: set[StateId]

    def is_pair(self, s: StateId) -> bool:
        return is_synthetic(s, "pair")

    def is_bottom(self, s: StateId) -> bool:
        return is_synthetic(s, "bottom")

    def md_to_conditioned(self, sigma: MdStrategy) -> MdStrategy:
        """Interpret an MD strategy of the base MDP in the conditioned MDP."""
        choice = {}
        for s in self.positive:
            if self.base.kind_of(s) is StateKind.CONTROLLED:
                choice[s] = self.pair_of[(s, sigma.successor(self.base, s))]
        return MdStrategy(choice)

    def md_to_base(self, sigma: MdStrategy) -> MdStrategy:
        """Interpret an MD strategy of the conditioned MDP in the base MDP."""
        choice = {}
        rev = {pair: edge for edge, pair in self.pair_of.items()}
        for s in self.positive:
            if self.base.kind_of(s) is StateKind.CONTROLLED:
                picked = sigma.successor(self.mdp, s)
                edge = rev.get(picked)
                if edge is not None:
                    choice[s] = edge[1]
        return MdStrategy(choice)

    def contract_run(self, run: Sequence[StateId]) -> list[StateId]:
        """Natural contraction: delete all pair states; undefined once the
        run enters the bottom."""
        out = []
        for s in run:
            if self.is_bottom(s):
                raise HitBottom(f"run enters {s.label}; contraction undefined")
            if self.is_pair(s):
                continue
            out.append(s)
        return out

    def to_json(self) -> dict:
        if self.finite is None:
            raise BadParameter("infinite-chain bottom variant does not serialize")
        return self.finite.to_json()


def _require_reach_to_sink(fm: FiniteMdp, phi: Objective) -> frozenset[StateId]:
    if phi.kind != Objective.REACH or phi.states is None:
        raise NotTail(
            "conditioning supports Reach objectives with sink targets; encode "
            "other tail objectives upstream"
        )
    try:
        require_sink(fm, phi.states)
    except NotSink as exc:
        raise NotTail(str(exc)) from exc
    return phi.states


def _conditioning(fm: FiniteMdp, values: ValueMap):
    """The positive-value states of ``fm`` in ordinal order, and for each
    positive random state its edges into them, each scaled by p v(t) / v(s),
    with their sum."""
    positive = sorted(s for s in fm.states if values.get(s, 0.0) > _POSITIVE)
    inside = set(positive)
    rows = {}
    for s in positive:
        succ = fm.successors_of(s)
        if isinstance(succ, Distribution):
            entries = [(t, p * values[t] / values[s]) for t, p in succ if t in inside]
            rows[s] = entries, sum(p for _, p in entries)
    return positive, rows


def conditioned(
    fm: FiniteMdp,
    phi: Objective,
    values: ValueMap,
    bottom: str = SELF_LOOP,
    root: StateId | None = None,
) -> ConditionedMdp:
    """Conditioned MDP: positive-value states, pair states for controlled
    edges, probabilities rescaled by value ratios, plus a bottom state (a
    self-loop or, for the chain variant, a lazily generated infinite chain).
    """
    _require_reach_to_sink(fm, phi)
    if bottom not in (SELF_LOOP, INFINITE_CHAIN):
        raise BadParameter(f"unknown bottom variant {bottom!r}")
    positive, rows = _conditioning(fm, values)
    inside = set(positive)
    if root is not None and root not in inside:
        raise ZeroValueRoot(f"{root.label or root.ordinal} has value 0")

    top = max(s.ordinal for s in fm.states)
    pair_edges = sorted(
        (s, t)
        for s in positive
        if fm.kind_of(s) is StateKind.CONTROLLED
        for t in fm.successors_of(s)
    )
    pair_of = {
        edge: mint("pair", top + 1 + i, f"pair({edge[0].label},{edge[1].label})")
        for i, edge in enumerate(pair_edges)
    }
    bottom_state = mint(
        "bottom", top + 1 + len(pair_edges), "s_bot" if bottom == SELF_LOOP else "s_bot_1"
    )

    kinds: dict[StateId, StateKind] = {}
    transitions: dict[StateId, object] = {}
    for s in positive:
        kinds[s] = fm.kind_of(s)
        if s in rows:
            entries, total = rows[s]
            if abs(total - 1.0) > 1e-6:
                raise BadParameter(
                    f"conditioned probabilities at {s.label} sum to {total}; "
                    "values do not satisfy the tail value equation"
                )
            transitions[s] = Distribution([(t, p / total) for t, p in entries], check=False)
        else:
            transitions[s] = [pair_of[(s, t)] for t in fm.successors_of(s)]
    for (s, t), pair in pair_of.items():
        kinds[pair] = StateKind.RANDOM
        ratio = values.get(t, 0.0) / values[s]
        ratio = min(max(ratio, 0.0), 1.0)
        entries = []
        if ratio > 0.0:
            entries.append((t, ratio))
        if ratio < 1.0:
            entries.append((bottom_state, 1.0 - ratio))
        transitions[pair] = Distribution(entries, check=False)

    states = positive + [pair_of[e] for e in pair_edges] + [bottom_state]
    kinds[bottom_state] = StateKind.RANDOM

    if bottom == SELF_LOOP:
        transitions[bottom_state] = Distribution([(bottom_state, 1.0)])
        finite = FiniteMdp(states, kinds, transitions, [], check=False)
        mdp: Mdp = finite
    else:
        finite = None

        def chain_kind(s: StateId) -> StateKind:
            return StateKind.RANDOM if is_synthetic(s, "bottom") else kinds[s]

        def chain_successors(s: StateId):
            if is_synthetic(s, "bottom"):
                # s_bot_k sits at the ordinal of s_bot_1 plus k - 1.
                k = s.ordinal - bottom_state.ordinal + 2
                return Distribution([(mint("bottom", s.ordinal + 1, f"s_bot_{k}"), 1.0)])
            return transitions[s]

        mdp = LazyMdp(chain_kind, chain_successors)

    return ConditionedMdp(
        base=fm,
        values=values,
        objective=phi,
        bottom_variant=bottom,
        mdp=mdp,
        finite=finite,
        pair_of=pair_of,
        bottom=bottom_state,
        positive=inside,
    )


def plus_variant(fm: FiniteMdp, phi: Objective, values: ValueMap) -> FiniteMdp:
    """The restricted conditioned variant: positive-value states only,
    controlled edges kept only when value-preserving, random edges rescaled;
    no pair states and no bottom.  A positive random state with no positive
    successor raises BadParameter: its values are off the value equation."""
    _require_reach_to_sink(fm, phi)
    positive, rows = _conditioning(fm, values)
    if not positive:
        raise ZeroValueRoot("no positive-value states")
    inside = set(positive)
    kinds: dict[StateId, StateKind] = {}
    transitions: dict[StateId, object] = {}
    for s in positive:
        kinds[s] = fm.kind_of(s)
        if s in rows:
            entries, total = rows[s]
            if not total > 0.0:
                raise BadParameter(
                    f"conditioned probabilities at {s.label} sum to {total}; "
                    "values do not satisfy the tail value equation"
                )
            transitions[s] = Distribution([(t, p / total) for t, p in entries], check=False)
        else:
            succ = [t for t in fm.successors_of(s) if t in inside]
            kept = [t for t in succ if abs(values[t] - values[s]) <= 1e-9]
            if not kept:
                # float drift guard: keep the max-value successors
                best = max(values[t] for t in succ)
                kept = [t for t in succ if values[t] >= best - 1e-9]
            transitions[s] = kept
    return FiniteMdp(positive, kinds, transitions, [], check=False)
