"""Constructors for the example MDPs, with closed-form metadata as oracles.

Every gadget fixes a deterministic interleaved enumeration of its state
families so that the ordinal map is stable across runs; the safety slack rule
and the cost labels in the synthesis module depend on it.

Each gadget instance hands out one StateId per ordinal (``_interned``), so
the results that keep its states share them, and the states go away with the
instance.  The oracles build their Distributions unchecked; the gadget tests
check the sums and supports once, over the first states of every gadget.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .core import (
    Distribution,
    GeneralStrategy,
    InfiniteSuccessors,
    LazyMdp,
    MdStrategy,
    Mdp,
    Objective,
    StateId,
    StateKind,
)
from .errors import BadParameter
from .simulate import VectorChain


@dataclass(frozen=True)
class KnownValue:
    label: str
    objective: str
    value: float
    note: str


def _natural(ordinal: int) -> bool:
    return ordinal >= 0


def _interned(label: Callable[[int], str]) -> Callable[[int], StateId]:
    """``state(o)``: the one StateId of ordinal ``o`` that a gadget instance
    hands out, labelled ``label(o)``, made on first ask and kept."""
    states: dict[int, StateId] = {}

    def state(o: int) -> StateId:
        s = states.get(o)
        if s is None:
            s = states[o] = StateId(o, label(o))
        return s

    return state


@dataclass
class GadgetMeta:
    name: str
    params: dict
    # The gadget's own state of each ordinal, labelled as its oracles hand
    # it out.
    state: Callable[[int], StateId]
    known_values: list[KnownValue] = field(default_factory=list)
    universally_transient: bool | None = None
    transient_condition: str = ""
    # Which ordinals name states of the gadget.
    is_state: Callable[[int], bool] = _natural

    def value(self, label: str, objective: str) -> float:
        for kv in self.known_values:
            if kv.label == label and kv.objective == objective:
                return kv.value
        raise KeyError((label, objective))


class ChainMdp(LazyMdp):
    """Lazy MDP that may expose a vectorized step model for fast Monte Carlo."""

    def __init__(self, kind_fn, successors_fn, vector: VectorChain | None = None):
        super().__init__(kind_fn, successors_fn)
        self._vector = vector

    def vector_chain(self) -> VectorChain | None:
        return self._vector


# ---------------------------------------------------------------------------
# Gambler's Ruin with restart


def gamblers_ruin(p: float) -> tuple[Mdp, GadgetMeta]:
    """Random walk w_0 -> w_1 -> ... with up-probability ``p`` and restart
    edge w_0 -> w_1; transient exactly when p > 1/2."""
    if not 0.0 < p < 1.0:
        raise BadParameter(f"p must lie in (0,1), got {p}")

    w = _interned(lambda i: f"w_{i}")

    def successors(s: StateId):
        i = s.ordinal
        if i == 0:
            return Distribution([(w(1), 1.0)], check=False)
        return Distribution([(w(i + 1), p), (w(i - 1), 1.0 - p)], check=False)

    def vstep(pos, u):
        # pos - 1 + 2 [u < p], then w_0 goes to w_1 on either branch: |0 - 1| = 1.
        out = pos - 1
        out += 2 * (u < p)
        return np.abs(out, out=out)

    mdp = ChainMdp(
        lambda s: StateKind.RANDOM,
        successors,
        VectorChain(step=vstep, ordinal_bound=lambda o, h: o + h + 1),
    )
    transient = p > 0.5
    value = 1.0 if transient else 0.0
    meta = GadgetMeta(
        name="gamblers_ruin",
        params={"p": p},
        state=w,
        known_values=[
            KnownValue("w_0", Objective.TRANSIENCE, value, "threshold at p=1/2"),
            KnownValue("w_1", Objective.TRANSIENCE, value, "threshold at p=1/2"),
            KnownValue(
                "w_0",
                "return",
                min(1.0, (1.0 - p) / p),
                "first-return probability (1-p)/p for the up-drift walk",
            ),
        ],
        universally_transient=transient,
        transient_condition="p > 1/2",
    )
    return mdp, meta


# ---------------------------------------------------------------------------
# The ladder MDP without optimal strategies

# Interleaved enumeration: bot=0, ell_i=4i+1, ell'_i=4i+2, r_i=4i+3, x_i=4i+4.
_LADDER_OFFSET = {"ell": 1, "ellp": 2, "r": 3, "x": 4}


def _ladder_label(o: int) -> str:
    if o == 0:
        return "bot"
    i, family = divmod(o - 1, 4)
    return (f"ell_{i}", f"ell'_{i}", f"r_{i}", f"x_{i}")[family]


def _ladder_state(family: str, i: int) -> StateId:
    if family == "bot":
        return StateId(0, "bot")
    if family not in _LADDER_OFFSET:
        raise BadParameter(f"unknown ladder family {family!r}")
    o = 4 * i + _LADDER_OFFSET[family]
    return StateId(o, _ladder_label(o))


def no_optimal_ladder() -> tuple[Mdp, GadgetMeta]:
    """Recurrent decision ladder with exits r_i of value 1 - 2^{-i}.

    Controlled ell_i either stays on the fair-walk ladder (ell'_i) or exits to
    the random state r_i, which reaches the transient x-chain with probability
    1 - 2^{-i} and falls into the bottom sink otherwise.  Every controlled
    state has Transience value 1 but no strategy attains it.
    """

    def kind(s: StateId) -> StateKind:
        o = s.ordinal
        if o == 0 or o % 4 in (2, 3):
            return StateKind.RANDOM
        return StateKind.CONTROLLED

    state = _interned(_ladder_label)

    def successors(s: StateId):
        o = s.ordinal
        if o == 0:
            return Distribution([(s, 1.0)], check=False)
        i, family = divmod(o - 1, 4)
        if family == 0:  # ell_i: to ell'_i and r_i, or ell_0 to ell_1
            return [state(5)] if i == 0 else [state(o + 1), state(o + 2)]
        if family == 1:  # ell'_i: fair step to ell_{i-1} or ell_{i+1}
            lo, hi = state(o - 5), state(o + 3)
            return Distribution([(lo, 0.5), (hi, 0.5)], check=False)
        if family == 2:  # r_i: to x_i, or to bot with probability 2^-i
            # 2^-i is exact and 1 - 2^-i correctly rounded; from i = 1075 on
            # the edge to bot carries 0.0.
            q = 2.0**-i
            return Distribution([(state(o + 1), 1.0 - q), (state(0), q)], check=False)
        return [state(o + 4)]  # x_i to x_{i+1}

    mdp = LazyMdp(kind, successors)
    known = [
        KnownValue("ell_0", Objective.TRANSIENCE, 1.0, "supremum over exit levels"),
        KnownValue("x_1", Objective.TRANSIENCE, 1.0, "acyclic chain"),
    ]
    for i in (1, 2, 3, 5, 10):
        known.append(
            KnownValue(
                f"r_{i}", Objective.TRANSIENCE, 1.0 - 2.0**-i, "exit branch weight"
            )
        )
    meta = GadgetMeta(
        name="no_optimal_ladder",
        params={},
        state=state,
        known_values=known,
        universally_transient=False,
        transient_condition="bottom sink is recurrent",
        # bot, ell_0, then every family from level 1 (ell_1 is ordinal 5).
        is_state=lambda o: o in (0, 1) or o >= 5,
    )
    return mdp, meta


def ladder_state(family: str, i: int) -> StateId:
    """Public accessor for the ladder gadget's states."""
    return _ladder_state(family, i)


def ladder_exit_strategy(j: int) -> MdStrategy:
    """MD strategy on the ladder gadget: stay below level j, exit at j."""
    if j < 1:
        raise BadParameter("exit level must be >= 1")
    choice = {_ladder_state("ell", i): _ladder_state("ellp", i) for i in range(1, j)}
    choice[_ladder_state("ell", j)] = _ladder_state("r", j)
    return MdStrategy(choice)


# ---------------------------------------------------------------------------
# Almost-sure transience with infinite expected visits


def lazy_self_loop_example() -> tuple[Mdp, GeneralStrategy, GadgetMeta]:
    """Chain s_0 -> s_1 -> ... with a self-loop at s_0, plus the round-based
    strategy: in round i a fair coin decides between leaving to s_1 and
    looping at s_0 exactly 2^i more times.  The strategy is almost surely
    transient yet its expected number of visits to s_0 diverges."""

    s = _interned(lambda k: f"s_{k}")

    def successors(state: StateId):
        k = state.ordinal
        if k == 0:
            return [s(0), s(1)]
        return [s(k + 1)]

    mdp = LazyMdp(lambda _: StateKind.CONTROLLED, successors)
    coin = Distribution([(s(1), 0.5), (s(0), 0.5)])
    stay = Distribution([(s(0), 1.0)])

    def decide(history: tuple[StateId, ...]) -> Distribution:
        here = history[-1]
        if here.ordinal != 0:
            return Distribution([(s(here.ordinal + 1), 1.0)], check=False)
        # A run that leaves s_0 never returns, so the whole history is s_0.
        visits = len(history)
        # Decision points sit at cumulative visit counts 1, 1+2, 1+2+4, ...
        c, i = 1, 1
        while c < visits:
            c += 2**i
            i += 1
        return coin if c == visits else stay

    meta = GadgetMeta(
        name="lazy_self_loop",
        params={},
        state=s,
        known_values=[
            KnownValue("s_0", Objective.TRANSIENCE, 1.0, "coin per round, (1/2)^inf = 0"),
        ],
        universally_transient=False,
        transient_condition="self-loop at s_0 is playable forever",
    )
    return mdp, GeneralStrategy(decide), meta


# ---------------------------------------------------------------------------
# Auxiliary families used by the acceptance checks


def acyclic_chain() -> tuple[Mdp, GadgetMeta]:
    """Deterministic chain c_0 -> c_1 -> ...; acyclic, hence universally
    transient with Transience value 1 everywhere."""

    c = _interned(lambda k: f"c_{k}")

    def vstep(pos, u):
        return pos + 1

    mdp = ChainMdp(
        lambda _: StateKind.RANDOM,
        lambda state: Distribution([(c(state.ordinal + 1), 1.0)], check=False),
        VectorChain(step=vstep, ordinal_bound=lambda o, h: o + h + 1),
    )
    meta = GadgetMeta(
        name="acyclic_chain",
        params={},
        state=c,
        known_values=[KnownValue("c_0", Objective.TRANSIENCE, 1.0, "acyclic")],
        universally_transient=True,
        transient_condition="always",
    )
    return mdp, meta


def _fan_branch(j: int, good: StateId, bad: StateId) -> Distribution:
    """Fan branch b_j: ``good`` with probability 1 - 2^-j, ``bad`` otherwise.
    From j = 1075 on 2^-j underflows to 0.0 and 1 - 2^-j is exactly 1.0, so
    the zero-mass edge is left out."""
    q = 2.0**-j
    return Distribution([(good, 1.0 - q), (bad, q)] if q else [(good, 1.0)], check=False)


def safety_fan() -> tuple[Mdp, GadgetMeta]:
    """Infinitely branching controlled fan with safety values approaching 1.

    The fan root chooses among branches b_j (j >= 1); branch j moves onto a
    shared safe acyclic chain with probability 1 - 2^{-j} and onto the
    unsafe chain (labels ``bot_k``) otherwise.  The safety value of the root
    is 1 but no single branch attains it.  The whole MDP is acyclic, hence
    universally transient.
    """

    # The root fan = 0, b_j = 3j, a_k = 3k + 1, bot_k = 3k + 2.
    state = _interned(
        lambda o: "fan" if o == 0 else (f"b_{o // 3}", f"a_{o // 3}", f"bot_{o // 3}")[o % 3])

    def kind(s: StateId) -> StateKind:
        return StateKind.CONTROLLED if s.ordinal == 0 else StateKind.RANDOM

    def successors(s: StateId):
        o = s.ordinal
        if o == 0:
            return InfiniteSuccessors(
                items=lambda: (state(3 * j) for j in _count_from(1)), random=False
            )
        if o % 3 == 0:
            return _fan_branch(o // 3, state(1), state(2))
        # a_k to a_{k+1}, bot_k to bot_{k+1}
        return Distribution([(state(o + 3), 1.0)], check=False)

    mdp = LazyMdp(kind, successors)
    known = [KnownValue("fan", Objective.SAFETY, 1.0, "supremum over branches")]
    for j in (1, 3, 5, 8):
        known.append(
            KnownValue(f"b_{j}", Objective.SAFETY, 1.0 - 2.0**-j, "branch weight")
        )
    meta = GadgetMeta(
        name="safety_fan",
        params={},
        state=state,
        known_values=known,
        universally_transient=True,
        transient_condition="acyclic",
    )
    return mdp, meta


def safety_fan_avoid(s: StateId) -> bool:
    """Avoid predicate for the safety fan: the unsafe bot-chain."""
    return s.label.startswith("bot_")


def transience_fan() -> tuple[Mdp, GadgetMeta]:
    """Infinitely branching controlled fan for the Transience objective.

    Branch j moves onto a shared transient chain with probability 1 - 2^{-j}
    and into a recurrent trap otherwise, so branch values approach 1 without
    a maximizing choice.
    """

    state = _interned(_transience_fan_label)
    mdp = _transience_fan(state)
    known = [KnownValue("fan", Objective.TRANSIENCE, 1.0, "supremum over branches")]
    for j in (1, 2, 4):
        known.append(
            KnownValue(f"b_{j}", Objective.TRANSIENCE, 1.0 - 2.0**-j, "branch weight")
        )
    meta = GadgetMeta(
        name="transience_fan",
        params={},
        state=state,
        known_values=known,
        universally_transient=False,
        transient_condition="trap state is recurrent",
        # The root 0, the trap 2, b_j = 3j and a_k = 3k + 1.
        is_state=lambda o: o >= 0 and (o % 3 != 2 or o == 2),
    )
    return mdp, meta


def _transience_fan_label(o: int) -> str:
    # The root fan = 0, the trap 2, b_j = 3j and a_k = 3k + 1.
    if o == 0:
        return "fan"
    return "trap" if o == 2 else (f"b_{o // 3}", f"a_{o // 3}")[o % 3]


def _transience_fan(state: Callable[[int], StateId]) -> LazyMdp:
    """The transience fan's oracles over the states that ``state`` hands out."""
    trap = state(2)

    def kind(s: StateId) -> StateKind:
        return StateKind.CONTROLLED if s.ordinal == 0 else StateKind.RANDOM

    def successors(s: StateId):
        o = s.ordinal
        if o == 0:
            return InfiniteSuccessors(
                items=lambda: (state(3 * j) for j in _count_from(1)), random=False
            )
        if s == trap:
            return Distribution([(trap, 1.0)], check=False)
        if o % 3 == 0:
            return _fan_branch(o // 3, state(1), trap)
        return Distribution([(state(o + 3), 1.0)], check=False)  # a_k to a_{k+1}

    return LazyMdp(kind, successors)


def geometric_fan() -> tuple[Mdp, GadgetMeta]:
    """Infinitely branching random state with the geometric weights 2^{-j}
    over the transience-fan branches; Transience value is
    sum_j 2^{-j} (1 - 2^{-j}) = 2/3 from the root."""
    state = _interned(_transience_fan_label)
    base = _transience_fan(state)

    root = StateId(5, "root")  # ordinals 3j, 3k+1, 2 are taken; 5 is free

    def kind(s: StateId) -> StateKind:
        if s == root:
            return StateKind.RANDOM
        return base.kind_of(s)

    def successors(s: StateId):
        if s == root:
            return InfiniteSuccessors(
                items=lambda: ((state(3 * j), 2.0**-j) for j in _count_from(1)),
                random=True,
            )
        if s.ordinal == 0:
            raise BadParameter("ordinal 0 is not a state of the geometric fan")
        return base.successors_of(s)

    mdp = LazyMdp(kind, successors)
    meta = GadgetMeta(
        name="geometric_fan",
        params={},
        state=lambda o: root if o == root.ordinal else state(o),
        known_values=[
            KnownValue("root", Objective.TRANSIENCE, 2.0 / 3.0, "sum 2^{-j}(1-2^{-j})"),
        ],
        universally_transient=False,
        transient_condition="trap state is recurrent",
        # The transience fan without its root, plus this root.
        is_state=lambda o: o in (2, 5) or (o > 0 and o % 3 != 2),
    )
    return mdp, meta


def _count_from(start: int) -> Iterator[int]:
    i = start
    while True:
        yield i
        i += 1


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class RegisteredGadget:
    name: str
    build: Callable
    schema: dict
    summary: str


REGISTRY: dict[str, RegisteredGadget] = {}


def _register(name: str, build: Callable, schema: dict, summary: str) -> None:
    REGISTRY[name] = RegisteredGadget(name, build, schema, summary)


_register(
    "gamblers_ruin",
    gamblers_ruin,
    {"p": "float in (0,1)"},
    "random walk with restart; transient iff p > 1/2",
)
_register(
    "no_optimal_ladder",
    no_optimal_ladder,
    {},
    "ladder with exits of value 1 - 2^{-i}; no optimal strategy",
)
_register(
    "lazy_self_loop",
    lambda: lazy_self_loop_example()[::2],
    {},
    "self-loop chain with the round-based coin strategy",
)
_register("acyclic_chain", acyclic_chain, {}, "deterministic transient chain")
_register(
    "safety_fan",
    safety_fan,
    {},
    "infinitely branching fan with safety values approaching 1",
)
_register(
    "transience_fan",
    transience_fan,
    {},
    "infinitely branching controlled fan with transience values approaching 1",
)
_register(
    "geometric_fan",
    geometric_fan,
    {},
    "infinitely branching random state with geometric branch weights",
)


def build_gadget(name: str, params: dict | None = None) -> tuple[Mdp, GadgetMeta]:
    if name not in REGISTRY:
        raise BadParameter(f"unknown gadget {name!r}; see list-gadgets")
    return REGISTRY[name].build(**(params or {}))
