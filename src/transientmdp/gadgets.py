"""Constructors for the example MDPs, with closed-form metadata as oracles.

Every gadget fixes a deterministic interleaved enumeration of its state
families so that the ordinal map is stable across runs; the safety slack rule
and the cost labels in the synthesis module depend on it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

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


@dataclass
class GadgetMeta:
    name: str
    params: dict
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

    def w(i: int) -> StateId:
        return StateId(i, f"w_{i}")

    def successors(s: StateId):
        i = s.ordinal
        if i == 0:
            return Distribution([(w(1), 1.0)])
        return Distribution([(w(i + 1), p), (w(i - 1), 1.0 - p)])

    def vstep(pos, u):
        import numpy as np

        # w_0 goes to w_1 on either branch: |0 - 1| = 1.
        return np.abs(np.where(u < p, pos + 1, pos - 1))

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

_HALF = Fraction(1, 2)


def _ladder_state(family: str, i: int) -> StateId:
    # Interleaved enumeration: bot=0, ell_i=4i+1, ell'_i=4i+2, r_i=4i+3, x_i=4i+4.
    if family == "bot":
        return StateId(0, "bot")
    if family == "ell":
        return StateId(4 * i + 1, f"ell_{i}")
    if family == "ellp":
        return StateId(4 * i + 2, f"ell'_{i}")
    if family == "r":
        return StateId(4 * i + 3, f"r_{i}")
    if family == "x":
        return StateId(4 * i + 4, f"x_{i}")
    raise ValueError(family)


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

    def successors(s: StateId):
        o = s.ordinal
        if o == 0:
            return Distribution([(s, 1.0)], exact={s: Fraction(1)})
        fam, i = ("ell", (o - 1) // 4) if o % 4 == 1 else \
                 ("ellp", (o - 2) // 4) if o % 4 == 2 else \
                 ("r", (o - 3) // 4) if o % 4 == 3 else ("x", (o - 4) // 4)
        if fam == "ell":
            if i == 0:
                return [_ladder_state("ell", 1)]
            return [_ladder_state("ellp", i), _ladder_state("r", i)]
        if fam == "ellp":
            lo, hi = _ladder_state("ell", i - 1), _ladder_state("ell", i + 1)
            return Distribution([(lo, 0.5), (hi, 0.5)], exact={lo: _HALF, hi: _HALF})
        if fam == "r":
            x, bot = _ladder_state("x", i), _ladder_state("bot", 0)
            q = Fraction(1, 2**i)
            return Distribution(
                [(x, float(1 - q)), (bot, float(q))], exact={x: 1 - q, bot: q}
            )
        return [_ladder_state("x", i + 1)]

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

    def s(k: int) -> StateId:
        return StateId(k, f"s_{k}")

    def successors(state: StateId):
        k = state.ordinal
        if k == 0:
            return [s(0), s(1)]
        return [s(k + 1)]

    mdp = LazyMdp(lambda _: StateKind.CONTROLLED, successors)

    def decide(history: tuple[StateId, ...]) -> Distribution:
        here = history[-1]
        if here.ordinal != 0:
            return Distribution([(s(here.ordinal + 1), 1.0)])
        # A run that leaves s_0 never returns, so the whole history is s_0.
        visits = len(history)
        # Decision points sit at cumulative visit counts 1, 1+2, 1+2+4, ...
        c, i = 1, 1
        while c < visits:
            c += 2**i
            i += 1
        if c == visits:
            return Distribution([(s(1), 0.5), (s(0), 0.5)])
        return Distribution([(s(0), 1.0)])

    meta = GadgetMeta(
        name="lazy_self_loop",
        params={},
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

    def c(k: int) -> StateId:
        return StateId(k, f"c_{k}")

    def vstep(pos, u):
        return pos + 1

    mdp = ChainMdp(
        lambda _: StateKind.RANDOM,
        lambda state: Distribution([(c(state.ordinal + 1), 1.0)]),
        VectorChain(step=vstep, ordinal_bound=lambda o, h: o + h + 1),
    )
    meta = GadgetMeta(
        name="acyclic_chain",
        params={},
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
    return Distribution([(good, 1.0 - q), (bad, q)] if q else [(good, 1.0)])


def safety_fan() -> tuple[Mdp, GadgetMeta]:
    """Infinitely branching controlled fan with safety values approaching 1.

    The fan root chooses among branches b_j (j >= 1); branch j moves onto a
    shared safe acyclic chain with probability 1 - 2^{-j} and onto the
    unsafe chain (labels ``bot_k``) otherwise.  The safety value of the root
    is 1 but no single branch attains it.  The whole MDP is acyclic, hence
    universally transient.
    """

    def b(j: int) -> StateId:
        return StateId(3 * j, f"b_{j}")

    def a(k: int) -> StateId:
        return StateId(3 * k + 1, f"a_{k}")

    def bot(k: int) -> StateId:
        return StateId(3 * k + 2, f"bot_{k}")

    def kind(s: StateId) -> StateKind:
        return StateKind.CONTROLLED if s.ordinal == 0 else StateKind.RANDOM

    def successors(s: StateId):
        o = s.ordinal
        if o == 0:
            return InfiniteSuccessors(
                items=lambda: (b(j) for j in _count_from(1)), random=False
            )
        if o % 3 == 0:
            return _fan_branch(o // 3, a(0), bot(0))
        k = (o - 1) // 3 if o % 3 == 1 else (o - 2) // 3
        if o % 3 == 1:
            return Distribution([(a(k + 1), 1.0)])
        return Distribution([(bot(k + 1), 1.0)])

    mdp = LazyMdp(kind, successors)
    known = [KnownValue("fan", Objective.SAFETY, 1.0, "supremum over branches")]
    for j in (1, 3, 5, 8):
        known.append(
            KnownValue(f"b_{j}", Objective.SAFETY, 1.0 - 2.0**-j, "branch weight")
        )
    meta = GadgetMeta(
        name="safety_fan",
        params={},
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

    def b(j: int) -> StateId:
        return StateId(3 * j, f"b_{j}")

    def a(k: int) -> StateId:
        return StateId(3 * k + 1, f"a_{k}")

    trap = StateId(2, "trap")

    def kind(s: StateId) -> StateKind:
        return StateKind.CONTROLLED if s.ordinal == 0 else StateKind.RANDOM

    def successors(s: StateId):
        o = s.ordinal
        if o == 0:
            return InfiniteSuccessors(
                items=lambda: (b(j) for j in _count_from(1)), random=False
            )
        if s == trap:
            return Distribution([(trap, 1.0)])
        if o % 3 == 0:
            return _fan_branch(o // 3, a(0), trap)
        return Distribution([(a((o - 1) // 3 + 1), 1.0)])

    mdp = LazyMdp(kind, successors)
    known = [KnownValue("fan", Objective.TRANSIENCE, 1.0, "supremum over branches")]
    for j in (1, 2, 4):
        known.append(
            KnownValue(f"b_{j}", Objective.TRANSIENCE, 1.0 - 2.0**-j, "branch weight")
        )
    meta = GadgetMeta(
        name="transience_fan",
        params={},
        known_values=known,
        universally_transient=False,
        transient_condition="trap state is recurrent",
        # The root 0, the trap 2, b_j = 3j and a_k = 3k + 1.
        is_state=lambda o: o >= 0 and (o % 3 != 2 or o == 2),
    )
    return mdp, meta


def geometric_fan() -> tuple[Mdp, GadgetMeta]:
    """Infinitely branching random state with the geometric weights 2^{-j}
    over the transience-fan branches; Transience value is
    sum_j 2^{-j} (1 - 2^{-j}) = 2/3 from the root."""
    base, _ = transience_fan()

    root = StateId(5, "root")  # ordinals 3j, 3k+1, 2 are taken; 5 is free

    def kind(s: StateId) -> StateKind:
        if s == root:
            return StateKind.RANDOM
        return base.kind_of(s)

    def successors(s: StateId):
        if s == root:
            return InfiniteSuccessors(
                items=lambda: ((StateId(3 * j, f"b_{j}"), 2.0**-j) for j in _count_from(1)),
                random=True,
            )
        if s.ordinal == 0:
            raise BadParameter("ordinal 0 is not a state of the geometric fan")
        return base.successors_of(s)

    mdp = LazyMdp(kind, successors)
    meta = GadgetMeta(
        name="geometric_fan",
        params={},
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
