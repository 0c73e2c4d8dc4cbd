"""Seeded inputs of the benchmark workloads.

Everything the program receives is generated here from the benchmark seed,
so the same seed gives byte-identical inputs.  The finite corpus is drawn by
rejection sampling into fixed strata, so another seed changes the instances
but not the mix.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from transientmdp import verify
from transientmdp.core import FiniteMdp, StateId, StateKind, successor_states
from transientmdp.solvers import CostLabel

# Instances per (number of states, some state has infinite minimum cost).
# Plastering and optimal-where-exists run on instances of up to 40 states.
STRATA: dict[tuple[int, bool], int] = {
    (8, False): 100,
    (8, True): 1,
    (40, False): 12,
    (40, True): 0,
    (120, False): 4,
    (120, True): 0,
}
PLASTERING_MAX_STATES = 40

# The infinite-cost stratum also fixes the shape that sets the cost of
# min_expected_cost_md's Gauss-Seidel loop, which runs to its sweep cap on
# these instances: the number of states outside the zero-cost region and the
# number of edges leaving them.  (5, 10) is the most common shape among the
# 8-state infinite-cost instances.
INFINITE_SHAPE = (5, 10)
CANDIDATE_CAP = 200_000
# Candidates examined per stratum even after it is filled, so that set-up
# time does not depend on how early the seed's stream yields a match (about
# 1 in 500 candidates has the infinite-cost shape).
MIN_SCAN = {(8, True): 3_000}


def bench_seed(*parts) -> int:
    """63-bit seed derived from arbitrary parts, owned by the benchmark so
    that its inputs do not move when the package's seed helper changes."""
    digest = hashlib.sha256(repr(("perfbench",) + parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class FiniteInstance:
    ident: str
    n_states: int
    infinite_cost: bool
    fm: FiniteMdp
    cost: CostLabel
    rewards: dict[StateId, float]

    @property
    def win(self) -> StateId:
        return self.fm.states[-1]

    @property
    def lose(self) -> StateId:
        return self.fm.states[-2]

    def to_json(self) -> dict:
        return {
            "id": self.ident,
            "mdp": self.fm.to_json(),
            "cost": sorted(
                [s.ordinal, t.ordinal, c] for (s, t), c in self.cost.cost.items()
            ),
            "rewards": sorted([s.ordinal, r] for s, r in self.rewards.items()),
        }


def cost_label(fm: FiniteMdp, seed: int) -> CostLabel:
    """Random edge costs in {0, 0.5, 1, 2}; self-loops cost 0 so that the
    sinks stay zero-cost absorbing."""
    rng = random.Random(seed)
    cost = {}
    for s in fm.states:
        for t in successor_states(fm, s):
            if t != s:
                cost[(s, t)] = rng.choice([0.0, 0.5, 1.0, 2.0])
    return CostLabel(cost)


def zero_cost_region(fm: FiniteMdp, cost: CostLabel) -> set[StateId]:
    """Largest set where cost 0 can be sustained forever."""
    region = set(fm.states)
    changed = True
    while changed:
        changed = False
        for s in list(region):
            succ = successor_states(fm, s)
            inside = [t in region and cost.of(s, t) == 0.0 for t in succ]
            ok = any(inside) if fm.kind_of(s) is StateKind.CONTROLLED else all(inside)
            if not ok:
                region.discard(s)
                changed = True
    return region


def almost_sure_reach(fm: FiniteMdp, target: set[StateId]) -> set[StateId]:
    """States from which some MD strategy reaches ``target`` with probability
    one (the usual nested fixpoint)."""
    keep = set(fm.states)
    while True:
        win = set(target)
        changed = True
        while changed:
            changed = False
            for s in fm.states:
                if s in win or s not in keep:
                    continue
                succ = successor_states(fm, s)
                if fm.kind_of(s) is StateKind.CONTROLLED:
                    ok = any(t in win for t in succ)
                else:
                    ok = all(t in keep for t in succ) and any(t in win for t in succ)
                if ok:
                    win.add(s)
                    changed = True
        if win == keep:
            return keep
        keep = win


def infinite_cost_shape(fm: FiniteMdp, cost: CostLabel) -> tuple[int, int] | None:
    """None when every state has finite minimum expected cost; otherwise the
    number of states outside the zero-cost region and of their out-edges."""
    free = zero_cost_region(fm, cost)
    if len(almost_sure_reach(fm, free)) == len(fm.states):
        return None
    outside = [s for s in fm.states if s not in free]
    return len(outside), sum(len(successor_states(fm, s)) for s in outside)


def finite_corpus(seed: int) -> list[FiniteInstance]:
    """Instances of ``verify.random_finite_mdp`` in the fixed strata."""
    corpus = []
    for (n, infinite), count in STRATA.items():
        found = 0
        for i in range(CANDIDATE_CAP):
            if found == count and i >= MIN_SCAN.get((n, infinite), 0):
                break
            inst_seed = bench_seed(seed, "finite", n, infinite, i)
            fm = verify.random_finite_mdp(inst_seed, n_states=n, max_branching=3)
            cost = cost_label(fm, bench_seed(inst_seed, "cost"))
            shape = infinite_cost_shape(fm, cost)
            if found == count:
                continue
            if (shape == INFINITE_SHAPE) if infinite else (shape is None):
                rng = random.Random(bench_seed(inst_seed, "rewards"))
                rewards = {fm.states[-1]: rng.random(), fm.states[-2]: rng.random()}
                ident = f"n{n}-{'inf' if infinite else 'fin'}-{found}"
                corpus.append(FiniteInstance(ident, n, infinite, fm, cost, rewards))
                found += 1
        if found < count:
            raise RuntimeError(f"stratum ({n}, {infinite}) not filled")
    return corpus


def gambler_start(seed: int) -> int:
    """Reach(w_0) on the gambler's ruin walk is asked from w_k, k in 1..4."""
    return random.Random(bench_seed(seed, "countable")).randint(1, 4)


@dataclass(frozen=True)
class SynthesisInputs:
    fan_seed: int
    ladder_seed: int
    one_bit_seed: int
    estimate_seed: int


def synthesis_inputs(seed: int) -> SynthesisInputs:
    return SynthesisInputs(
        fan_seed=bench_seed(seed, "fan"),
        ladder_seed=bench_seed(seed, "ladder"),
        one_bit_seed=bench_seed(seed, "one-bit"),
        estimate_seed=bench_seed(seed, "estimate"),
    )


# Vector-engine sizes: runs x (horizon + 2) = 40M cells per estimate, against
# the engine's 64M-cell batch cap.
CHAIN_RUNS = 10_000
CHAIN_HORIZON = 4_000
REVISIT_CAP = 30
FRESH_WINDOW = 200
FRESH_P = 0.7
SWEEP_BANDS = ((0.30, 0.45), (0.55, 0.65), (0.80, 0.90))


def chain_scenarios(seed: int, directory: Path) -> dict[str, Path]:
    """Write the sweep and simulate scenario files; returns their paths."""
    rng = random.Random(bench_seed(seed, "chain"))
    sweep_values = [round(rng.uniform(lo, hi), 3) for lo, hi in SWEEP_BANDS]
    estimate = {"horizon": CHAIN_HORIZON, "runs": CHAIN_RUNS}
    docs = {
        "sweep": {
            "seed": rng.randrange(2**31),
            "mdp": {"gadget": "gamblers_ruin", "params": {"p": 0.5}},
            "task": {
                "kind": "sweep",
                "gadget": "gamblers_ruin",
                "param": "p",
                "values": sweep_values,
                "state": 0,
                "estimate": dict(
                    estimate, proxy={"type": "revisit_cap", "max_visits": REVISIT_CAP}
                ),
            },
        },
        "simulate": {
            "seed": rng.randrange(2**31),
            "mdp": {"gadget": "gamblers_ruin", "params": {"p": FRESH_P}},
            "task": dict(
                estimate,
                kind="simulate",
                state=0,
                proxy={"type": "fresh_tail", "window": FRESH_WINDOW},
            ),
        },
    }
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in docs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        paths[name] = path
    return paths
