"""Seeded Monte Carlo simulation and finite-horizon transience estimators.

``simulate`` is a pure function of (mdp, s0, strategy, horizon, seed): runs are
bit-identical for identical inputs.  Batch estimators derive one seed per run
from the batch seed and the run index, so results never depend on scheduling.

Every per-run estimate goes through one stepper, ``_walk``.  It resolves the
strategy to a memory machine once per run and reads each state's kind and
successors from a table that the runs of one estimator call share, so each
state's oracles are asked once per call.  The sampling loop of the bubble
1-bit construction calls ``_walk`` directly, with one table for the loop.
Markov chains with a vectorized step model run on the numpy engine
``_vector_estimate`` instead.

Transience is a tail event, so no finite-horizon predicate equals it; the two
proxies here (FreshTail, RevisitCap) are labeled estimators, not certificates.
"""
from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass

from .core import (
    Distribution,
    GeneralStrategy,
    InfiniteSuccessors,
    MdStrategy,
    Mdp,
    OneBitStrategy,
    StateId,
    StateKind,
    _states_of,
)
from .errors import BadParameter


def derive_seed(*parts) -> int:
    """Stable 63-bit seed derived from arbitrary parts (independent of
    PYTHONHASHSEED and platform)."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class RunStats:
    horizon: int
    visit_counts: dict[StateId, int]
    max_revisits: int
    fresh_tail: bool | None = None


@dataclass(frozen=True)
class FreshTail:
    """A run counts as transient iff every state occupied in its last
    ``window`` steps is visited for the first time inside that window."""

    window: int


@dataclass(frozen=True)
class RevisitCap:
    """A run counts as transient iff no state reaches ``max_visits`` + 1
    visits."""

    max_visits: int


def _controller(mdp: Mdp, strategy, table):
    """``(memory, choose, observe)`` of a strategy, resolved once per run.

    ``choose(memory, s)`` returns the next memory and the pick at controlled
    ``s``: a state, or a Distribution to sample.  ``observe(memory, s, t)``
    returns the memory after random ``s`` moved to ``t``; None when the
    strategy ignores random moves.  A plain MdStrategy takes its default
    pick outside ``choice`` from ``s``'s ``table`` entry, which the stepper
    fills before it asks.
    """
    if strategy is None:
        def choose(memory, s):
            raise ValueError(f"controlled state {s} but no strategy given")
        return None, choose, None
    if isinstance(strategy, MdStrategy):
        if type(strategy).successor is not MdStrategy.successor:
            successor = strategy.successor
            return None, lambda memory, s: (memory, successor(mdp, s)), None
        choice = strategy.choice

        def choose(memory, s):
            t = choice.get(s)
            return memory, table[s.ordinal][2] if t is None else t

        return None, choose, None
    if isinstance(strategy, OneBitStrategy):
        return strategy.initial_mode, strategy.controlled, strategy.random_update
    if isinstance(strategy, GeneralStrategy):
        decide = strategy.decide

        def choose(history, s):
            history.append(s)
            return history, decide(history)

        def observe(history, s, t):
            history.append(s)
            return history

        return [], choose, observe
    raise TypeError(f"unsupported strategy {type(strategy)!r}")


def _state_entry(mdp: Mdp, s: StateId):
    """``(controlled, successors, default)`` of ``s`` for the per-state
    table.  For a controlled state: the class (host or synthetic) of each
    successor by ordinal, None for an infinite family, whose membership is
    not finitely checkable; and MdStrategy's default pick, the successor
    with the smallest ordinal (the first enumerated one of an infinite
    family).  For a random state: its successor object and None.  Ordinals
    are unique among an MDP's states, so a pick is a successor exactly when
    its ordinal is there with its class."""
    succ = mdp.successors_of(s)
    if mdp.kind_of(s) is StateKind.RANDOM:
        return False, succ, None
    if isinstance(succ, InfiniteSuccessors):
        return True, None, next(succ.iter_states())
    states = _states_of(succ, s)
    return True, {t.ordinal: type(t) for t in states}, min(states, key=lambda t: t.ordinal)


def _sample_random(rng: random.Random, succ) -> StateId:
    if isinstance(succ, Distribution):
        return succ.sample(rng.random())
    if isinstance(succ, InfiniteSuccessors):
        u = rng.random()
        acc = 0.0
        last = None
        for t, p in succ.iter_weighted():
            acc += p
            last = t
            if u < acc:
                return t
        return last  # numerical slack; total mass is 1
    raise TypeError("random state without a distribution")


def _walk(mdp, s0, strategy, horizon, seed, cap, table):
    """One seeded run: ``(run, counts, finished)``, with visit counts keyed
    by ordinal.

    The run stops early, unfinished, at the first step that takes a state's
    visit count above ``cap``.  A random step draws one uniform; a controlled
    step draws one only when the strategy answers with a Distribution.
    ``table`` maps ordinals to ``_state_entry`` results; oracles are pure, so
    the runs of one estimator call share it and ask each state once.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    rng = random.Random(seed)
    memory, choose, observe = _controller(mdp, strategy, table)
    run = [s0]
    counts = {s0.ordinal: 1}
    s = s0
    for _ in range(horizon):
        entry = table.get(s.ordinal)
        if entry is None:
            entry = table[s.ordinal] = _state_entry(mdp, s)
        controlled, succ, _ = entry
        if controlled:
            memory, t = choose(memory, s)
            if isinstance(t, Distribution):
                t = t.sample(rng.random())
            if succ is not None and succ.get(t.ordinal) is not type(t):
                raise ValueError(
                    f"strategy picked {t.label or t.ordinal}, not a successor of "
                    f"{s.label or s.ordinal}"
                )
        else:
            t = _sample_random(rng, succ)
            if observe is not None:
                memory = observe(memory, s, t)
        run.append(t)
        c = counts[t.ordinal] = counts.get(t.ordinal, 0) + 1
        if c > cap:
            return run, counts, False
        s = t
    return run, counts, True


def _fresh_tail(run: list[StateId], window: int) -> bool:
    """Whether every state of the last ``window`` steps of ``run`` is new
    there (the FreshTail rule)."""
    start = max(0, len(run) - window)
    return set(run[:start]).isdisjoint(run[start:])


def _proportion(hits: int, runs: int) -> tuple[float, float]:
    """Fraction with its normal-approximation 95% confidence half-width."""
    p = hits / runs
    return p, 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / runs)


def simulate(
    mdp: Mdp,
    s0: StateId,
    strategy,
    horizon: int,
    seed: int,
    fresh_window: int | None = None,
) -> tuple[list[StateId], RunStats]:
    """Sample one run of ``horizon`` steps.

    ``strategy`` may be an MdStrategy, OneBitStrategy, GeneralStrategy, or
    None for Markov chains (an error is raised if a controlled state is then
    encountered).  ``fresh_window`` enables the fresh-tail statistic.
    """
    run, _, _ = _walk(mdp, s0, strategy, horizon, seed, math.inf, {})
    counts = dict(Counter(run))
    stats = RunStats(
        horizon=horizon,
        visit_counts=counts,
        max_revisits=max(counts.values()) - 1,
        fresh_tail=None if fresh_window is None else _fresh_tail(run, fresh_window),
    )
    return run, stats


def _run_is_transient(mdp, s0, strategy, horizon, proxy, run_seed, table, accept=None) -> bool:
    """Whether one seeded run is classified transient by ``proxy`` and, given
    ``accept``, also satisfies ``accept(run)``.  RevisitCap stops the run at
    the first count above the cap: its continuation cannot undo the verdict."""
    fresh = isinstance(proxy, FreshTail)
    run, _, finished = _walk(
        mdp, s0, strategy, horizon, run_seed, math.inf if fresh else proxy.max_visits, table
    )
    if not finished or (fresh and not _fresh_tail(run, proxy.window)):
        return False
    return accept is None or accept(run)


def estimate_transience(
    mdp: Mdp,
    s0: StateId,
    strategy,
    horizon: int,
    runs: int,
    proxy,
    seed: int,
) -> tuple[float, float]:
    """Fraction of sampled runs classified transient by ``proxy``, with a
    normal-approximation 95% confidence half-width.

    Markov chains exposing a vectorized step model (see ``VectorChain``) are
    estimated with a numpy engine; the sampled law is identical but the
    stream differs from the per-run engine, so estimates are deterministic
    per engine, not across engines.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    if isinstance(proxy, FreshTail) and horizon <= proxy.window:
        raise ValueError("horizon must exceed the fresh-tail window")

    chain = getattr(mdp, "vector_chain", None)
    if strategy is None and chain is not None and chain() is not None:
        hits = _vector_estimate(chain(), s0, horizon, runs, proxy, seed)
    else:
        table = {}
        hits = sum(
            _run_is_transient(mdp, s0, strategy, horizon, proxy, derive_seed(seed, i), table)
            for i in range(runs)
        )
    return _proportion(hits, runs)


@dataclass(frozen=True)
class VectorChain:
    """Vectorized step model for Markov-chain MDPs over integer ordinals.

    ``step(ordinals, u)`` maps current ordinals and uniforms to successor
    ordinals elementwise; ``ordinal_bound(s0, horizon)`` upper-bounds every
    ordinal reachable within ``horizon`` steps.
    """

    step: callable
    ordinal_bound: callable


def _vector_estimate(chain: VectorChain, s0: StateId, horizon, runs, proxy, seed) -> int:
    """Number of ``runs`` classified transient by ``proxy``.

    Runs go in batches of at most 64M table cells, one generator per batch.
    Every step draws one uniform per run of the batch, so a run sees the same
    uniforms whether or not other runs are still stepping; a run leaves the
    step loop once its verdict is fixed (RevisitCap: some count passed the
    cap; FreshTail: it hit a state visited before the window).
    """
    import numpy as np

    bound = int(chain.ordinal_bound(s0.ordinal, horizon)) + 1
    if not 0 <= s0.ordinal < bound:
        # Its cells would fall in another run's row of the table.
        raise BadParameter(f"start ordinal {s0.ordinal} outside [0, {bound})")
    batch = max(1, min(runs, max(1, 64_000_000 // max(bound, 1))))
    revisit = isinstance(proxy, RevisitCap)
    # A run leaves once a count passes the cap, so no cell exceeds
    # max_visits + 1 (2 at s0 under a cap of 0, which uint8 still holds).
    dtype = np.min_scalar_type(proxy.max_visits + 1) if revisit else np.bool_
    window_start = 0 if revisit else max(0, horizon - proxy.window + 1)
    hits = 0
    done = 0
    index = 0
    while done < runs:
        n = min(batch, runs - done)
        rng = np.random.default_rng(derive_seed(seed, "vec", index))
        # Flat (run, ordinal) table: visit counts, or FreshTail's
        # visited-before-the-window marks; row r starts at r * bound.
        table = np.zeros(n * bound, dtype=dtype)
        live = np.arange(n)
        row = live * bound
        pos = np.full(n, s0.ordinal, dtype=np.int64)
        table[row + pos] = 1
        u = np.empty(n)
        for step in range(horizon):
            rng.random(out=u)
            pos = chain.step(pos, u if len(live) == n else u[live])
            cell = row + pos
            if revisit:
                c = table[cell] + 1
                table[cell] = c
                keep = c <= proxy.max_visits
            elif step + 1 < window_start:
                table[cell] = True
                continue
            else:
                keep = ~table[cell]
            if not keep.all():
                live, row, pos = live[keep], row[keep], pos[keep]
                if len(live) == 0:
                    break
        hits += len(live)
        done += n
        index += 1
    return hits


def estimate_buchi_transience(
    mdp: Mdp,
    s0: StateId,
    strategy,
    goal,
    horizon: int,
    runs: int,
    proxy,
    goal_window: int,
    seed: int,
) -> tuple[float, float]:
    """Fraction of runs that both satisfy the transience proxy and visit the
    goal family within the final ``goal_window`` steps (the finite-horizon
    stand-in for visiting it infinitely often)."""
    goal_pred = goal if callable(goal) else (lambda s, gs=frozenset(goal): s in gs)
    tail = max(0, horizon - goal_window)

    def visits_goal(run):
        return any(goal_pred(s) for s in run[tail:])

    table = {}
    hits = sum(
        _run_is_transient(mdp, s0, strategy, horizon, proxy, derive_seed(seed, i), table,
                          visits_goal)
        for i in range(runs)
    )
    return _proportion(hits, runs)


def mean_visits(
    mdp: Mdp,
    s0: StateId,
    target: StateId,
    strategy,
    horizon: int,
    runs: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo mean number of visits to ``target`` with its standard
    error; used to cross-check expected-visit bounds."""
    table = {}
    samples = []
    for i in range(runs):
        _, counts, _ = _walk(mdp, s0, strategy, horizon, derive_seed(seed, i), math.inf, table)
        samples.append(counts.get(target.ordinal, 0))
    n = len(samples)
    mean = sum(samples) / n
    var = sum((x - mean) ** 2 for x in samples) / max(n - 1, 1)
    return mean, math.sqrt(var / n)
