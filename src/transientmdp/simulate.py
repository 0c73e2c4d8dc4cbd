"""Seeded Monte Carlo simulation and finite-horizon transience estimators.

``simulate`` is a pure function of (mdp, s0, strategy, horizon, seed): runs are
bit-identical for identical inputs.  Batch estimators derive one seed per run
from the batch seed and the run index, so results never depend on scheduling.

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


def _require_legal(mdp: Mdp, s: StateId, t: StateId) -> None:
    """Strategies must pick actual successors; a stray state id (ordinals of
    internal sinks alias host states) would silently corrupt the run."""
    succ = mdp.successors_of(s)
    if isinstance(succ, InfiniteSuccessors):
        return  # membership is not finitely checkable
    if t not in _states_of(succ, s):
        raise ValueError(
            f"strategy picked {t.label or t.ordinal}, not a successor of "
            f"{s.label or s.ordinal}"
        )


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
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    rng = random.Random(seed)
    run = [s0]
    counts: Counter[StateId] = Counter([s0])
    first_seen = {s0: 0}
    mode = strategy.initial_mode if isinstance(strategy, OneBitStrategy) else None

    s = s0
    for step in range(horizon):
        if mdp.kind_of(s) is StateKind.CONTROLLED:
            if isinstance(strategy, MdStrategy):
                t = strategy.successor(mdp, s)
            elif isinstance(strategy, OneBitStrategy):
                mode, t = strategy.controlled(mode, s)
            elif isinstance(strategy, GeneralStrategy):
                t = strategy.decide(run).sample(rng.random())
            elif strategy is None:
                raise ValueError(f"controlled state {s} but no strategy given")
            else:
                raise TypeError(f"unsupported strategy {type(strategy)!r}")
            _require_legal(mdp, s, t)
        else:
            t = _sample_random(rng, mdp.successors_of(s))
            if isinstance(strategy, OneBitStrategy):
                mode = strategy.random_update(mode, s, t)
        run.append(t)
        counts[t] += 1
        first_seen.setdefault(t, step + 1)
        s = t

    fresh: bool | None = None
    if fresh_window is not None:
        start = max(0, horizon - fresh_window + 1)
        fresh = all(first_seen[q] >= start for q in set(run[start:]))
    stats = RunStats(
        horizon=horizon,
        visit_counts=dict(counts),
        max_revisits=max(counts.values()) - 1,
        fresh_tail=fresh,
    )
    return run, stats


def _run_is_transient(mdp, s0, strategy, horizon, proxy, run_seed) -> bool:
    if isinstance(proxy, FreshTail):
        _, stats = simulate(mdp, s0, strategy, horizon, run_seed, fresh_window=proxy.window)
        return bool(stats.fresh_tail)
    # RevisitCap with early exit: once a state exceeds the cap, the run is
    # classified recurrent regardless of its continuation.
    cap = proxy.max_visits
    rng = random.Random(run_seed)
    counts: Counter[StateId] = Counter([s0])
    mode = strategy.initial_mode if isinstance(strategy, OneBitStrategy) else None
    run = [s0]
    s = s0
    for _ in range(horizon):
        if mdp.kind_of(s) is StateKind.CONTROLLED:
            if isinstance(strategy, MdStrategy):
                t = strategy.successor(mdp, s)
            elif isinstance(strategy, OneBitStrategy):
                mode, t = strategy.controlled(mode, s)
            elif isinstance(strategy, GeneralStrategy):
                t = strategy.decide(run).sample(rng.random())
            elif strategy is None:
                raise ValueError(f"controlled state {s} but no strategy given")
            else:
                raise TypeError(f"unsupported strategy {type(strategy)!r}")
            _require_legal(mdp, s, t)
        else:
            t = _sample_random(rng, mdp.successors_of(s))
            if isinstance(strategy, OneBitStrategy):
                mode = strategy.random_update(mode, s, t)
        counts[t] += 1
        if counts[t] > cap:
            return False
        run.append(t)
        s = t
    return True


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
        hits = sum(
            _run_is_transient(mdp, s0, strategy, horizon, proxy, derive_seed(seed, i))
            for i in range(runs)
        )
    p = hits / runs
    half = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / runs)
    return p, half


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
    fresh = isinstance(proxy, FreshTail)
    hits = 0
    for i in range(runs):
        run, stats = simulate(mdp, s0, strategy, horizon, derive_seed(seed, i),
                              fresh_window=proxy.window if fresh else None)
        # The rule of _run_is_transient, read off the whole run.
        if fresh:
            transient = stats.fresh_tail
        else:
            counts = stats.visit_counts
            transient = all(counts[q] <= proxy.max_visits for q in set(run[1:]))
        if transient and any(goal_pred(s) for s in run[max(0, horizon - goal_window):]):
            hits += 1
    p = hits / runs
    half = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / runs)
    return p, half


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
    samples = []
    for i in range(runs):
        _, stats = simulate(mdp, s0, strategy, horizon, derive_seed(seed, i))
        samples.append(stats.visit_counts.get(target, 0))
    n = len(samples)
    mean = sum(samples) / n
    var = sum((x - mean) ** 2 for x in samples) / max(n - 1, 1)
    return mean, math.sqrt(var / n)
