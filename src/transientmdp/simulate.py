"""Seeded Monte Carlo simulation and finite-horizon transience estimators.

``simulate`` is a pure function of (mdp, s0, strategy, horizon, seed): runs are
bit-identical for identical inputs.  Batch estimators derive their seeds from
the batch seed, so results never depend on scheduling.

No strategy, an MD strategy or a 1-bit strategy induces a Markov chain (on
(mode, state) pairs for 1-bit), and the estimators step all runs at once
through numpy rows of that chain, built from the oracles as the runs reach
their states (``_row_estimate``).  Under no strategy, ``estimate_transience``
steps the Markov-chain gadgets that ship a hand-written vectorized step model
through that model instead (``_vector_estimate``); both share one batch loop,
``_step_runs``.  A history-dependent ``GeneralStrategy``, and the single-run
``simulate``, go through the per-run stepper ``_walk``.

Transience is a tail event, so no finite-horizon predicate equals it; the two
proxies here (FreshTail, RevisitCap) are labeled estimators, not certificates.
"""
from __future__ import annotations

import hashlib
import math
import mmap
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import (
    Distribution,
    GeneralStrategy,
    InfiniteSuccessors,
    MdStrategy,
    Mdp,
    OneBitStrategy,
    StateId,
    StateKind,
    _default_pick,
    _states_of,
)
from .errors import BadModel, BadParameter


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

    def __post_init__(self):
        if self.window < 0:
            raise BadParameter(f"fresh-tail window must be non-negative, got {self.window}")


@dataclass(frozen=True)
class RevisitCap:
    """A run counts as transient iff no state reaches ``max_visits`` + 1
    visits."""

    max_visits: int

    def __post_init__(self):
        if self.max_visits < 0:
            raise BadParameter(f"max_visits must be non-negative, got {self.max_visits}")


def _controller(strategy, table):
    """``(memory, choose, observe)`` of a strategy, resolved once per run.

    ``choose(memory, s)`` returns the next memory and the pick at controlled
    ``s``: a state, or a Distribution to sample.  ``observe(memory, s, t)``
    returns the memory after random ``s`` moved to ``t``; None when the
    strategy ignores random moves.  An MdStrategy takes its default pick
    outside ``choice`` from ``s``'s ``table`` entry, which the stepper fills
    before it asks.
    """
    if strategy is None:
        def choose(memory, s):
            raise BadParameter(f"controlled state {s} but no strategy given")
        return None, choose, None
    if isinstance(strategy, MdStrategy):
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
    raise BadParameter(f"unsupported strategy {type(strategy)!r}")


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
        return True, None, _default_pick(succ, s)
    return True, {t.ordinal: type(t) for t in _states_of(succ, s)}, _default_pick(succ, s)


def _check_pick(succ, s: StateId, t: StateId) -> None:
    """Refuse a pick ``t`` at controlled ``s`` that is not among the
    successors ``succ`` of its ``_state_entry`` (None: not checkable)."""
    if succ is not None and succ.get(t.ordinal) is not type(t):
        raise BadParameter(
            f"strategy picked {t.label or t.ordinal}, not a successor of "
            f"{s.label or s.ordinal}"
        )


def _sample_random(rng: random.Random, succ, s: StateId) -> StateId:
    """One draw from the successor answer ``succ`` of random ``s``."""
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
        if last is None:
            raise BadModel(f"state {s} has no successor")
        return last  # numerical slack; total mass is 1
    raise BadModel("random state without a distribution")


def _walk(mdp, s0, strategy, horizon, seed, cap, table):
    """One seeded run: ``(run, finished)``.

    The run stops early, unfinished, at the first step that takes a state's
    visit count, kept by ordinal, above ``cap``.  A random step draws one
    uniform; a controlled step draws one only when the strategy answers with
    a Distribution.
    ``table`` maps ordinals to ``_state_entry`` results; oracles are pure, so
    the runs of one estimator call share it and ask each state once.
    """
    if horizon < 0:
        raise BadParameter("horizon must be non-negative")
    rng = random.Random(seed)
    memory, choose, observe = _controller(strategy, table)
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
            _check_pick(succ, s, t)
        else:
            t = _sample_random(rng, succ, s)
            if observe is not None:
                memory = observe(memory, s, t)
        run.append(t)
        c = counts[t.ordinal] = counts.get(t.ordinal, 0) + 1
        if c > cap:
            return run, False
        s = t
    return run, True


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
    run, _ = _walk(mdp, s0, strategy, horizon, seed, math.inf, {})
    counts = dict(Counter(run))
    stats = RunStats(
        horizon=horizon,
        visit_counts=counts,
        max_revisits=max(counts.values()) - 1,
        fresh_tail=None if fresh_window is None else _fresh_tail(run, fresh_window),
    )
    return run, stats


def _run_is_transient(mdp, s0, strategy, horizon, proxy, run_seed, table):
    """``(alive, run)`` of one seeded run: whether ``proxy`` classified it
    transient (every run is alive without a proxy), and the run.  RevisitCap
    stops the run at the first count above the cap: its continuation cannot
    undo the verdict."""
    fresh = isinstance(proxy, FreshTail)
    cap = proxy.max_visits if isinstance(proxy, RevisitCap) else math.inf
    run, finished = _walk(mdp, s0, strategy, horizon, run_seed, cap, table)
    return finished and (not fresh or _fresh_tail(run, proxy.window)), run


def _check_batch(horizon: int, runs: int, proxy=None) -> None:
    """Refuse the estimator settings that mean nothing."""
    if runs < 1:
        raise BadParameter("need at least one run")
    if horizon < 0:
        raise BadParameter("horizon must be non-negative")
    if isinstance(proxy, FreshTail) and horizon <= proxy.window:
        raise BadParameter("horizon must exceed the fresh-tail window")


def _memoryless(strategy) -> bool:
    """Whether ``strategy`` induces a Markov chain, which ``_Chain`` tabulates."""
    return strategy is None or isinstance(strategy, (MdStrategy, OneBitStrategy))


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

    Under no strategy, an MD strategy or a 1-bit strategy the runs step
    together through the rows of the induced chain (``_row_estimate``);
    Markov chains exposing a vectorized step model (see ``VectorChain``) step
    through it instead (``_vector_estimate``), and a ``GeneralStrategy``
    steps each run through ``_walk``.  The row and vector engines draw from
    the same streams, ``derive_seed(seed, "vec", index)`` for batch
    ``index``, so they agree whenever they cut the runs into the same
    batches; ``_walk`` draws from per-run streams of its own.
    """
    _check_batch(horizon, runs, proxy)
    chain = getattr(mdp, "vector_chain", None)
    if strategy is None and chain is not None and chain() is not None:
        hits = _vector_estimate(chain(), s0, horizon, runs, proxy, seed)
    else:
        hits = int(_sample(mdp, s0, strategy, horizon, runs, seed, proxy)[0].sum())
    return _proportion(hits, runs)


def _sample(mdp, s0, strategy, horizon, runs, seed, proxy=None, flag=None, flag_from=0):
    """``(alive, flagged)`` of ``runs`` seeded runs from ``s0``, as
    ``_step_runs`` defines them: stepped together through ``_row_estimate``
    under a memoryless strategy, and one by one through ``_walk``, with
    seeds ``derive_seed(seed, i)``, under a ``GeneralStrategy``."""
    if _memoryless(strategy):
        return _row_estimate(mdp, s0, strategy, horizon, runs, seed, proxy, flag, flag_from)
    table, alive, flagged = {}, [], []
    for i in range(runs):
        transient, run = _run_is_transient(mdp, s0, strategy, horizon, proxy,
                                           derive_seed(seed, i), table)
        alive.append(transient)
        flagged.append(0 if flag is None else sum(1 for q in run[flag_from:] if flag(q)))
    return np.array(alive), np.array(flagged)


# The cells one batch's visit table would hold in one piece: always in
# ``_vector_estimate``, and in ``_row_estimate`` when the runs of a batch
# share their states.  With the seed it fixes the batches, and so the streams.
_CELLS = 64_000_000
# The cells one tile's visit table may hold: ``_step_runs`` steps a batch as
# consecutive tiles of its runs, which draw the batch's uniforms all the same.
_TILE_CELLS = _CELLS // 4


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
    """Number of ``runs`` classified transient by ``proxy``, stepped by
    ``chain`` in batches of at most ``_CELLS // bound`` runs, ``bound``
    being the ordinals the runs can reach (``_step_runs``)."""
    bound = int(chain.ordinal_bound(s0.ordinal, horizon)) + 1
    if not 0 <= s0.ordinal < bound:
        # Its cells would fall outside the table or on another ordinal's.
        raise BadParameter(f"start ordinal {s0.ordinal} outside [0, {bound})")
    batch = max(1, min(runs, max(1, _CELLS // max(bound, 1))))
    alive, _ = _step_runs(_Ordinals(chain, bound), s0.ordinal, horizon, runs, seed, batch, proxy)
    return int(alive.sum())


class _Ordinals:
    """A ``VectorChain`` as ``_step_runs`` steps it: the runs' positions and
    states are ordinals, below ``bound``."""

    product = False

    def __init__(self, chain: VectorChain, bound: int):
        self.step = chain.step
        self.states = range(bound)


def _zeroed(cells: int, dtype, old=None) -> np.ndarray:
    """A visit table of ``cells`` cells, zeroed past the cells of ``old``
    that it starts with, on an anonymous mapping of its own: only the pages
    the runs touch are committed, and the mapping goes when the table does.
    ``np.zeros`` gives as much only while the allocator maps a table of
    this size by itself; once glibc has freed such a mapping it raises its
    mmap threshold and serves the next table from the heap, committed in
    full."""
    dtype = np.dtype(dtype)
    table = np.frombuffer(mmap.mmap(-1, cells * dtype.itemsize), dtype)
    if old is not None:
        table[:len(old)] = old
    return table


def _step_runs(chain, first, horizon, runs, seed, batch, proxy=None, flag_from=None):
    """``(alive, flagged)`` over ``runs`` runs started at position ``first``
    of ``chain`` (a ``_Chain`` or ``_Ordinals``), ``chain.step(pos, u)``
    moving the live runs: ``alive[r]`` says whether ``proxy`` classified run
    r transient (every run is alive without a proxy), and ``flagged[r]``
    counts its positions from ``flag_from`` on that stand on a state where
    ``chain.flag`` holds.

    Runs go in batches of ``batch`` runs, one generator
    ``default_rng(derive_seed(seed, "vec", index))`` per batch, and every
    step of a batch draws one uniform per run of the batch: run r of an
    n-run batch takes draw ``step * n + r`` of its stream.  A batch steps
    as consecutive tiles of its runs, each tile to the end before the next
    starts, so that a visit table holds one tile's runs: a tile of ``m``
    runs from run ``lo`` on jumps its own copy of the stream ahead by
    ``lo`` draws, then by ``n - m`` after each step's ``m`` draws, and its
    runs see the uniforms they see in one piece.  A tile holds at most
    ``_TILE_CELLS // rows`` runs, ``rows`` being the table's states: the
    ordinals below a vector chain's bound, or the horizon + 1 states that a
    run of the row engine visits at most.  A run leaves the step loop once
    its verdict is fixed (RevisitCap: some count passed the cap; FreshTail:
    it hit a state visited before the window).  A position is a state (its
    index in ``chain.states``), or a (mode, state) node whose state
    ``chain.state_of`` gives when ``chain.product``; ``first`` is both the
    start's position and its state.
    """
    revisit = isinstance(proxy, RevisitCap)
    if revisit:
        # No count passes horizon + 1, so a larger cap acts as that one and
        # cannot push the table onto a wide (or object) dtype.  A run leaves
        # once a count passes the cap, so no cell exceeds cap + 1.
        cap = min(proxy.max_visits, horizon + 1)
        dtype = np.min_scalar_type(cap + 1)
    else:
        dtype = np.bool_
    window_start = max(0, horizon - proxy.window + 1) if isinstance(proxy, FreshTail) else 0
    vector = isinstance(chain, _Ordinals)
    per_tile = max(1, _TILE_CELLS // (len(chain.states) if vector else horizon + 1))
    alive, flagged = [], []
    for index, done in enumerate(range(0, runs, batch)):
        n = min(batch, runs - done)
        tiles = -(-n // per_tile)
        for tile in range(tiles):
            lo, hi = n * tile // tiles, n * (tile + 1) // tiles
            m, skip = hi - lo, n - (hi - lo)
            rng = np.random.default_rng(derive_seed(seed, "vec", index))
            rng.bit_generator.advance(lo)
            live = np.arange(m)
            pos = np.full(m, first, dtype=np.intp)
            u = np.empty(m)
            count = np.zeros(m, dtype=np.int64)
            if flag_from == 0:
                count += chain.flag[first]
            if proxy is not None:
                # Flat (state, run) table of visit counts, or of FreshTail's
                # visited-before-the-window marks: cell i * m + r, with r
                # the run's index in the tile.  State-major, so that when
                # the live runs occupy a band of nearby states (every chain
                # here), one step's cells share one narrow band of the table
                # instead of one page per run.  The vector path knows its
                # states up front.  The row engine discovers them, so it
                # reserves the states that a tile's _TILE_CELLS cells hold,
                # or all those the tiles before found, and grows the table
                # only past them: growing by copies keeps two tables live.
                rows = max(64, len(chain.states), 0 if vector else _TILE_CELLS // m)
                table = _zeroed(rows * m, dtype)
                table[first * m:(first + 1) * m] = 1
            for step in range(horizon):
                rng.random(out=u)
                if skip:
                    rng.bit_generator.advance(skip)
                pos = chain.step(pos, u if len(live) == m else u[live])
                state = chain.state_of[pos] if chain.product else pos
                if flag_from is not None and step + 1 >= flag_from:
                    count[live] += chain.flag[state]
                if proxy is None:
                    continue
                if len(chain.states) > rows:
                    rows = max(2 * rows, len(chain.states))
                    table = _zeroed(rows * m, dtype, table)
                cell = state * m
                cell += live
                if revisit:
                    c = table[cell] + 1
                    table[cell] = c
                    if c.max() <= cap:
                        continue
                    keep = c <= cap
                elif step + 1 < window_start:
                    table[cell] = True
                    continue
                else:
                    keep = ~table[cell]
                    if keep.all():
                        continue
                live, pos = live[keep], pos[keep]
                if len(live) == 0:
                    break
            table = None  # unmap this tile's table before the next
            kept = np.zeros(m, dtype=bool)
            kept[live] = True
            alive.append(kept)
            flagged.append(count)
    return np.concatenate(alive), np.concatenate(flagged)


class _Chain:
    """The Markov chain that no strategy, an MD strategy or a 1-bit strategy
    induces on ``mdp``, as numpy rows built from the oracles on demand.

    A node is a (memory, state) pair: the memory is the 1-bit mode, or None
    without one.  Nodes and states are numbered in the order the runs
    discover them, and ``state_of[k]`` is the state of node k.  Row k holds
    node k's successor nodes in ``succ[k * width:]``, in oracle order, and
    their cumulative probabilities in ``cum[k * width:]``, accumulated as
    ``Distribution`` accumulates them; a controlled row holds the strategy's
    one pick, resolved once per node.  The last entry of a finished row has
    cumulative probability +inf.  A step from node k with uniform u takes
    the first successor whose cumulative probability exceeds u (inversion
    by sequential search, Devroye 1986, §III.2), which is what
    ``Distribution.sample(u)`` draws, the last entry taking the rounding
    slack.

    A row is built when a run first steps from its node.  A row of an
    infinite random family holds only the prefix that the uniforms drawn
    from it needed.  Both a row not built yet and that prefix end in the
    successor -1, and ``step`` builds or extends the rows its runs ran into.
    ``flag[i]`` holds ``flag_fn`` of state i, when given.
    """

    def __init__(self, mdp: Mdp, strategy, flag_fn=None):
        self.table: dict = {}
        self.mdp = mdp
        self.memory, self.choose, self.observe = _controller(strategy, self.table)
        self.product = isinstance(strategy, OneBitStrategy)
        self.flag_fn = flag_fn
        self.keys: list[tuple] = []  # (memory, state) of each node
        self.ids: dict[tuple, int] = {}  # (memory, ordinal) -> node
        self.built: list[bool] = []
        self.states: list[StateId] = []
        self.state_ids: dict[int, int] = {}  # ordinal -> state
        self.open: dict[int, tuple] = {}  # node -> (items left, successors, sums)
        self.width = 2
        self.cum = np.full(64 * self.width, math.inf)
        self.succ = np.full(64 * self.width, -1, dtype=np.intp)
        self.state_of = np.zeros(64, dtype=np.intp)
        self.flag = np.zeros(64, dtype=bool)

    def node(self, memory, s: StateId) -> int:
        key = (memory, s.ordinal)
        k = self.ids.get(key)
        if k is not None:
            return k
        k = self.ids[key] = len(self.keys)
        self.keys.append((memory, s))
        self.built.append(False)
        i = self.state_ids.get(s.ordinal)
        if i is None:
            i = self.state_ids[s.ordinal] = len(self.states)
            self.states.append(s)
            if i == len(self.flag):
                self.flag = np.concatenate([self.flag, np.zeros_like(self.flag)])
            if self.flag_fn is not None:
                self.flag[i] = self.flag_fn(s)
        if k == len(self.state_of):
            self._reshape(2 * k, self.width)
        self.state_of[k] = i
        return k

    def _reshape(self, nodes: int, width: int) -> None:
        """Room for ``nodes`` rows of ``width`` entries, rows kept."""
        old, w = len(self.state_of), self.width
        cum = np.full((nodes, width), math.inf)
        succ = np.full((nodes, width), -1, dtype=np.intp)
        cum[:old, :w] = self.cum.reshape(old, w)
        succ[:old, :w] = self.succ.reshape(old, w)
        self.cum, self.succ, self.width = cum.ravel(), succ.ravel(), width
        self.state_of = np.concatenate(
            [self.state_of, np.zeros(nodes - old, dtype=np.intp)])

    def _write(self, k: int, targets: list[int], sums) -> None:
        # An open row keeps one more entry, its -1, inside the row.
        need = len(targets) + (k in self.open)
        if need > self.width:
            self._reshape(len(self.state_of), max(2 * self.width, need))
        base = k * self.width
        self.succ[base:base + len(targets)] = targets
        self.cum[base:base + len(sums)] = sums

    def _build(self, k: int) -> None:
        memory, s = self.keys[k]
        entry = self.table.get(s.ordinal)
        if entry is None:
            entry = self.table[s.ordinal] = _state_entry(self.mdp, s)
        controlled, succ, _ = entry
        self.built[k] = True
        if controlled:
            memory, t = self.choose(memory, s)
            _check_pick(succ, s, t)
            self._write(k, [self.node(memory, t)], ())
        elif isinstance(succ, Distribution):
            observe = self.observe
            targets = [
                self.node(memory if observe is None else observe(memory, s, t), t)
                for t, _ in succ.support
            ]
            if not targets:
                raise BadModel(f"state {s} has no successor")
            self._write(k, targets, succ.cumulative()[:-1])  # the last stays +inf
        elif isinstance(succ, InfiniteSuccessors):
            self.open[k] = (succ.iter_weighted(), [], [])
        else:
            raise BadModel(f"random state {s} without a distribution")

    def _extend(self, k: int, u: float) -> None:
        """Extend the open row k until its sum exceeds ``u``, or to its end."""
        items, targets, sums = self.open[k]
        memory, s = self.keys[k]
        observe = self.observe
        acc = sums[-1] if sums else 0.0
        while acc <= u:
            try:
                t, p = next(items)
            except StopIteration:
                del self.open[k]
                if not sums:
                    raise BadModel(f"state {s} has no successor") from None
                sums[-1] = math.inf  # the last entry takes the slack
                break
            acc += p
            targets.append(self.node(memory if observe is None else observe(memory, s, t), t))
            sums.append(acc)
        self._write(k, targets, sums)

    def _draw(self, node, u):
        w, cum = self.width, self.cum
        at = node * w
        for _ in range(w - 1):
            at += cum[at] <= u
        return self.succ[at]

    def step(self, node, u):
        """The successor node of each run at ``node`` with uniform ``u``."""
        nxt = self._draw(node, u)
        if nxt.min() < 0:
            miss = (nxt < 0).nonzero()[0]
            node, u = node[miss], u[miss]
            for k in set(node.tolist()):
                if not self.built[k]:
                    self._build(k)
                if k in self.open:
                    self._extend(k, float(u[node == k].max()))
            nxt[miss] = self._draw(node, u)
        return nxt


def _row_estimate(mdp, s0, strategy, horizon, runs, seed, proxy=None, flag=None,
                  flag_from=0):
    """``_step_runs`` over the ``_Chain`` rows that ``strategy`` induces
    from ``s0``, with ``flag`` marking the states ``flagged`` counts (none
    when None).  The proxy's table is kept by state, not by (mode, state)
    node.  A batch holds at most ``_CELLS // (horizon + 1)`` runs: a run
    visits at most horizon + 1 states, so the table of a batch whose runs
    share their states would stay within ``_CELLS`` cells.  Its tiles share
    ``chain``: the rows one tile builds serve the next."""
    chain = _Chain(mdp, strategy, flag)
    start = chain.node(chain.memory, s0)
    batch = max(1, min(runs, _CELLS // (horizon + 1)))
    return _step_runs(chain, start, horizon, runs, seed, batch, proxy,
                      None if flag is None else flag_from)


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
    stand-in for visiting it infinitely often).  The engines are those of
    ``estimate_transience``, except that no strategy steps through
    ``_row_estimate`` on every chain."""
    _check_batch(horizon, runs, proxy)
    if goal_window < 0:
        raise BadParameter(f"goal_window must be non-negative, got {goal_window}")
    goal_pred = goal if callable(goal) else (lambda s, gs=frozenset(goal): s in gs)
    alive, seen = _sample(mdp, s0, strategy, horizon, runs, seed, proxy, goal_pred,
                          max(0, horizon - goal_window))
    return _proportion(int((alive & (seen > 0)).sum()), runs)


def mean_visits(
    mdp: Mdp,
    s0: StateId,
    target: StateId,
    strategy,
    horizon: int,
    runs: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo mean number of visits to ``target`` within ``horizon``
    steps, with its standard error; used to cross-check expected-visit
    bounds.  Memoryless strategies step through ``_row_estimate``, a
    ``GeneralStrategy`` through ``_walk``."""
    _check_batch(horizon, runs)
    _, counts = _sample(mdp, s0, strategy, horizon, runs, seed,
                        flag=lambda s: s.ordinal == target.ordinal)
    samples = counts.tolist()
    n = len(samples)
    mean = sum(samples) / n
    var = sum((x - mean) ** 2 for x in samples) / max(n - 1, 1)
    return mean, math.sqrt(var / n)
