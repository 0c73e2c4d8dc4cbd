import hashlib
import importlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from transientmdp import (
    Distribution,
    FiniteMdp,
    GeneralStrategy,
    LazyMdp,
    MdStrategy,
    Objective,
    OneBitStrategy,
    StateId,
    StateKind,
    bubble,
    simulate,
    truncate,
)
from transientmdp.core import (
    OPTIMISTIC,
    PESSIMISTIC,
    InfiniteSuccessors,
    mint,
    require_sink,
    require_tail,
)
from transientmdp.errors import (
    BadModel, BadParameter, InfiniteBranching, NotSink, NotTail, TransientMdpError,
)
from transientmdp.gadgets import (
    acyclic_chain,
    gamblers_ruin,
    ladder_exit_strategy,
    ladder_state,
    no_optimal_ladder,
    safety_fan,
    transience_fan,
)
from transientmdp.simulate import (
    FreshTail,
    RevisitCap,
    _vector_estimate,
    derive_seed,
    estimate_buchi_transience,
    estimate_transience,
    mean_visits,
)
from transientmdp.solvers import optimal_boundary_value


def w(i):
    return StateId(i, f"w_{i}")


def two_state_chain():
    a, b = StateId(0, "a"), StateId(1, "b")
    return FiniteMdp(
        [a, b],
        {a: StateKind.RANDOM, b: StateKind.RANDOM},
        {a: Distribution([(b, 1.0)]), b: Distribution([(b, 1.0)])},
        sinks=[{b}],
    ), a, b


def test_distribution_validation():
    a, b = StateId(0, "a"), StateId(1, "b")
    with pytest.raises(ValueError):
        Distribution([(a, 0.5), (b, 0.4)])
    with pytest.raises(ValueError):
        Distribution([(a, 0.5), (a, 0.5)])
    with pytest.raises(ValueError):
        Distribution([(a, 1.2), (b, -0.2)])
    # NaN compares false both ways, so it must not slip past the checks.
    for support in ([(a, math.nan)], [(a, 1.0), (b, math.nan)], [(a, math.inf)]):
        with pytest.raises(BadModel):
            Distribution(support)
    d = Distribution([(a, 0.25), (b, 0.75)])
    assert d.sample(0.1) == a and d.sample(0.9) == b


def test_finite_mdp_validation_and_json_roundtrip():
    fm, a, b = two_state_chain()
    doc = fm.to_json()
    back = FiniteMdp.from_json(doc)
    assert back.to_json() == doc
    assert back.kind_of(a) is StateKind.RANDOM
    with pytest.raises(NotSink):
        require_sink(fm, {a})
    # Truncations, with and without a frontier sink, round-trip too.
    truncations = [
        truncate(gamblers_ruin(0.6)[0], {w(2)}, 3),
        truncate(no_optimal_ladder()[0], {ladder_state("ell", 0)}, 4),
        truncate(back, {a}, 5),
    ]
    assert [t.frontier is not None for t in truncations] == [True, True, False]
    for trunc in truncations:
        doc = trunc.to_json()
        assert FiniteMdp.from_json(doc).to_json() == doc


def _model_doc(**edit):
    """The document of a controlled state 0 with successors 1 and 2, random
    state 1 and absorbing state 2, with the fields of ``edit`` replaced."""
    doc = {
        "states": [{"id": 0, "kind": "C"}, {"id": 1, "kind": "R"}, {"id": 2, "kind": "R"}],
        "transitions": [
            {"from": 0, "to": 1, "p": None}, {"from": 0, "to": 2, "p": None},
            {"from": 1, "to": 2, "p": 1.0}, {"from": 2, "to": 2, "p": 1.0},
        ],
        "sinks": [[2]],
    }
    for where, (i, field, value) in edit.items():
        doc[where][i][field] = value
    return doc


@pytest.mark.parametrize("edit", [
    {"transitions": (2, "to", 5)},
    {"transitions": (2, "p", None)},
    {"states": (1, "kind", "X")},
], ids=["edge_to_unknown_state", "null_random_probability", "unknown_kind"])
def test_malformed_model_document_raises_bad_model(edit):
    FiniteMdp.from_json(_model_doc())
    with pytest.raises(BadModel):
        FiniteMdp.from_json(_model_doc(**edit))


def test_bubble_zero_and_one_step():
    mdp, _ = gamblers_ruin(0.5)
    assert bubble(mdp, {w(1)}, 0) == {w(1)}
    assert bubble(mdp, {w(1)}, 1) == {w(0), w(1), w(2)}


def test_bubble_ladder_two_steps():
    lad, _ = no_optimal_ladder()
    got = bubble(lad, {ladder_state("ell", 0)}, 2)
    expect = {
        ladder_state("ell", 0),
        ladder_state("ell", 1),
        ladder_state("ellp", 1),
        ladder_state("r", 1),
    }
    assert got == expect


def test_bubble_monotone_in_k():
    lad, _ = no_optimal_ladder()
    prev = set()
    for k in range(6):
        cur = bubble(lad, {ladder_state("ell", 0)}, k)
        assert prev <= cur
        prev = cur


def test_bubble_infinite_branching_raises():
    fan, _ = safety_fan()
    with pytest.raises(InfiniteBranching):
        bubble(fan, {StateId(0, "fan")}, 1)


def test_truncate_chain_structure():
    mdp, _ = gamblers_ruin(0.5)
    fm = truncate(mdp, {w(0)}, 3, PESSIMISTIC)
    labels = sorted(s.label for s in fm.states)
    assert labels == ["frontier", "w_0", "w_1", "w_2", "w_3"]
    assert fm.frontier is not None


def test_truncation_frontier_is_no_host_state():
    # The frontier takes the ordinal after the bubble, 4, which the host
    # state w_4 outside the bubble also has; the two must stay distinct.
    mdp, _ = gamblers_ruin(0.7)
    fm = truncate(mdp, {w(0)}, 3)
    assert fm.frontier.ordinal == 4
    assert fm.frontier != w(4) and w(4) != fm.frontier
    assert w(4) not in set(fm.states)
    assert [s.ordinal for s in sorted([w(5), fm.frontier, w(3)])] == [3, 4, 5]


def test_truncate_saturation_is_isomorphic():
    fm, a, b = two_state_chain()
    trunc = truncate(fm, {a}, 10, OPTIMISTIC)
    assert trunc.frontier is None
    assert set(trunc.states) == {a, b}


def _counting(mdp):
    """``mdp`` behind a LazyMdp that counts its oracle calls per state."""
    kind_calls, succ_calls = Counter(), Counter()

    def kind(s):
        kind_calls[s] += 1
        return mdp.kind_of(s)

    def successors(s):
        succ_calls[s] += 1
        return mdp.successors_of(s)

    return LazyMdp(kind, successors), kind_calls, succ_calls


@pytest.mark.parametrize("case", ["gambler", "ladder"])
def test_truncate_asks_each_kept_state_once(case):
    if case == "gambler":
        mdp, root, radius = gamblers_ruin(0.6)[0], w(0), 200
    else:
        mdp, root, radius = no_optimal_ladder()[0], ladder_state("ell", 0), 30
    counted, kind_calls, succ_calls = _counting(mdp)
    fm = truncate(counted, {root}, radius)
    kept = {s for s in fm.states if s != fm.frontier}
    assert fm.frontier is not None and len(kept) > radius
    assert kind_calls == Counter(kept)
    assert succ_calls == Counter(kept)


def test_truncate_builds_the_compiled_layout():
    # Rows in ordinal order with the frontier last, successors in oracle
    # order, and the mass leaving the bubble lumped into one frontier edge.
    mdp, _ = gamblers_ruin(0.75)
    fm = truncate(mdp, {w(1)}, 1)
    assert [s.label for s in fm.states] == ["w_0", "w_1", "w_2", "frontier"]
    assert (fm.indptr, fm.succ) == ([0, 1, 3, 5, 6], [1, 2, 0, 1, 3, 3])
    assert fm.prob == [1.0, 0.75, 0.25, 0.25, 0.75, 1.0]
    assert fm.controlled == [False] * 4
    # w_0 and w_1 keep everything: their rows read back as the oracle's answers.
    assert fm.successors_of(w(1)).support == ((w(2), 0.75), (w(0), 0.25))
    assert fm.successors_of(fm.frontier).support == ((fm.frontier, 1.0),)


def _walk_with_w3(kind, answer):
    """The walk w_0 -> w_1 -> ..., except that w_3 has ``kind`` and answers
    ``answer``."""
    return LazyMdp(
        lambda s: kind if s.ordinal == 3 else StateKind.RANDOM,
        lambda s: answer if s.ordinal == 3 else Distribution([(w(s.ordinal + 1), 1.0)]),
    )


MALFORMED = {
    "random-list": (StateKind.RANDOM, [w(4)], ValueError),
    "controlled-distribution": (StateKind.CONTROLLED, Distribution([(w(4), 1.0)]), ValueError),
    "empty-list": (StateKind.CONTROLLED, [], ValueError),
    "empty-distribution": (StateKind.RANDOM, Distribution([], check=False), ValueError),
    "no-kind": (None, Distribution([(w(4), 1.0)]), ValueError),
    "controlled-family": (
        StateKind.CONTROLLED,
        InfiniteSuccessors(lambda: (w(k) for k in itertools.count(4)), random=False),
        InfiniteBranching,
    ),
    "random-family": (
        StateKind.RANDOM,
        InfiniteSuccessors(lambda: ((w(k), 0.5 ** (k - 3)) for k in itertools.count(4)), random=True),
        InfiniteBranching,
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("radius", [3, 5])
def test_truncate_rejects_malformed_answers(case, radius):
    # w_3 lies on the last layer at radius 3 and inside the region at 5.
    kind, answer, error = MALFORMED[case]
    with pytest.raises(error):
        truncate(_walk_with_w3(kind, answer), {w(0)}, radius)


@pytest.mark.parametrize("met", ["successor", "root", "past_radius"])
def test_truncate_refuses_two_states_at_one_ordinal(met):
    # The search keys states by ordinal.  A synthetic state at a host
    # state's ordinal is a different state, so it must not be taken for the
    # host state kept there: the MDP is refused, naming the ordinal.  The
    # search reaches one layer past the radius, so a collision there is
    # refused too, though the truncation keeps neither state.
    host, synthetic = w(1), mint("exit", 1)
    mdp = LazyMdp(
        lambda s: StateKind.RANDOM,
        lambda s: Distribution([(host, 0.5), (synthetic, 0.5)]) if s.ordinal == 0
        else Distribution([(s, 1.0)]),
    )
    roots = {host, synthetic} if met == "root" else {w(0)}
    with pytest.raises(BadModel, match="share the ordinal 1"):
        truncate(mdp, roots, 0 if met == "past_radius" else 2)


def _truncation_digest(fm: FiniteMdp) -> str:
    """SHA-256 prefix of a truncation's states (ordinal, label, synthetic
    kind), kinds, rows with ``float.hex`` probabilities, and frontier."""
    h = hashlib.sha256()
    for s in fm.states:
        h.update(repr((s.ordinal, s.label, getattr(s, "kind", None))).encode())
    for part in (fm.controlled, fm.indptr, fm.succ, [p.hex() for p in fm.prob],
                 fm.frontier and (fm.frontier.ordinal, fm.frontier.label)):
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


def _truncation_cases():
    from transientmdp.synthesis import SafetySchedule, _prefix_restricted
    from transientmdp.transforms import reduce_to_finitely_branching

    fan = _prefix_restricted(safety_fan()[0], SafetySchedule(radii=(20, 40), synthesis_radius=6))
    maps = reduce_to_finitely_branching(transience_fan()[0])
    return {
        "gambler-r3200": (gamblers_ruin(0.6)[0], w(0), 3200),
        "ladder-r200": (no_optimal_ladder()[0], ladder_state("ell", 0), 200),
        "safety-fan-r40": (fan, StateId(0, "fan"), 40),
        "reduced-fan-r40": (maps.reduced, maps.embed(StateId(0, "fan")), 40),
    }


# (states, digest) of each truncation; any change in a row, a probability
# bit, a label or the row order shows up here.
TRUNCATION_PINS = {
    "gambler-r3200": (3202, "b98f2640bc733f76"),
    "ladder-r200": (501, "59150c0c9738739b"),
    "safety-fan-r40": (336, "21b30a30b73cf361"),
    "reduced-fan-r40": (99, "ee0eb126e095dc72"),
}


def test_truncations_pinned():
    for name, (mdp, root, radius) in _truncation_cases().items():
        fm = truncate(mdp, {root}, radius)
        assert (len(fm.states), _truncation_digest(fm)) == TRUNCATION_PINS[name], name


def test_truncation_bracketing_monotone_in_radius():
    # Reach(x-states) from ell_0 on the ladder: pessimistic lower bounds grow,
    # optimistic upper bounds shrink, and lower <= upper throughout.
    lad, _ = no_optimal_ladder()
    root = ladder_state("ell", 0)
    obj = Objective.reach(lambda s: s.label.startswith("x_"))
    lows, highs = [], []
    for radius in (3, 5, 8, 12):
        fm_p = truncate(lad, {root}, radius, PESSIMISTIC)
        fm_o = truncate(lad, {root}, radius, OPTIMISTIC)
        tgt_p = [fm_p.states[j] for j in obj.rows_in(fm_p)]
        tgt_o = [fm_o.states[j] for j in obj.rows_in(fm_o)] + [fm_o.frontier]
        lo, _ = optimal_boundary_value(fm_p, {t: 1.0 for t in tgt_p})
        hi, _ = optimal_boundary_value(fm_o, {t: 1.0 for t in tgt_o})
        lows.append(lo[root])
        highs.append(hi[root])
    for a, b in zip(lows, lows[1:]):
        assert b >= a - 1e-12
    for a, b in zip(highs, highs[1:]):
        assert b <= a + 1e-12
    for lo, hi in zip(lows, highs):
        assert lo <= hi + 1e-12


def test_require_tail():
    fm, a, b = two_state_chain()
    require_tail(fm, Objective.reach({b}))
    with pytest.raises(NotTail):
        require_tail(fm, Objective.reach({a}))
    require_tail(fm, Objective.transience())


def test_simulate_self_loop():
    s = StateId(0, "s")
    fm = FiniteMdp(
        [s], {s: StateKind.RANDOM}, {s: Distribution([(s, 1.0)])}, sinks=[{s}]
    )
    run, stats = simulate(fm, s, None, 10, seed=1)
    assert stats.visit_counts == {s: 11}
    assert stats.max_revisits == 10
    assert len(run) == 11


def test_simulate_deterministic_chain_fresh_tail():
    mdp, _ = gamblers_ruin(0.5)  # only used for StateId shape
    chain, _ = acyclic_chain()
    c0 = StateId(0, "c_0")
    for window in (1, 3, 5):
        _, stats = simulate(chain, c0, None, 5, seed=3, fresh_window=window)
        assert stats.fresh_tail is True


def test_simulate_seed_determinism():
    mdp, _ = gamblers_ruin(0.6)
    run1, st1 = simulate(mdp, w(0), None, 500, seed=42)
    run2, st2 = simulate(mdp, w(0), None, 500, seed=42)
    assert run1 == run2 and st1.visit_counts == st2.visit_counts
    run3, _ = simulate(mdp, w(0), None, 500, seed=43)
    assert run3 != run1


def test_simulate_visit_counts_sum():
    mdp, _ = gamblers_ruin(0.4)
    _, stats = simulate(mdp, w(0), None, 777, seed=5)
    assert sum(stats.visit_counts.values()) == stats.horizon + 1


def test_distribution_sums_within_radius():
    for p in (0.3, 0.6, 0.9):
        mdp, _ = gamblers_ruin(p)
        for s in bubble(mdp, {w(0)}, 20):
            succ = mdp.successors_of(s)
            assert abs(sum(q for _, q in succ) - 1.0) <= 1e-9


def test_estimate_transience_finite_nullity():
    # On a finite MDP the fresh-tail estimate dies out as the horizon grows.
    fm, a, b = two_state_chain()
    n = len(fm.states)
    est, _ = estimate_transience(
        fm, a, None, horizon=100 * n, runs=200, proxy=FreshTail(n + 1), seed=9
    )
    assert est <= 0.01


def test_estimate_transience_engines_agree():
    # Both engines draw from derive_seed(seed, "vec", index) and hold all
    # 400 runs in one batch, so they agree exactly, here on loads whose
    # estimate (0.07) is neither 0 nor 1.
    for p, proxy in ((0.55, RevisitCap(30)), (0.6, FreshTail(100))):
        mdp, _ = gamblers_ruin(p)
        fast = estimate_transience(mdp, w(0), None, 2000, 400, proxy, seed=21)
        # strip the vector engine to force the row engine
        mdp._vector = None
        slow = estimate_transience(mdp, w(0), None, 2000, 400, proxy, seed=21)
        assert fast == slow, proxy
        assert fast[0] == 0.07, proxy


def _reference_vector_hits(step, bound_fn, s0, horizon, runs, proxy, seed):
    """The vector engine as first written: an int32 (run, ordinal) table,
    every run stepped to the horizon."""
    bound = int(bound_fn(s0.ordinal, horizon)) + 1
    batch = max(1, min(runs, max(1, 64_000_000 // max(bound, 1))))
    hits = done = index = 0
    while done < runs:
        n = min(batch, runs - done)
        rng = np.random.default_rng(derive_seed(seed, "vec", index))
        pos = np.full(n, s0.ordinal, dtype=np.int64)
        rows = np.arange(n)
        seen = np.zeros((n, bound), dtype=np.int32)
        seen[rows, pos] = 1
        bad = np.zeros(n, dtype=bool)
        start = max(0, horizon - proxy.window + 1) if isinstance(proxy, FreshTail) else 0
        for k in range(horizon):
            pos = step(pos, rng.random(n))
            if isinstance(proxy, RevisitCap):
                seen[rows, pos] += 1
                bad |= seen[rows, pos] > proxy.max_visits
            elif k + 1 < start:
                seen[rows, pos] = 1
            else:
                bad |= seen[rows, pos] > 0
        hits += int(n - bad.sum())
        done += n
        index += 1
    return hits


VECTOR_CASES = [
    (RevisitCap(cap), 620) for cap in (0, 1, 254, 255, 300)
] + [(FreshTail(window), 2400) for window in (50, 1999)]


@pytest.mark.parametrize("p", [0.3, 0.5, 0.6])
@pytest.mark.parametrize("proxy, horizon", VECTOR_CASES, ids=str)
def test_vector_engine_matches_reference(p, proxy, horizon):
    chain = gamblers_ruin(p)[0].vector_chain()

    def nested_where_step(pos, u):  # the gambler step as first written
        return np.where(pos == 0, 1, np.where(u < p, pos + 1, pos - 1))

    want = _reference_vector_hits(
        nested_where_step, chain.ordinal_bound, w(0), horizon, 200, proxy, 13
    )
    assert _vector_estimate(chain, w(0), horizon, 200, proxy, 13) == want


@pytest.mark.parametrize("proxy", [RevisitCap(0), RevisitCap(8), FreshTail(20)], ids=str)
@pytest.mark.parametrize("family", ["acyclic_chain", "gamblers_ruin"])
def test_vector_engine_matches_reference_across_batches(family, proxy):
    # From ordinal 10^6 a batch holds 63 runs, so 150 runs take three
    # batches, and a tile 15 runs, so a full batch steps as five tiles.
    mdp = acyclic_chain()[0] if family == "acyclic_chain" else gamblers_ruin(0.7)[0]
    chain, s0 = mdp.vector_chain(), StateId(1_000_000)
    want = _reference_vector_hits(chain.step, chain.ordinal_bound, s0, 100, 150, proxy, 4)
    assert _vector_estimate(chain, s0, 100, 150, proxy, 4) == want


def _recording_tables(monkeypatch):
    """The ``(cells, dtype, grown)`` of every visit table ``_step_runs``
    allocates from now on, ``grown`` telling whether it copies an older one."""
    sim = importlib.import_module("transientmdp.simulate")
    zeroed, tables = sim._zeroed, []

    def recording(cells, dtype, old=None):
        tables.append((cells, np.dtype(dtype), old is not None))
        return zeroed(cells, dtype, old)

    monkeypatch.setattr(sim, "_zeroed", recording)
    return tables


def test_an_oversized_revisit_cap_allocates_no_object_table(monkeypatch):
    # No count passes horizon + 1, so a cap of 2**64 must not size the table
    # by itself: min_scalar_type(2**64 + 1) is object, 8-byte boxed cells.
    chain = gamblers_ruin(0.55)[0].vector_chain()
    horizon = 300
    tables = _recording_tables(monkeypatch)
    hits = _vector_estimate(chain, w(0), horizon, 120, RevisitCap(2**64), 9)
    assert [dtype for _, dtype, _ in tables] == [np.dtype(np.uint16)]
    assert hits == _vector_estimate(chain, w(0), horizon, 120, RevisitCap(horizon + 1), 9)


def test_row_engine_reserves_its_visit_table_once(monkeypatch):
    # A chain_sweep-sized load: the walk climbs past a thousand states, and
    # a table grown by doubling was allocated six times, old and new copies
    # live together at each step.  The batch holds all 10,000 runs and steps
    # them as three tiles of at most _TILE_CELLS // 4001 runs; each tile
    # reserves the states its _TILE_CELLS cells hold, once.  The runs see
    # the same uniforms as in one table, so the hits equal the vector
    # engine's.
    from transientmdp.simulate import _TILE_CELLS, _row_estimate

    mdp = gamblers_ruin(0.6)[0]
    runs, horizon, proxy = 10_000, 4_000, RevisitCap(30)
    tables = _recording_tables(monkeypatch)
    alive, _ = _row_estimate(mdp, w(0), None, horizon, runs, 5, proxy)
    assert tables == [(_TILE_CELLS // m * m, np.dtype(np.uint8), False)
                      for m in (3333, 3333, 3334)]
    assert all(cells <= _TILE_CELLS for cells, _, _ in tables)
    monkeypatch.undo()
    assert int(alive.sum()) == _vector_estimate(mdp.vector_chain(), w(0), horizon, runs, proxy, 5)


def test_row_engine_grows_its_visit_table_past_the_reserve(monkeypatch):
    # With 4096 cells a batch of 20 runs of 200 steps (the batch it has with
    # the full _CELLS too), and with 2048 a tile of 10 runs, which reserves
    # 204 states.  This walk, +2 with probability 0.85 and -1 otherwise,
    # discovers more: the first tile's table grows once, by doubling, and
    # the second tile reserves every state the first one found.  The runs
    # see the same counts as in one table that holds every state.
    sim = importlib.import_module("transientmdp.simulate")

    def successors(s):
        o = s.ordinal
        return Distribution([(StateId(o + 2), 0.85), (StateId(o - 1), 0.15)], check=False)

    mdp = LazyMdp(lambda s: StateKind.RANDOM, successors)
    runs, horizon, proxy = 20, 200, RevisitCap(2)
    assert 4096 // (horizon + 1) == runs
    for seed in range(16):
        want = sim._row_estimate(mdp, StateId(0), None, horizon, runs, seed, proxy)
        tables = _recording_tables(monkeypatch)
        monkeypatch.setattr(sim, "_CELLS", 4096)
        monkeypatch.setattr(sim, "_TILE_CELLS", 2048)
        got = sim._row_estimate(mdp, StateId(0), None, horizon, runs, seed, proxy)
        monkeypatch.undo()
        cells = [(n, grown) for n, _, grown in tables]
        assert cells[:3] == [(2040, False), (4080, True), (cells[2][0], False)], seed
        assert cells[2][0] > 2040 and cells[2][0] % 10 == 0, seed
        assert all(np.array_equal(g, v) for g, v in zip(got, want)), seed
        assert 0 < want[0].sum() < runs


def _stepped(monkeypatch, estimate, tile_cells):
    """``(alive, flagged)`` that ``_step_runs`` returns to ``estimate()``,
    and the number of visit tables it allocates afresh, with batches of 40
    runs (4080 cells: 40 runs of the 102 ordinals, or of the 101 states a
    run of 100 steps visits at most) and tiles of ``tile_cells`` cells."""
    sim = importlib.import_module("transientmdp.simulate")
    step, results = sim._step_runs, []
    tables = _recording_tables(monkeypatch)
    monkeypatch.setattr(sim, "_CELLS", 4080)
    monkeypatch.setattr(sim, "_TILE_CELLS", tile_cells)
    monkeypatch.setattr(sim, "_step_runs",
                        lambda *a, **k: results.append(step(*a, **k)) or results[-1])
    estimate()
    monkeypatch.undo()
    (alive, flagged), = results
    return alive, flagged, sum(not grown for _, _, grown in tables)


def _gambler(engine):
    mdp, _ = gamblers_ruin(0.55)
    if engine == "row":
        mdp._vector = None
    return mdp


_LADDER, _ = no_optimal_ladder()
TILE_CASES = {
    "revisit_cap_0": lambda mdp: estimate_transience(mdp, w(0), None, 100, 150,
                                                     RevisitCap(0), seed=3),
    "revisit_cap_8": lambda mdp: estimate_transience(mdp, w(0), None, 100, 150,
                                                     RevisitCap(8), seed=3),
    "fresh_tail": lambda mdp: estimate_transience(mdp, w(0), None, 100, 150,
                                                  FreshTail(20), seed=3),
    "mean_visits": lambda mdp: mean_visits(mdp, w(0), w(3), None, 100, 150, seed=3),
    "buchi_one_bit": lambda mdp: estimate_buchi_transience(
        _LADDER, ladder_state("ell", 0), _ladder_one_bit(),
        lambda s: s.ordinal % 4 == 0 and s.ordinal > 0, 100, 150, RevisitCap(8), 30, seed=3),
}


@pytest.mark.parametrize("case, engine", [
    (case, engine) for case in TILE_CASES for engine in ("vector", "row")
    if engine == "row" or case.startswith(("revisit", "fresh"))
])
def test_tiles_step_like_one_table(monkeypatch, case, engine):
    # 150 runs go in batches of 40, 40, 40 and 30 runs.  With 1100 cells a
    # tile holds 10 runs, so the batches step as 4, 4, 4 and 3 tiles; each
    # tile jumps its copy of the batch's stream to its runs' uniforms.  With
    # 4080 cells every batch is one tile.  RevisitCap(0) retires whole tiles
    # early, RevisitCap(8) and FreshTail retire runs in mid-tile, mean_visits
    # has no table, and the 1-bit Buechi estimate steps (mode, state) nodes.
    estimate = lambda: TILE_CASES[case](_gambler(engine))  # noqa: E731
    alive, flagged, tables = _stepped(monkeypatch, estimate, 1100)
    one_alive, one_flagged, one_tables = _stepped(monkeypatch, estimate, 4080)
    assert np.array_equal(alive, one_alive)
    assert np.array_equal(flagged, one_flagged)
    assert (tables, one_tables) == ((0, 0) if case == "mean_visits" else (15, 4))
    if case in ("revisit_cap_8", "fresh_tail", "buchi_one_bit"):
        assert 0 < alive.sum() < len(alive)
    if case in ("mean_visits", "buchi_one_bit"):
        assert flagged.any()


def test_negative_goal_window_is_refused():
    # A negative window started the goal count past the horizon, so no run
    # counted a goal visit: this transient walk read 0.0, against 1.0 with
    # a window of 100.
    mdp, _ = gamblers_ruin(0.7)
    everywhere = lambda s: True  # noqa: E731
    assert estimate_buchi_transience(mdp, w(0), None, everywhere, 2000, 50,
                                     RevisitCap(30), 100, seed=1)[0] == 1.0
    with pytest.raises(BadParameter, match="goal_window"):
        estimate_buchi_transience(mdp, w(0), None, everywhere, 2000, 50,
                                  RevisitCap(30), -5, seed=1)


def test_vector_engine_refuses_a_start_outside_its_table():
    chain = gamblers_ruin(0.7)[0].vector_chain()
    with pytest.raises(BadParameter, match="outside"):
        _vector_estimate(chain, StateId(-1), 100, 10, RevisitCap(5), 1)


@pytest.mark.parametrize("p, proxy", [(0.3, lambda: FreshTail(-5)),
                                      (0.9, lambda: RevisitCap(-3))],
                         ids=["fresh_tail_window", "revisit_cap"])
def test_negative_proxy_parameter_is_refused(p, proxy):
    # A negative window marked every step and read the recurrent walk as
    # transient (1.0); a negative cap read the transient walk as recurrent.
    mdp, _ = gamblers_ruin(p)
    with pytest.raises(BadParameter, match="non-negative"):
        estimate_transience(mdp, w(0), None, 50, 20, proxy(), seed=1)


def test_recurrent_walk_mean_visits_grow():
    from transientmdp.simulate import mean_visits

    mdp, _ = gamblers_ruin(0.5)
    short, _ = mean_visits(mdp, w(0), w(0), None, 400, 60, seed=2)
    long, _ = mean_visits(mdp, w(0), w(0), None, 3600, 60, seed=2)
    assert long > short  # recurrence: visits keep accumulating


def test_derive_seed_stable():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(1, 2) != derive_seed(1, 3)


def _ladder_one_bit() -> OneBitStrategy:
    """Stay on the ladder, exit from level 2 up in mode 1; every downward
    random move flips the mode."""

    def controlled(mode, s):
        o = s.ordinal
        if o % 4 == 1:  # ell_i
            i = (o - 1) // 4
            if i == 0:
                return mode, ladder_state("ell", 1)
            return mode, ladder_state("r" if mode == 1 and i >= 2 else "ellp", i)
        return mode, ladder_state("x", o // 4)  # x_i, ordinal 4i + 4

    return OneBitStrategy(0, controlled, lambda mode, s, t: mode ^ (t.ordinal < s.ordinal))


def _fan_general() -> GeneralStrategy:
    b = [StateId(3 * j, f"b_{j}") for j in range(4)]
    return GeneralStrategy(
        lambda run: Distribution([(b[1], 0.25), (b[2], 0.25), (b[3], 0.5)])
    )


def _pin_case(name):
    """(mdp, s0, strategy, goal, target) of one pinned scalar-stream case."""
    if name == "none-gambler":
        g, _ = gamblers_ruin(0.75)
        mdp = LazyMdp(g.kind_of, g.successors_of)  # no vector chain
        return mdp, w(0), None, lambda s: s.ordinal % 5 == 0, w(1)
    ladder, _ = no_optimal_ladder()
    ell0, ell1 = ladder_state("ell", 0), ladder_state("ell", 1)
    on_x = lambda s: s.ordinal % 4 == 0 and s.ordinal > 0  # noqa: E731
    if name == "md-ladder":
        return ladder, ell0, ladder_exit_strategy(3), on_x, ell1
    if name == "one-bit-ladder":
        return ladder, ell0, _ladder_one_bit(), on_x, ell1
    fan, _ = transience_fan()
    return fan, StateId(0, "fan"), _fan_general(), lambda s: s.ordinal % 3 == 1, StateId(1, "a_0")


@pytest.mark.parametrize("runs, horizon", [(0, 10), (5, -1)], ids=["zero_runs",
                                                                   "negative_horizon"])
@pytest.mark.parametrize("strategy", [None, MdStrategy({}), _fan_general()],
                         ids=["none", "md", "general"])
def test_estimators_refuse_bad_settings_with_a_typed_error(runs, horizon, strategy):
    # Zero runs divided by zero in mean_visits and the Buechi estimate, and a
    # negative horizon came out of _walk as a bare ValueError.
    mdp, _ = transience_fan() if strategy is not None else gamblers_ruin(0.7)
    s0 = StateId(0, "fan") if strategy is not None else w(0)
    calls = [
        lambda: estimate_transience(mdp, s0, strategy, horizon, runs, RevisitCap(3), seed=1),
        lambda: estimate_buchi_transience(mdp, s0, strategy, {s0}, horizon, runs,
                                          RevisitCap(3), 5, seed=1),
        lambda: mean_visits(mdp, s0, s0, strategy, horizon, runs, seed=1),
    ]
    for call in calls:
        with pytest.raises(TransientMdpError):
            call()
    if horizon < 0:
        with pytest.raises(BadParameter, match="non-negative"):
            simulate(mdp, s0, strategy, horizon, seed=1)


# A random state that answers a list of successors, not a distribution.
_LISTED = LazyMdp(lambda s: StateKind.RANDOM, lambda s: [StateId(s.ordinal + 1)])


@pytest.mark.parametrize("call, error", [
    (lambda: simulate(transience_fan()[0], StateId(0, "fan"), "nope", 5, seed=1),
     BadParameter),
    (lambda: simulate(_LISTED, StateId(0), None, 5, seed=1), BadModel),
    (lambda: estimate_transience(_LISTED, StateId(0), None, 5, 3, RevisitCap(3), seed=1),
     BadModel),
], ids=["unsupported_strategy", "per_run_random_state", "row_random_state"])
def test_simulation_errors_are_typed(call, error):
    with pytest.raises(error):
        call()


def _scalar_streams(mdp, s0, strategy, goal, target):
    """Every per-run estimator's output on one case, floats as ``float.hex``."""
    floats = []
    for proxy in (RevisitCap(3), FreshTail(8)):
        floats += estimate_transience(mdp, s0, strategy, 40, 30, proxy, seed=21)
        floats += estimate_buchi_transience(mdp, s0, strategy, goal, 40, 30, proxy, 10, seed=22)
    floats += mean_visits(mdp, s0, target, strategy, 40, 30, seed=23)
    run, stats = simulate(mdp, s0, strategy, 20, seed=24, fresh_window=5)
    counts = [(s.ordinal, c) for s, c in stats.visit_counts.items()]
    return ([x.hex() for x in floats], [s.ordinal for s in run], counts,
            stats.max_revisits, stats.fresh_tail)


# Any change to the order or number of uniforms drawn shows up here.  The runs
# of ``simulate`` and every estimate under a GeneralStrategy come from the
# per-run engine; the estimates under no strategy, an MD or a 1-bit strategy
# come from the row engine, one generator per batch.
SCALAR_STREAMS = {
    "none-gambler": (
        [
            "0x1.999999999999ap-3", "0x1.25259eda4e491p-3", "0x1.ddddddddddddep-3",
            "0x1.35f7d9112ead8p-3", "0x1.999999999999ap-2", "0x1.6707bd254efb9p-3",
            "0x1.999999999999ap-2", "0x1.6707bd254efb9p-3", "0x1.ddddddddddddep+0",
            "0x1.91ad370964881p-3",
        ],
        [0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 4, 5, 4, 5, 4, 3, 4, 5, 4, 5, 6],
        [
            (0, 3), (1, 3), (2, 2), (3, 3), (4, 5), (5, 4), (6, 1),
        ],
        4, False,
    ),
    "md-ladder": (
        [
            "0x1.4444444444444p-1", "0x1.612a299b38052p-3", "0x1.999999999999ap-2",
            "0x1.6707bd254efb9p-3", "0x1.bbbbbbbbbbbbcp-1", "0x1.f241071ea45a4p-4",
            "0x1.999999999999ap-1", "0x1.25259eda4e490p-3", "0x1.0888888888889p+2",
            "0x1.3deebcf0c5d0dp-1",
        ],
        [1, 5, 6, 9, 10, 13, 15, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68],
        [
            (1, 1), (5, 1), (6, 1), (9, 1), (10, 1), (13, 1), (15, 1),
            (16, 1), (20, 1), (24, 1), (28, 1), (32, 1), (36, 1), (40, 1),
            (44, 1), (48, 1), (52, 1), (56, 1), (60, 1), (64, 1), (68, 1),
        ],
        0, True,
    ),
    "one-bit-ladder": (
        [
            "0x1.4444444444444p-1", "0x1.612a299b38052p-3", "0x1.1111111111111p-1",
            "0x1.6d9e555d29944p-3", "0x1.999999999999ap-1", "0x1.25259eda4e490p-3",
            "0x1.7777777777777p-1", "0x1.44160e1da514dp-3", "0x1.999999999999ap+1",
            "0x1.a1c201f224c4fp-2",
        ],
        [1, 5, 6, 9, 10, 13, 14, 9, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [
            (1, 1), (5, 1), (6, 1), (9, 2), (10, 1), (13, 1), (14, 1),
            (11, 1), (0, 12),
        ],
        11, False,
    ),
    "general-fan": (
        [
            "0x1.999999999999ap-1", "0x1.25259eda4e490p-3", "0x1.7777777777777p-1",
            "0x1.44160e1da514dp-3", "0x1.999999999999ap-1", "0x1.25259eda4e490p-3",
            "0x1.7777777777777p-1", "0x1.44160e1da514dp-3", "0x1.aaaaaaaaaaaabp-1",
            "0x1.1b763f60b2fecp-4",
        ],
        [0, 9, 1, 4, 7, 10, 13, 16, 19, 22, 25, 28, 31, 34, 37, 40, 43, 46, 49, 52, 55],
        [
            (0, 1), (9, 1), (1, 1), (4, 1), (7, 1), (10, 1), (13, 1),
            (16, 1), (19, 1), (22, 1), (25, 1), (28, 1), (31, 1), (34, 1),
            (37, 1), (40, 1), (43, 1), (46, 1), (49, 1), (52, 1), (55, 1),
        ],
        0, True,
    ),
}


@pytest.mark.parametrize("name", ["none-gambler", "md-ladder", "one-bit-ladder", "general-fan"])
def test_scalar_streams_pinned(name):
    assert _scalar_streams(*_pin_case(name)) == SCALAR_STREAMS[name]


def test_strategy_must_pick_a_successor():
    c, d, stray = StateId(0, "c"), StateId(1, "d"), StateId(2, "stray")
    fm = FiniteMdp(
        [c, d], {c: StateKind.CONTROLLED, d: StateKind.RANDOM},
        {c: [c, d], d: Distribution([(d, 1.0)])}, sinks=[{d}],
    )
    at_once = GeneralStrategy(lambda run: Distribution([(stray, 1.0)]))
    # Loops once at c, so the stray pick comes on a state met before.
    on_return = GeneralStrategy(lambda run: Distribution([(c if len(run) == 1 else stray, 1.0)]))
    # A synthetic state with the ordinal of the successor d is no successor.
    aliased = GeneralStrategy(lambda run: Distribution([(mint("frontier", 1, "stray"), 1.0)]))
    for strategy in (at_once, on_return, aliased):
        with pytest.raises(ValueError, match="picked stray, not a successor of c"):
            simulate(fm, c, strategy, 5, seed=0)
        with pytest.raises(ValueError, match="picked stray, not a successor of c"):
            estimate_transience(fm, c, strategy, 5, 3, RevisitCap(9), seed=0)
    with pytest.raises(ValueError, match="no strategy given"):
        simulate(fm, c, None, 5, seed=0)
    assert simulate(fm, d, None, 5, seed=0)[0] == [d] * 6  # never controlled


def test_md_choice_on_infinite_family_is_not_checked():
    fan, _ = transience_fan()
    root, far = StateId(0, "fan"), StateId(3 * 40, "b_40")
    run, _ = simulate(fan, root, MdStrategy({root: far}), 3, seed=0)
    assert run[:2] == [root, far]


@pytest.mark.parametrize("choice", [{}, ladder_exit_strategy(3).choice])
def test_md_default_pick_asks_each_state_once(choice):
    # Outside ``choice`` an MD strategy takes the smallest-ordinal successor
    # (the first enumerated one of an infinite family); the stepper reads it
    # from its per-call table, so each state's successors are asked for once
    # per estimator call, not once per visit.
    ladder, _ = no_optimal_ladder()
    asked = []

    def successors(s):
        asked.append(s)
        return ladder.successors_of(s)

    counted = LazyMdp(ladder.kind_of, successors)
    s0, strategy = ladder_state("ell", 0), MdStrategy(dict(choice))
    est = estimate_transience(counted, s0, strategy, 200, 20, RevisitCap(30), seed=5)
    assert est == estimate_transience(ladder, s0, strategy, 200, 20, RevisitCap(30), seed=5)
    assert len(asked) == len(set(asked))
    run, _ = simulate(ladder, s0, strategy, 40, seed=6)
    for s, t in zip(run, run[1:]):
        if ladder.kind_of(s) is StateKind.CONTROLLED and s not in choice:
            assert t == strategy.successor(ladder, s)
