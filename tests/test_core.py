import numpy as np
import pytest

from transientmdp import (
    Distribution,
    FiniteMdp,
    Objective,
    StateId,
    StateKind,
    bubble,
    simulate,
    truncate,
)
from transientmdp.core import OPTIMISTIC, PESSIMISTIC, require_sink, require_tail
from transientmdp.errors import InfiniteBranching, NotSink, NotTail
from transientmdp.gadgets import (
    acyclic_chain,
    gamblers_ruin,
    ladder_state,
    no_optimal_ladder,
    safety_fan,
)
from transientmdp.simulate import (
    FreshTail,
    RevisitCap,
    _vector_estimate,
    derive_seed,
    estimate_transience,
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


def test_truncate_saturation_is_isomorphic():
    fm, a, b = two_state_chain()
    trunc = truncate(fm, {a}, 10, OPTIMISTIC)
    assert trunc.frontier is None
    assert set(trunc.states) == {a, b}


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
        tgt_p = obj.members_in([s for s in fm_p.states if s is not fm_p.frontier])
        tgt_o = obj.members_in(fm_o.states) | {fm_o.frontier}
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
    mdp, _ = gamblers_ruin(0.7)
    fast, _ = estimate_transience(mdp, w(0), None, 2000, 400, RevisitCap(30), seed=21)
    # strip the vector engine to force the generic path
    mdp._vector = None
    slow, _ = estimate_transience(mdp, w(0), None, 2000, 400, RevisitCap(30), seed=21)
    assert abs(fast - slow) < 0.08


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
    # From ordinal 10^6 a batch holds 63 runs, so 150 runs take three batches.
    mdp = acyclic_chain()[0] if family == "acyclic_chain" else gamblers_ruin(0.7)[0]
    chain, s0 = mdp.vector_chain(), StateId(1_000_000)
    want = _reference_vector_hits(chain.step, chain.ordinal_bound, s0, 100, 150, proxy, 4)
    assert _vector_estimate(chain, s0, 100, 150, proxy, 4) == want


def test_recurrent_walk_mean_visits_grow():
    from transientmdp.simulate import mean_visits

    mdp, _ = gamblers_ruin(0.5)
    short, _ = mean_visits(mdp, w(0), w(0), None, 400, 60, seed=2)
    long, _ = mean_visits(mdp, w(0), w(0), None, 3600, 60, seed=2)
    assert long > short  # recurrence: visits keep accumulating


def test_derive_seed_stable():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(1, 2) != derive_seed(1, 3)
