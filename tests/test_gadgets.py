import itertools
from fractions import Fraction

import numpy as np
import pytest

from transientmdp import Objective, StateId, simulate
from transientmdp.core import PROB_TOL, Distribution, InfiniteSuccessors, StateKind
from transientmdp.errors import BadParameter
from transientmdp.gadgets import (
    acyclic_chain,
    build_gadget,
    gamblers_ruin,
    geometric_fan,
    ladder_exit_strategy,
    ladder_state,
    lazy_self_loop_example,
    no_optimal_ladder,
    safety_fan,
    safety_fan_avoid,
    transience_fan,
    REGISTRY,
)
from transientmdp.simulate import derive_seed, mean_visits
from transientmdp.solvers import interval_value, return_probability


def exit_strategy_win_probability(j: int) -> float:
    """Independent oracle: absorption solve on the finite sub-chain induced by
    the exit-at-j strategy, built directly from the ladder's wiring."""
    # Unknowns: h(ell_0..ell_j), h(ell'_1..ell'_{j-1}), h(r_j); win = x_j.
    names = [("ell", i) for i in range(j + 1)]
    names += [("ellp", i) for i in range(1, j)]
    names += [("r", j)]
    idx = {nm: k for k, nm in enumerate(names)}
    n = len(names)
    a = np.eye(n)
    b = np.zeros(n)

    def link(row, nm, p):
        a[row, idx[nm]] -= p

    for k, (fam, i) in enumerate(names):
        if fam == "ell":
            if i == 0:
                link(k, ("ell", 1), 1.0)
            elif i < j:
                link(k, ("ellp", i), 1.0)
            else:
                link(k, ("r", j), 1.0)
        elif fam == "ellp":
            link(k, ("ell", i - 1), 0.5)
            if i + 1 < j:
                link(k, ("ellp", i + 1), 0.5)  # ell_{i+1} forwards to ell'_{i+1}
            else:
                link(k, ("ell", i + 1), 0.5)
        else:  # r_j: wins with 1 - 2^{-j}
            b[k] = 1.0 - 2.0**-j
    h = np.linalg.solve(a, b)
    return float(h[idx[("ell", 0)]])


def test_gamblers_ruin_params():
    with pytest.raises(BadParameter):
        gamblers_ruin(0.0)
    with pytest.raises(BadParameter):
        gamblers_ruin(1.0)


def test_gamblers_ruin_meta_threshold():
    for p, v in ((0.5, 0.0), (0.3, 0.0), (0.7, 1.0), (0.9, 1.0)):
        _, meta = gamblers_ruin(p)
        assert meta.value("w_0", Objective.TRANSIENCE) == v
        assert meta.universally_transient is (p > 0.5)


def test_gamblers_ruin_return_closed_form():
    mdp, meta = gamblers_ruin(0.6)
    assert abs(meta.value("w_0", "return") - 2.0 / 3.0) < 1e-12
    analysis = return_probability(mdp, StateId(0, "w_0"), [200])
    assert analysis.re.contains(2.0 / 3.0)
    assert analysis.re.width() < 1e-6


def test_ladder_known_values():
    _, meta = no_optimal_ladder()
    assert meta.value("r_3", Objective.TRANSIENCE) == 1.0 - 2.0**-3 == 0.875
    assert meta.value("ell_0", Objective.TRANSIENCE) == 1.0


@pytest.mark.parametrize("j", [1, 2, 3, 5, 8, 13, 20])
def test_ladder_exit_strategy_value(j):
    # Oracle: independent absorption solve on the induced finite sub-chain.
    expected = exit_strategy_win_probability(j)
    assert abs(expected - (1.0 - 2.0**-j)) <= 1e-9
    # Package route: exact policy evaluation on a truncation that contains
    # the whole sub-chain.
    from transientmdp.core import truncate
    from transientmdp.solvers import evaluate_md_reach

    lad, _ = no_optimal_ladder()
    sigma = ladder_exit_strategy(j)
    root = ladder_state("ell", 0)
    fm = truncate(lad, {root}, 2 * j + 6, "pessimistic")
    vals = evaluate_md_reach(fm, sigma, {ladder_state("x", j)})
    assert abs(vals[root] - (1.0 - 2.0**-j)) <= 1e-9


def test_ladder_interval_contains_known_values():
    lad, meta = no_optimal_ladder()
    x_pred = lambda s: s.label.startswith("x_")
    obj = Objective.reach(x_pred)
    for label, i in (("r_1", 1), ("r_2", 2), ("r_3", 3)):
        iv = interval_value(lad, ladder_state("r", i), obj, [50])
        assert iv.contains(meta.value(label, Objective.TRANSIENCE))
    iv0 = interval_value(lad, ladder_state("ell", 0), obj, [50])
    assert iv0.contains(1.0, slack=1e-6) or iv0.upper >= 1.0 - 1e-9


def test_ladder_distribution_sums_exact():
    # Each r_i answer is 1 - 2^-i and 2^-i, the rationals correctly rounded;
    # from i = 1075 on the edge to bot carries 0.0.
    lad, _ = no_optimal_ladder()
    for i in (*range(1, 20), 52, 53, 54, 1074, 1075, 1100):
        q = Fraction(1, 2**i)
        d = lad.successors_of(ladder_state("r", i))
        assert [p for _, p in d] == [float(1 - q), float(q)]
        assert [t.label for t in d.states()] == [f"x_{i}", "bot"]
        assert abs(sum(p for _, p in d) - 1.0) <= 1e-12


def test_geometric_fan_refuses_ordinal_zero():
    mdp, meta = geometric_fan()
    assert not meta.is_state(0)
    with pytest.raises(BadParameter):
        mdp.successors_of(StateId(0))


def test_lazy_self_loop_round_strategy():
    mdp, strat, meta = lazy_self_loop_example()
    s0 = StateId(0, "s_0")
    # Reproducibility for a fixed seed.
    r1, _ = simulate(mdp, s0, strat, 200, seed=5)
    r2, _ = simulate(mdp, s0, strat, 200, seed=5)
    assert r1 == r2
    # Staying at s_0 forever has probability 0: most runs leave eventually.
    left = 0
    for i in range(80):
        run, _ = simulate(mdp, s0, strat, 300, seed=derive_seed(7, i))
        if run[-1].ordinal > 0:
            left += 1
    assert left >= 70
    # Expected visits to s_0 keep growing with the horizon.
    short, _ = mean_visits(mdp, s0, s0, strat, 100, 300, seed=11)
    long, _ = mean_visits(mdp, s0, s0, strat, 10_000, 300, seed=11)
    assert long > short


def test_acyclic_chain_meta():
    chain, meta = acyclic_chain()
    assert meta.universally_transient is True
    analysis = return_probability(chain, StateId(0, "c_0"), [30])
    assert analysis.re.upper == 0.0
    assert analysis.b_bound == 1.0 and analysis.r_bound == 1.0


def test_safety_fan_values():
    fan, meta = safety_fan()
    assert meta.value("b_3", Objective.SAFETY) == 1.0 - 0.125
    obj = Objective.safety(safety_fan_avoid)
    core = lambda s: s.label.startswith("a_")
    iv = interval_value(fan, StateId(9, "b_3"), obj, [40], safe_core=core)
    assert iv.contains(0.875)
    assert iv.width() < 1e-9  # branch value is exact at any radius
    # The infinitely branching root cannot be truncated.
    from transientmdp.errors import InfiniteBranching

    with pytest.raises(InfiniteBranching):
        interval_value(fan, StateId(0, "fan"), obj, [10], safe_core=core)


@pytest.mark.parametrize("fan", [safety_fan, transience_fan])
def test_fan_branches_past_float_underflow(fan):
    # 2^-1075 is 0.0; the branch must not carry a zero-mass edge.
    mdp, _ = fan()
    far = mdp.successors_of(StateId(3 * 1075, "b_1075"))
    assert [(t.label, p) for t, p in far] == [("a_0", 1.0)]
    near = mdp.successors_of(StateId(3 * 1074, "b_1074"))
    assert [p for _, p in near] == [1.0, 2.0**-1074]


def test_all_registered_gadgets_well_formed():
    # Distribution sums and successor non-emptiness on a lazily explored
    # prefix of every registered gadget, infinite families included.
    from transientmdp.core import InfiniteSuccessors

    defaults = {"gamblers_ruin": {"p": 0.6}}
    for name, entry in REGISTRY.items():
        built = entry.build(**defaults.get(name, {}))
        mdp = built[0]
        start = {
            "gamblers_ruin": StateId(0, "w_0"),
            "no_optimal_ladder": ladder_state("ell", 0),
            "lazy_self_loop": StateId(0, "s_0"),
            "acyclic_chain": StateId(0, "c_0"),
            "safety_fan": StateId(0, "fan"),
            "transience_fan": StateId(0, "fan"),
            "geometric_fan": StateId(5, "root"),
        }[name]
        seen = {start}
        frontier = [start]
        for _ in range(4):  # BFS a few levels deep
            nxt = []
            for s in frontier:
                succ = mdp.successors_of(s)
                if isinstance(succ, InfiniteSuccessors):
                    if succ.random:
                        prefix = []
                        total = 0.0
                        for t, p in succ.iter_weighted():
                            assert p > 0.0
                            total += p
                            prefix.append(t)
                            if len(prefix) >= 8:
                                break
                        assert total <= 1.0 + 1e-9
                        targets = prefix
                    else:
                        it = succ.iter_states()
                        targets = [next(it) for _ in range(8)]
                    assert targets
                elif isinstance(succ, Distribution):
                    assert abs(sum(p for _, p in succ) - 1.0) <= 1e-9
                    targets = succ.states()
                else:
                    targets = list(succ)
                    assert targets, f"{name}: {s} has no successor"
                ordinals = [t.ordinal for t in targets]
                assert len(set(ordinals)) == len(ordinals)
                for t in targets:
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt


def test_registry_roundtrip():
    assert "gamblers_ruin" in REGISTRY
    assert "no_optimal_ladder" in REGISTRY
    import json

    for name, entry in REGISTRY.items():
        doc = json.dumps({"gadget": name, "schema": entry.schema})
        assert json.loads(doc)["schema"] == entry.schema
    mdp, meta = build_gadget("gamblers_ruin", {"p": 0.6})
    assert meta.params == {"p": 0.6}
    with pytest.raises(BadParameter):
        build_gadget("nope")


# Every registered gadget, at several parameters: (name, params, root ordinals).
ANSWER_CASES = [("gamblers_ruin", {"p": p}, [0]) for p in (0.01, 0.3, 0.5, 0.7, 0.99)] + [
    ("no_optimal_ladder", {}, [1]),
    ("lazy_self_loop", {}, [0]),
    ("acyclic_chain", {}, [0]),
    ("safety_fan", {}, [0, 3 * 1100]),  # b_1100: 2^-1100 underflows
    ("transience_fan", {}, [0, 3 * 1100]),
    ("geometric_fan", {}, [5]),
]


@pytest.mark.parametrize("name, params, roots", ANSWER_CASES,
                         ids=[f"{c[0]}{c[1].get('p', '')}" for c in ANSWER_CASES])
def test_gadget_answers_are_valid_over_their_first_states(name, params, roots):
    # The gadget oracles build their Distributions unchecked, so this is where
    # the sums and supports are checked: the first 400 states breadth-first,
    # and the first 60 members of an infinite family.
    mdp, meta = build_gadget(name, params)
    assert set(REGISTRY) == {c[0] for c in ANSWER_CASES}
    seen = {StateId(o) for o in roots}
    queue = sorted(seen)
    while queue and len(seen) < 400:
        s = queue.pop(0)
        assert meta.is_state(s.ordinal), s
        succ = mdp.successors_of(s)
        if isinstance(succ, InfiniteSuccessors):
            items = list(itertools.islice(succ.items(), 60))
            states = [t for t, _ in items] if succ.random else items
            assert succ.random == (mdp.kind_of(s) is StateKind.RANDOM)
            if succ.random:
                assert all(p > 0.0 for _, p in items)
                assert abs(sum(p for _, p in items) - 1.0) <= PROB_TOL
        elif mdp.kind_of(s) is StateKind.RANDOM:
            assert isinstance(succ, Distribution)
            Distribution(succ.support)  # the duplicate and sum checks
            states = succ.states()
        else:
            states = list(succ)
            assert states
        assert len({t.ordinal for t in states}) == len(states)
        for t in states:
            if t not in seen:
                seen.add(t)
                queue.append(t)
