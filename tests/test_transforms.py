import pytest

from transientmdp import (
    Distribution,
    FiniteMdp,
    GeneralStrategy,
    LazyMdp,
    MdStrategy,
    Objective,
    StateId,
    StateKind,
    estimate_transience,
    simulate,
)
from transientmdp.core import successor_states
from transientmdp.errors import BadParameter, HitBottom, NotTail, ZeroValueRoot
from transientmdp.gadgets import geometric_fan, transience_fan
from transientmdp.simulate import RevisitCap, derive_seed
from transientmdp.solvers import ValueMap, evaluate_md_reach, reach_value
from transientmdp.transforms import (
    INFINITE_CHAIN,
    conditioned,
    plus_variant,
    reduce_to_finitely_branching,
)
from transientmdp.verify import random_finite_mdp, random_md_strategy, win_objective


def three_state_example():
    """Random s0 -> 1/2 win, 1/2 lose, both absorbing."""
    s0, win, lose = StateId(0, "s0"), StateId(1, "win"), StateId(2, "lose")
    fm = FiniteMdp(
        [s0, win, lose],
        {s0: StateKind.RANDOM, win: StateKind.RANDOM, lose: StateKind.RANDOM},
        {
            s0: Distribution([(win, 0.5), (lose, 0.5)]),
            win: Distribution([(win, 1.0)]),
            lose: Distribution([(lose, 1.0)]),
        },
        [{win}, {lose}],
    )
    return fm, s0, win, lose


def controlled_pair_example():
    """Controlled s (val 0.5) with an edge to t (val 0.25)."""
    s, t, win, lose = (
        StateId(0, "s"),
        StateId(1, "t"),
        StateId(2, "win"),
        StateId(3, "lose"),
    )
    fm = FiniteMdp(
        [s, t, win, lose],
        {
            s: StateKind.CONTROLLED,
            t: StateKind.RANDOM,
            win: StateKind.RANDOM,
            lose: StateKind.RANDOM,
        },
        {
            s: [t, win],  # val(s) = max(0.25, ...) with win giving 1.0
            t: Distribution([(win, 0.25), (lose, 0.75)]),
            win: Distribution([(win, 1.0)]),
            lose: Distribution([(lose, 1.0)]),
        },
        [{win}, {lose}],
    )
    return fm, s, t, win, lose


# ---------------------------------------------------------------------------
# Finite-branching reduction


def test_geometric_weights_adjust_to_half():
    fan, _ = geometric_fan()
    maps = reduce_to_finitely_branching(fan)
    root = StateId(5, "root")
    adjusted = maps.adjusted_probs(root, 12)
    assert all(abs(q - 0.5) < 1e-15 for q in adjusted)


def test_gadget_exit_probabilities_reproduce_weights():
    fan, _ = geometric_fan()
    maps = reduce_to_finitely_branching(fan)
    root = StateId(5, "root")
    adjusted = maps.adjusted_probs(root, 30)
    prefix = 1.0
    for i, q in enumerate(adjusted, start=1):
        exit_prob = prefix * q
        assert abs(exit_prob - 2.0**-i) <= 1e-9
        prefix *= 1.0 - q


def test_identity_on_finite_mdp():
    fm = random_finite_mdp(3)
    maps = reduce_to_finitely_branching(fm)
    assert maps.is_identity and maps.reduced is fm
    sigma = random_md_strategy(fm, 1)
    assert maps.lower_md(sigma) is sigma


def _ladder_rungs(reduced, root, depth):
    """The controlled ladder states ell_0 .. ell_depth of a reduced fan."""
    entry = reduced.successors_of(root)[0]
    rungs = [entry, reduced.successors_of(entry)[0]]
    while len(rungs) <= depth:
        stay = reduced.successors_of(rungs[-1])[0]  # ell'_i
        step_up = [t for t, _ in reduced.successors_of(stay) if t != rungs[-2]]
        rungs.append(step_up[0])
    return rungs


def test_lower_md_traces_ladder_exit():
    fan, _ = transience_fan()
    maps = reduce_to_finitely_branching(fan)
    reduced = maps.reduced
    root = maps.embed(StateId(0, "fan"))
    rungs = _ladder_rungs(reduced, root, 3)
    choice = {rungs[0]: rungs[1]}
    for i in (1, 2):
        choice[rungs[i]] = reduced.successors_of(rungs[i])[0]  # stay
    choice[rungs[3]] = reduced.successors_of(rungs[3])[1]  # exit at level 3
    alpha = maps.lower_md(MdStrategy(choice))
    picked = alpha.successor(fan, StateId(0, "fan"))
    assert picked.label == "b_3"


def test_lower_md_stay_forever_maps_to_first_exit():
    fan, _ = transience_fan()
    maps = reduce_to_finitely_branching(fan, ladder_cap=40)
    reduced = maps.reduced
    root = maps.embed(StateId(0, "fan"))
    rungs = _ladder_rungs(reduced, root, 60)
    choice = {rungs[0]: rungs[1]}
    for level in rungs[1:]:
        choice[level] = reduced.successors_of(level)[0]  # always stay
    alpha = maps.lower_md(MdStrategy(choice))
    picked = alpha.successor(fan, StateId(0, "fan"))
    assert picked.label == "b_1"


@pytest.mark.parametrize("family", ["transience_fan", "geometric_fan"])
def test_reduction_preserves_transience_monte_carlo(family):
    if family == "transience_fan":
        mdp, _ = transience_fan()
        root = StateId(0, "fan")

        def decide(run):
            succ = mdp.successors_of(run[-1])
            if hasattr(succ, "items"):
                return Distribution([(StateId(6, "b_2"), 0.5), (StateId(12, "b_4"), 0.5)])
            states = successor_states(mdp, run[-1])
            return Distribution([(states[0], 1.0)])

        alpha = GeneralStrategy(decide)
    else:
        mdp, _ = geometric_fan()
        root = StateId(5, "root")
        alpha = None  # chain: no controlled states

    maps = reduce_to_finitely_branching(mdp)
    beta = maps.lift_strategy(alpha) if alpha is not None else None
    proxy = RevisitCap(25)
    est_base, half_base = estimate_transience(
        mdp, root, alpha, 400, 220, proxy, seed=derive_seed(family, 1)
    )
    est_red, half_red = estimate_transience(
        maps.reduced, maps.embed(root), beta, 900, 220, proxy,
        seed=derive_seed(family, 2),
    )
    assert abs(est_base - est_red) <= 2.0 * (half_base + half_red) + 0.02


def test_lifted_strategy_contracts_each_state_once():
    # A controlled chain: the lifted strategy decides at every step, and the
    # lookups of original states must grow linearly with the horizon.
    chain = LazyMdp(lambda s: StateKind.CONTROLLED, lambda s: [StateId(s.ordinal + 1)])
    maps = reduce_to_finitely_branching(chain)
    lookups = []
    original = maps.reduced.original
    maps.reduced.original = lambda rs: lookups.append(rs) or original(rs)
    beta = maps.lift_strategy(
        GeneralStrategy(lambda run: Distribution([(StateId(run[-1].ordinal + 1), 1.0)]))
    )
    for horizon in (100, 200, 400):
        del lookups[:]
        run, _ = simulate(maps.reduced, maps.embed(StateId(0)), beta, horizon, seed=1)
        assert len(run) == horizon + 1
        assert horizon <= len(lookups) <= horizon + 1


# ---------------------------------------------------------------------------
# Conditioned MDP


def test_conditioned_three_state_example():
    fm, s0, win, lose = three_state_example()
    values = reach_value(fm, {win})
    cm = conditioned(fm, Objective.reach({win}), values)
    assert lose not in cm.positive
    d = cm.finite.successors_of(s0)
    assert d.states() == [win]
    assert abs(d.prob(win) - 1.0) <= 1e-12


def test_conditioned_pair_probabilities():
    fm, s, t, win, lose = controlled_pair_example()
    values = reach_value(fm, {win})
    assert abs(values[s] - 1.0) < 1e-9 and abs(values[t] - 0.25) < 1e-9
    # Force val(s)=0.5 scenario by removing the direct win edge.
    fm2 = FiniteMdp(
        fm.states,
        fm.kinds,
        {**fm.transitions, s: [t]},
        [],
        check=False,
    )
    v2 = reach_value(fm2, {win})
    assert abs(v2[s] - 0.25) < 1e-9
    cm = conditioned(fm2, Objective.reach({win}), v2)
    pair = cm.pair_of[(s, t)]
    d = cm.finite.successors_of(pair)
    # val(t)/val(s) = 1 here, so the pair commits with probability 1.
    assert abs(d.prob(t) - 1.0) <= 1e-9


def test_conditioned_pair_ratio_half():
    # Controlled s with successors t (0.25) and u (0.5): pair (s,t) falls to
    # the bottom with probability 1 - 0.25/0.5.
    s, t, u, win, lose = (
        StateId(0, "s"),
        StateId(1, "t"),
        StateId(2, "u"),
        StateId(3, "win"),
        StateId(4, "lose"),
    )
    fm = FiniteMdp(
        [s, t, u, win, lose],
        {
            s: StateKind.CONTROLLED,
            t: StateKind.RANDOM,
            u: StateKind.RANDOM,
            win: StateKind.RANDOM,
            lose: StateKind.RANDOM,
        },
        {
            s: [t, u],
            t: Distribution([(win, 0.25), (lose, 0.75)]),
            u: Distribution([(win, 0.5), (lose, 0.5)]),
            win: Distribution([(win, 1.0)]),
            lose: Distribution([(lose, 1.0)]),
        },
        [{win}, {lose}],
    )
    values = reach_value(fm, {win})
    cm = conditioned(fm, Objective.reach({win}), values)
    pair = cm.pair_of[(s, t)]
    d = cm.finite.successors_of(pair)
    assert abs(d.prob(t) - 0.5) <= 1e-9
    assert abs(d.prob(cm.bottom) - 0.5) <= 1e-9


def test_conditioned_requires_tail_and_positive_root():
    fm, s0, win, lose = three_state_example()
    values = reach_value(fm, {win})
    with pytest.raises(NotTail):
        conditioned(fm, Objective.reach({s0}), values)  # not a sink
    with pytest.raises(ZeroValueRoot):
        conditioned(fm, Objective.reach({win}), values, root=lose)


def test_conditioned_refuses_values_off_the_tail_equation():
    fm = random_finite_mdp(3, n_states=8)
    phi = win_objective(fm)
    values = reach_value(fm, phi.states)
    halved = ValueMap(
        {s: v if s in phi.states else v / 2 for s, v in values.values.items()},
        values.objective,
    )
    with pytest.raises(BadParameter, match="tail value equation"):
        conditioned(fm, phi, halved)


def test_conditioned_distribution_sums_random_corpus():
    for i in range(50):
        fm = random_finite_mdp(derive_seed("wf", i), n_states=9)
        phi = win_objective(fm)
        values = reach_value(fm, phi.states)
        if values[fm.states[0]] <= 0.0:
            continue
        cm = conditioned(fm, phi, values)
        for s in cm.finite.states:
            succ = cm.finite.successors_of(s)
            if isinstance(succ, Distribution):
                total = sum(p for _, p in succ)
                assert abs(total - 1.0) <= 1e-9


def test_contract_run_examples():
    fm, s, t, win, lose = controlled_pair_example()
    values = reach_value(fm, {win})
    cm = conditioned(fm, Objective.reach({win}), values)
    pair = cm.pair_of[(s, t)]
    assert cm.contract_run([s, pair, t]) == [s, t]
    assert cm.contract_run([t, win]) == [t, win]
    with pytest.raises(HitBottom):
        cm.contract_run([s, pair, cm.bottom])


def host_named_like_bottom():
    """The controlled pair example with ``t`` labelled like a bottom state."""
    fm, s, t, win, lose = controlled_pair_example()
    t2 = StateId(t.ordinal, "s_bottom_line")
    succ = {
        s: [t2, win],
        t2: fm.successors_of(t),
        win: fm.successors_of(win),
        lose: fm.successors_of(lose),
    }
    fm2 = FiniteMdp([s, t2, win, lose], {q: fm.kind_of(q) for q in fm.states}, succ,
                    [{win}, {lose}])
    return fm2, t2, win


def test_contract_run_keeps_host_state_labelled_like_bottom():
    fm, t, win = host_named_like_bottom()
    cm = conditioned(fm, Objective.reach({win}), reach_value(fm, {win}))
    assert not cm.is_bottom(t) and not cm.is_pair(t)
    assert cm.contract_run([t, win]) == [t, win]


def test_infinite_chain_keeps_host_state_labelled_like_bottom():
    fm, t, win = host_named_like_bottom()
    cm = conditioned(fm, Objective.reach({win}), reach_value(fm, {win}),
                     bottom=INFINITE_CHAIN)
    assert cm.mdp.kind_of(t) is StateKind.RANDOM
    assert [(q.label, p) for q, p in cm.mdp.successors_of(t)] == [("win", 1.0)]


def test_contract_run_is_legal_in_base():
    fm = random_finite_mdp(99, n_states=8)
    phi = win_objective(fm)
    values = reach_value(fm, phi.states)
    cm = conditioned(fm, phi, values)
    star = cm.finite
    sigma = random_md_strategy(fm, 5)
    sigma_star = cm.md_to_conditioned(sigma)
    from transientmdp.simulate import simulate

    for i in range(20):
        run, _ = simulate(star, sorted(cm.positive)[0], sigma_star, 6, derive_seed("cr", i))
        if any(cm.is_bottom(q) for q in run):
            continue
        base_run = cm.contract_run(run)
        for a, b in zip(base_run, base_run[1:]):
            targets = successor_states(fm, a)
            assert b in targets


def test_infinite_chain_bottom_is_lazy():
    fm, s, t, win, lose = controlled_pair_example()
    values = reach_value(fm, {win})
    cm = conditioned(fm, Objective.reach({win}), values, bottom=INFINITE_CHAIN)
    assert cm.finite is None
    b1 = cm.bottom
    (b2, _), = cm.mdp.successors_of(b1).support
    assert b2.label == "s_bot_2"
    (b3, _), = cm.mdp.successors_of(b2).support
    assert b3.label == "s_bot_3"
    with pytest.raises(ValueError):
        cm.to_json()


def test_conditioned_serialization_labels():
    fm, s, t, win, lose = controlled_pair_example()
    values = reach_value(fm, {win})
    cm = conditioned(fm, Objective.reach({win}), values)
    doc = cm.to_json()
    labels = {st["label"] for st in doc["states"]}
    assert "s_bot" in labels
    assert any(lbl.startswith("pair(") for lbl in labels)
    FiniteMdp.from_json(doc)  # round-trips through the schema


# ---------------------------------------------------------------------------
# The restricted variant


def test_plus_variant_keeps_value_preserving_edges():
    s, t1, t2, win, lose = (
        StateId(0, "s"),
        StateId(1, "t1"),
        StateId(2, "t2"),
        StateId(3, "win"),
        StateId(4, "lose"),
    )
    fm = FiniteMdp(
        [s, t1, t2, win, lose],
        {
            s: StateKind.CONTROLLED,
            t1: StateKind.RANDOM,
            t2: StateKind.RANDOM,
            win: StateKind.RANDOM,
            lose: StateKind.RANDOM,
        },
        {
            s: [t1, t2],
            t1: Distribution([(win, 0.9), (lose, 0.1)]),
            t2: Distribution([(win, 0.4), (lose, 0.6)]),
            win: Distribution([(win, 1.0)]),
            lose: Distribution([(lose, 1.0)]),
        },
        [{win}, {lose}],
    )
    values = reach_value(fm, {win})
    plus = plus_variant(fm, Objective.reach({win}), values)
    assert plus.successors_of(s) == [t1]
    assert lose not in plus.states


def test_plus_matches_conditioned_on_value_preserving_mdp():
    # Random-only MDP: every controlled edge vacuously value-preserving, so
    # strategy values agree between the two variants (modulo pair states).
    fm, s0, win, lose = three_state_example()
    values = reach_value(fm, {win})
    plus = plus_variant(fm, Objective.reach({win}), values)
    cm = conditioned(fm, Objective.reach({win}), values)
    sigma = MdStrategy({})
    v_plus = evaluate_md_reach(plus, sigma, {win})
    v_star = evaluate_md_reach(cm.finite, sigma, {win})
    assert abs(v_plus[s0] - v_star[s0]) <= 1e-9
