import hashlib
import importlib
import itertools
import json
import sys
from collections import Counter

import pytest

from transientmdp import (
    Distribution,
    FiniteMdp,
    LazyMdp,
    Objective,
    StateId,
    StateKind,
)
from transientmdp import synthesis
from transientmdp.cli import main as cli_main
from transientmdp.core import InfiniteSuccessors, successor_states, truncate
from transientmdp.errors import (
    EmptyFrontier,
    NotUniversallyTransient,
    RadiusExhausted,
)
from transientmdp.gadgets import (
    acyclic_chain,
    gamblers_ruin,
    geometric_fan,
    ladder_state,
    no_optimal_ladder,
    safety_fan,
    safety_fan_avoid,
    transience_fan,
)
from transientmdp.simulate import (
    RevisitCap,
    derive_seed,
    estimate_buchi_transience,
    simulate,
)
from transientmdp.solvers import (
    CostLabel,
    evaluate_md_cost,
    evaluate_md_reach,
    evaluate_md_safety,
    reach_value,
    safety_value,
)
from transientmdp.synthesis import (
    BubbleSchedule,
    SafetySchedule,
    SynthesisParams,
    TransienceBudgets,
    buchi_transience_one_bit,
    match_patterns,
    optimal_md_where_exists,
    plastering_uniformize,
    revisit_violations,
    safety_md_universally_transient,
    transience_md,
)
from transientmdp.verify import (
    random_finite_mdp,
    random_transient_core_mdp,
    win_objective,
)

SIMULATE = importlib.import_module("transientmdp.simulate")


def test_synthesis_params_exact_constants():
    p = SynthesisParams(0.1)
    assert p.epsilon_prime == 0.05
    assert p.big_k == (1.0 + 0.05) / 0.05
    total = sum(p.plastering_epsilon(i) for i in range(1, 60))
    assert abs(total - 0.05) < 1e-12


# ---------------------------------------------------------------------------
# Plastering


def test_plastering_returns_the_unique_optimal_strategy():
    a, t, d = StateId(0, "a"), StateId(1, "t"), StateId(2, "d")
    fm = FiniteMdp(
        [a, t, d],
        {a: StateKind.CONTROLLED, t: StateKind.RANDOM, d: StateKind.RANDOM},
        {a: [t, d], t: Distribution([(t, 1.0)]), d: Distribution([(d, 1.0)])},
        [{t}, {d}],
    )
    sigma, state = plastering_uniformize(fm, Objective.reach({t}), 0.1)
    assert sigma.choice[a] == t
    assert all(r.escape_probability <= r.epsilon_i + 1e-12 for r in state.rounds)


def test_plastering_merges_two_local_optima():
    # Two controlled states, each epsilon-optimal under a different local
    # choice; the output must be a single MD strategy good from both.
    a, b, t, d = (
        StateId(0, "a"),
        StateId(1, "b"),
        StateId(2, "t"),
        StateId(3, "d"),
    )
    fm = FiniteMdp(
        [a, b, t, d],
        {
            a: StateKind.CONTROLLED,
            b: StateKind.CONTROLLED,
            t: StateKind.RANDOM,
            d: StateKind.RANDOM,
        },
        {
            a: [b, t],
            b: [a, t],
            t: Distribution([(t, 1.0)]),
            d: Distribution([(d, 1.0)]),
        },
        [{t}, {d}],
    )
    sigma, _ = plastering_uniformize(fm, Objective.reach({t}), 0.05)
    attained = evaluate_md_reach(fm, sigma, {t})
    assert attained[a] >= 1.0 - 0.05 and attained[b] >= 1.0 - 0.05


def test_plastering_uniform_on_random_corpus():
    for i in range(30):
        fm = random_finite_mdp(derive_seed("plas", i), n_states=12)
        phi = win_objective(fm)
        values = reach_value(fm, phi.states)
        sigma, state = plastering_uniformize(fm, phi, 0.05)
        attained = evaluate_md_reach(fm, sigma, phi.states)
        for s in fm.states:
            assert attained[s] >= values[s] - 0.05 - 1e-9
        # per-round inequalities
        for r in state.rounds:
            assert r.escape_probability <= r.epsilon_i + 1e-9
            assert r.max_value_drop <= r.epsilon_i + 1e-9


def _counting_optimal(monkeypatch):
    """Count the calls to ``synthesis._optimal`` from here on."""
    calls = []
    real = synthesis._optimal

    def counting(fm, phi):
        calls.append(fm)
        return real(fm, phi)

    monkeypatch.setattr(synthesis, "_optimal", counting)
    return calls


def test_plastering_solves_each_overlay_once(monkeypatch):
    # Round 1 fixes every controlled state, since the exact optimum is
    # optimal everywhere; the 11 later rounds fix nothing and keep the
    # overlay, so only fm and the overlay of round 1 are solved.
    fm = random_finite_mdp(derive_seed("plas", 0), n_states=12)
    calls = _counting_optimal(monkeypatch)
    sigma, state = plastering_uniformize(fm, win_objective(fm), 0.05)
    assert len(calls) <= 2
    assert len(state.rounds) == 12
    assert all(r.max_value_drop == 0.0 for r in state.rounds[1:])
    assert set(sigma.choice) == set(fm.controlled_states())


def test_plastering_solves_an_overlay_that_fixes_a_new_choice(monkeypatch):
    # Drop the first evaluation at one controlled state below its budget:
    # it stays out of G in round 1 and is fixed in round 2, on a third solve.
    fm = random_finite_mdp(derive_seed("plas", 0), n_states=12)
    phi = win_objective(fm)
    late = fm.controlled_states()[0]
    real = synthesis._evaluate
    evaluations = []

    def first_short(current, sigma, objective):
        attained = real(current, sigma, objective)
        if not evaluations:
            attained = {**attained, late: attained[late] - 1.0}
        evaluations.append(current)
        return attained

    monkeypatch.setattr(synthesis, "_evaluate", first_short)
    calls = _counting_optimal(monkeypatch)
    sigma, state = plastering_uniformize(fm, phi, 0.05)
    assert len(calls) == 3 and len(evaluations) == 3
    assert [r.g_size for r in state.rounds[:2]] == [11, 12]
    assert late in state.fixed
    values = reach_value(fm, phi.states)
    attained = evaluate_md_reach(fm, sigma, phi.states)
    assert all(attained[s] >= values[s] - 0.05 - 1e-9 for s in fm.states)


def _eps_rounds(n):
    """The audit rows of ``n`` rounds at epsilon 0.05 in which G is every
    state and no value moves: eps_i = 0.025 * 2^-i."""
    return [
        {
            "index": i, "pivot": i - 1, "epsilon_i": float.fromhex(f"0x1.999999999999ap-{6 + i}"),
            "g_size": n, "escape_probability": 0.0, "max_value_drop": 0.0,
        }
        for i in range(1, n + 1)
    ]


# Recorded from the implementation that solved every overlay twice per round.
PLASTERING_PINS = {
    3: {"2": 6, "5": 9},
    7: {"4": 5, "6": 4, "8": 7, "9": 5},
    19: {"4": 6, "5": 7, "6": 9, "7": 1, "8": 2, "9": 1},
}


@pytest.mark.parametrize("seed", sorted(PLASTERING_PINS))
def test_plastering_pinned(seed):
    fm = random_finite_mdp(derive_seed("plas-pin", seed), n_states=12)
    sigma, state = plastering_uniformize(fm, win_objective(fm), 0.05)
    assert sigma.to_json() == PLASTERING_PINS[seed]
    assert state.to_json() == {"rounds": _eps_rounds(12), "fixed": PLASTERING_PINS[seed]}


def test_cli_plastering_audit_bytes_pinned(tmp_path):
    # The sha256 of plastering_audit.json was recorded from the
    # implementation that solved every overlay twice per round.
    fm = random_finite_mdp(4, n_states=8)
    fm.dump(tmp_path / "mdp.json")
    scenario = tmp_path / "plaster.json"
    scenario.write_text(json.dumps({
        "seed": 1,
        "mdp": {"file": str(tmp_path / "mdp.json")},
        "task": {
            "kind": "synthesize", "method": "plastering", "epsilon": 0.05,
            "objective": {"type": "reach", "states": [fm.states[-1].ordinal]},
        },
    }))
    assert cli_main(["--out-dir", str(tmp_path), "run", str(scenario)]) == 0
    audit = (tmp_path / "plastering_audit.json").read_bytes()
    assert json.loads(audit) == {"rounds": _eps_rounds(8), "fixed": {"0": 7, "5": 5}}
    assert hashlib.sha256(audit).hexdigest() == (
        "a0fccb5d6b8758fa8b472b9cb701f9f293a88481adf994f9c2021016e61d5b95"
    )


def test_optimal_md_where_exists_exact_on_corpus():
    for i in range(30):
        fm = random_finite_mdp(derive_seed("owe", i), n_states=10)
        phi = win_objective(fm)
        values = reach_value(fm, phi.states)
        sigma = optimal_md_where_exists(fm, phi)
        attained = evaluate_md_reach(fm, sigma, phi.states)
        for s in fm.states:
            if values[s] > 1e-12:
                assert abs(attained[s] - values[s]) <= 1e-6


def test_optimal_md_zero_value_mdp():
    a, d = StateId(0, "a"), StateId(1, "d")
    fm = FiniteMdp(
        [a, d],
        {a: StateKind.CONTROLLED, d: StateKind.RANDOM},
        {a: [a, d], d: Distribution([(d, 1.0)])},
        [{d}],
    )
    t_unreachable = StateId(9, "win")
    fm2 = FiniteMdp(
        [a, d, t_unreachable],
        {a: StateKind.CONTROLLED, d: StateKind.RANDOM, t_unreachable: StateKind.RANDOM},
        {
            a: [a, d],
            d: Distribution([(d, 1.0)]),
            t_unreachable: Distribution([(t_unreachable, 1.0)]),
        },
        [{d}, {t_unreachable}],
    )
    sigma = optimal_md_where_exists(fm2, Objective.reach({t_unreachable}))
    assert sigma.choice == {}  # all-zero values: default rule qualifies


def test_optimal_md_value_one_chain():
    a, b, t = StateId(0, "a"), StateId(1, "b"), StateId(2, "t")
    fm = FiniteMdp(
        [a, b, t],
        {a: StateKind.CONTROLLED, b: StateKind.CONTROLLED, t: StateKind.RANDOM},
        {a: [b], b: [t], t: Distribution([(t, 1.0)])},
        [{t}],
    )
    sigma = optimal_md_where_exists(fm, Objective.reach({t}))
    attained = evaluate_md_reach(fm, sigma, {t})
    assert attained[a] == 1.0


# ---------------------------------------------------------------------------
# Bubble 1-bit synthesis


def test_one_bit_on_acyclic_chain():
    chain, _ = acyclic_chain()
    c0 = StateId(0, "c_0")
    schedule = BubbleSchedule(max_radius=60, mc_horizon=400, mc_runs=60, seed=1)
    strategy, plan = buchi_transience_one_bit(chain, [c0], lambda s: True, 0.1, schedule)
    est, half = estimate_buchi_transience(
        chain, c0, strategy, lambda s: True, 600, 120, RevisitCap(10), 50, seed=2
    )
    assert est >= 0.99


def test_one_bit_on_gambler_with_drift():
    mdp, _ = gamblers_ruin(0.7)
    w0 = StateId(0, "w_0")
    schedule = BubbleSchedule(max_radius=60, mc_horizon=1500, mc_runs=100, seed=3)
    strategy, plan = buchi_transience_one_bit(mdp, [w0], lambda s: True, 0.1, schedule)
    est, half = estimate_buchi_transience(
        mdp, w0, strategy, lambda s: True, 4000, 200, RevisitCap(30), 400, seed=4
    )
    assert est >= 1.0 - 2 * 0.1 - half


def test_one_bit_empty_frontier():
    chain, _ = acyclic_chain()
    c0 = StateId(0, "c_0")
    schedule = BubbleSchedule(max_radius=20, mc_horizon=200, mc_runs=40, seed=5)
    with pytest.raises(EmptyFrontier):
        buchi_transience_one_bit(chain, [c0], lambda s: False, 0.1, schedule)


def test_pattern_match_and_violations():
    mdp, _ = gamblers_ruin(0.7)
    w0 = StateId(0, "w_0")
    schedule = BubbleSchedule(max_radius=60, mc_horizon=1500, mc_runs=100, seed=6)
    strategy, plan = buchi_transience_one_bit(mdp, [w0], lambda s: True, 0.1, schedule)
    conformant = 0
    for i in range(40):
        run, stats = simulate(mdp, w0, strategy, 3000, derive_seed(7, i))
        completed, ok = match_patterns(plan, run)
        if ok and completed == len(plan.levels):
            conformant += 1
            # conformant runs satisfy the transience proxy, visit every goal
            # frontier, and never revisit K_i after first entering F_{i+1}
            assert stats.max_revisits <= 30
            assert all(any(s in lv.F for s in run) for lv in plan.levels)
            assert not revisit_violations(plan, run)
    assert conformant >= 30  # the drift walk conforms almost always


# ---------------------------------------------------------------------------
# Cost-labeled MD extraction


def test_transience_md_on_ladder():
    lad, _ = no_optimal_ladder()
    root = ladder_state("ell", 0)
    sigma, partition = transience_md(
        lad, root, 0.1, budgets=TransienceBudgets(radius=40, seed=3)
    )
    assert partition.s_bad == {ladder_state("bot", 0)}
    fm = truncate(lad, {root}, 160, "pessimistic")
    targets = [s for s in fm.states if s.label.startswith("x_")]
    attained = evaluate_md_reach(fm, sigma, targets)
    assert attained[root] >= 0.9


def test_transience_md_bad_entry_bound():
    # Exact P(reach S_bad) under the extracted strategy respects the
    # cost-derived bound ((K+1)/K) (1 - v + eps'), v the 1-bit attainment.
    lad, _ = no_optimal_ladder()
    root = ladder_state("ell", 0)
    eps = 0.1
    sigma, partition = transience_md(
        lad, root, eps, budgets=TransienceBudgets(radius=40, seed=3)
    )
    params = SynthesisParams(eps)
    fm = truncate(lad, {root}, 160, "pessimistic")
    p_bad = evaluate_md_reach(fm, sigma, partition.s_bad)[root]
    bound = ((params.big_k + 1.0) / params.big_k) * (
        1.0 - partition.attainment + params.epsilon_prime
    )
    assert p_bad <= bound + 1e-9


def test_transience_md_on_acyclic_chain():
    chain, _ = acyclic_chain()
    c0 = StateId(0, "c_0")
    budgets = TransienceBudgets(
        radius=30, seed=1,
        one_bit_schedule=BubbleSchedule(max_radius=60, mc_horizon=400, mc_runs=60, seed=2),
    )
    sigma, partition = transience_md(chain, c0, 0.1, budgets=budgets)
    assert not partition.s_bad
    est, _ = __import__("transientmdp").estimate_transience(
        chain, c0, sigma, 400, 80, RevisitCap(5), seed=3
    )
    assert est == 1.0


def test_transience_md_degenerate_losing_loop():
    s = StateId(0, "loop")
    fm = FiniteMdp(
        [s], {s: StateKind.RANDOM}, {s: Distribution([(s, 1.0)])}, [{s}]
    )
    sigma, partition = transience_md(fm, s, 0.2, budgets=TransienceBudgets(radius=5))
    assert s in partition.s_bad
    assert sigma.choice == {}  # any strategy attains the value 0


def _small_budgets(seed):
    return TransienceBudgets(
        radius=12, seed=seed,
        one_bit_schedule=BubbleSchedule(max_radius=24, mc_horizon=200, mc_runs=20, seed=seed + 1),
    )


def _md_pin(mdp, s0, epsilon, seed):
    """transience_md's strategy, partition sets and mode repairs.  Its
    visits and attainment are checked against an oracle instead
    (``test_transience_md_visits_match_forward_iteration``): dense solves
    may differ in the last bits with the BLAS thread count."""
    sigma, part = transience_md(mdp, s0, epsilon, budgets=_small_budgets(seed))
    return (
        sigma.to_json(),
        [sorted(s.ordinal for s in states)
         for states in (part.s_bad, part.s_good, part.s_good_prime)],
        {s.ordinal: m for s, m in part.mode_repairs.items()},
    )


SMALL_MD_CASES = {
    "fan": (transience_fan, StateId(0, "fan"), 0.2, 5),
    "ladder": (no_optimal_ladder, ladder_state("ell", 0), 0.1, 6),
    "chain": (acyclic_chain, StateId(0, "c_0"), 0.1, 7),
}


def _forward_visits(fm, root, one_bit, partition):
    """Expected visits per state and the frontier probability of the
    repaired 1-bit strategy on the truncation ``fm``, by pushing the
    (mode, state) distribution forward until less than 1e-13 of its mass is
    left; bad states absorb the mass that enters them."""
    moves = {}

    def step(mode, s):
        mode = partition.mode_repairs.get(s, mode)
        if (mode, s) not in moves:
            if fm.kind_of(s) is StateKind.CONTROLLED:
                m2, t = one_bit.controlled(mode, s)
                moves[(mode, s)] = [(m2, t if t in fm.kinds else fm.frontier, 1.0)]
            else:
                moves[(mode, s)] = [(one_bit.random_update(mode, s, t), t, p)
                                    for t, p in fm.successors_of(s) if p > 0.0]
        return moves[(mode, s)]

    visits, reached = {}, 0.0
    dist = {(one_bit.initial_mode, root): 1.0}
    while sum(dist.values()) >= 1e-13:
        nxt = {}
        for (mode, s), mass in dist.items():
            visits[s] = visits.get(s, 0.0) + mass
            for m2, t, p in step(mode, s):
                if t == fm.frontier:
                    reached += mass * p
                elif t not in partition.s_bad:
                    nxt[(m2, t)] = nxt.get((m2, t), 0.0) + mass * p
        dist = nxt
    return visits, reached


@pytest.mark.parametrize("name", sorted(SMALL_MD_CASES))
def test_transience_md_visits_match_forward_iteration(name):
    build, s0, epsilon, seed = SMALL_MD_CASES[name]
    mdp, _ = build()
    budgets = _small_budgets(seed)
    maps = synthesis._reduction_if_needed(mdp, s0, budgets.one_bit_schedule.max_radius)
    root = maps.embed(s0)
    one_bit, _ = buchi_transience_one_bit(
        maps.reduced, [root], lambda s: True, epsilon / 2, budgets.one_bit_schedule
    )
    sigma, part = transience_md(mdp, s0, epsilon, one_bit=one_bit, budgets=budgets)
    default_sigma, default_part = transience_md(mdp, s0, epsilon, budgets=budgets)
    assert sigma.to_json() == default_sigma.to_json() and part == default_part

    fm = truncate(maps.reduced, {root}, budgets.radius)
    visits, reached = _forward_visits(fm, root, one_bit, part)
    assert set(visits) == set(part.expected_visits) == part.s_good_prime
    for s, v in visits.items():
        assert abs(part.expected_visits[s] - v) <= 1e-9
    assert abs(part.attainment - reached) <= 1e-9


def test_transience_md_ignores_the_seed_under_a_fixed_schedule():
    ladder, _ = no_optimal_ladder()
    root = ladder_state("ell", 0)
    schedule = _small_budgets(6).one_bit_schedule
    results = [
        transience_md(ladder, root, 0.1,
                      budgets=TransienceBudgets(radius=12, seed=seed, one_bit_schedule=schedule))
        for seed in (6, 1234)
    ]
    (sigma_a, part_a), (sigma_b, part_b) = results
    assert sigma_a.to_json() == sigma_b.to_json()
    assert part_a == part_b


def test_transience_md_simulates_nothing_given_a_one_bit_strategy(monkeypatch):
    ladder, _ = no_optimal_ladder()
    root = ladder_state("ell", 0)
    budgets = _small_budgets(6)
    one_bit, _ = buchi_transience_one_bit(
        ladder, [root], lambda s: True, 0.05, budgets.one_bit_schedule
    )

    def no_walk(*args):
        raise AssertionError("transience_md sampled a run")

    monkeypatch.setattr(synthesis, "_walk", no_walk)
    sigma, part = transience_md(ladder, root, 0.1, one_bit=one_bit, budgets=budgets)
    assert part.s_good_prime and 0.0 < part.attainment <= 1.0


def _one_bit_pin(goal, proxy_visits):
    """The plan of a 1-bit strategy on the drifting walk, and the sha256 of
    its moves in both modes on every state of a radius-100 truncation."""
    walk, _ = gamblers_ruin(0.7)
    w0 = StateId(0, "w_0")
    schedule = BubbleSchedule(max_radius=48, mc_horizon=400, mc_runs=40,
                              proxy_visits=proxy_visits, seed=8)
    strategy, plan = buchi_transience_one_bit(walk, [w0], goal, 0.1, schedule)
    fm = truncate(walk, [w0], 100, "pessimistic")
    rows = []
    for s in fm.states:
        for mode in (0, 1):
            if fm.kind_of(s) is StateKind.CONTROLLED:
                m, t = strategy.controlled(mode, s)
                rows.append((mode, s.ordinal, m, t.ordinal))
            else:
                for t in successor_states(fm, s):
                    rows.append((mode, s.ordinal, t.ordinal, strategy.random_update(mode, s, t)))
    return plan.to_json(), hashlib.sha256(repr(rows).encode()).hexdigest(), len(rows)


def _levels(*rows):
    keys = ("index", "k", "l", "K_size", "L_size", "F_size", "epsilon_i",
            "residual_far_goal", "residual_late_return")
    return [dict(zip(keys, row)) for row in rows]


# The one-bit pins were recorded from the implementation that sampled every
# run through a fresh ``simulate`` call: any change to the uniforms drawn or
# to their order shows up here.  The transience_md pins come from the exact
# product solve, which samples nothing beyond the 1-bit construction.
MONTE_CARLO_PINS = {
    "fan": (
        {},
        [[4],
         [0, 1, 2, 6, 8, 9, 11, 12, 14, 18, 20, 21, 23, 24, 26, 30, 32, 37, 38, 39, 44, 50, 57,
          59, 81, 83, 109],
         [0, 1, 2, 6, 8, 9, 14, 20, 26, 32, 38, 44, 50]],
        {},
    ),
    "ladder": (
        {"1": 5, "5": 6, "8": 12, "9": 10, "12": 16, "13": 14, "16": 20, "17": 18, "20": 24,
         "21": 23, "24": 28, "25": 27, "28": 32, "32": 36, "36": 40, "40": 44},
        [[0],
         [1, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
          27, 28, 32, 36, 40, 44],
         [1, 5, 6, 9, 10, 13, 14, 17, 18, 21, 23, 24, 28, 32, 36, 40, 44]],
        {},
    ),
    "chain": (
        {},
        [[], list(range(13)), list(range(13))],
        {},
    ),
    "one-bit-goal-set": (
        {"epsilon": 0.1, "reference": "uniform", "reward_depth": 3, "capped": True,
         "levels": _levels((1, 1, 18, 2, 19, 1, 0.025, 0.0, 0.0),
                           (2, 48, 49, 49, 50, 10, 0.0125, 0.425, 1.0))},
        "7b514a65c9e7fde29f28cbe071c917c91ecb3b33c228dbc51120f651efab8b79", 404,
    ),
    # No reference run passes a revisit cap of 0, so run 0 stands in.
    "one-bit-no-run-qualifies": (
        {"epsilon": 0.1, "reference": "uniform", "reward_depth": 3, "capped": False,
         "levels": _levels((1, 1, 2, 2, 3, 2, 0.025, 0.0, 0.0),
                           (2, 3, 4, 4, 5, 1, 0.0125, 0.0, 0.0),
                           (3, 5, 6, 6, 7, 1, 0.00625, 0.0, 0.0))},
        "931b80407eafce963de24fd6b1e124f80c4ca3dcfd6c62b424d6676cd8235e30", 404,
    ),
}


def test_synthesis_monte_carlo_pinned():
    got = {
        name: _md_pin(build()[0], s0, epsilon, seed)
        for name, (build, s0, epsilon, seed) in SMALL_MD_CASES.items()
    }
    got.update({
        "one-bit-goal-set": _one_bit_pin({StateId(3 * i) for i in range(100)}, 20),
        "one-bit-no-run-qualifies": _one_bit_pin(lambda s: True, 0),
    })
    for name, pin in MONTE_CARLO_PINS.items():
        assert got[name] == pin, name


def _asked_by(mdp, caller):
    """``mdp`` with the ordinal of every ``successors_of`` call made from a
    function named ``caller`` recorded in the returned list."""
    asked = []

    def successors(s):
        # frame 1 is LazyMdp.successors_of, frame 2 its caller
        if sys._getframe(2).f_code.co_name == caller:
            asked.append(s.ordinal)
        return mdp.successors_of(s)

    return LazyMdp(mdp.kind_of, successors), asked


def _stepper_entries(monkeypatch):
    """Every (MDP, ordinal) whose per-state table entry the stepper builds."""
    entries, real = [], SIMULATE._state_entry

    def recording(mdp, s):
        entries.append((mdp, s.ordinal))
        return real(mdp, s)

    monkeypatch.setattr(SIMULATE, "_state_entry", recording)
    return entries


def _asked_twice(entries):
    counts = Counter((id(mdp), o) for mdp, o in entries)  # entries keep the MDPs alive
    return [key for key, c in counts.items() if c > 1]


def test_synthesis_sampling_loops_ask_each_state_once(monkeypatch):
    # The reference runs of the 1-bit construction share one stepper table,
    # and the uniform reference keeps one distribution per state;
    # transience_md samples nothing beyond its 1-bit construction.
    ladder, _ = no_optimal_ladder()
    root = ladder_state("ell", 0)
    entries = _stepper_entries(monkeypatch)
    counted, decided = _asked_by(ladder, "decide")
    schedule = BubbleSchedule(max_radius=24, mc_horizon=200, mc_runs=20, seed=2)
    buchi_transience_one_bit(counted, [root], lambda s: True, 0.05, schedule)
    assert entries and not _asked_twice(entries)
    assert decided and len(decided) == len(set(decided))

    del entries[:]
    transience_md(ladder, root, 0.1, budgets=_small_budgets(6))
    assert len({id(mdp) for mdp, _ in entries}) == 1  # the 1-bit loop only
    assert not _asked_twice(entries)


# ---------------------------------------------------------------------------
# Safety slack rule


def test_safety_slack_on_transient_cores():
    for i in range(15):
        fm = random_transient_core_mdp(derive_seed("ssr", i), n_states=12)
        lose = fm.states[-1]
        values = safety_value(fm, {lose})
        sigma = safety_md_universally_transient(fm, Objective.safety({lose}), 0.1)
        attained = evaluate_md_safety(fm, sigma, {lose})
        for s in fm.states:
            assert attained[s] >= values[s] - 0.1 - 1e-9
        # accumulated value-drop cost <= eps, by exact policy evaluation
        cost_map = {}
        for s in fm.controlled_states():
            for t in fm.successors_of(s):
                cost_map[(s, t)] = max(values[s] - values[t], 0.0)
        drops = evaluate_md_cost(fm, sigma, CostLabel(cost_map))
        assert all(v <= 0.1 + 1e-9 for v in drops.values())


def test_safety_slack_avoid_unreachable():
    a, b, lose = StateId(0, "a"), StateId(1, "b"), StateId(9, "lose")
    fm = FiniteMdp(
        [a, b, lose],
        {a: StateKind.CONTROLLED, b: StateKind.RANDOM, lose: StateKind.RANDOM},
        {a: [b], b: Distribution([(b, 1.0)]), lose: Distribution([(lose, 1.0)])},
        [{b}, {lose}],
    )
    sigma = safety_md_universally_transient(fm, Objective.safety({lose}), 0.1)
    attained = evaluate_md_safety(fm, sigma, {lose})
    assert attained[a] == 1.0


def test_safety_slack_rejects_recurrent_choice_states():
    a, t = StateId(0, "a"), StateId(1, "t")
    fm = FiniteMdp(
        [a, t],
        {a: StateKind.CONTROLLED, t: StateKind.RANDOM},
        {a: [a, t], t: Distribution([(t, 1.0)])},
        [{t}],
    )
    with pytest.raises(NotUniversallyTransient):
        safety_md_universally_transient(fm, Objective.safety({t}), 0.1)


@pytest.mark.parametrize("assume_transient", [True, False])
def test_safety_slack_large_ordinals(assume_transient):
    # The slack eps / 2^(ordinal+1) must not overflow for ordinals >= 1024.
    a, w, lose = StateId(1100, "a"), StateId(1101, "w"), StateId(1102, "l")
    fm = FiniteMdp(
        [a, w, lose],
        {a: StateKind.CONTROLLED, w: StateKind.RANDOM, lose: StateKind.RANDOM},
        {a: [w, lose], w: Distribution([(w, 1.0)]), lose: Distribution([(lose, 1.0)])},
        [{w}, {lose}],
    )
    sigma = safety_md_universally_transient(
        fm, Objective.safety({lose}), 0.1, assume_transient=assume_transient
    )
    assert sigma.choice[a] == w


def test_safety_slack_walks_past_infinite_random_branching():
    # The root of the geometric fan is a random state with infinitely many
    # successors and no controlled state behind it: the walk cuts the family
    # to its first branches and returns the empty strategy.
    fan, _ = geometric_fan()
    sigma = safety_md_universally_transient(
        fan,
        Objective.safety({StateId(2, "trap")}),
        0.1,
        roots=[StateId(5, "root")],
        assume_transient=True,
    )
    assert sigma.choice == {}


def random_fan_of_choices():
    """Random root r_0 over controlled c_j (weight 2^-j, j >= 1), each
    choosing between the absorbing ``safe`` and ``bad``.  The oracles refuse
    any other state, the prefix view's tail stub included."""
    root, safe, bad = StateId(0, "r_0"), StateId(1, "safe"), StateId(2, "bad")

    def kind(s):
        if s.ordinal % 3 == 0 and s.ordinal > 0:
            return StateKind.CONTROLLED
        assert s in (root, safe, bad), s
        return StateKind.RANDOM

    def successors(s):
        if s == root:
            return InfiniteSuccessors(
                lambda: ((StateId(3 * j, f"c_{j}"), 2.0**-j) for j in itertools.count(1)),
                random=True,
            )
        if kind(s) is StateKind.CONTROLLED:
            return [safe, bad]
        return Distribution([(s, 1.0)])

    return LazyMdp(kind, successors), root, safe, bad


def test_safety_slack_chooses_behind_infinite_random_branching():
    mdp, root, safe, bad = random_fan_of_choices()
    sigma = safety_md_universally_transient(
        mdp,
        Objective.safety({bad}),
        0.1,
        SafetySchedule(radii=(4,), synthesis_radius=3, branch_budget=64),
        roots=[root],
        assume_transient=True,
    )
    # branch_budget // 16 = 4 branches of the family are walked.
    assert sigma.choice == {StateId(3 * j): safe for j in range(1, 5)}


def test_safety_fan_scan_past_underflow_exhausts_budget():
    # Without a safe core every branch's lower bound is vacuous, so the scan
    # walks the whole budget, through branches whose 2^-j underflows to 0.0.
    fan, _ = safety_fan()
    with pytest.raises(RadiusExhausted):
        safety_md_universally_transient(
            fan,
            Objective.safety(safety_fan_avoid),
            0.1,
            SafetySchedule(radii=(4,), synthesis_radius=2, branch_budget=1100),
            roots=[StateId(0, "fan")],
            assume_transient=True,
        )


def test_safety_slack_on_infinite_fan():
    fan, meta = safety_fan()
    root = StateId(0, "fan")
    core = lambda s: s.label.startswith("a_")
    sigma = safety_md_universally_transient(
        fan,
        Objective.safety(safety_fan_avoid),
        0.1,
        SafetySchedule(radii=(20, 40), synthesis_radius=6),
        roots=[root],
        safe_core=core,
    )
    picked = sigma.choice[root]
    j = picked.ordinal // 3
    # slack at the root is eps/2 = 0.05, so the first qualifying branch is 5
    assert 1.0 - 2.0**-j >= 1.0 - 0.05 - 1e-12
    assert j == 5  # smallest qualifying ordinal
    # attained value from the root under sigma: branch value exactly
    assert meta.value(f"b_{j}", Objective.SAFETY) >= 1.0 - 0.1
