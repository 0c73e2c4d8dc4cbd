"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line with the measured quantities (run
pytest with -s or -rA to see them); the assertion carries the same bound.
"""
import math
import time

import pytest

from transientmdp import (
    Distribution,
    GeneralStrategy,
    Objective,
    StateId,
    estimate_transience,
)
from transientmdp.core import successor_states, truncate
from transientmdp.gadgets import (
    acyclic_chain,
    gamblers_ruin,
    geometric_fan,
    ladder_exit_strategy,
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
    mean_visits,
    simulate,
)
from transientmdp.solvers import (
    CostLabel,
    evaluate_md_cost,
    evaluate_md_reach,
    evaluate_md_safety,
    md_policy_oracle,
    min_expected_cost_md,
    bounded_total_reward_md,
    BoundedRewardSpec,
    reach_value,
    return_probability,
    safety_value,
)
from transientmdp.synthesis import (
    BubbleSchedule,
    SafetySchedule,
    TransienceBudgets,
    buchi_transience_one_bit,
    match_patterns,
    optimal_md_where_exists,
    plastering_uniformize,
    revisit_violations,
    safety_md_universally_transient,
    transience_md,
)
from transientmdp.transforms import reduce_to_finitely_branching
from transientmdp.verify import (
    NO,
    YES,
    certify_universal_transience,
    check_conditioned_item1,
    check_conditioned_item3,
    check_multiplicative,
    random_finite_mdp,
    random_md_strategy,
    random_transient_core_mdp,
    win_objective,
)


def report(criterion: str, ok: bool, detail: str, elapsed: float):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail} ({elapsed:.1f}s)"
    print(line)
    assert ok, line


def test_criterion_01_gambler_threshold():
    t0 = time.time()
    results = {}
    for p in (0.3, 0.5, 0.7, 0.9):
        mdp, _ = gamblers_ruin(p)
        est, _ = estimate_transience(
            mdp, StateId(0, "w_0"), None, 10_000, 10_000, RevisitCap(30),
            seed=derive_seed("crit1", p),
        )
        results[p] = est
    ok = (
        results[0.3] <= 0.02
        and results[0.5] <= 0.02
        and results[0.7] >= 0.98
        and results[0.9] >= 0.98
    )
    detail = ", ".join(f"p={p}: {v:.4f}" for p, v in results.items())
    elapsed = time.time() - t0
    assert elapsed <= 60.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report("1 gambler threshold", ok, detail, elapsed)


def test_criterion_02_return_probability_closed_form():
    t0 = time.time()
    mdp, _ = gamblers_ruin(0.6)
    analysis = return_probability(mdp, StateId(0, "w_0"), [200])
    ok = 0.6666 <= analysis.re.lower and analysis.re.upper <= 0.6668
    elapsed = time.time() - t0
    assert elapsed <= 5.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report(
        "2 return probability",
        ok,
        f"Re(w_0) in [{analysis.re.lower:.6f}, {analysis.re.upper:.6f}]",
        elapsed,
    )


def test_criterion_03_ladder_values_and_synthesis():
    t0 = time.time()
    lad, _ = no_optimal_ladder()
    root = ladder_state("ell", 0)
    worst = 0.0
    for j in range(1, 21):
        sigma = ladder_exit_strategy(j)
        fm = truncate(lad, {root}, 2 * j + 6, "pessimistic")
        attained = evaluate_md_reach(fm, sigma, {ladder_state("x", j)})
        worst = max(worst, abs(attained[root] - (1.0 - 2.0**-j)))
    sigma_md, _ = transience_md(
        lad, root, 0.1, budgets=TransienceBudgets(radius=40, seed=3)
    )
    fm = truncate(lad, {root}, 160, "pessimistic")
    targets = [s for s in fm.states if s.label.startswith("x_")]
    value = evaluate_md_reach(fm, sigma_md, targets)[root]
    ok = worst <= 1e-9 and value >= 0.9
    elapsed = time.time() - t0
    assert elapsed <= 30.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report(
        "3 no-optimal ladder",
        ok,
        f"exit-value deviation {worst:.2e}, synthesized attainment {value:.4f}",
        elapsed,
    )


def test_criterion_04_conditioned_identities():
    t0 = time.time()
    worst1 = 0.0
    for i in range(50):
        fm = random_finite_mdp(derive_seed("c4a", i), n_states=8)
        values = reach_value(fm, win_objective(fm).states)
        sigma = random_md_strategy(fm, derive_seed("c4s", i))
        rep = check_conditioned_item1(fm, values, sigma, max_len=6)
        worst1 = max(worst1, rep.max_violation)
    worst3 = 0.0
    for i in range(200):
        fm = random_finite_mdp(derive_seed("c4b", i), n_states=9)
        rep = check_conditioned_item3(fm, n_strategies=2, seed=i, tol=1e-6)
        worst3 = max(worst3, rep.max_violation)
    ok = worst1 <= 1e-9 and worst3 <= 1e-6
    elapsed = time.time() - t0
    assert elapsed <= 120.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report(
        "4 conditioned identities",
        ok,
        f"item-1 violation {worst1:.2e} (50 MDPs), item-3/value-1 violation "
        f"{worst3:.2e} (200 MDPs)",
        elapsed,
    )


def test_criterion_05_multiplicative_optimality():
    t0 = time.time()
    worst = 0.0
    for i in range(100):
        fm = random_finite_mdp(derive_seed("c5", i), n_states=10)
        rep = check_multiplicative(fm, epsilon=0.05, tol=1e-6)
        worst = max(worst, rep.max_violation)
    ok = worst <= 1e-6
    elapsed = time.time() - t0
    assert elapsed <= 120.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report(
        "5 multiplicative eps-optimality",
        ok,
        f"max shortfall below (1-eps)*val: {worst:.2e} (100 MDPs)",
        elapsed,
    )


def test_criterion_06_plastering_uniformization():
    t0 = time.time()
    worst_uniform = 0.0
    worst_escape = 0.0
    worst_drop = 0.0
    for i in range(200):
        fm = random_finite_mdp(derive_seed("c6", i), n_states=14)
        phi = win_objective(fm)
        values = reach_value(fm, phi.states)
        sigma, state = plastering_uniformize(fm, phi, 0.05)
        attained = evaluate_md_reach(fm, sigma, phi.states)
        for s in fm.states:
            worst_uniform = max(worst_uniform, values[s] - 0.05 - attained[s])
        for r in state.rounds:
            worst_escape = max(worst_escape, r.escape_probability - r.epsilon_i)
            worst_drop = max(worst_drop, r.max_value_drop - r.epsilon_i)
    ok = worst_uniform <= 1e-9 and worst_escape <= 1e-9 and worst_drop <= 1e-9
    elapsed = time.time() - t0
    assert elapsed <= 180.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report(
        "6 plastering uniformization",
        ok,
        f"uniformity gap {worst_uniform:.2e}, escape excess {worst_escape:.2e}, "
        f"value-drop excess {worst_drop:.2e} (200 MDPs)",
        elapsed,
    )


def test_criterion_07_optimal_where_exists():
    t0 = time.time()
    worst = 0.0
    for i in range(200):
        fm = random_finite_mdp(derive_seed("c6", i), n_states=14)
        phi = win_objective(fm)
        values = reach_value(fm, phi.states)
        sigma = optimal_md_where_exists(fm, phi)
        attained = evaluate_md_reach(fm, sigma, phi.states)
        for s in fm.states:
            if values[s] > 1e-12:
                worst = max(worst, abs(attained[s] - values[s]))
    ok = worst <= 1e-6
    elapsed = time.time() - t0
    assert elapsed <= 120.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report(
        "7 optimal where exists",
        ok,
        f"max deviation from val at positive states: {worst:.2e} (200 MDPs)",
        elapsed,
    )


def test_criterion_08_solver_oracle_equivalence():
    import random as _random

    t0 = time.time()
    worst = 0.0
    produced = 0
    i = 0
    while produced < 200:
        fm = random_finite_mdp(derive_seed("c8", i), n_states=8, max_branching=3)
        i += 1
        if len(fm.controlled_states()) > 6:
            continue  # stay within the oracle caps
        produced += 1
        target = {fm.states[-1]}
        lose = {fm.states[-2]}
        vm = reach_value(fm, target)
        orc = md_policy_oracle(fm, Objective.reach(target), max_controlled=6)
        worst = max(worst, max(abs(vm[s] - orc.values[s]) for s in fm.states))
        sv = safety_value(fm, lose)
        orc = md_policy_oracle(fm, Objective.safety(lose), max_controlled=6)
        worst = max(worst, max(abs(sv[s] - orc.values[s]) for s in fm.states))
        rng = _random.Random(derive_seed("c8c", i))
        cost_map = {}
        for s in fm.states:
            targets = successor_states(fm, s)
            for t in targets:
                if t != s:
                    cost_map[(s, t)] = rng.choice([0.0, 0.5, 1.0, 2.0])
        cost = CostLabel(cost_map)
        _, costs = min_expected_cost_md(fm, cost)
        orc = md_policy_oracle(fm, cost=cost, max_controlled=6)
        for s in fm.states:
            a, b = costs[s], orc.values[s]
            if math.isinf(a) or math.isinf(b):
                worst = max(worst, 0.0 if math.isinf(a) == math.isinf(b) else 1.0)
            else:
                worst = max(worst, abs(a - b))
        rewards = {fm.states[-1]: rng.random(), fm.states[-2]: rng.random()}
        spec = BoundedRewardSpec(frozenset(fm.states), rewards)
        _, vals = bounded_total_reward_md(spec, fm)
        orc = md_policy_oracle(fm, boundary=rewards, max_controlled=6)
        for s in fm.states:
            if s not in rewards:
                worst = max(worst, abs(vals[s] - orc.values[s]))
    ok = worst <= 1e-6
    elapsed = time.time() - t0
    assert elapsed <= 180.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report(
        "8 solver oracle equivalence",
        ok,
        f"max deviation across reach/safety/cost/reward: {worst:.2e} (200 MDPs)",
        elapsed,
    )


def test_criterion_09_finite_branching_reduction():
    t0 = time.time()
    fan, _ = geometric_fan()
    maps = reduce_to_finitely_branching(fan)
    root = StateId(5, "root")
    adjusted = maps.adjusted_probs(root, 30)
    exact_half = all(q == 0.5 for q in adjusted)
    prefix, worst_exit = 1.0, 0.0
    for i, q in enumerate(adjusted, start=1):
        worst_exit = max(worst_exit, abs(prefix * q - 2.0**-i))
        prefix *= 1.0 - q

    agreement = []
    proxy = RevisitCap(25)

    def mc_pair(name, mdp, root_state, alpha, horizon_base, horizon_red):
        m = reduce_to_finitely_branching(mdp)
        beta = m.lift_strategy(alpha) if alpha is not None else None
        a, ha = estimate_transience(
            mdp, root_state, alpha, horizon_base, 400, proxy,
            seed=derive_seed("c9", name, 1),
        )
        b, hb = estimate_transience(
            m.reduced, m.embed(root_state), beta, horizon_red, 400, proxy,
            seed=derive_seed("c9", name, 2),
        )
        agreement.append((name, a, b, ha + hb))

    tf, _ = transience_fan()

    def decide_tf(run):
        succ = tf.successors_of(run[-1])
        if hasattr(succ, "items"):
            return Distribution([(StateId(6, "b_2"), 0.5), (StateId(12, "b_4"), 0.5)])
        states = successor_states(tf, run[-1])
        return Distribution([(states[0], 1.0)])

    mc_pair("transience_fan", tf, StateId(0, "fan"), GeneralStrategy(decide_tf), 400, 900)
    gf, _ = geometric_fan()
    mc_pair("geometric_fan", gf, StateId(5, "root"), None, 400, 900)
    sf, _ = safety_fan()

    def decide_sf(run):
        succ = sf.successors_of(run[-1])
        if hasattr(succ, "items"):
            return Distribution([(StateId(3, "b_1"), 1.0)])
        states = successor_states(sf, run[-1])
        return Distribution([(states[0], 1.0)])

    mc_pair("safety_fan", sf, StateId(0, "fan"), GeneralStrategy(decide_sf), 300, 700)

    worst_gap = max(abs(a - b) - h for _, a, b, h in agreement)
    ok = exact_half and worst_exit <= 1e-9 and worst_gap <= 0.0
    detail = (
        f"p'=1/2 {'exact' if exact_half else 'VIOLATED'}, exit deviation "
        f"{worst_exit:.2e}, MC gaps "
        + ", ".join(f"{n}: |{a:.3f}-{b:.3f}|<= {h:.3f}" for n, a, b, h in agreement)
    )
    elapsed = time.time() - t0
    assert elapsed <= 120.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report("9 finite-branching reduction", ok, detail, elapsed)


def test_criterion_10_safety_slack_rule():
    t0 = time.time()
    worst = 0.0
    worst_cost = 0.0
    for i in range(50):
        fm = random_transient_core_mdp(derive_seed("c10", i), n_states=12)
        lose = fm.states[-1]
        values = safety_value(fm, {lose})
        sigma = safety_md_universally_transient(fm, Objective.safety({lose}), 0.1)
        attained = evaluate_md_safety(fm, sigma, {lose})
        for s in fm.states:
            worst = max(worst, values[s] - 0.1 - attained[s])
        cost_map = {}
        for s in fm.controlled_states():
            for t in fm.successors_of(s):
                cost_map[(s, t)] = max(values[s] - values[t], 0.0)
        drops = evaluate_md_cost(fm, sigma, CostLabel(cost_map))
        worst_cost = max(worst_cost, max(drops.values()) - 0.1)

    fan, meta = safety_fan()
    root = StateId(0, "fan")
    sigma = safety_md_universally_transient(
        fan,
        Objective.safety(safety_fan_avoid),
        0.1,
        SafetySchedule(radii=(20, 40), synthesis_radius=6),
        roots=[root],
        safe_core=lambda s: s.label.startswith("a_"),
    )
    j = sigma.choice[root].ordinal // 3
    branch_value = 1.0 - 2.0**-j
    fan_ok = branch_value >= 1.0 - 0.1
    # Monte Carlo cross-check of the synthesized fan strategy.
    safe_runs = 0
    for i in range(300):
        run, _ = simulate(fan, root, sigma, 50, derive_seed("c10mc", i))
        if not any(safety_fan_avoid(s) for s in run):
            safe_runs += 1
    mc = safe_runs / 300
    half = 1.96 * math.sqrt(mc * (1 - mc) / 300)
    fan_ok = fan_ok and mc + half >= 1.0 - 0.1
    ok = worst <= 1e-9 and worst_cost <= 1e-9 and fan_ok
    elapsed = time.time() - t0
    assert elapsed <= 120.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report(
        "10 safety slack rule",
        ok,
        f"finite shortfall {worst:.2e}, cost excess {worst_cost:.2e}, "
        f"fan branch value {branch_value:.5f}, MC {mc:.3f}+-{half:.3f}",
        elapsed,
    )


def test_criterion_11_bubble_one_bit():
    t0 = time.time()
    eps = 0.1
    results = []
    pattern_ok = True
    for name, (mdp, root, horizon) in {
        "gambler(0.7)": (gamblers_ruin(0.7)[0], StateId(0, "w_0"), 4000),
        "acyclic": (acyclic_chain()[0], StateId(0, "c_0"), 1500),
    }.items():
        schedule = BubbleSchedule(
            max_radius=72, mc_horizon=1500, mc_runs=120, seed=derive_seed("c11", name)
        )
        strategy, plan = buchi_transience_one_bit(
            mdp, [root], lambda s: True, eps, schedule
        )
        est, half = estimate_buchi_transience(
            mdp, root, strategy, lambda s: True, horizon, 250, RevisitCap(30),
            max(plan.levels[-1].l, 200), seed=derive_seed("c11mc", name),
        )
        results.append((name, est, half))
        for i in range(40):
            run, stats = simulate(mdp, root, strategy, horizon, derive_seed("c11p", name, i))
            completed, conformant = match_patterns(plan, run)
            if conformant and completed == len(plan.levels):
                if revisit_violations(plan, run) or stats.max_revisits > 30:
                    pattern_ok = False
                if not all(any(s in lv.F for s in run) for lv in plan.levels):
                    pattern_ok = False
    value = 1.0  # both instances have Buechi(F=S) ∩ Transience value 1
    attain_ok = all(est + half >= value - 2 * eps for _, est, half in results)
    ok = attain_ok and pattern_ok
    detail = ", ".join(f"{n}: {e:.3f}+-{h:.3f}" for n, e, h in results) + (
        ", patterns sound" if pattern_ok else ", PATTERN VIOLATION"
    )
    elapsed = time.time() - t0
    assert elapsed <= 120.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report("11 bubble 1-bit synthesis", ok, detail, elapsed)


def test_criterion_12_universal_transience_semidecision():
    t0 = time.time()
    verdicts = {}
    for p in (0.3, 0.5, 0.7, 0.9):
        mdp, _ = gamblers_ruin(p)
        cert = certify_universal_transience(
            mdp, [StateId(0, "w_0"), StateId(1, "w_1")], radii=(50, 200)
        )
        verdicts[f"p={p}"] = cert.verdict
    chain, _ = acyclic_chain()
    verdicts["acyclic"] = certify_universal_transience(
        chain, [StateId(0, "c_0")], radii=(30,)
    ).verdict
    expected = {
        "p=0.3": NO,
        "p=0.5": NO,
        "p=0.7": YES,
        "p=0.9": YES,
        "acyclic": YES,
    }
    verdict_ok = verdicts == expected

    # Condition (4): Monte Carlo visit counts respect the B(s) bound.
    visits_ok = True
    for p in (0.7, 0.9):
        mdp, _ = gamblers_ruin(p)
        w0 = StateId(0, "w_0")
        analysis = return_probability(mdp, w0, [200])
        mean, se = mean_visits(mdp, w0, w0, None, 10_000, 60, seed=derive_seed("c12", p))
        if mean > analysis.b_bound + 3.0 * se:
            visits_ok = False
    ok = verdict_ok and visits_ok
    elapsed = time.time() - t0
    assert elapsed <= 60.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report(
        "12 universal transience",
        ok,
        ", ".join(f"{k}: {v}" for k, v in verdicts.items())
        + (", visit bounds hold" if visits_ok else ", VISIT BOUND VIOLATED"),
        elapsed,
    )
