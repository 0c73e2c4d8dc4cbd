import ast
import collections
import hashlib
import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from transientmdp import Distribution, FiniteMdp, MdStrategy, Objective, StateId, StateKind
from transientmdp.core import _backward_reach, successor_states, truncate
from transientmdp.errors import (
    BadParameter, NoFiniteCostPolicy, NotSink, SingularSystem, TooLarge, TransientMdpError,
)
from transientmdp.gadgets import acyclic_chain, gamblers_ruin, ladder_state, no_optimal_ladder
from transientmdp.simulate import derive_seed, mean_visits
from transientmdp.solvers import (
    BoundedRewardSpec,
    CostLabel,
    bounded_total_reward_md,
    interval_value,
    md_policy_oracle,
    min_expected_cost_md,
    reach_value,
    return_probability,
    safety_value,
)
from transientmdp.verify import (
    certify_universal_transience, random_finite_mdp, random_transient_core_mdp,
)
from transientmdp import solvers


def S(i, label=""):
    return StateId(i, label or f"s_{i}")


def tiny(edges, kinds, sinks=()):
    states = sorted(kinds, key=lambda s: s.ordinal)
    return FiniteMdp(states, kinds, edges, sinks)


def test_reach_deterministic_edge():
    a, t = S(0, "a"), S(1, "t")
    fm = tiny(
        {a: [t], t: Distribution([(t, 1.0)])},
        {a: StateKind.CONTROLLED, t: StateKind.RANDOM},
        [{t}],
    )
    assert abs(reach_value(fm, {t})[a] - 1.0) <= 1e-12


def test_reach_random_split():
    a, t, d = S(0, "a"), S(1, "t"), S(2, "d")
    fm = tiny(
        {
            a: Distribution([(t, 0.3), (d, 0.7)]),
            t: Distribution([(t, 1.0)]),
            d: Distribution([(d, 1.0)]),
        },
        {a: StateKind.RANDOM, t: StateKind.RANDOM, d: StateKind.RANDOM},
        [{t}, {d}],
    )
    assert abs(reach_value(fm, {t})[a] - 0.3) <= 1e-12


def test_reach_requires_sink():
    a, t = S(0, "a"), S(1, "t")
    fm = tiny(
        {a: [t], t: Distribution([(a, 1.0)])},
        {a: StateKind.CONTROLLED, t: StateKind.RANDOM},
    )
    with pytest.raises(NotSink):
        reach_value(fm, {t})


def test_safety_avoid_unreachable():
    a, b = S(0, "a"), S(1, "b")
    fm = tiny(
        {a: Distribution([(a, 1.0)]), b: Distribution([(b, 1.0)])},
        {a: StateKind.RANDOM, b: StateKind.RANDOM},
    )
    vm = safety_value(fm, {b})
    assert vm[a] == 1.0 and vm[b] == 0.0


def test_reach_safety_duality_random_corpus():
    for i in range(40):
        fm = random_finite_mdp(derive_seed("dual", i), n_states=9)
        target = {fm.states[-1]}
        rv = reach_value(fm, target)
        # Safety against an absorbing target is the exact complement of
        # min-reach; against the max player they satisfy the LFP/GFP duality.
        from transientmdp.core import _absorb
        from transientmdp.solvers import optimal_boundary_value

        min_reach, _ = optimal_boundary_value(
            _absorb(fm, target), {t: 1.0 for t in target}, maximize=False
        )
        sv = safety_value(fm, target)
        for s in fm.states:
            assert abs(sv[s] - (1.0 - min_reach[s])) <= 1e-6


def test_reach_matches_oracle_corpus():
    for i in range(30):
        fm = random_finite_mdp(derive_seed("r-orc", i), n_states=8, max_branching=3)
        target = {fm.states[-1]}
        vm = reach_value(fm, target)
        oracle = md_policy_oracle(fm, Objective.reach(target))
        for s in fm.states:
            assert abs(vm[s] - oracle.values[s]) <= 1e-6


def test_safety_matches_oracle_corpus():
    for i in range(30):
        fm = random_finite_mdp(derive_seed("s-orc", i), n_states=8, max_branching=3)
        avoid = {fm.states[-2]}
        vm = safety_value(fm, avoid)
        oracle = md_policy_oracle(fm, Objective.safety(avoid))
        for s in fm.states:
            assert abs(vm[s] - oracle.values[s]) <= 1e-6


def test_min_cost_picks_cheap_edge():
    a, t1, t2 = S(0, "a"), S(1, "t1"), S(2, "t2")
    fm = tiny(
        {a: [t1, t2], t1: Distribution([(t1, 1.0)]), t2: Distribution([(t2, 1.0)])},
        {a: StateKind.CONTROLLED, t1: StateKind.RANDOM, t2: StateKind.RANDOM},
    )
    cost = CostLabel({(a, t1): 1.0, (a, t2): 3.0})
    sigma, values = min_expected_cost_md(fm, cost, root=a)
    assert sigma.choice[a] == t1
    assert abs(values[a] - 1.0) <= 1e-12


def test_min_cost_prefers_cheaper_expectation():
    a, r, t = S(0, "a"), S(1, "r"), S(2, "t")
    fm = tiny(
        {
            a: [r, t],
            r: Distribution([(t, 0.5), (r, 0.5)]),
            t: Distribution([(t, 1.0)]),
        },
        {a: StateKind.CONTROLLED, r: StateKind.RANDOM, t: StateKind.RANDOM},
    )
    # Direct edge costs 3; the random branch pays 1 to enter plus 1.5
    # expected inside (cost 1.5 per loop round: 0.5 chance to pay again).
    cost = CostLabel({(a, t): 3.0, (a, r): 1.0, (r, r): 1.5, (r, t): 0.0})
    sigma, values = min_expected_cost_md(fm, cost, root=a)
    assert sigma.choice[a] == r
    assert abs(values[a] - 2.5) <= 1e-9


def test_min_cost_matches_oracle_corpus():
    import random as _random

    for i in range(25):
        fm = random_finite_mdp(derive_seed("c-orc", i), n_states=7, max_branching=3)
        rng = _random.Random(derive_seed("c-lab", i))
        cost_map = {}
        for s in fm.states:
            targets = successor_states(fm, s)
            for t in targets:
                if t == s:
                    continue  # keep sinks zero-cost absorbing
                cost_map[(s, t)] = rng.choice([0.0, 0.5, 1.0, 2.0])
        cost = CostLabel(cost_map)
        oracle = md_policy_oracle(fm, cost=cost)
        sigma, values = min_expected_cost_md(fm, cost)
        for s in fm.states:
            a, b = values[s], oracle.values[s]
            if math.isinf(a) or math.isinf(b):
                assert math.isinf(a) == math.isinf(b)
            else:
                assert abs(a - b) <= 1e-6


def test_min_cost_no_finite_policy():
    a, b = S(0, "a"), S(1, "b")
    fm = tiny(
        {a: [b], b: Distribution([(a, 1.0)])},
        {a: StateKind.CONTROLLED, b: StateKind.RANDOM},
    )
    cost = CostLabel({(a, b): 1.0})
    with pytest.raises(NoFiniteCostPolicy):
        min_expected_cost_md(fm, cost, root=a)


def test_min_cost_slow_mixing_loop():
    # The free-looking edge into r leads to a loop that leaves with
    # probability 1e-6 and pays 1e-6 per round: expected cost 1 - 1e-6,
    # worse than the direct edge.  Value iteration needs millions of sweeps
    # before the loop's value builds up past 0.9, so a sweep cap or a
    # residual test stops it early with r chosen.
    a, r, t = S(0, "a"), S(1, "r"), S(2, "t")
    leave = 1e-6
    fm = tiny(
        {
            a: [t, r],
            r: Distribution([(r, 1.0 - leave), (t, leave)]),
            t: Distribution([(t, 1.0)]),
        },
        {a: StateKind.CONTROLLED, r: StateKind.RANDOM, t: StateKind.RANDOM},
    )
    cost = CostLabel({(a, t): 0.9, (a, r): 0.0, (r, r): leave, (r, t): 0.0})
    sigma, values = min_expected_cost_md(fm, cost, root=a)
    assert sigma.choice[a] == t
    assert abs(values[a] - 0.9) <= 1e-9
    oracle = md_policy_oracle(fm, cost=cost)
    for s in fm.states:
        assert abs(values[s] - oracle.values[s]) <= 1e-9
    assert oracle.policy.choice[a] == t


def test_min_cost_infinite_outside_almost_sure_set():
    # f is the zero-cost sink.  v <-> w is a positive-cost cycle; u falls
    # into it with probability 1/2 and b can only enter it, so all four
    # have infinite cost.  a avoids u by paying 2 for the direct edge.
    a, b, f, g, u, v, w = (
        S(0, "a"), S(1, "b"), S(2, "f"), S(3, "g"), S(4, "u"), S(5, "v"), S(6, "w"),
    )
    fm = tiny(
        {
            a: [u, f],
            b: [v],
            f: Distribution([(f, 1.0)]),
            g: Distribution([(f, 1.0)]),
            u: Distribution([(f, 0.5), (v, 0.5)]),
            v: Distribution([(w, 1.0)]),
            w: Distribution([(v, 1.0)]),
        },
        {
            a: StateKind.CONTROLLED,
            b: StateKind.CONTROLLED,
            f: StateKind.RANDOM,
            g: StateKind.RANDOM,
            u: StateKind.RANDOM,
            v: StateKind.RANDOM,
            w: StateKind.RANDOM,
        },
    )
    cost = CostLabel({
        (a, f): 2.0, (g, f): 0.5, (u, f): 1.0, (u, v): 1.0, (v, w): 1.0, (w, v): 1.0,
    })
    sigma, values = min_expected_cost_md(fm, cost)
    for s in (b, u, v, w):
        assert values[s] == math.inf
    assert values[f] == 0.0
    assert values[g] == 0.5
    assert values[a] == 2.0
    assert sigma.choice[a] == f
    oracle = md_policy_oracle(fm, cost=cost)
    for s in fm.states:
        assert values[s] == oracle.values[s]
    for root in (b, u, v):
        with pytest.raises(NoFiniteCostPolicy, match="unreachable almost surely"):
            min_expected_cost_md(fm, cost, root=root)
    assert min_expected_cost_md(fm, cost, root=a)[1] == values


def test_min_cost_ties_are_relative_to_tiny_costs():
    # Both edges of a cost less than the absolute tie tolerance 1e-12: an
    # absolute tie test takes the loop a -> b -> a by ordinal and returns an
    # infinite-cost policy.
    a, b, f = S(0, "a"), S(1, "b"), S(2, "f")
    fm = tiny(
        {a: [b, f], b: Distribution([(a, 1.0)]), f: Distribution([(f, 1.0)])},
        {a: StateKind.CONTROLLED, b: StateKind.RANDOM, f: StateKind.RANDOM},
    )
    cost = CostLabel({(a, b): 1e-20, (a, f): 1e-15})
    assert md_policy_oracle(fm, cost=cost).values[a] == 1e-15
    sigma, values = min_expected_cost_md(fm, cost, root=a)
    assert sigma.choice[a] == f
    assert values[a] == 1e-15


def test_bounded_reward_direct_vs_coin():
    a, c, f1, f2, f3 = S(0, "a"), S(1, "c"), S(2, "f1"), S(3, "f2"), S(4, "f3")
    fm = tiny(
        {
            a: [c, f3],
            c: Distribution([(f1, 0.5), (f2, 0.5)]),
            f1: Distribution([(f1, 1.0)]),
            f2: Distribution([(f2, 1.0)]),
            f3: Distribution([(f3, 1.0)]),
        },
        {
            a: StateKind.CONTROLLED,
            c: StateKind.RANDOM,
            f1: StateKind.RANDOM,
            f2: StateKind.RANDOM,
            f3: StateKind.RANDOM,
        },
    )
    spec = BoundedRewardSpec(
        frozenset(fm.states), {f1: 0.3, f2: 0.8, f3: 0.5}
    )
    sigma, values = bounded_total_reward_md(spec, fm)
    assert sigma.choice[a] == c  # 0.5*0.3 + 0.5*0.8 = 0.55 beats 0.5
    assert abs(values[a] - 0.55) <= 1e-12


def test_bounded_reward_single_target():
    a, f = S(0, "a"), S(1, "f")
    fm = tiny(
        {a: [f], f: Distribution([(f, 1.0)])},
        {a: StateKind.CONTROLLED, f: StateKind.RANDOM},
    )
    spec = BoundedRewardSpec(frozenset([a, f]), {f: 1.0})
    _, values = bounded_total_reward_md(spec, fm)
    assert abs(values[a] - 1.0) <= 1e-12


def test_bounded_reward_matches_oracle_corpus():
    import random as _random

    for i in range(20):
        fm = random_finite_mdp(derive_seed("b-orc", i), n_states=7, max_branching=3)
        rng = _random.Random(derive_seed("b-rew", i))
        frontier = {fm.states[-1]: rng.random(), fm.states[-2]: rng.random()}
        spec = BoundedRewardSpec(frozenset(fm.states), frontier)
        sigma, values = bounded_total_reward_md(spec, fm)
        oracle = md_policy_oracle(fm, boundary=frontier)
        for s in fm.states:
            if s in frontier:
                continue
            assert abs(values[s] - oracle.values[s]) <= 1e-6


def test_oracle_caps():
    fm = random_finite_mdp(1, n_states=16, max_branching=3, p_controlled=1.0)
    with pytest.raises(TooLarge):
        md_policy_oracle(fm, Objective.reach({fm.states[-1]}), max_controlled=4)


def test_oracle_single_policy_equals_absorption():
    a, t = S(0, "a"), S(1, "t")
    fm = tiny(
        {a: [t], t: Distribution([(t, 1.0)])},
        {a: StateKind.CONTROLLED, t: StateKind.RANDOM},
    )
    oracle = md_policy_oracle(fm, Objective.reach({t}))
    assert oracle.values[a] == 1.0
    assert oracle.policy.choice[a] == t


def reference_oracle(fm, objective=None, cost=None, boundary=None):
    """The enumeration oracle on StateId dicts: every policy rebuilds every
    row from the state oracles and reruns its fixpoints over StateId sets.
    Slow, but written without index rows, so ``md_policy_oracle`` is checked
    against it value for value and witness for witness."""
    controlled = fm.controlled_states()
    options = [list(fm.successors_of(s)) for s in controlled]
    minimize = cost is not None
    best, best_policy, best_key = {}, None, None
    for combo in itertools.product(*options):
        policy = MdStrategy(dict(zip(controlled, combo)))
        vals = _reference_evaluate(fm, policy, objective, cost, boundary)
        total = sum(v for v in vals.values() if math.isfinite(v))
        n_inf = sum(1 for v in vals.values() if not math.isfinite(v))
        key = (n_inf, total) if minimize else (-total,)
        if best_key is None or key < best_key:
            best_key, best_policy = key, policy
        for s, v in vals.items():
            if s not in best:
                best[s] = v
            else:
                best[s] = min(best[s], v) if minimize else max(best[s], v)
    return best, best_policy


def _reference_evaluate(fm, policy, objective, cost, boundary):
    succ = {}
    for s in fm.states:
        if fm.kind_of(s) is StateKind.CONTROLLED:
            succ[s] = [(policy.successor(fm, s), 1.0)]
        else:
            succ[s] = list(fm.successors_of(s))
    if cost is not None:
        return _reference_cost(fm, succ, cost)
    if objective is not None and objective.kind == Objective.SAFETY:
        avoid = set(objective.states or ())
        for s in avoid:
            succ[s] = [(s, 1.0)]
        reach = _reference_absorption(fm, succ, {t: 1.0 for t in avoid})
        return {s: 1.0 - reach[s] for s in fm.states}
    if objective is not None and objective.kind == Objective.REACH:
        fixed = {t: 1.0 for t in (objective.states or ())}
    else:
        fixed = dict(boundary)
    for t in fixed:
        succ[t] = [(t, 1.0)]
    return _reference_absorption(fm, succ, fixed)


def _reference_absorption(fm, succ, fixed):
    reach_ok = set(fixed)
    changed = True
    while changed:
        changed = False
        for s in fm.states:
            if s not in reach_ok and any(t in reach_ok for t, p in succ[s] if p > 0):
                reach_ok.add(s)
                changed = True
    values = {s: 0.0 for s in fm.states}
    values.update(fixed)
    solve = [s for s in fm.states if s in reach_ok and s not in fixed]
    if solve:
        idx = {s: i for i, s in enumerate(solve)}
        a = np.eye(len(solve))
        b = np.zeros(len(solve))
        for s in solve:
            for t, p in succ[s]:
                if t in fixed:
                    b[idx[s]] += p * fixed[t]
                elif t in idx:
                    a[idx[s], idx[t]] -= p
        for s, v in zip(solve, np.linalg.solve(a, b)):
            values[s] = float(v)
    return values


def _reference_cost(fm, succ, cost):
    free = set(fm.states)
    changed = True
    while changed:
        changed = False
        for s in list(free):
            if not all(t in free and cost.of(s, t) == 0.0 for t, p in succ[s]):
                free.discard(s)
                changed = True
    if free:
        absorb = _reference_absorption(
            fm, {s: ([(s, 1.0)] if s in free else succ[s]) for s in fm.states},
            {t: 1.0 for t in free},
        )
    else:
        absorb = {s: 0.0 for s in fm.states}
    values = {}
    for s in fm.states:
        if s in free:
            values[s] = 0.0
        elif absorb[s] < 1.0 - 1e-9:
            values[s] = math.inf
        else:
            values[s] = None
    solve = [s for s in fm.states if values[s] is None]
    if solve:
        idx = {s: i for i, s in enumerate(solve)}
        a = np.eye(len(solve))
        b = np.zeros(len(solve))
        for s in solve:
            for t, p in succ[s]:
                b[idx[s]] += p * cost.of(s, t)
                if t in idx:
                    a[idx[s], idx[t]] -= p
        for s, v in zip(solve, np.linalg.solve(a, b)):
            values[s] = float(v)
    return values


def oracle_modes(fm, seed: int) -> dict:
    """The four oracle modes on ``random_finite_mdp`` output: reach the last
    state, avoid the one before, a seeded edge cost, and terminal rewards on
    both sinks plus one state outside ``fm``, whose value the result keeps."""
    rng = random.Random(seed)
    cost = CostLabel({
        (s, t): rng.choice([0.0, 0.5, 1.0, 2.0])
        for s in fm.states for t in successor_states(fm, s) if t != s
    })
    outside = S(10_000, "outside")
    return {
        "reach": {"objective": Objective.reach({fm.states[-1]})},
        "safety": {"objective": Objective.safety({fm.states[-2]})},
        "cost": {"cost": cost},
        "boundary": {"boundary": {fm.states[-1]: rng.random(), fm.states[-2]: rng.random(),
                                  outside: rng.random()}},
    }


def oracle_fingerprint(values, policy) -> tuple:
    """The ``float.hex`` values in result order and the witness's choices."""
    return [(s.ordinal, v.hex()) for s, v in values.items()], policy.to_json()


def _oracle_instances():
    for i in range(12):
        fm = random_finite_mdp(derive_seed("orc-ref", i), n_states=7, max_branching=3)
        for mode, kwargs in oracle_modes(fm, i).items():
            yield f"{i}-{mode}", fm, kwargs


def test_oracle_calls_no_solver_routine(monkeypatch):
    """The oracle is the independent check of the solvers, so it must answer,
    as the dict reference does, with every solver internal broken."""
    def broken(*args, **kwargs):
        raise AssertionError("the oracle called a solver routine")

    for name in ("_absorption", "_chain_values", "_linsolve", "_backward_reach", "_howard",
                 "_extract"):
        monkeypatch.setattr(solvers, name, broken)
    for name, fm, kwargs in _oracle_instances():
        got = md_policy_oracle(fm, **kwargs)
        assert oracle_fingerprint(got.values, got.policy) == \
            oracle_fingerprint(*reference_oracle(fm, **kwargs)), name


def test_oracle_asks_each_state_once():
    fm = random_finite_mdp(derive_seed("orc-ask", 0), n_states=8, max_branching=3)
    for mode, kwargs in oracle_modes(fm, 0).items():
        asked = collections.Counter()
        for method in ("successors_of", "kind_of"):
            real = getattr(FiniteMdp, method)

            def counting(s, method=method, real=real):
                asked[method, s] += 1
                return real(fm, s)

            setattr(fm, method, counting)
        md_policy_oracle(fm, **kwargs)
        for method in ("successors_of", "kind_of"):
            del fm.__dict__[method]
        assert asked and max(asked.values()) == 1, (mode, asked.most_common(1))


@pytest.mark.parametrize("build", [
    lambda: solvers.ValueInterval(lower=0.6, upper=0.4, radius=1),
    lambda: CostLabel({(S(0), S(1)): -1.0}),
    lambda: BoundedRewardSpec(frozenset([S(0)]), {S(0): 1.5}),
    lambda: BoundedRewardSpec(frozenset([S(0)]), {S(1): 0.5}),
    lambda: md_policy_oracle(random_finite_mdp(1, n_states=4)),
    lambda: bounded_total_reward_md(BoundedRewardSpec(frozenset([S(0), S(99)]), {S(0): 1.0}),
                                    random_finite_mdp(1, n_states=4)),
], ids=["inverted-interval", "negative-cost", "reward-above-one", "frontier-outside-subspace",
        "oracle-without-objective", "subspace-outside-mdp"])
def test_bad_solver_input_raises_typed_error(build):
    with pytest.raises(TransientMdpError):
        build()


# ---------------------------------------------------------------------------
# Intervals and return probabilities


def test_interval_saturation_equals_exact():
    fm = random_finite_mdp(12, n_states=8)
    target = {fm.states[-1]}
    vm = reach_value(fm, target)
    iv = interval_value(fm, fm.states[0], Objective.reach(target), [50])
    assert abs(iv.lower - vm[fm.states[0]]) <= 1e-9
    assert abs(iv.upper - vm[fm.states[0]]) <= 1e-9


def test_interval_gambler_reach_restart():
    mdp, _ = gamblers_ruin(0.6)
    w0, w1 = StateId(0, "w_0"), StateId(1, "w_1")
    iv = interval_value(mdp, w1, Objective.reach({w0}), [200])
    assert iv.contains(2.0 / 3.0)
    assert iv.width() < 1e-6


def test_interval_false_safe_core_raises():
    # s reaches the declared core c or the avoid state a with probability
    # 1/2 each, and c leads to a: the declared lower bound 1/2 lies above
    # the safety value 0, which an interval must not hide.
    s, c, a = S(0, "s"), S(1, "c"), S(2, "a")
    fm = tiny(
        {
            s: Distribution([(c, 0.5), (a, 0.5)]),
            c: Distribution([(a, 1.0)]),
            a: Distribution([(a, 1.0)]),
        },
        {s: StateKind.RANDOM, c: StateKind.RANDOM, a: StateKind.RANDOM},
        [{a}],
    )
    with pytest.raises(BadParameter, match="inverted interval"):
        interval_value(fm, s, Objective.safety({a}), [5], safe_core=lambda q: q == c)


def test_interval_fair_walk_lower_tends_to_one():
    mdp, _ = gamblers_ruin(0.5)
    w0, w1 = StateId(0, "w_0"), StateId(1, "w_1")
    lows = [
        interval_value(mdp, w1, Objective.reach({w0}), [r]).lower
        for r in (25, 50, 100, 200)
    ]
    assert all(b >= a for a, b in zip(lows, lows[1:]))
    assert lows[-1] > 0.99


def test_return_closed_forms():
    # Re = 1/2 exactly: random state returning with probability 1/2.
    s, d = S(0, "s"), S(1, "d")
    fm = tiny(
        {s: Distribution([(s, 0.5), (d, 0.5)]), d: Distribution([(d, 1.0)])},
        {s: StateKind.RANDOM, d: StateKind.RANDOM},
    )
    analysis = return_probability(fm, s, [10])
    assert abs(analysis.re.upper - 0.5) <= 1e-12
    assert abs(analysis.b_bound - 4.0) <= 1e-9
    assert abs(analysis.r_bound - 2.0) <= 1e-9


def test_return_visit_bound_respected_in_monte_carlo():
    mdp, _ = gamblers_ruin(0.7)
    w0 = StateId(0, "w_0")
    analysis = return_probability(mdp, w0, [200])
    assert analysis.re.upper < 1.0
    mean, se = mean_visits(mdp, w0, w0, None, 10_000, 80, seed=4)
    assert mean <= analysis.b_bound + 3.0 * se


def test_transient_core_generator_is_acyclic_outside_sinks():
    for i in range(10):
        fm = random_transient_core_mdp(derive_seed("core", i))
        for s in fm.states[:-2]:
            analysis = return_probability(fm, s, [len(fm.states) + 1])
            assert analysis.re.upper == 0.0


def test_bound_queries_build_one_truncation(monkeypatch):
    from transientmdp import solvers

    built = []
    real_truncate = solvers.truncate

    def counting_truncate(*args, **kwargs):
        fm = real_truncate(*args, **kwargs)
        built.append(fm.frontier)
        return fm

    monkeypatch.setattr(solvers, "truncate", counting_truncate)
    mdp, _ = gamblers_ruin(0.6)
    w0, w1 = StateId(0, "w_0"), StateId(1, "w_1")
    for objective in (Objective.reach({w0}), Objective.safety({w0})):
        built.clear()
        interval_value(mdp, w1, objective, [50, 100])
        assert len(built) == 1 and built[0] is not None
    built.clear()
    return_probability(mdp, w1, [50, 100])
    assert len(built) == 1


def test_constructor_compiles_the_rows():
    a, b, c = S(0, "a"), S(1, "b"), S(2, "c")
    fm = tiny(
        {a: [b, c], b: Distribution([(a, 0.25), (c, 0.75)]), c: Distribution([(c, 1.0)])},
        {a: StateKind.CONTROLLED, b: StateKind.RANDOM, c: StateKind.RANDOM},
    )
    assert fm.controlled == [True, False, False]
    assert (fm.indptr, fm.succ) == ([0, 2, 4, 5], [1, 2, 0, 2, 2])
    assert math.isnan(fm.prob[0]) and math.isnan(fm.prob[1])
    assert fm.prob[2:] == [0.25, 0.75, 1.0]


def _nearly_absorbing():
    # a keeps itself with probability 1.0 and leaks 1e-17 to b: a valid
    # distribution within PROB_TOL whose absorption system is singular.
    a, b = S(0, "a"), S(1, "b")
    return tiny(
        {a: Distribution([(a, 1.0), (b, 1e-17)]), b: Distribution([(b, 1.0)])},
        {a: StateKind.RANDOM, b: StateKind.RANDOM},
        [{b}],
    ), b


@pytest.mark.parametrize("sparse_min_rows", [solvers.SPARSE_MIN_ROWS, 1], ids=["dense", "sparse"])
def test_singular_system_raises_typed_error(monkeypatch, sparse_min_rows):
    monkeypatch.setattr(solvers, "SPARSE_MIN_ROWS", sparse_min_rows)
    fm, b = _nearly_absorbing()
    with pytest.raises(SingularSystem):
        reach_value(fm, {b})


def test_linsolve_dense_and_sparse_agree(monkeypatch):
    # The absorption system of a lazy walk on 40 states, with a duplicate
    # entry at every diagonal position.
    n = 40
    rows, cols, vals = list(range(n)), list(range(n)), [1.0] * n
    for i in range(n):
        rows += [i, i]
        cols += [i, min(i + 1, n - 1)]
        vals += [-0.25, -0.5 if i + 1 < n else -0.0]
    b = [0.25 if i + 1 == n else 0.0 for i in range(n)]
    dense = solvers._linsolve(n, rows, cols, vals, b)
    monkeypatch.setattr(solvers, "SPARSE_MIN_ROWS", 1)
    sparse = solvers._linsolve(n, rows, cols, vals, b)
    assert np.max(np.abs(dense - sparse)) <= 1e-12


def test_sparse_truncation_matches_gambler_closed_form(monkeypatch):
    # Radii 800 and 3200 put the truncations above SPARSE_MIN_ROWS, so no
    # solve may reach LAPACK.
    def dense(*args):
        raise AssertionError("dense solve of a walk-sized system")

    monkeypatch.setattr(np.linalg, "solve", dense)
    p = 0.6
    mdp, _ = gamblers_ruin(p)
    w0 = StateId(0, "w_0")
    for radius in (800, 3200):
        for k in (1, 3):
            iv = interval_value(mdp, StateId(k, f"w_{k}"), Objective.reach({w0}), [radius])
            want = ((1.0 - p) / p) ** k
            assert abs(iv.lower - want) <= 1e-14 and abs(iv.upper - want) <= 1e-14
        re = return_probability(mdp, w0, [radius]).re
        want = (1.0 - p) / p
        assert abs(re.lower - want) <= 1e-14 and abs(re.upper - want) <= 1e-14


def test_sparse_lu_from_arrays_matches_lists(monkeypatch):
    # The sparse path builds its matrix from numpy arrays of the triplets.
    # On the radius-3200 gambler systems, with the duplicate diagonal entries
    # of their self-loops, its solutions equal bit for bit those of the
    # matrix scipy builds from the Python lists, and list and array
    # triplets give the same solution.
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    systems, real = [], solvers._linsolve

    def recording(n, rows, cols, vals, b):
        systems.append((n, rows, cols, vals, b))
        return real(n, rows, cols, vals, b)

    monkeypatch.setattr(solvers, "_linsolve", recording)
    mdp, _ = gamblers_ruin(0.6)
    interval_value(mdp, StateId(1, "w_1"), Objective.reach({StateId(0, "w_0")}), [3200])
    large = [system for system in systems if system[0] >= solvers.SPARSE_MIN_ROWS]
    assert large and max(system[0] for system in large) >= 3200
    for n, rows, cols, vals, b in large:
        got = real(n, rows, cols, vals, b)
        lists = splu(csc_matrix((vals, (rows, cols)), shape=(n, n))).solve(np.asarray(b, float))
        arrays = real(n, np.asarray(rows), np.asarray(cols), np.asarray(vals), np.asarray(b))
        assert got.tobytes() == lists.tobytes() == arrays.tobytes()


def test_markov_chain_reach_searches_the_graph_once(monkeypatch):
    # A Markov chain has nothing to choose: no extraction searches the graph,
    # and its one evaluation searches the graph once: on the cached
    # predecessor lists, or on arrays from SPARSE_MIN_ROWS states on.
    calls = []

    def counting(search):
        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)
        return counted

    for name in ("_backward_reach", "_reaching"):
        monkeypatch.setattr(solvers, name, counting(getattr(solvers, name)))
    mdp, _ = gamblers_ruin(0.6)
    fm = truncate(mdp, {StateId(1, "w_1")}, 200)
    assert not any(fm.controlled)
    values = reach_value(fm, {fm.frontier})
    assert len(calls) == 1
    # The walk restarts from w_0, so it reaches the frontier surely.
    assert abs(values[StateId(1, "w_1")] - 1.0) <= 1e-9


def _array_cases():
    """(name, fm, policy, fixed, cost) inputs for the array assembly: random
    finite MDPs with picks, some outside the state space (None), fixed
    values and edge costs, and the ladder truncated at radius 200."""
    for seed in range(8):
        fm = random_finite_mdp(seed, n_states=12 + 5 * seed, p_controlled=0.6)
        rng = random.Random(seed)
        fixed = {len(fm.states) - 1: 1.0, len(fm.states) - 2: 0.25}
        policy = {
            i: (None if rng.random() < 0.2 else rng.choice(fm.row(i)), rng.choice([0.0, 0.5]))
            for i in range(len(fm.states)) if fm.controlled[i] and i not in fixed
        }
        cost = [rng.choice([0.0, 0.125, 1.5]) for _ in fm.succ]
        yield f"random-{seed}", fm, policy, fixed, None
        yield f"random-{seed}-cost", fm, policy, fixed, cost
    ladder, _ = no_optimal_ladder()
    fm = truncate(ladder, {ladder_state("ell", 0)}, 200)
    fixed = {fm.index[ladder_state("bot", 0)]: 1.0, fm.index[fm.frontier]: 0.5}
    policy = {i: (fm.row(i)[-1], 0.0)
              for i in range(len(fm.states)) if fm.controlled[i] and i not in fixed}
    yield "ladder-r200", fm, policy, fixed, None


@pytest.mark.parametrize("case", list(_array_cases()), ids=lambda case: case[0])
def test_array_assembly_matches_lists_bit_for_bit(monkeypatch, case):
    # With every system on the array path, the array assembly gives the
    # list assembly's triplets and right-hand side, and so its solution;
    # the array reach and clamp give the list path's absorption values.
    monkeypatch.setattr(solvers, "SPARSE_MIN_ROWS", 1)
    _, fm, policy, fixed, cost = case
    picked = {}
    for i, (t, _) in policy.items():
        picked.setdefault(t, []).append(i)
    reach = _backward_reach(fixed, preds=(fm.random_preds(), picked))
    assert set(np.flatnonzero(solvers._reaching(fm, policy, fixed)).tolist()) == set(reach)
    solve = [i for i in range(len(fm.states)) if i in reach and i not in fixed]
    assert solve
    lists = solvers._chain_system(fm, solve, policy, fixed, cost)
    arrays = solvers._chain_arrays(fm, solve, policy, fixed, cost)
    for got, want, dtype in zip(arrays, lists, (np.intp, np.intp, np.float64, np.float64)):
        assert got.dtype == dtype and got.tobytes() == np.asarray(want, dtype).tobytes()
    x = solvers._linsolve(len(solve), *lists)
    assert solvers._linsolve(len(solve), *arrays).tobytes() == x.tobytes()
    if cost is None:
        top = max(fixed.values())
        want = [0.0] * len(fm.states)
        for i, v in zip(solve, x):
            want[i] = float(min(max(v, 0.0), top))
        for i, v in fixed.items():
            want[i] = v
        assert np.array(solvers._absorption(fm, policy, fixed)).tobytes() == \
            np.array(want).tobytes()


# The linear systems of the package are assembled and solved in one module:
# the names below are referred to in ``solvers.py`` only.
ASSEMBLY = ("_linsolve", "_chain_system")


def _assembly_uses(tree: ast.AST) -> list[int]:
    """The lines that name ``_linsolve`` or ``_chain_system``: a call, an
    attribute read or an import."""
    lines = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else None)
        if name in ASSEMBLY:
            lines.append(node.lineno)
    return sorted(lines)


def test_assembly_guard_sees_uses():
    tree = ast.parse("from .solvers import _linsolve\n"
                     "x = _linsolve(1, [0], [0], [1.0], [1.0])\n"
                     "y = solvers._chain_system(fm, [0], {}, {})\n")
    assert _assembly_uses(tree) == [1, 2, 3]


def test_only_solvers_assembles_linear_systems():
    src = Path(solvers.__file__).parent
    found = {path.name: _assembly_uses(ast.parse(path.read_text()))
             for path in sorted(src.glob("*.py"))}
    assert found.pop("solvers.py")
    assert not {name: lines for name, lines in found.items() if lines}

# ``float.hex`` of the truncation bounds that the countable_bounds benchmark
# asks for: Reach(w_0) from each of its starts w_1..w_4 and Re(w_0) on the
# gambler's walk (p = 0.6), Reach(bot) on the ladder, and the certificates.
# Each ``interval_value`` pin is (lower, upper), each ``return_probability``
# pin (lower, upper, B, R), each certificate (verdict, worst upper, worst
# lower).
COUNTABLE_BOUND_PINS = {
    'gambler-reach-w1-r200': ('0x1.5555555555556p-1', '0x1.5555555555556p-1'),
    'gambler-reach-w2-r200': ('0x1.c71c71c71c71fp-2', '0x1.c71c71c71c71fp-2'),
    'gambler-reach-w3-r200': ('0x1.2f684bda12f6ap-2', '0x1.2f684bda12f6ap-2'),
    'gambler-reach-w4-r200': ('0x1.948b0fcd6e9e1p-3', '0x1.948b0fcd6e9e1p-3'),
    'gambler-return-r200': ('0x1.5555555555556p-1', '0x1.5555555555556p-1', '0x1.2000000000002p+3', '0x1.8000000000002p+1'),
    'gambler-reach-w1-r800': ('0x1.5555555555556p-1', '0x1.5555555555556p-1'),
    'gambler-reach-w2-r800': ('0x1.c71c71c71c71fp-2', '0x1.c71c71c71c71fp-2'),
    'gambler-reach-w3-r800': ('0x1.2f684bda12f6ap-2', '0x1.2f684bda12f6ap-2'),
    'gambler-reach-w4-r800': ('0x1.948b0fcd6e9e1p-3', '0x1.948b0fcd6e9e1p-3'),
    'gambler-return-r800': ('0x1.5555555555556p-1', '0x1.5555555555556p-1', '0x1.2000000000002p+3', '0x1.8000000000002p+1'),
    'gambler-reach-w1-r3200': ('0x1.5555555555556p-1', '0x1.5555555555556p-1'),
    'gambler-reach-w2-r3200': ('0x1.c71c71c71c71fp-2', '0x1.c71c71c71c71fp-2'),
    'gambler-reach-w3-r3200': ('0x1.2f684bda12f6ap-2', '0x1.2f684bda12f6ap-2'),
    'gambler-reach-w4-r3200': ('0x1.948b0fcd6e9e1p-3', '0x1.948b0fcd6e9e1p-3'),
    'gambler-return-r3200': ('0x1.5555555555556p-1', '0x1.5555555555556p-1', '0x1.2000000000002p+3', '0x1.8000000000002p+1'),
    'ladder-reach-r50': ('0x1.0000000000000p-1', '0x1.051eb851eb852p-1'),
    'ladder-reach-r100': ('0x1.0000000000000p-1', '0x1.028f5c28f5c29p-1'),
    'ladder-reach-r200': ('0x1.0000000000000p-1', '0x1.0147ae147ae14p-1'),
    'certify-p0.3': ('NO', '0x1.0000000000000p+0', '0x1.fffffffffffffp-1'),
    'certify-p0.5': ('NO', '0x1.febb9287f1596p-1', '0x1.feb9f34380a2dp-1'),
    'certify-p0.7': ('YES', '0x1.3333333333334p-1', '0x1.3333333333334p-1'),
    'certify-p0.9': ('YES', '0x1.9999999999998p-3', '0x1.9999999999998p-3'),
    'certify-acyclic': ('YES', '0x0.0p+0', '0x0.0p+0'),
}


def _countable_bounds() -> dict:
    w0, w1 = StateId(0, "w_0"), StateId(1, "w_1")
    gambler, got = gamblers_ruin(0.6)[0], {}
    for r in (200, 800, 3200):
        for k in (1, 2, 3, 4):
            iv = interval_value(gambler, StateId(k, f"w_{k}"), Objective.reach({w0}), [r])
            got[f"gambler-reach-w{k}-r{r}"] = (iv.lower.hex(), iv.upper.hex())
        ra = return_probability(gambler, w0, [r])
        got[f"gambler-return-r{r}"] = (ra.re.lower.hex(), ra.re.upper.hex(),
                                       ra.b_bound.hex(), ra.r_bound.hex())
    ladder = no_optimal_ladder()[0]
    for r in (50, 100, 200):
        iv = interval_value(ladder, ladder_state("ell", 0),
                            Objective.reach({ladder_state("bot", 0)}), [r])
        got[f"ladder-reach-r{r}"] = (iv.lower.hex(), iv.upper.hex())
    certificates = {f"p{p}": (gamblers_ruin(p)[0], [w0, w1], (50, 200))
                    for p in (0.3, 0.5, 0.7, 0.9)}
    certificates["acyclic"] = (acyclic_chain()[0], [StateId(0, "c_0")], (30,))
    for name, (mdp, sample, radii) in certificates.items():
        cert = certify_universal_transience(mdp, sample, radii=radii)
        got[f"certify-{name}"] = (cert.verdict, cert.worst_upper.hex(), cert.worst_lower.hex())
    return got


def test_countable_bounds_pinned():
    assert _countable_bounds() == COUNTABLE_BOUND_PINS

_SMALL_SOLVES = {
    "finite-120": (
        "from transientmdp.solvers import reach_value\n"
        "from transientmdp.verify import random_finite_mdp\n"
        "fm = random_finite_mdp(3, n_states=120)\n"
        "reach_value(fm, {fm.states[-1]})\n"
    ),
    "below-cutoff": (
        "from transientmdp import solvers\n"
        "n = solvers.SPARSE_MIN_ROWS - 1\n"
        "x = solvers._linsolve(n, list(range(n)), list(range(n)), [2.0] * n, [1.0] * n)\n"
        "assert list(x) == [0.5] * n\n"
    ),
    # The solver-oracle suite behind ``transientmdp verify solvers``.
    "verify-solvers": (
        "from transientmdp.verify import run_suite\n"
        "run_suite('solvers', 0)\n"
    ),
    # The transience fan at the radius of the mc_synthesis benchmark budget.
    "fan-radius-40": (
        "from transientmdp import StateId\n"
        "from transientmdp.gadgets import transience_fan\n"
        "from transientmdp.synthesis import TransienceBudgets, transience_md\n"
        "fan, _ = transience_fan()\n"
        "budgets = TransienceBudgets(radius=40, seed=1)\n"
        "transience_md(fan, StateId(0, 'fan'), 0.2, budgets=budgets)\n"
    ),
    # The ladder at the same radius, as in the mc_synthesis benchmark.
    "ladder-radius-40": (
        "from transientmdp.gadgets import ladder_state, no_optimal_ladder\n"
        "from transientmdp.synthesis import TransienceBudgets, transience_md\n"
        "ladder, _ = no_optimal_ladder()\n"
        "budgets = TransienceBudgets(radius=40, seed=1)\n"
        "transience_md(ladder, ladder_state('ell', 0), 0.1, budgets=budgets)\n"
    ),
    # The first 120-state instance of the finite_solvers benchmark corpus at
    # seed 11, with its edge costs and rewards, through the four solves the
    # benchmark runs on it.
    "finite-corpus-120": (
        "import random\n"
        "from transientmdp.core import successor_states\n"
        "from transientmdp.solvers import BoundedRewardSpec, CostLabel, "
        "bounded_total_reward_md, min_expected_cost_md, reach_value, safety_value\n"
        "from transientmdp.verify import random_finite_mdp\n"
        "fm = random_finite_mdp(7642394755045063197, n_states=120, max_branching=3)\n"
        "rng = random.Random(7653145674359888422)\n"
        "cost = CostLabel({(s, t): rng.choice([0.0, 0.5, 1.0, 2.0])\n"
        "                  for s in fm.states for t in successor_states(fm, s) if t != s})\n"
        "rng = random.Random(2542306633379913461)\n"
        "rewards = {fm.states[-1]: rng.random(), fm.states[-2]: rng.random()}\n"
        "reach_value(fm, {fm.states[-1]})\n"
        "safety_value(fm, {fm.states[-2]})\n"
        "min_expected_cost_md(fm, cost)\n"
        "bounded_total_reward_md(BoundedRewardSpec(frozenset(fm.states), rewards), fm)\n"
    ),
}


def test_small_solves_leave_scipy_unloaded():
    for name, solve in _SMALL_SOLVES.items():
        code = "import sys\nimport transientmdp\n" + solve + "print('scipy' in sys.modules)\n"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "False", name


def _finite_solve_digest(seed: int) -> str:
    """SHA-256 prefix of the ``float.hex`` values and the MD choices of
    max-reach, safety and min-cost on ``random_finite_mdp(seed)`` with
    3 + seed states."""
    fm = random_finite_mdp(seed, n_states=3 + seed)
    win, lose = fm.states[-1], fm.states[-2]
    cost = CostLabel({
        (s, t): ((7 * s.ordinal + 3 * t.ordinal) % 5) / 4.0
        for s in fm.states[:-2] for t in successor_states(fm, s)
    })
    reach, reach_sigma = solvers.reach_strategy(fm, {win})
    safety, safety_sigma = solvers.safety_strategy(fm, {lose})
    cost_sigma, costs = min_expected_cost_md(fm, cost)
    assert reach.values == reach_value(fm, {win}).values
    assert safety.values == safety_value(fm, {lose}).values
    doc = {
        "reach": {s.ordinal: v.hex() for s, v in reach.values.items()},
        "safety": {s.ordinal: v.hex() for s, v in safety.values.items()},
        "cost": {s.ordinal: v.hex() for s, v in costs.items()},
        "choices": [sigma.to_json() for sigma in (reach_sigma, safety_sigma, cost_sigma)],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


# Every system here has at most 12 rows, so it takes the dense path.  Any
# change in the last bit of a value, or in a tie broken between choices,
# shows up here.
FINITE_SOLVE_PINS = {
    0: "662d6217eba02f1e", 1: "68bf4c43c2237fe8", 2: "167020b0d499ac76",
    3: "2a10264c1663d939", 4: "72172243f4f2e90e", 5: "ee10485222408bed",
    6: "80fb542d8ebdfe23", 7: "6737dc178b8cfb69", 8: "aad724d85617798f",
    9: "f666343155f4992d",
}


@pytest.mark.parametrize("seed", sorted(FINITE_SOLVE_PINS))
def test_finite_solves_pinned(seed):
    assert _finite_solve_digest(seed) == FINITE_SOLVE_PINS[seed]
