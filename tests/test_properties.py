"""Property tests over seeded random finite MDPs and scenario documents.

Hypothesis draws the generator seeds and scenario fields, derandomized so
that every run checks the same examples.
"""
import contextlib
import io
import itertools
import json
import math
import random
import tempfile
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from transientmdp import Distribution, LazyMdp, Objective, StateId, StateKind
from transientmdp import core, solvers, transforms
from transientmdp.cli import main as cli_main
from transientmdp.core import InfiniteSuccessors, OneBitStrategy, successor_states
from transientmdp.gadgets import (
    gamblers_ruin, geometric_fan, ladder_state, no_optimal_ladder, safety_fan, transience_fan,
)
from transientmdp.simulate import (
    FreshTail,
    RevisitCap,
    _vector_estimate,
    estimate_buchi_transience,
    estimate_transience,
    mean_visits,
)
from transientmdp.solvers import (
    BoundedRewardSpec,
    CostLabel,
    bounded_total_reward_md,
    evaluate_md_cost,
    evaluate_md_reach,
    evaluate_md_safety,
    md_policy_oracle,
    min_expected_cost_md,
    reach_strategy,
    reach_value,
    return_probability,
    safety_strategy,
)
from transientmdp.synthesis import fix_choices, plastering_uniformize
from transientmdp.transforms import INFINITE_CHAIN, conditioned
from transientmdp.verify import random_finite_mdp, random_md_strategy, win_objective

from test_core import _reference_vector_hits
from test_solvers import oracle_fingerprint, oracle_modes, reference_oracle

SEEDS = st.integers(min_value=0, max_value=10_000)
SIZES = st.integers(min_value=3, max_value=9)
PROPERTY = settings(derandomize=True, database=None, max_examples=30, deadline=None)


def _minting(run):
    """``run()`` with every synthetic state that the constructions mint
    recorded; returns the list of minted states."""
    minted, real = [], core.mint

    def recording(*args, **kwargs):
        s = real(*args, **kwargs)
        minted.append(s)
        return s

    with ExitStack() as stack:
        for module in (core, solvers, transforms):
            stack.enter_context(mock.patch.object(module, "mint", recording))
        run()
    return minted


@PROPERTY
@given(seed=SEEDS, n=SIZES, radius=st.integers(min_value=0, max_value=2))
def test_minted_states_never_equal_host_states(seed, n, radius):
    fm = random_finite_mdp(seed, n_states=n)
    root = fm.states[0]
    values = reach_value(fm, win_objective(fm).states)
    subspace = frozenset(fm.states[: max(2, n // 2)])
    spec = BoundedRewardSpec(subspace, {fm.states[1]: 1.0})

    def constructions():
        core.truncate(fm, {root}, radius)
        return_probability(fm, root, [radius + 1])
        bounded_total_reward_md(spec, fm)
        for bottom in (transforms.SELF_LOOP, INFINITE_CHAIN):
            cm = conditioned(fm, win_objective(fm), values, bottom=bottom)
            cm.mdp.successors_of(cm.bottom)

    minted = _minting(constructions)
    assert minted
    host = set(fm.states)
    for m in minted:
        twin = StateId(m.ordinal, "host twin")
        assert m != twin and twin != m
        assert m not in host
        assert not any(m == s for s in fm.states)


@PROPERTY
@given(seed=SEEDS, n=SIZES)
def test_conditioned_rows_sum_to_one(seed, n):
    fm = random_finite_mdp(seed, n_states=n)
    phi = win_objective(fm)
    cm = conditioned(fm, phi, reach_value(fm, phi.states))
    for s in cm.finite.states:
        succ = cm.finite.successors_of(s)
        if isinstance(succ, Distribution):
            assert abs(sum(p for _, p in succ) - 1.0) <= 1e-9


# Two of the states are sinks, so at most 6 are controlled.
ORACLE_SIZES = st.integers(min_value=3, max_value=8)


def _close(a, b):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-6


def _random_cost(fm, seed):
    rng = random.Random(seed)
    return CostLabel({
        (s, t): rng.choice([0.0, 0.5, 1.0, 2.0])
        for s in fm.states for t in successor_states(fm, s) if t != s
    })


@PROPERTY
@given(seed=SEEDS, n=ORACLE_SIZES, p_controlled=st.sampled_from([0.5, 1.0]))
def test_md_policy_oracle_matches_dict_reference(seed, n, p_controlled):
    # Bit for bit: the float.hex values and the witness, in all four modes.
    fm = random_finite_mdp(seed, n_states=n, p_controlled=p_controlled)
    assert len(fm.controlled_states()) <= 6
    for mode, kwargs in oracle_modes(fm, seed).items():
        got = md_policy_oracle(fm, **kwargs)
        want = reference_oracle(fm, **kwargs)
        assert oracle_fingerprint(got.values, got.policy) == oracle_fingerprint(*want), mode


@PROPERTY
@given(seed=SEEDS, n=ORACLE_SIZES)
def test_solvers_match_md_policy_oracle(seed, n):
    fm = random_finite_mdp(seed, n_states=n)
    win, lose = fm.states[-1], fm.states[-2]
    cost = _random_cost(fm, seed)
    reach, reach_sigma = reach_strategy(fm, {win})
    safety, safety_sigma = safety_strategy(fm, {lose})
    cost_sigma, cost_values = min_expected_cost_md(fm, cost)
    solved = {"reach": reach, "safety": safety, "cost": cost_values}
    oracle = {
        "reach": md_policy_oracle(fm, Objective.reach({win})).values,
        "safety": md_policy_oracle(fm, Objective.safety({lose})).values,
        "cost": md_policy_oracle(fm, cost=cost).values,
    }
    attained = {
        "reach": evaluate_md_reach(fm, reach_sigma, {win}),
        "safety": evaluate_md_safety(fm, safety_sigma, {lose}),
        "cost": evaluate_md_cost(fm, cost_sigma, cost),
    }
    for name, values in solved.items():
        for s in fm.states:
            assert _close(values[s], oracle[name][s]), (name, s)
            got = attained[name][s]
            assert got == values[s] or abs(got - values[s]) <= 1e-9, (name, s)


def _tables(fm):
    """The kinds and successor answers of every state of ``fm``."""
    return ({s: fm.kind_of(s) for s in fm.states}, {s: fm.successors_of(s) for s in fm.states})


# Reference builders: each derived MDP as the table form the FiniteMdp
# constructor compiles, written the way the dict-based code built it.


def _ref_absorb(fm, states):
    kinds, transitions = _tables(fm)
    for s in set(states):
        kinds[s] = StateKind.RANDOM
        transitions[s] = Distribution([(s, 1.0)])
    return core.FiniteMdp(fm.states, kinds, transitions, [], frontier=fm.frontier, check=False)


def _ref_fix_choices(fm, fixed):
    kinds, transitions = _tables(fm)
    transitions.update({s: [t] for s, t in fixed.items()})
    return core.FiniteMdp(fm.states, kinds, transitions, [], frontier=fm.frontier, check=False)


def _ref_restrict(fm, inside, sink):
    kinds, transitions, used_sink = {}, {}, False
    for s in sorted(inside):
        kinds[s] = fm.kind_of(s)
        succ = fm.successors_of(s)
        if isinstance(succ, Distribution):
            kept = [(t, p) for t, p in succ if t in inside]
            out_mass = sum(p for t, p in succ if t not in inside)
            if out_mass > 0.0:
                kept.append((sink, out_mass))
                used_sink = True
            transitions[s] = Distribution(kept, check=False)
        else:
            kept = [t for t in succ if t in inside]
            if len(kept) < len(succ):
                kept.append(sink)
                used_sink = True
            transitions[s] = kept
    if not used_sink:
        return core.FiniteMdp(sorted(inside), kinds, transitions, check=False)
    kinds[sink] = StateKind.RANDOM
    transitions[sink] = Distribution([(sink, 1.0)])
    return core.FiniteMdp(sorted(inside) + [sink], kinds, transitions, [{sink}], frontier=sink,
                          check=False)


def _ref_entry_copy(fm, entry, s):
    kinds, transitions = _tables(fm)
    return core.FiniteMdp(fm.states + [entry], {**kinds, entry: kinds[s]},
                          {**transitions, entry: transitions[s]}, frontier=fm.frontier,
                          check=False)


def _assert_same_mdp(got, want):
    def rows(fm):
        return fm.controlled, fm.indptr, fm.succ, [None if math.isnan(p) else p for p in fm.prob]

    assert rows(got) == rows(want)
    assert got.to_json() == want.to_json()
    assert got.frontier == want.frontier
    for s in want.states:
        assert got.kind_of(s) is want.kind_of(s)
        a, b = got.successors_of(s), want.successors_of(s)
        assert type(a) is type(b)
        assert (a.support == b.support) if isinstance(b, Distribution) else a == b


@PROPERTY
@given(seed=SEEDS, n=SIZES, source=st.sampled_from(["random", "gambler", "ladder"]))
def test_row_edits_match_the_table_form(seed, n, source):
    # The derived MDPs are edits of copied rows; each must equal the same
    # MDP compiled from the table form by the reference builders above.
    if source == "random":
        fm = random_finite_mdp(seed, n_states=n)
    elif source == "gambler":
        fm = core.truncate(gamblers_ruin(0.6)[0], {StateId(seed % 5, f"w_{seed % 5}")}, n)
    else:
        fm = core.truncate(no_optimal_ladder()[0], {ladder_state("ell", seed % 3)}, n)
    rng = random.Random(seed)
    states = fm.states
    some = rng.sample(states, rng.randint(1, len(states)))
    _assert_same_mdp(core._absorb(fm, some), _ref_absorb(fm, some))

    fixed = {s: rng.choice(successor_states(fm, s))
             for s in fm.controlled_states() if rng.random() < 0.6}
    _assert_same_mdp(fix_choices(fm, fixed), _ref_fix_choices(fm, fixed))

    sink = core.mint("exit", max(s.ordinal for s in states) + 1)
    inside = set(rng.sample(states, rng.randint(1, len(states))))
    rewards = set(rng.sample(sorted(inside), rng.randint(0, len(inside))))
    _assert_same_mdp(core._absorb(core._restrict(fm, inside, sink), rewards),
                     _ref_absorb(_ref_restrict(fm, inside, sink), rewards))

    s = rng.choice(states)
    entry = core.mint("entry", sink.ordinal)
    _assert_same_mdp(core._extended(fm, entry, s), _ref_entry_copy(fm, entry, s))


@PROPERTY
@given(seed=SEEDS, n=SIZES, radius=st.integers(min_value=0, max_value=3))
def test_unabsorbed_boundaries_match_the_absorb_route(seed, n, radius):
    # return_probability and safety_strategy solve with boundary rows left
    # as they are; making the boundary absorbing first must give the same
    # values and MD choices, bit for bit.
    fm = random_finite_mdp(seed, n_states=n)
    rng = random.Random(seed)
    avoid = frozenset(rng.sample(fm.states, rng.randint(1, n - 1)))
    values, sigma = safety_strategy(fm, avoid)
    reach_min, old_sigma = solvers.optimal_boundary_value(
        core._absorb(fm, avoid), {t: 1.0 for t in avoid}, False
    )
    assert values.values == {s: 1.0 - reach_min[s] for s in fm.states}
    assert sigma.choice == old_sigma.choice

    s = rng.choice(fm.states)
    trunc = core.truncate(fm, {s}, radius)
    entry = core.mint("entry", max(q.ordinal for q in trunc.states) + 1)
    kinds, transitions = _tables(trunc)
    split = core._absorb(core.FiniteMdp(
        trunc.states + [entry], {**kinds, entry: kinds[s]},
        {**transitions, entry: transitions[s]}, check=False,
    ), {s})
    old, old_sigma = solvers.optimal_boundary_value(split, {s: 1.0}, True)
    new, sigma = solvers.optimal_boundary_value(core._extended(trunc, entry, s), {s: 1.0}, True)
    assert new == old and sigma.choice == old_sigma.choice
    lower = old[entry]
    upper = solvers._ring_estimate(trunc, [old[q] for q in trunc.states], lower,
                                   {trunc.index[s]})
    analysis = return_probability(fm, s, [radius])
    assert (analysis.re.lower, analysis.re.upper) == (min(lower, upper), max(lower, upper))


def _reference_solve_chain(chain, solve):
    # The dict-of-tuples assembly the solvers used before they read the
    # compressed rows directly: chain[i] lists (successor, probability,
    # reward) per state.
    m = len(solve)
    pos = {i: k for k, i in enumerate(solve)}
    rows, cols, vals = list(range(m)), list(range(m)), [1.0] * m
    b = [0.0] * m
    for k, i in enumerate(solve):
        for t, p, r in chain[i]:
            b[k] += p * r
            j = pos.get(t)
            if j is not None:
                rows.append(k)
                cols.append(j)
                vals.append(-p)
    return solvers._linsolve(m, rows, cols, vals, b)


def _preds(succ):
    # The predecessor lists of a successor mapping, for core._backward_reach.
    preds = {}
    for s, targets in succ.items():
        for t in targets:
            preds.setdefault(t, []).append(s)
    return preds


def _reference_absorption(fm, pick, fixed):
    indptr, succ, prob, controlled = fm.indptr, fm.succ, fm.prob, fm.controlled
    n = len(fm.states)
    chain = {}
    for i in range(n):
        if i in fixed:
            continue
        if controlled[i]:
            t = pick[i]
            chain[i] = [(t, 1.0, fixed.get(t, 0.0))]
        else:
            chain[i] = [
                (succ[k], prob[k], fixed.get(succ[k], 0.0))
                for k in range(indptr[i], indptr[i + 1])
            ]
    reach = core._backward_reach(
        fixed, preds=(_preds({i: [t for t, p, _ in out if p > 0.0] for i, out in chain.items()}),)
    )
    x = [0.0] * n
    for i, v in fixed.items():
        x[i] = v
    solve = [i for i in chain if i in reach]
    if solve:
        top = max(fixed.values(), default=1.0)
        for i, v in zip(solve, _reference_solve_chain(chain, solve)):
            x[i] = float(min(max(v, 0.0), top))
    return x


def _reference_evaluate_md(fm, sigma, boundary):
    pick = {
        i: fm.index.get(sigma.successor(fm, s))
        for i, s in enumerate(fm.states) if fm.controlled[i]
    }
    fixed = {fm.index[s]: v for s, v in boundary.items() if s in fm.index}
    values = dict(zip(fm.states, _reference_absorption(fm, pick, fixed)))
    values.update(boundary)
    return values


def _reference_cost(fm, sigma, cost):
    states, indptr, succ = fm.states, fm.indptr, fm.succ
    chain = {}
    free_edge = [False] * len(succ)
    for i, s in enumerate(states):
        lo, hi = indptr[i], indptr[i + 1]
        if fm.controlled[i]:
            t = sigma.successor(fm, s)
            j, c = fm.index.get(t), cost.of(s, t)
            chain[i] = [(j, 1.0, c)]
            for k in range(lo, hi):
                free_edge[k] = succ[k] == j and c == 0.0
        else:
            out = [(t, p, cost.of(s, states[t]))
                   for t, p in zip(succ[lo:hi], fm.prob[lo:hi])]
            free_edge[lo:hi] = [c == 0.0 for _, _, c in out]
            chain[i] = [edge for edge in out if edge[1] > 0.0]
    targets = _preds({i: [t for t, _, _ in out] for i, out in chain.items()})
    free = core._stay_region(fm, range(len(states)), free_edge)
    reach_free = core._backward_reach(free, preds=(targets,))
    infinite = core._backward_reach([i for i in chain if i not in reach_free], preds=(targets,))
    values = [math.inf if i in infinite else 0.0 for i in range(len(states))]
    solve = [i for i in chain if i not in infinite and i not in free]
    if solve:
        for i, v in zip(solve, _reference_solve_chain(chain, solve)):
            values[i] = float(max(v, 0.0))
    return dict(zip(states, values))


@PROPERTY
@given(seed=SEEDS, n=SIZES)
def test_csr_assembly_matches_the_dict_of_tuples_reference(seed, n):
    # Policy evaluation assembles its system straight from the compressed
    # rows; on the dense path the values must equal the old dict-of-tuples
    # assembly bit for bit.  Among the random picks, one lies outside its
    # row and one outside the state space (index None).
    fm = random_finite_mdp(seed, n_states=n, p_controlled=0.7)
    assert len(fm.states) < solvers.SPARSE_MIN_ROWS
    rng = random.Random(seed)
    pick = {i: rng.choice(fm.row(i)) for i in range(n) if fm.controlled[i]}
    odd = rng.sample(sorted(pick), min(2, len(pick)))
    if odd:
        outside = [t for t in range(n) if t not in fm.row(odd[0])]
        if outside:
            pick[odd[0]] = rng.choice(outside)
        pick[odd[-1]] = None
    stranger = StateId(10 * n, "outside")
    sigma = core.MdStrategy({
        fm.states[i]: stranger if t is None else fm.states[t] for i, t in pick.items()
    })

    # Values that do not sum exactly, so that a change of summation order
    # shows in the last bits.
    boundary = {s: rng.random() for s in rng.sample(fm.states, rng.randint(1, n - 1))}
    fixed = {fm.index[s]: v for s, v in boundary.items()}
    policy = {i: (t, 0.0) for i, t in pick.items() if i not in fixed}
    assert solvers._absorption(fm, policy, fixed) == _reference_absorption(fm, pick, fixed)

    cost = _random_cost(fm, seed)
    assert evaluate_md_cost(fm, sigma, cost) == _reference_cost(fm, sigma, cost)

    # The old safety route evaluated an absorbing copy of the MDP.
    avoid = frozenset(boundary)
    reach = _reference_evaluate_md(core._absorb(fm, avoid), sigma, {t: 1.0 for t in avoid})
    assert evaluate_md_safety(fm, sigma, avoid) == {s: 1.0 - reach[s] for s in fm.states}


@PROPERTY
@given(seed=SEEDS, n=SIZES)
def test_howard_result_does_not_depend_on_the_start_policy(seed, n):
    # Each problem is solved from its own start (the choices of the boundary
    # values alone, or for cost the attractor policy) and from the
    # smallest-ordinal start; for cost that start takes the smallest ordinal
    # among the successors of lower attractor rank, so that it stays proper.
    fm = random_finite_mdp(seed, n_states=n)
    ordinal = [s.ordinal for s in fm.states]
    win, lose = fm.index[fm.states[-1]], fm.index[fm.states[-2]]
    options, start, evaluate, free, rank = solvers._cost_problem(fm, _random_cost(fm, seed))
    problems = [
        (solvers._boundary_problem(fm, {win: 1.0}, True), {win: 1.0}, True, None),
        (solvers._boundary_problem(fm, {lose: 1.0}, False), {lose: 1.0}, False, None),
        ((options, start, evaluate), free, False, rank),
    ]
    for (options, start, evaluate), seeds, maximize, rank in problems:
        first = {
            i: min(
                (e for e in options[i] if rank is None or rank.get(e[0], math.inf) < rank[i]),
                key=lambda e: ordinal[e[0]],
            )
            for i in start
        }
        x, sigma = solvers._howard(fm, options, dict(start), evaluate, seeds, maximize)
        y, other = solvers._howard(fm, options, first, evaluate, seeds, maximize)
        assert sigma.choice == other.choice
        for u, v in zip(x, y):
            assert u == v or abs(u - v) <= 1e-14


@PROPERTY
@given(seed=SEEDS, n=SIZES, epsilon=st.sampled_from([0.5, 0.1, 0.05, 1e-3]))
def test_plastering_attains_value_minus_epsilon(seed, n, epsilon):
    fm = random_finite_mdp(seed, n_states=n)
    phi = win_objective(fm)
    values = reach_value(fm, phi.states)
    sigma, state = plastering_uniformize(fm, phi, epsilon)
    attained = evaluate_md_reach(fm, sigma, phi.states)
    assert len(state.rounds) == n
    for s in fm.states:
        assert attained[s] >= values[s] - epsilon - 1e-9


def _branch(j):
    return StateId(3 * j, f"b_{j}")


@PROPERTY
@given(
    fan=st.sampled_from([safety_fan, transience_fan, geometric_fan]),
    head=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=5),
    ratio=st.floats(min_value=0.05, max_value=0.95),
    n=st.integers(min_value=1, max_value=40),
)
def test_adjusted_probabilities_reproduce_fan_weights(fan, head, ratio, n):
    # A random root over the fan's branches b_j: its weights break the stick
    # at the fractions ``head``, then geometrically with ``ratio``.  The
    # reduction's z-chain leaves at level i with p_i', so reaching and
    # leaving there has probability p_i' prod_{j<i} (1 - p_j') = p_i.
    base, _ = fan()
    root = StateId(-1, "root")  # no fan has a state below ordinal 0

    def fraction(j):
        return head[j - 1] if j <= len(head) else 1.0 - ratio

    def weighted():
        rest = 1.0
        for j in itertools.count(1):
            yield _branch(j), rest * fraction(j)
            rest *= 1.0 - fraction(j)

    mdp = LazyMdp(
        lambda s: StateKind.RANDOM if s == root else base.kind_of(s),
        lambda s: InfiniteSuccessors(weighted, random=True) if s == root else base.successors_of(s),
    )
    maps = transforms.reduce_to_finitely_branching(mdp)
    adjusted = maps.adjusted_probs(root, n)
    weights = [p for _, p in itertools.islice(weighted(), n)]
    reached = 1.0
    (z, _), = maps.reduced.successors_of(maps.embed(root))
    for q, p, j in zip(adjusted, weights, itertools.count(1)):
        assert 0.0 <= q <= 1.0
        assert abs(reached * q - p) <= 1e-11
        step = dict(maps.reduced.successors_of(z))
        assert step.get(maps.embed(_branch(j)), 0.0) == q
        reached *= 1.0 - q
        if reached == 0.0:
            break
        z = next(t for t in step if t != maps.embed(_branch(j)))


# Scenario fields: absent, well-formed, or ill-typed JSON.
ABSENT = object()
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.5, math.inf, math.nan]), st.text(max_size=3),
    st.lists(st.integers(min_value=-1, max_value=3), max_size=2), st.just({}),
)


def _maybe(values):
    return st.one_of(st.just(ABSENT), values, JUNK)


SCENARIO_MDPS = st.one_of(
    st.builds(lambda p: {"gadget": "gamblers_ruin", "params": {"p": p}},
              st.one_of(st.sampled_from([0.3, 0.7]), JUNK)),
    st.just({"gadget": "acyclic_chain"}),
    st.builds(lambda name, params: {"gadget": name, "params": params}, JUNK, JUNK),
    st.builds(lambda path: {"file": path}, JUNK),
)
SCENARIO_OBJECTIVES = st.one_of(
    st.builds(lambda kind, states: {"type": kind, "states": states},
              st.sampled_from(["reach", "safety", "buechi", "transience", "nope"]),
              st.one_of(st.lists(st.one_of(st.integers(min_value=0, max_value=40), JUNK),
                                 max_size=3), JUNK)),
    st.builds(lambda prefix: {"type": "reach", "label_prefix": prefix},
              st.one_of(st.just("w_1"), JUNK)),
)


@PROPERTY
@given(
    kind=st.sampled_from(["simulate", "solve"]),
    mdp=_maybe(SCENARIO_MDPS),
    state=_maybe(st.integers(min_value=0, max_value=40)),
    objective=_maybe(SCENARIO_OBJECTIVES),
    radii=_maybe(st.lists(st.one_of(st.integers(min_value=0, max_value=12), JUNK), max_size=3)),
    runs=_maybe(st.integers(min_value=-1, max_value=30)),
    horizon=_maybe(st.integers(min_value=-1, max_value=60)),
)
def test_cli_run_never_raises_an_untyped_exception(kind, mdp, state, objective, radii, runs,
                                                   horizon):
    fields = {"state": state, "objective": objective, "radii": radii, "runs": runs,
              "horizon": horizon}
    task = {"kind": kind, **{k: v for k, v in fields.items() if v is not ABSENT}}
    doc = {"seed": 1, "task": task}
    if mdp is not ABSENT:
        doc["mdp"] = mdp
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        scenario = Path(out) / "scenario.json"
        scenario.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main(["--out-dir", out, "run", str(scenario)])
    assert code == 0 or (code == 1 and err.getvalue().startswith("scenario error: ")), (
        code, err.getvalue())


@st.composite
def _vector_cases(draw):
    horizon = draw(st.integers(min_value=2, max_value=150))
    proxy = draw(st.one_of(
        st.builds(RevisitCap, st.one_of(
            st.sampled_from([0, 1, 2, 254, 255]),
            st.integers(min_value=horizon + 1, max_value=horizon + 300))),
        st.builds(FreshTail, st.integers(min_value=1, max_value=horizon - 1)),
    ))
    return horizon, proxy


@PROPERTY
@given(
    p=st.floats(min_value=0.05, max_value=0.95),
    case=_vector_cases(),
    runs=st.integers(min_value=1, max_value=200),
    start=st.integers(min_value=10**6 - 500, max_value=10**6 + 500),
    seed=SEEDS,
)
def test_ordinal_major_vector_engine_matches_the_run_major_reference(p, case, runs, start,
                                                                      seed):
    # From ordinal ~10^6 a batch holds 63 or 64 runs, so runs retire while the
    # rest of their batch steps on; a cell whose stride ignored the batch
    # width would land on another (ordinal, run).
    horizon, proxy = case
    chain, s0 = gamblers_ruin(p)[0].vector_chain(), StateId(start)
    want = _reference_vector_hits(chain.step, chain.ordinal_bound, s0, horizon, runs, proxy,
                                  seed)
    assert _vector_estimate(chain, s0, horizon, runs, proxy, seed) == want


def _product_edges(fm, kind, seed):
    """The strategy of ``kind`` ("none", "md" or "one-bit", drawn from
    ``seed``) and the edges ``(probability, mode, state)`` of each product
    node ``(mode, state)`` of the chain it induces on ``fm``, read off the
    oracles without the stepper."""
    rng = random.Random(seed)
    if kind == "none":
        strategy = None
        pick = {}
    elif kind == "md":
        strategy = random_md_strategy(fm, seed)
        pick = {(0, s): (0, t) for s, t in strategy.choice.items()}
    else:
        # The two modes pick different successors and keep their mode, so
        # the mode, which only the random moves update, decides every pick.
        pick = {}
        for s in fm.controlled_states():
            for m, t in enumerate(rng.sample(list(fm.successors_of(s)), 2)):
                pick[(m, s)] = (m, t)
        update = {(m, s, t): rng.randrange(2) for s in fm.states
                  if fm.kind_of(s) is StateKind.RANDOM for m in (0, 1)
                  for t in fm.successors_of(s).states()}
        strategy = OneBitStrategy(rng.randrange(2), lambda m, s: pick[(m, s)],
                                  lambda m, s, t: update[(m, s, t)])
    edges = {}
    for s in fm.states:
        for m in ((0,) if kind != "one-bit" else (0, 1)):
            if fm.kind_of(s) is StateKind.CONTROLLED:
                m2, t = pick[(m, s)]
                edges[(m, s)] = [(1.0, m2, t)]
            else:
                edges[(m, s)] = [(q, m if kind != "one-bit" else update[(m, s, t)], t)
                                 for t, q in fm.successors_of(s)]
    start = 0 if kind != "one-bit" else strategy.initial_mode
    return strategy, edges, start


def _exact_verdicts(edges, start, s0, horizon, cap, goal, tail):
    """Exact P(no state passes ``cap`` visits within ``horizon`` steps), and
    P(that, and a ``goal`` state at a position from ``tail`` on): the law of
    (node, visit counts, goal seen) is pushed forward one step at a time."""
    law = {((start, s0), ((s0, 1),), tail == 0 and s0 in goal): 1.0}
    for step in range(1, horizon + 1):
        nxt = {}
        for (node, counts, seen), w in law.items():
            for q, m, t in edges[node]:
                c = dict(counts)
                c[t] = c.get(t, 0) + 1
                if c[t] > cap:
                    continue  # the proxy has decided against the run
                key = ((m, t), tuple(sorted(c.items())), seen or (step >= tail and t in goal))
                nxt[key] = nxt.get(key, 0.0) + w * q
        law = nxt
    return sum(law.values()), sum(w for (_, _, seen), w in law.items() if seen)


def _expected_visits(edges, start, s0, horizon, target):
    """Exact expected visits to ``target`` within ``horizon`` steps, by
    pushing the product chain's law forward."""
    law, visits = {(start, s0): 1.0}, float(s0 == target)
    for _ in range(horizon):
        nxt = {}
        for node, w in law.items():
            for q, m, t in edges[node]:
                nxt[(m, t)] = nxt.get((m, t), 0.0) + w * q
        law = nxt
        visits += sum(w for (_, t), w in law.items() if t == target)
    return visits


def _binomial_tails(hits, runs, p):
    """P(Bin(runs, p) <= hits) and P(Bin(runs, p) >= hits), exactly."""
    pmf = [math.comb(runs, k) * p**k * (1.0 - p) ** (runs - k) for k in range(runs + 1)]
    return sum(pmf[:hits + 1]), sum(pmf[hits:])


@st.composite
def _small_chains(draw):
    """A strategy kind and a finite MDP of 3 to 6 states with cycles, whose
    states draw 1 to 3 successors among all states; a state with a choice may
    be controlled when the kind has picks."""
    kind = draw(st.sampled_from(["none", "md", "one-bit"]))
    states = [StateId(i, f"q_{i}") for i in range(draw(st.integers(min_value=3, max_value=6)))]
    kinds, transitions = {}, {}
    for s in states:
        succ = draw(st.lists(st.sampled_from(states), min_size=1, max_size=3, unique=True))
        if kind != "none" and len(succ) > 1 and draw(st.booleans()):
            kinds[s], transitions[s] = StateKind.CONTROLLED, succ
        else:
            w = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=len(succ),
                              max_size=len(succ)))
            kinds[s] = StateKind.RANDOM
            transitions[s] = Distribution([(t, x / sum(w)) for t, x in zip(succ, w)])
    return kind, core.FiniteMdp(states, kinds, transitions)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    case=_small_chains(),
    horizon=st.integers(min_value=4, max_value=8),
    cap=st.integers(min_value=2, max_value=4),
    window=st.integers(min_value=1, max_value=4),
)
def test_row_engine_frequencies_match_the_exact_product_chain(seed, case, horizon, cap, window):
    # The verdicts of the row engine are Binomial(runs, p) for the exact p of
    # the induced (mode, state) chain; a wrong row, pick, mode update or
    # visit key moves p far outside the 1e-7 tails at 400 runs.
    kind, fm = case
    strategy, edges, start = _product_edges(fm, kind, seed)
    s0, runs = fm.states[0], 400
    goal = set(fm.states[1::2])
    tail = max(0, horizon - window)
    alive, buchi = _exact_verdicts(edges, start, s0, horizon, cap, goal, tail)
    est, _ = estimate_transience(fm, s0, strategy, horizon, runs, RevisitCap(cap), seed)
    both, _ = estimate_buchi_transience(fm, s0, strategy, goal, horizon, runs, RevisitCap(cap),
                                        window, seed)
    for freq, p in ((est, alive), (both, buchi)):
        low, high = _binomial_tails(round(freq * runs), runs, min(max(p, 0.0), 1.0))
        assert low > 1e-7 and high > 1e-7, (freq, p)
    target = fm.states[-1]
    mean, _ = mean_visits(fm, s0, target, strategy, horizon, runs, seed)
    want = _expected_visits(edges, start, s0, horizon, target)
    # Hoeffding: visits lie in [0, horizon + 1]; 1e-7 two-sided.
    assert abs(mean - want) <= (horizon + 1) * math.sqrt(math.log(2e7) / (2 * runs)), (mean, want)
