import json

import pytest

from transientmdp import Distribution, FiniteMdp, Objective, StateId, StateKind
from transientmdp import solvers, verify
from transientmdp.errors import BadParameter, TooLarge
from transientmdp.gadgets import acyclic_chain, gamblers_ruin, safety_fan, safety_fan_avoid
from transientmdp.simulate import derive_seed
from transientmdp.solvers import interval_value, reach_value, return_probability
from transientmdp.synthesis import (
    SafetySchedule,
    buchi_transience_one_bit,
    safety_md_universally_transient,
)
from transientmdp.verify import (
    NO,
    NOT_APPLICABLE,
    YES,
    certify_universal_transience,
    check_conditioned_item1,
    check_conditioned_item3,
    check_conditioning_preserves_transience,
    check_multiplicative,
    check_universal_transience,
    random_finite_mdp,
    random_md_strategy,
    random_transient_core_mdp,
    run_suite,
    win_objective,
)


def test_random_finite_mdp_deterministic():
    a = random_finite_mdp(42, n_states=9)
    b = random_finite_mdp(42, n_states=9)
    assert a.to_json() == b.to_json()
    c = random_finite_mdp(43, n_states=9)
    assert c.to_json() != a.to_json()


def test_random_finite_mdp_single_state():
    fm = random_finite_mdp(1, n_states=1)
    assert len(fm.states) == 1
    (s,) = fm.states
    assert fm.successors_of(s).states() == [s]


def test_random_corpus_passes_invariants():
    for i in range(30):
        fm = random_finite_mdp(derive_seed("inv", i), n_states=10)
        fm.validate()  # unique ordinals and sink closure; the constructor checked the rows
        # connected from state 0
        from transientmdp.core import reachable

        assert len(reachable(fm, {fm.states[0]})) == len(fm.states)


def test_item1_base_case_and_three_state():
    fm = random_finite_mdp(7, n_states=6)
    values = reach_value(fm, win_objective(fm).states)
    sigma = random_md_strategy(fm, 3)
    rep = check_conditioned_item1(fm, values, sigma, max_len=4)
    assert rep.passed and rep.max_violation <= 1e-12


def test_item1_caps():
    fm = random_finite_mdp(8, n_states=14)
    values = reach_value(fm, win_objective(fm).states)
    with pytest.raises(TooLarge):
        check_conditioned_item1(fm, values, random_md_strategy(fm, 0))


def test_item3_random_instances():
    for i in range(10):
        fm = random_finite_mdp(derive_seed("i3", i), n_states=8)
        rep = check_conditioned_item3(fm, seed=i)
        assert rep.passed, rep.line()


def test_multiplicative_zero_value_states_are_vacuous():
    fm = random_finite_mdp(5, n_states=8)
    rep = check_multiplicative(fm, epsilon=0.05)
    assert rep.passed


def test_certify_gambler_threshold():
    for p, want in ((0.7, YES), (0.9, YES), (0.5, NO), (0.3, NO)):
        mdp, _ = gamblers_ruin(p)
        cert = certify_universal_transience(
            mdp, [StateId(0, "w_0"), StateId(1, "w_1")], radii=(50, 200)
        )
        assert cert.verdict == want, (p, cert)


def test_certify_acyclic_chain():
    chain, _ = acyclic_chain()
    cert = certify_universal_transience(chain, [StateId(0, "c_0")], radii=(30,))
    assert cert.verdict == YES
    assert cert.worst_upper == 0.0


def test_check_universal_transience_is_replayable():
    mdp, _ = gamblers_ruin(0.5)
    rep1 = check_universal_transience(
        mdp, [StateId(0, "w_0")], horizon=2000, runs=20, seed=9, expected=YES
    )
    rep2 = check_universal_transience(
        mdp, [StateId(0, "w_0")], horizon=2000, runs=20, seed=9, expected=YES
    )
    assert not rep1.passed  # p=0.5 is not universally transient
    assert rep1.to_json() == rep2.to_json()


def test_preserves_transience_on_transient_core():
    fm = random_transient_core_mdp(11, n_states=10)
    rep = check_conditioning_preserves_transience(fm)
    assert rep.passed
    assert "M*" in rep.note and YES in rep.note


def test_preserves_transience_not_applicable():
    # A controllable cycle outside the sinks: certification says NO.
    a, b, t = StateId(0, "a"), StateId(1, "b"), StateId(2, "t")
    fm = FiniteMdp(
        [a, b, t],
        {a: StateKind.CONTROLLED, b: StateKind.CONTROLLED, t: StateKind.RANDOM},
        {a: [b, t], b: [a], t: Distribution([(t, 1.0)])},
        [{t}],
    )
    rep = check_conditioning_preserves_transience(fm, Objective.reach({t}))
    assert rep.passed and rep.note == NOT_APPLICABLE


def test_yes_certificates_imply_high_transience_under_random_strategies():
    # Empirical (1) <=> (3) consistency: a YES-certified MDP with controlled
    # states keeps the transience estimate near 1 under random strategies.
    from transientmdp.core import GeneralStrategy
    from transientmdp.gadgets import safety_fan
    from transientmdp.simulate import RevisitCap, estimate_transience
    from transientmdp.synthesis import _uniform_over

    fan, _ = safety_fan()
    sample = [StateId(3, "b_1"), StateId(1, "a_0"), StateId(2, "bot_0")]
    cert = certify_universal_transience(fan, sample, radii=(30,))
    assert cert.verdict == YES
    dists = {}  # one uniform distribution per state, as memoryless as it looks

    def uniform(run):
        here = run[-1]
        if here not in dists:
            dists[here] = _uniform_over(fan.successors_of(here))
        return dists[here]

    reference = GeneralStrategy(uniform)
    for i in range(20):
        est, _ = estimate_transience(
            fan, StateId(0, "fan"), reference, 1000, 40, RevisitCap(10),
            seed=derive_seed("yes", i),
        )
        assert est >= 0.99


def test_suites_pass_and_serialize():
    for suite in ("conditioned", "solvers"):
        reports = run_suite(suite, seed=3)
        assert all(r.passed for r in reports)
        for r in reports:
            doc = json.loads(json.dumps(r.to_json()))
            assert doc["name"] == r.name


def test_check_universal_transience_solves_once_per_sampled_state(monkeypatch):
    solves = []

    def counted(mdp, s, radii):
        solves.append(s)
        return solvers.return_probability(mdp, s, radii)

    monkeypatch.setattr(verify, "return_probability", counted)
    mdp, _ = gamblers_ruin(0.7)
    sample = [StateId(0, "w_0"), StateId(1, "w_1")]
    rep = check_universal_transience(mdp, sample, horizon=200, runs=10, seed=1, expected=YES)
    assert rep.note.startswith(YES)
    assert solves == sample


_WALK, _ = gamblers_ruin(0.7)
_W0 = StateId(0, "w_0")
_FAN, _ = safety_fan()
_ROOT = StateId(0, "fan")


@pytest.mark.parametrize("call", [
    lambda: safety_md_universally_transient(_WALK, Objective.safety({_W0}), 0.1),
    lambda: buchi_transience_one_bit(_WALK, [], lambda s: True, 0.1),
    lambda: interval_value(_WALK, _W0, Objective.transience(), [4]),
    lambda: interval_value(_WALK, _W0, Objective.reach({_W0}), []),
    lambda: return_probability(_WALK, _W0, []),
    lambda: run_suite("nope"),
    # Negative radii and budgets are refused before any search.
    lambda: interval_value(_WALK, _W0, Objective.reach({_W0}), [-1]),
    lambda: return_probability(_WALK, _W0, [-1]),
    lambda: safety_md_universally_transient(
        _FAN, Objective.safety(safety_fan_avoid), 0.1, SafetySchedule(radii=(-3,)), [_ROOT]),
    lambda: safety_md_universally_transient(
        _FAN, Objective.safety(safety_fan_avoid), 0.1, SafetySchedule(branch_budget=-1),
        [_ROOT]),
    lambda: SafetySchedule(synthesis_radius=-1),
], ids=["no-roots", "no-initial", "objective", "interval-radii", "return-radii", "suite",
        "interval-negative-radius", "return-negative-radius", "safety-negative-radius",
        "branch-budget", "synthesis-radius"])
def test_bad_parameters_are_typed(call):
    with pytest.raises(BadParameter):
        call()
