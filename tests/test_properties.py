"""Property tests over seeded random finite MDPs.

Hypothesis draws the generator seeds, derandomized so that every run checks
the same examples.
"""
from contextlib import ExitStack
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from transientmdp import Distribution, StateId
from transientmdp import core, solvers, transforms
from transientmdp.solvers import (
    BoundedRewardSpec,
    bounded_total_reward_md,
    reach_value,
    return_probability,
)
from transientmdp.transforms import INFINITE_CHAIN, conditioned
from transientmdp.verify import random_finite_mdp, win_objective

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
