"""Bad input raises a typed error: a ``TransientMdpError``, never a bare
``ValueError`` or ``TypeError``."""
import ast
from pathlib import Path

import pytest

from transientmdp import Objective, StateId
from transientmdp.core import InfiniteSuccessors, bubble, truncate
from transientmdp.errors import TransientMdpError
from transientmdp.gadgets import gamblers_ruin, ladder_state
from transientmdp.solvers import reach_value
from transientmdp.transforms import INFINITE_CHAIN, conditioned
from transientmdp.verify import random_finite_mdp

SRC = Path(__file__).resolve().parent.parent / "src" / "transientmdp"
_WALK, _ = gamblers_ruin(0.7)
_W0 = StateId(0, "w_0")


def _conditioned_chain(bottom):
    fm = random_finite_mdp(4, n_states=8)
    win = fm.states[-1]
    return conditioned(fm, Objective.reach({win}), reach_value(fm, {win}), bottom=bottom)


@pytest.mark.parametrize("call", [
    lambda: list(InfiniteSuccessors(lambda: iter([]), random=False).iter_weighted()),
    lambda: bubble(_WALK, [], 2),
    lambda: truncate(_WALK, [_W0], 2, "hopeful"),
    lambda: _conditioned_chain(INFINITE_CHAIN).to_json(),
    lambda: _conditioned_chain("trapdoor"),
    lambda: random_finite_mdp(0, n_states=0),
    lambda: ladder_state("rung", 0),
], ids=["controlled-weights", "empty-bubble", "frontier-tag", "chain-bottom-json",
        "bottom-variant", "no-states", "ladder-family"])
def test_bad_input_raises_typed_error(call):
    with pytest.raises(TransientMdpError):
        call()


def _untyped_raises(tree: ast.AST) -> list[int]:
    """The lines that raise a bare ValueError or TypeError."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                lines.append(node.lineno)
    return sorted(lines)


def test_guard_sees_untyped_raises():
    tree = ast.parse("def f(x):\n    if x:\n        raise ValueError(x)\n    raise TypeError\n")
    assert _untyped_raises(tree) == [3, 4]


def test_package_raises_no_untyped_error():
    found = {path.name: _untyped_raises(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert found and not {name: lines for name, lines in found.items() if lines}
