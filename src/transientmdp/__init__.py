"""Transience objectives in countable MDPs: models, gadgets, transformations,
solvers, strategy synthesis, and a brute-force verification harness.

``transientmdp.simulate`` names the re-exported function ``simulate``, not the
submodule of the same name: ``import transientmdp.simulate as m`` and
``mock.patch("transientmdp.simulate....")`` reach the function.  Code that
reads or patches the module takes it from
``importlib.import_module("transientmdp.simulate")``.
"""

from .core import (
    Distribution,
    FiniteMdp,
    GeneralStrategy,
    InfiniteSuccessors,
    LazyMdp,
    MdStrategy,
    Mdp,
    Objective,
    OneBitStrategy,
    StateId,
    StateKind,
    bubble,
    truncate,
)
from .simulate import (
    FreshTail,
    RevisitCap,
    RunStats,
    derive_seed,
    estimate_transience,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "Distribution",
    "FiniteMdp",
    "FreshTail",
    "GeneralStrategy",
    "InfiniteSuccessors",
    "LazyMdp",
    "MdStrategy",
    "Mdp",
    "Objective",
    "OneBitStrategy",
    "RevisitCap",
    "RunStats",
    "StateId",
    "StateKind",
    "bubble",
    "derive_seed",
    "estimate_transience",
    "simulate",
    "truncate",
]
