"""Exception types shared across the package."""


class TransientMdpError(Exception):
    """Base class for all package errors."""


class BadParameter(TransientMdpError, ValueError):
    """A constructor or operation received an out-of-range parameter.  Also
    a ValueError, which such input used to raise."""


class BadModel(TransientMdpError, ValueError):
    """A finite MDP, a distribution, a model file or an oracle answer is
    malformed.  Also a ValueError, which such input used to raise."""


class InfiniteBranching(TransientMdpError):
    """An operation that requires finite branching met an infinite successor family."""


class NotSink(TransientMdpError):
    """A target set was expected to be closed under the transition relation."""


class NotTail(TransientMdpError):
    """The objective is not tail in the given MDP."""


class ZeroValueRoot(TransientMdpError):
    """The requested root state has value 0 and is absent from the conditioned MDP."""


class HitBottom(TransientMdpError):
    """A conditioned-MDP run entered the bottom state, where contraction is undefined."""


class TooLarge(TransientMdpError):
    """An exhaustive operation exceeded its size caps."""


class SingularSystem(TransientMdpError):
    """A linear system of an exact evaluation is singular to working precision."""


class NoFiniteCostPolicy(TransientMdpError):
    """No policy attains finite expected total cost from the designated root."""


class EmptyFrontier(TransientMdpError):
    """A bubble level has an empty goal frontier at the maximal scheduled radius."""


class BudgetExhausted(TransientMdpError):
    """No finite-cost MD policy exists on the truncation within the radius."""


class NotUniversallyTransient(TransientMdpError):
    """A certified return-probability lower bound of 1 was encountered."""


class RadiusExhausted(TransientMdpError):
    """The radius schedule ended before a qualifying successor was certified."""


class ScenarioError(TransientMdpError):
    """A scenario file failed to parse or validate."""


class PolicyIterationStalled(TransientMdpError):
    """Policy iteration revisited a policy: rounding keeps it from settling."""
