"""Exception types shared across the package."""


class EpsfcError(Exception):
    """Base class for all package errors."""


class PartitionError(EpsfcError):
    """A list of blocks is not a disjoint cover of the agent set."""


class UnboundedLambdaError(EpsfcError):
    """A point-mass ratio bound was requested for a distribution that has none."""


class GuardError(EpsfcError):
    """An exhaustive enumeration would exceed the configured size guard."""


class LearningError(EpsfcError):
    """Base class for learning-phase failures."""


class UnderdeterminedError(LearningError):
    """The sampled equations do not pin down every agent's valuation."""

    def __init__(self, agents):
        self.agents = tuple(agents)
        super().__init__(f"underdetermined agents: {list(self.agents)}")


class InconsistentSampleError(LearningError):
    """The samples contradict the game model they claim to come from.

    ``agent`` is the agent whose observations conflict, when one is known.
    """

    def __init__(self, message, agent=None):
        self.agent = agent
        super().__init__(message)


class EmptyIntervalError(EpsfcError):
    """No coalition size survived interval estimation; more samples are needed."""
