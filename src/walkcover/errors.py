"""Exception types shared across the package."""


class WalkcoverError(Exception):
    """Base class for all walkcover errors."""


class NonPositiveLength(WalkcoverError):
    """An edge length is zero, negative, or not finite."""


class DisconnectedNetwork(WalkcoverError):
    """The edge list does not connect all vertices."""


class VertexOutOfRange(WalkcoverError):
    """A vertex id is outside the network's dense 0..n-1 range."""


class SameVertex(WalkcoverError):
    """An operation requiring two distinct vertices got x == y."""


class InvalidSplit(WalkcoverError):
    """An edge partition does not meet the two-terminal split conditions."""


class MissingArcCost(WalkcoverError):
    """A cost function is undefined (or invalid) on some arc."""


class EdgeNotIncident(WalkcoverError):
    """The named edge is not incident to the named vertex."""


class StepBudgetExceeded(WalkcoverError):
    """A simulated walk exceeded its hard step cap before stopping."""


class EmptyInput(WalkcoverError):
    """An aggregate operation received no records."""


class InvalidDepth(WalkcoverError):
    """A tree generator got a depth below 1."""


class TooSmall(WalkcoverError):
    """A generator parameter is below its minimum size."""


class InfeasibleParameters(WalkcoverError):
    """Generator parameters cannot produce a valid network."""


class NetworkFormatError(WalkcoverError):
    """A network text file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StateSpaceTooLarge(WalkcoverError):
    """An exact solve would need more states than the configured cap."""


class ExactSolveFailed(WalkcoverError):
    """An exact block solve was singular or missed its residual bound."""


class UnsamplableArc(WalkcoverError):
    """An arc's step probability is lost to floating-point rounding against
    the other lengths at its tail, so no uniform draw can take it."""
