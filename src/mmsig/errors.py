"""Exception hierarchy shared by all modules.

Everything derives from MmsigError so callers (and the CLI) can treat
"bad input or failed validation" uniformly; numerical-contract failures
get their own branch, NumericalContractError, on which the CLI exits 1
rather than 2.
"""


class MmsigError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(MmsigError):
    """Malformed argument: wrong shape, non-finite entries, bad parameter."""


class NumericalContractError(MmsigError):
    """A computation on valid input broke a numerical guarantee."""


class NoConvergence(NumericalContractError):
    """The eigensolver exceeded its iteration cap."""


class InvalidMeasure(MmsigError):
    """Weights are negative, do not sum to one, or do not match the space."""


class AsymmetryError(MmsigError):
    """Distance matrix is not symmetric."""


class NegativeDistance(MmsigError):
    """Distance matrix has a negative entry."""


class NonzeroDiagonal(MmsigError):
    """Distance matrix has a nonzero diagonal entry."""


class ZeroOffDiagonal(MmsigError):
    """Two distinct points at distance zero."""


class TriangleViolation(MmsigError):
    """Triangle inequality fails; carries the witness triple."""

    def __init__(self, triple, message):
        super().__init__(message)
        self.triple = tuple(triple)


class DuplicatePoints(MmsigError):
    """Point list contains coincident points."""


class Disconnected(MmsigError):
    """Graph has no path between the reported vertex pair."""

    def __init__(self, pair, message):
        super().__init__(message)
        self.pair = tuple(pair)


class ConeViolation(MmsigError):
    """A pair of points has a negative squared pseudo-Euclidean interval."""

    def __init__(self, pair, value, message):
        super().__init__(message)
        self.pair = tuple(pair)
        self.value = value


class UnknownName(MmsigError):
    """No named example with that name."""


class BadParams(MmsigError):
    """Named example or model parameters out of range."""


class StrictnessViolated(MmsigError):
    """Input space does not satisfy the strict triangle inequality."""


class EpsilonUnderflow(NumericalContractError):
    """Perturbation halving reached the underflow floor; degenerate input."""


class DiameterTooLarge(MmsigError):
    """A union component has diameter exceeding twice the cross distance."""

    def __init__(self, component, pair, message):
        super().__init__(message)
        self.component = component
        self.pair = tuple(pair)


class MonotonicityViolation(NumericalContractError):
    """Trajectory counts decreased along nested prefixes.

    Signals an eigensolver or tolerance bug, never a mathematical outcome.
    """
