"""Exception hierarchy shared by all modules.

Everything derives from MmsigError so callers (and the CLI) can treat
"bad input or failed validation" uniformly. InvalidInput is every invalid
space, graph, measure, parameter or name, with the witness in its message;
StrictnessViolated is a space that the perturbation cannot take.
Numerical-contract failures get their own branch, NumericalContractError,
on which the CLI exits 1 rather than 2.
"""


class MmsigError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(MmsigError):
    """Malformed or invalid argument; the message names the witness."""


class NumericalContractError(MmsigError):
    """A computation on valid input broke a numerical guarantee."""


class NoConvergence(NumericalContractError):
    """The eigensolver exceeded its iteration cap."""


class StrictnessViolated(MmsigError):
    """Input space does not satisfy the strict triangle inequality."""


class EpsilonUnderflow(NumericalContractError):
    """Perturbation halving reached the underflow floor; degenerate input."""


class MonotonicityViolation(NumericalContractError):
    """Trajectory counts decreased along nested prefixes.

    Signals an eigensolver or tolerance bug, never a mathematical outcome.
    """
