"""Shared exception types.

Every error raised by the library is a subclass of PrismalabError so the
CLI can map failures onto its exit-code contract (0 pass, 1 mathematical
failure, 2 input/precision error; any other exception is a defect, exit 3).
"""


class PrismalabError(Exception):
    """Base class for all library errors."""


class InputError(PrismalabError):
    """Malformed input or insufficient precision (CLI exit code 2)."""


class MathFailure(PrismalabError):
    """A mathematical assertion failed on well-formed input (exit code 1)."""


# --- input / construction errors ------------------------------------------

class NonSeparable(InputError):
    """The residue polynomial has repeated roots mod p."""


class NotAUnit(InputError):
    """Attempt to invert an element that is zero mod p."""


class PrecisionLoss(InputError):
    """Exact polynomial arithmetic would overflow the u-precision bound."""


class NotEisenstein(InputError):
    """Candidate polynomial violates the Eisenstein conditions."""


class NotDivisible(InputError):
    """Exact division has a nonzero remainder."""


class InsufficientPrecision(InputError):
    """Not enough p-adic digits to perform an exact division."""


class NotInFiltration(InputError):
    """Element is not in the requested filtration level."""


class PrecisionTooLow(InputError):
    """A torsion query was attempted without a certified kill exponent
    strictly below the working precision."""


class Inconsistent(MathFailure):
    """Linear system has no solution."""


class IllFormedPhi(InputError):
    """Frobenius matrix does not preserve the relation module."""


class NotKilledByP(InputError):
    """Operation requires a module killed by p."""


class BadRamification(InputError):
    """Ramification index incompatible with the requested construction."""


class BoundTooSmall(MathFailure):
    """Fixed-point dimension not attained within the extension bound."""


class BoundaryContamination(InputError):
    """Kernel solutions touch the truncation boundary band; the degree
    bound must be raised."""


class Unstable(MathFailure):
    """A truncated quantity changed under a larger truncation."""


class ParseError(InputError):
    """Input document could not be parsed; carries line information."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownCheck(InputError):
    """Requested check name is not registered."""
