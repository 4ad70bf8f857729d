"""Exception taxonomy shared by all modules, and the strict JSON array checks."""


class LparamsError(Exception):
    """Base class for all library errors."""


class InputError(LparamsError):
    """Malformed textual or structured input (CLI exit code 2)."""


class InvalidCartan(LparamsError):
    """Pairing matrix of a candidate datum is not finite type."""


class RankMismatch(LparamsError):
    """Explicit root/coroot input with inconsistent shapes."""


class NotBasedAut(LparamsError):
    """Matrix does not permute the simple roots of the datum."""


class DatumMismatch(LparamsError):
    """Operands built over different root data."""


class ContextMismatch(LparamsError):
    """Operands built over different torus or L-group contexts."""


class InvalidParam(LparamsError):
    """Structurally broken parameter data."""


class ValidityC(InvalidParam):
    """w * theta0(w) != e, so int(phi(j)) is not an involution."""


class ValidityIntegrality(InvalidParam):
    """lambda - theta(lambda) is not an integer vector."""


class ValidityE(InvalidParam):
    """phi(j)^2 != phi(-1) in the torus."""


class NotInvolution(LparamsError):
    """An automorphism required to square to the identity does not."""


class PreconditionViolated(LparamsError):
    """Documented operation precondition does not hold."""


class InvariantViolated(LparamsError):
    """An internal mathematical invariant failed (CLI exit code 1).

    Raised instead of an assert, so the check survives python -O.
    """


class NormalizationRequired(LparamsError):
    """Parameter is not in the position the operation needs.

    Carries a witness root when raised by levi_of.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DimensionMismatch(LparamsError):
    """Vectors or representations of incompatible sizes."""


def json_array(value, types) -> list:
    """value itself, if it is a list of entries of the given types (bool excluded).

    Raises TypeError otherwise, so that a document reader can report the
    whole document as bad input: a bare string, a bool or a float is refused,
    never coerced.
    """
    if not isinstance(value, list) or any(
            isinstance(x, bool) or not isinstance(x, types) for x in value):
        raise TypeError(f"not an array of {types}: {value!r}")
    return value


def json_matrix(value) -> list:
    """value itself, if it is a list of json_array rows of integers; TypeError otherwise."""
    for row in json_array(value, list):
        json_array(row, int)
    return value
