"""Exception hierarchy shared by all roofcast modules.

The CLI maps these onto exit codes: ValidationError (and subclasses)
exit 2, I/O errors exit 1, InternalInvariantError exit 3.
"""


class RoofcastError(Exception):
    """Base class for all roofcast errors."""


class ValidationError(RoofcastError, ValueError):
    """Input violates a documented contract (bad value, bad range)."""


class SchemaError(ValidationError):
    """A structured input is missing required fields or carries unknown ones."""


class ParseError(ValidationError):
    """A counter file row could not be parsed; message names row and column."""


class DegenerateProfileError(ValidationError):
    """Profile has zero bytes at a memory level; arithmetic intensity undefined."""


class ConfigError(ValidationError):
    """Hardware spec or partition catalog is malformed or empty."""


class InternalInvariantError(RoofcastError):
    """A model invariant that should be unreachable was violated."""


def coerce(value, cast: type[int] | type[float], field: str):
    """value as a float or an int, or a SchemaError that names the field.

    An int field takes any integral number, so 1e6 is accepted and 2.7 is
    not.
    """
    try:
        if cast is int and not isinstance(value, int):
            number = float(value)
            if not number.is_integer():
                raise ValueError(value)
            return int(number)
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if cast is int else "a number"
        raise SchemaError(f"{field} must be {kind}, got {value!r}") from None
