"""Exception hierarchy shared by all roofcast modules.

The CLI maps these onto exit codes: ValidationError (and subclasses)
exit 2, I/O errors exit 1, InternalInvariantError exit 3.
"""

import io
from typing import IO


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


def integral(value: object) -> int:
    """value as an int, if it is an integral number that fits a float.

    Raises TypeError, ValueError or OverflowError otherwise, so 1e6 and
    "1e6" are accepted and 2.7, inf, 10**400 and True are not. An int comes
    back exact.
    """
    number = float(value)
    # is_integer is also false for inf and nan; bool cannot be subclassed.
    if value.__class__ is bool or not number.is_integer():
        raise ValueError(value)
    return int(value) if isinstance(value, int) else int(number)


def utf8_text(data: bytes, source: object) -> str:
    """data decoded as UTF-8, or a ValidationError naming source, the file
    it was read from."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{source}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def reason(exc: Exception) -> str:
    """exc's message, less the advice Python appends when an integer is past
    its int-to-text limit: a CLI user cannot call set_int_max_str_digits."""
    return str(exc).removesuffix(
        "; use sys.set_int_max_str_digits() to increase the limit")


def utf8_lines(data: bytes, source: object) -> IO[str]:
    """data as a text stream for csv.reader, or utf8_text's ValidationError.

    All of data is checked first, so the error gives the offset of the bad
    byte in the file. The stream then decodes data a block at a time and
    keeps no copy of the whole text; only "\n" ends a line, as in
    io.StringIO.
    """
    utf8_text(data, source)
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")


def check_schema_version(doc, expected: int, context: str) -> None:
    """A SchemaError unless doc["schema_version"] is `expected`; true is
    not 1."""
    version = doc["schema_version"]
    if version.__class__ is bool or version != expected:
        raise SchemaError(f"{context}: unsupported schema_version {version!r}")


def coerce(value, cast: type[int] | type[float], field: str):
    """value as a float or an int, or a SchemaError that names the field.

    An int field takes what integral() takes. A boolean is not a number.
    """
    try:
        if cast is int:
            return integral(value)
        if isinstance(value, bool):
            raise TypeError(value)
        return float(value)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if cast is int else "a number"
        raise SchemaError(f"{field} must be {kind}, got {value!r}") from None
