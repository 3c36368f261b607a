"""Exception hierarchy shared by all roofcast modules, and the one reader
of each input format that raises it: read_json (a JSON document, whole),
csv_chunks (CSV rows), JsonChunks (the array of a JSON document, in chunks),
check_keys (document keys) and coerce (numbers). read_json and csv_chunks
decode UTF-8 with one block decoder, _utf8_blocks; JsonChunks has its own
and leaves its faults to a whole re-read to name.

The CLI maps these onto exit codes: ValidationError (and subclasses)
exit 2, I/O errors exit 1, InternalInvariantError exit 3.
"""

import codecs
import csv
import json
from collections.abc import Iterator, Mapping, Sequence, Set
from os import PathLike
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


def open_input(path: str | PathLike) -> IO[bytes]:
    """The input file at path, opened to be read as bytes: how a loader
    opens a file when no run manifest digests it."""
    return open(path, "rb")


def reason(exc: Exception) -> str:
    """exc's message, less the advice Python appends that a CLI user cannot
    act on: to call set_int_max_str_digits when an integer is past the
    int-to-text limit, or to open a CSV file in universal-newline mode."""
    return str(exc).removesuffix(
        "; use sys.set_int_max_str_digits() to increase the limit"
    ).removesuffix(" - do you need to open the file in universal-newline mode?")


def _utf8_blocks(stream: IO[bytes], source: object) -> Iterator[str]:
    """The text of a binary stream from where it stands to its end, decoded
    as UTF-8 64 KiB at a time and handed out a block at a time, less one
    leading byte order mark (as spreadsheet exports write); or a
    ValidationError naming source, the file it was read from, and the
    offset of the bad byte from there.

    The BOM is dropped after decoding, not by the "utf-8-sig" codec, so the
    offset of a bad byte is an offset into the file.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    start, bom = 0, "\ufeff"
    try:
        while block := stream.read(1 << 16):
            text = decoder.decode(block)
            if bom and text:
                text, bom = text.removeprefix(bom), ""
            yield text
            start += len(block)
        decoder.decode(b"", final=True)
    except UnicodeDecodeError as exc:
        # exc.start counts from the bytes the decoder held back from the
        # blocks before, which a failed decode leaves in place.
        offset = start - len(decoder.getstate()[0]) + exc.start
        raise ValidationError(
            f"{source}: not UTF-8 text ({exc.reason} at byte {offset})"
        ) from None


def read_json(stream: IO[bytes], source: object, what: str) -> object:
    """The JSON document in the UTF-8 text of a binary stream, read whole,
    or a ParseError naming source, the file it was read from, and what it
    should hold: "<source>: invalid <what>: ...".

    Nesting too deep for the decoder is refused the same way.
    """
    text = "".join(_utf8_blocks(stream, source))
    try:
        return json.loads(text)
    # ValueError: also an int past the int-to-text limit.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{source}: invalid {what}: {reason(exc)}") from None


# Rows csv_chunks and in_chunks hand out at a time: enough to spread a
# column reader's fixed cost over many rows, few enough that a wide file's
# cells are never all held.
CSV_CHUNK_ROWS = 128


def in_chunks(items: Sequence) -> Iterator[Sequence]:
    """items, CSV_CHUNK_ROWS at a time."""
    return (items[start:start + CSV_CHUNK_ROWS]
            for start in range(0, len(items), CSV_CHUNK_ROWS))


def csv_chunks(stream: IO[bytes], source: object, what: str
               ) -> Iterator[tuple[int, list[list[str]]]]:
    """The rows of the CSV file in a seekable binary stream, in lists, each
    with the number of its first row: the header alone (row 1), then the
    other rows, at most CSV_CHUNK_ROWS at a time. source names the file and
    what its kind, for the SchemaError an empty file raises.

    The whole stream is checked to be UTF-8 first, so an error gives the
    offset of the bad byte in the file before any row error; then it is
    read again from the start and decoded a line at a time, and only "\n"
    ends a line. Neither pass holds the whole file, and the stream is left
    open. One leading byte order mark is skipped, as _utf8_blocks drops
    it. A row the csv module cannot split raises a ParseError naming source
    and the row, after the rows before it were handed out, so their errors
    come first.
    """
    for _ in _utf8_blocks(stream, source):
        pass
    stream.seek(0)
    if stream.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
        stream.seek(0)
    # Binary lines end at b"\n" alone, which no multi-byte character holds.
    reader = csv.reader(map(bytes.decode, stream))
    row_no, rows, size = 1, [], 1
    try:
        for row in reader:
            rows.append(row)
            if len(rows) == size:
                yield row_no, rows
                row_no, rows, size = row_no + size, [], CSV_CHUNK_ROWS
    except csv.Error as exc:
        if rows:
            yield row_no, rows
        raise ParseError(
            f"{source}: row {row_no + len(rows)}: {reason(exc)}") from None
    if row_no == 1:
        raise SchemaError(f"{source}: empty {what}: header row required")
    yield row_no, rows


# Bytes a JsonChunks reader takes from its stream at a time, unless the text
# it holds is longer: then it reads that much, so one long value costs
# linear time.
JSON_BLOCK = 1 << 16

_skip_space = json.decoder.WHITESPACE.match
# The decoder json.loads uses, one value at a time: (value, end) or
# StopIteration when no value starts at the index.
_scan_value = json.JSONDecoder().scan_once


class JsonChunks:
    """The array of a JSON document in a binary stream, at the top level or
    under one top-level key, handed out by iteration in lists of
    CSV_CHUNK_ROWS elements (the last one shorter); after it, members holds
    the document's other top-level members.

    The stream is read JSON_BLOCK bytes at a time through an incremental
    UTF-8 decoder, and one leading byte order mark is dropped (as in
    _utf8_blocks). A document that ends in its first block is decoded whole.
    Otherwise all complete elements in the text held are decoded at once,
    up to its last "}": if that decode succeeds, the text was exactly those
    elements. If it fails (a "}" inside a string, say), the elements of that
    text are decoded one at a time. A value is taken only once a "," ":"
    "]" or "}" follows it, or the stream ends, because "4." is a prefix of
    "4.0". Of an array of objects, neither the whole text nor the whole
    document is ever held.

    A document it cannot hand out so raises a ParseError that says only
    that: one that is not UTF-8 text or not JSON, holds no such array, or
    gives the key twice (json.loads keeps the last). The caller then rewinds
    the stream and reads it whole, which names the fault.
    """

    def __init__(self, stream: IO[bytes], source: object,
                 key: str | None = None):
        self.stream, self.source, self.key = stream, source, key
        self.members: dict = {}
        self._decoder = codecs.getincrementaldecoder("utf-8")()
        self._text, self._pos, self._fills, self._eof = "", 0, 0, False

    def __iter__(self) -> Iterator[list]:
        try:
            yield from self._chunks()
        # ValueError: also JSONDecodeError and UnicodeDecodeError.
        except (ValueError, RecursionError):
            raise ParseError(
                f"{self.source}: not a JSON document to read in chunks"
            ) from None

    def _chunks(self) -> Iterator[list]:
        while self._fill() and not self._text:  # a block ends in the BOM
            pass
        self._text = self._text.removeprefix("\ufeff")
        if self._eof:
            doc = json.loads(self._text)
            if self.key is not None:
                if not isinstance(doc, dict):
                    raise ValueError("not an object")
                doc, self.members = doc.pop(self.key, None), doc
            if not isinstance(doc, list):
                raise ValueError("no array")
            yield from in_chunks(doc)
            return
        if self.key is None:
            self._expect("[")
            yield from self._array()
        else:
            yield from self._object()
        if self._peek():
            raise ValueError("extra data")

    def _object(self) -> Iterator[list]:
        self._expect("{")
        found = False
        while True:
            if self._peek() != '"':
                raise ValueError("expecting a key")
            name = self._value()
            self._expect(":")
            if name != self.key:
                self.members[name] = self._value()
            elif found:
                raise ValueError("the key twice")
            else:
                self._expect("[")
                found = True
                yield from self._array()
            if self._peek() != ",":
                break
            self._pos += 1
        self._expect("}")
        if not found:
            raise ValueError("no array")

    def _array(self) -> Iterator[list]:
        """The elements of the array whose "[" was read, in chunks."""
        chunk = []
        if self._peek() == "]":
            self._pos += 1
            return
        failed = -1     # the fill whose text failed to decode at once
        while True:
            cut = self._text.rfind("}", self._pos) + 1
            if cut <= self._pos and self._fill():   # no object is whole yet
                continue
            elements = None
            if cut > self._pos and self._fills != failed:
                try:
                    elements = json.loads(f"[{self._text[self._pos:cut]}]")
                except (ValueError, RecursionError):
                    pass
            if elements is None:
                failed = self._fills
                chunk.append(self._value())
            else:
                chunk += elements
                self._pos = cut
            while len(chunk) >= CSV_CHUNK_ROWS:
                yield chunk[:CSV_CHUNK_ROWS]
                del chunk[:CSV_CHUNK_ROWS]
            if self._peek() != ",":
                break
            self._pos += 1
        self._expect("]")
        if chunk:
            yield chunk

    def _fill(self) -> bool:
        """Drop the text read and decode more: at least JSON_BLOCK bytes and
        at least as many as the text held. False at the end of the stream."""
        if self._eof:
            return False
        want = max(JSON_BLOCK, len(self._text) - self._pos)
        blocks = []
        while want > 0 and (block := self.stream.read(want)):
            blocks.append(block)
            want -= len(block)
        self._eof = want > 0
        self._text = self._text[self._pos:] + self._decoder.decode(
            b"".join(blocks), self._eof)
        self._pos = 0
        self._fills += 1
        return True

    def _peek(self) -> str:
        """The next character that is not whitespace; "" at the end."""
        while True:
            self._pos = _skip_space(self._text, self._pos).end()
            if self._pos < len(self._text):
                return self._text[self._pos]
            if not self._fill():
                return ""

    def _expect(self, char: str) -> None:
        if self._peek() != char:
            raise ValueError(f"expecting {char!r}")
        self._pos += 1

    def _value(self) -> object:
        """The next value, read on until it is whole."""
        self._peek()
        while True:
            try:
                value, end = _scan_value(self._text, self._pos)
                after = _skip_space(self._text, end).end()
                if self._eof or (after < len(self._text)
                                 and self._text[after] in ",:]}"):
                    self._pos = end
                    return value
            except (StopIteration, ValueError, RecursionError):
                pass
            if not self._fill():
                raise ValueError("incomplete value")


def check_keys(doc: object, context: str, required: Set[str],
               optional: Set[str] = frozenset(), version: int | None = None
               ) -> None:
    """A SchemaError naming context unless doc is a mapping with every
    required key and no other than the optional ones; with a version, its
    schema_version (a required key) must be that version, and true is not 1.
    """
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{context} must be a mapping")
    unknown = set(doc) - required - optional
    if unknown:
        raise SchemaError(
            f"{context}: unknown keys {sorted(unknown, key=str)}")
    missing = required - set(doc)
    if missing:
        raise SchemaError(f"{context}: missing keys {sorted(missing)}")
    if version is not None:
        found = doc["schema_version"]
        if found.__class__ is bool or found != version:
            raise SchemaError(
                f"{context}: unsupported schema_version {found!r}")


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
