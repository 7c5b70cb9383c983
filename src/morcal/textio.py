"""Line-oriented plain-text numeric IO helpers.

All on-disk formats in this package are text based and written at full
double precision so that a save/load round trip is bit exact and re-running
a command on unchanged inputs produces byte-identical files.
"""

import functools
import math

import numpy as np

from morcal.errors import DataError

FLOAT_FMT = "%.17g"


def fmt_float(x) -> str:
    return FLOAT_FMT % float(x)


@functools.lru_cache(maxsize=64)
def _row_format(count) -> str:
    """The format string of one row of ``count`` values (rows have few lengths)."""
    return " ".join([FLOAT_FMT] * count)


def fmt_row(values) -> str:
    """Space-separated full-precision values, formatted with one %-operation."""
    row = np.asarray(values, dtype=float).ravel().tolist()
    return _row_format(len(row)) % tuple(row)


class TextReader:
    """Sequential line reader that reports the line number on errors.

    Lines are read from the open file on demand, so a reader never holds
    more than one line of the file.  The file is closed once its last line
    has been read, and at the end of a ``with`` block.
    """

    def __init__(self, path):
        self.path = str(path)
        self._fh = open(path, "r")
        self._lines = iter(self._fh)
        self._pos = 0
        self._advance()

    def __enter__(self) -> "TextReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._fh.close()

    def _advance(self) -> None:
        """Read the line after position ``_pos`` into ``_next`` (None at the end)."""
        line = next(self._lines, None)
        if line is None:
            self.close()
        self._next = None if line is None else line.rstrip("\n")

    def error(self, msg) -> "DataError":
        return DataError(f"{self.path}, line {self._pos}: {msg}")

    def at_end(self) -> bool:
        return self._next is None

    def peek(self) -> str | None:
        return self._next

    def next_line(self, what="line") -> str:
        if self._next is None:
            raise DataError(f"{self.path}: unexpected end of file while reading {what}")
        line = self._next
        self._pos += 1
        self._advance()
        return line

    def expect_kv(self, key) -> str:
        line = self.next_line(f"'{key}='").strip()
        if not line.startswith(key + "="):
            raise self.error(f"expected '{key}=', found {line!r}")
        return line[len(key) + 1 :]

    def read_floats(self, count, what="row") -> np.ndarray:
        """One line of exactly ``count`` finite numbers."""
        line = self.next_line(what)
        try:
            values = np.fromiter(map(float, line.split()), dtype=float)
        except ValueError as exc:
            raise self.error(f"bad number in {what}: {exc}") from None
        if values.size != count:
            raise self.error(f"expected {count} values in {what}, found {values.size}")
        if not np.all(np.isfinite(values)):
            raise self.error(f"non-finite number in {what}")
        return values


def parse_float(text, reader: TextReader, what):
    try:
        value = float(text)
    except ValueError:
        raise reader.error(f"bad float for {what}: {text!r}") from None
    if not math.isfinite(value):
        raise reader.error(f"non-finite float for {what}: {text!r}")
    return value


def parse_int(text, reader: TextReader, what):
    try:
        return int(text)
    except ValueError:
        raise reader.error(f"bad integer for {what}: {text!r}") from None


def parse_list(text, reader: TextReader, what, parse=parse_float, sep=None) -> list:
    """Values of a ``sep``-separated list; an empty text is an empty list.

    Each token goes through ``parse`` (``parse_float`` or ``parse_int``), so
    a malformed or non-finite token raises DataError naming the line.
    """
    if not text.strip():
        return []
    return [parse(tok, reader, what) for tok in text.split(sep)]


def parse_fields(text, reader: TextReader) -> list:
    """A ``name:start:end,...`` field list as (name, start, end) tuples."""
    fields = []
    for part in text.split(","):
        bits = part.split(":")
        if len(bits) != 3:
            raise reader.error(f"bad field descriptor: {part!r}")
        fields.append((bits[0], parse_int(bits[1], reader, "field start"),
                       parse_int(bits[2], reader, "field end")))
    return fields
