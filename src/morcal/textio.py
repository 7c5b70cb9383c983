"""Line-oriented plain-text numeric IO helpers.

All on-disk formats in this package are text based and written at full
double precision so that a save/load round trip is bit exact and re-running
a command on unchanged inputs produces byte-identical files.
"""

import functools
import itertools
import math
import warnings

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

    def error(self, msg, line=None) -> "DataError":
        """DataError naming ``line`` (default: the line read last)."""
        return DataError(f"{self.path}, line {self._pos if line is None else line}: {msg}")

    def at_end(self) -> bool:
        return self._next is None

    def peek(self) -> str | None:
        return self._next

    def next_line(self, what="line") -> str:
        if self._next is None:
            raise self._eof_error(what)
        line = self._next
        self._pos += 1
        self._advance()
        return line

    def expect_kv(self, key) -> str:
        line = self.next_line(f"'{key}='").strip()
        if not line.startswith(key + "="):
            raise self.error(f"expected '{key}=', found {line!r}")
        return line[len(key) + 1 :]

    def read_rows(self, rows, cols, what="row") -> np.ndarray:
        """The next ``rows`` lines as a (rows, cols) block of finite numbers.

        The lines stream from the file into one ``np.loadtxt`` call.  When
        the block is malformed, the section is read again line by line so
        the DataError names the first bad line (see ``_section_error``).
        Row ``i`` is called ``"{what} {i}"`` in errors.
        """
        return self._read_block(rows, cols, lambda i: f"{what} {i}")

    def skip_rows(self, rows, what="row") -> None:
        """Step over the next ``rows`` lines without parsing them.

        Only the line count is checked: a file that ends first raises the
        end-of-file DataError naming the first missing line, with row ``i``
        called ``"{what} {i}"`` as in ``read_rows``.
        """
        if rows < 0:
            raise self.error(f"negative row count {rows} for {what} 0")
        if rows == 0:
            return
        if self._next is None:
            raise self._eof_error(f"{what} 0")
        present = 1 + sum(1 for _ in itertools.islice(self._lines, rows - 1))
        if present < rows:
            raise self._eof_error(f"{what} {present}", self._pos + present + 1)
        self._pos += rows
        self._advance()

    def _read_block(self, rows, cols, name_row) -> np.ndarray:
        if rows < 0 or cols < 0:
            raise self.error(f"negative size {rows} x {cols} for {name_row(0)}")
        if rows == 0:
            return np.empty((0, cols))
        if self._next is None:
            raise self._eof_error(name_row(0))
        start = self._pos
        lines = itertools.chain([self._next], itertools.islice(self._lines, rows - 1))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an all-blank section: caught by the shape check
                block = np.loadtxt(lines, dtype=float, ndmin=2, comments=None)
        except ValueError:
            block = None
        if block is None or block.shape != (rows, cols) or not np.all(np.isfinite(block)):
            raise self._section_error(start, rows, cols, name_row)
        self._pos += rows
        self._advance()
        return block

    def _eof_error(self, what, line=None) -> "DataError":
        return self.error(f"unexpected end of file while reading {what}",
                          self._pos + 1 if line is None else line)

    def _section_error(self, start, rows, cols, name_row) -> "DataError":
        """The error of the first bad line among the ``rows`` after line ``start``.

        The file is opened again at the section's first line and each line
        is checked on its own, so the error names its kind and exact line.
        """
        with open(self.path, "r") as fh:
            lines = itertools.islice(fh, start, start + rows)
            for i in range(rows):
                line = next(lines, None)
                if line is None:
                    return self._eof_error(name_row(i), start + i + 1)
                error = self._row_error(line, cols, name_row(i), start + i + 1)
                if error is not None:
                    return error
        return self.error(f"unreadable section of {rows} rows of {cols} values", start + 1)

    def _row_error(self, line, count, what, line_no) -> "DataError | None":
        """The DataError of a line that is not ``count`` finite numbers, else None."""
        try:
            values = np.fromiter(map(float, line.split()), dtype=float)
        except ValueError as exc:
            return self.error(f"bad number in {what}: {exc}", line_no)
        if values.size != count:
            return self.error(f"expected {count} values in {what}, found {values.size}", line_no)
        if not np.all(np.isfinite(values)):
            return self.error(f"non-finite number in {what}", line_no)
        try:  # tokens float() takes but the bulk parser does not, such as '1_0'
            np.loadtxt([line], dtype=float, comments=None)
        except ValueError as exc:
            return self.error(f"bad number in {what}: {exc}", line_no)
        return None


def parse_float(text, reader: TextReader, what):
    try:
        value = float(text)
    except ValueError:
        raise reader.error(f"bad float for {what}: {text!r}") from None
    if "_" in text or not text.isascii():  # float() takes '1_0' and '١'; read_rows does not
        raise reader.error(f"bad float for {what}: {text!r}")
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


def fmt_fields(fields) -> str:
    """The ``name:start:end,...`` text of (name, start, end) tuples; see parse_fields."""
    return ",".join(f"{name}:{start}:{end}" for name, start, end in fields)


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
