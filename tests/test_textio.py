"""Plain-text number formatting and list parsing."""

import numpy as np
import pytest

from morcal.errors import DataError
from morcal.textio import (
    FLOAT_FMT,
    TextReader,
    fmt_fields,
    fmt_float,
    fmt_row,
    parse_fields,
    parse_float,
    parse_int,
    parse_list,
    write_csv,
    write_rows,
)

VALUES = np.array([-0.0, 0.0, 5e-324, 1e308, -1e308, 3.0, -7.0, 1e17, 0.1, -2.5e-12,
                   533.15, 1.0 / 3.0])


def test_fmt_row_matches_per_value_formatting():
    want = " ".join("%.17g" % v for v in VALUES)
    assert fmt_row(VALUES) == want
    assert fmt_row(VALUES[:1]) == "-0"
    assert fmt_row(VALUES.reshape(3, 4)) == want
    assert fmt_row([]) == ""


def test_write_rows_writes_fmt_row_lines_that_read_back_bit_exactly(tmp_path):
    rows = VALUES.reshape(3, 4)
    path = tmp_path / "rows.txt"
    with open(path, "w") as fh:
        fh.write("header\n")
        write_rows(fh, rows)
        write_rows(fh, rows.T)  # a strided view, as the column-major sections pass
        write_rows(fh, np.empty((0, 4)))
    lines = path.read_text().splitlines()
    assert lines[1:] == [fmt_row(row) for row in rows] + [fmt_row(col) for col in rows.T]
    with TextReader(path) as rd:
        rd.next_line()
        assert rd.read_rows(3, 4).tobytes() == rows.tobytes()  # sign of -0 included
        assert rd.read_rows(4, 3).tobytes() == np.ascontiguousarray(rows.T).tobytes()
        assert rd.at_end()


def test_write_csv_writes_the_header_and_each_row_in_its_column_formats(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["step", "case", "value"], ["%d", "%s", FLOAT_FMT],
              [(float(j), f"R{j}", v) for j, v in enumerate(VALUES)])
    want = "".join(f"{j},R{j},{fmt_float(v)}\n" for j, v in enumerate(VALUES))
    assert path.read_text() == "step,case,value\n" + want
    write_csv(path, ["step", "value"], ["%d", FLOAT_FMT], [])
    assert path.read_text() == "step,value\n"


def _reader(tmp_path):
    path = tmp_path / "list.txt"
    path.write_text("x\n")
    reader = TextReader(path)
    reader.next_line()
    return reader


def test_parse_list_values_and_empty_text(tmp_path):
    rd = _reader(tmp_path)
    assert parse_list("1 -2.5  3e-3", rd, "v") == [1.0, -2.5, 3e-3]
    assert parse_list("0,4, 9", rd, "v", parse_int, ",") == [0, 4, 9]
    assert parse_list("  ", rd, "v") == []
    fields = [("T_c", 0, 2), ("T_s", 2, 4)]
    assert fmt_fields(fields) == "T_c:0:2,T_s:2:4"
    assert parse_fields(fmt_fields(fields), rd) == fields


@pytest.mark.parametrize("text, parse, sep", [
    ("1 nan 2", parse_float, None),
    ("1 inf", parse_float, None),
    ("1 2x", parse_float, None),
    ("1 1_0", parse_float, None),
    ("1 \u0661", parse_float, None),
    ("0,2x0", parse_int, ","),
    ("0,,3", parse_int, ","),
])
def test_parse_list_rejects_bad_tokens(tmp_path, text, parse, sep):
    with pytest.raises(DataError, match="line 1"):
        parse_list(text, _reader(tmp_path), "v", parse, sep)


@pytest.mark.parametrize("text", ["T_c:0:2x0,T_s:2:4", "T_c:0", "T_c:0:2,T_s:two:4"])
def test_parse_fields_rejects_bad_descriptors(tmp_path, text):
    with pytest.raises(DataError):
        parse_fields(text, _reader(tmp_path))


def _section(tmp_path, rows):
    """A reader positioned after a one-line header, before ``rows``."""
    path = tmp_path / "rows.txt"
    path.write_text("header\n" + "".join(row + "\n" for row in rows))
    reader = TextReader(path)
    reader.next_line()
    return reader


def test_read_rows_is_bit_identical_to_float(tmp_path):
    rng = np.random.default_rng(5)
    tokens = ["-0", "5e-324", "1e308", "+1", "1E5", ".5", "-1.7976931348623157e308"]
    tokens += ["%.17g" % v for v in rng.standard_normal(7) * 10.0 ** rng.integers(-300, 300, 7)]
    rows = [" ".join(tokens), "\t".join(reversed(tokens))]
    with _section(tmp_path, rows + ["tail"]) as rd:
        block = rd.read_rows(2, len(tokens), "row")
        assert rd.next_line() == "tail"
    want = np.array([[float(t) for t in row.split()] for row in rows])
    assert block.shape == want.shape and block.flags.c_contiguous
    assert block.tobytes() == want.tobytes()  # sign of -0 included
    with _section(tmp_path, rows[:1]) as rd:
        assert rd.read_rows(1, len(tokens), "row")[0].tobytes() == want[0].tobytes()
    with _section(tmp_path, []) as rd:
        assert rd.read_rows(0, 3, "row").shape == (0, 3)


GOOD_ROW = "1 2.5 -3"


@pytest.mark.parametrize("bad, message", [
    ("1 x -3", "bad number in row 2"),
    ("1 2.5", "expected 3 values in row 2, found 2"),
    ("1 2.5 -3 4", "expected 3 values in row 2, found 4"),
    ("", "expected 3 values in row 2, found 0"),
    ("1 # -3", "bad number in row 2"),
    ("1 nan -3", "non-finite number in row 2"),
    ("1 2.5 -inf", "non-finite number in row 2"),
    ("1 1e999 -3", "non-finite number in row 2"),
    ("1 1_0 -3", "bad number in row 2"),
])
def test_read_rows_names_the_bad_line(tmp_path, bad, message):
    rows = [GOOD_ROW, GOOD_ROW, bad, GOOD_ROW]
    with _section(tmp_path, rows) as rd:
        with pytest.raises(DataError, match=f"line 4: {message}"):
            rd.read_rows(4, 3, "row")


def test_read_rows_names_the_line_missing_at_end_of_file(tmp_path):
    with _section(tmp_path, [GOOD_ROW, GOOD_ROW]) as rd:
        with pytest.raises(DataError, match="line 4: unexpected end of file while reading row 2"):
            rd.read_rows(3, 3, "row")
    with _section(tmp_path, []) as rd:
        with pytest.raises(DataError, match="line 2: unexpected end of file while reading row 0"):
            rd.read_rows(3, 3, "row")


def test_skip_rows_steps_over_the_block_unparsed(tmp_path):
    with _section(tmp_path, ["1 x", "", "nan", "tail"]) as rd:
        rd.skip_rows(3, "row")
        assert rd.next_line() == "tail"
        assert rd.at_end()
    with _section(tmp_path, [GOOD_ROW]) as rd:
        rd.skip_rows(0, "row")
        assert rd.next_line() == GOOD_ROW


def test_skip_rows_names_the_line_missing_at_end_of_file(tmp_path):
    with _section(tmp_path, [GOOD_ROW, GOOD_ROW]) as rd:
        with pytest.raises(DataError, match="line 4: unexpected end of file while reading row 2"):
            rd.skip_rows(3, "row")
    with _section(tmp_path, []) as rd:
        with pytest.raises(DataError, match="line 2: unexpected end of file while reading row 0"):
            rd.skip_rows(1, "row")
    with _section(tmp_path, [GOOD_ROW]) as rd:
        with pytest.raises(DataError, match="line 1: negative row count -1 for row 0"):
            rd.skip_rows(-1, "row")


def test_read_rows_rejects_a_negative_size(tmp_path):
    with _section(tmp_path, [GOOD_ROW]) as rd:
        with pytest.raises(DataError, match="line 1: negative size -1 x 3 for row 0"):
            rd.read_rows(-1, 3, "row")
