"""Plain-text number formatting and list parsing."""

import numpy as np
import pytest

from morcal.errors import DataError
from morcal.textio import TextReader, fmt_row, parse_fields, parse_float, parse_int, parse_list


def test_fmt_row_matches_per_value_formatting():
    values = np.array([-0.0, 0.0, 5e-324, 1e308, -1e308, 3.0, -7.0, 1e17, 0.1, -2.5e-12,
                       533.15, 1.0 / 3.0])
    want = " ".join("%.17g" % v for v in values)
    assert fmt_row(values) == want
    assert fmt_row(values[:1]) == "-0"
    assert fmt_row(values.reshape(3, 4)) == want
    assert fmt_row([]) == ""


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
    assert parse_fields("T_c:0:2,T_s:2:4", rd) == [("T_c", 0, 2), ("T_s", 2, 4)]


@pytest.mark.parametrize("text, parse, sep", [
    ("1 nan 2", parse_float, None),
    ("1 inf", parse_float, None),
    ("1 2x", parse_float, None),
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
