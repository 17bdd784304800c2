"""The input-file reader against Python's text mode."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attex.errors import DataError, read_lines

PIECES = ["a", "б", " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x85",
          "\u2028", "\ufeff", "{}"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=16))
def test_lines_split_as_in_text_mode(tmp_path_factory, pieces):
    path = tmp_path_factory.getbasetemp() / "lines.txt"
    path.write_bytes("".join(pieces).encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        expected = [(lineno, raw.rstrip("\n"))
                    for lineno, raw in enumerate(fh, start=1)]
    assert list(read_lines(path, keep_blank=True)) == expected
    assert list(read_lines(path)) == [
        (lineno, line) for lineno, line in expected if line.strip()]


def test_undecodable_line_is_named(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_bytes("да\n\nok".encode("utf-8") + b"\xe2\x82\n")
    with pytest.raises(DataError) as info:
        list(read_lines(path))
    assert (info.value.path, info.value.line) == (path, 3)
    assert str(info.value).startswith("%s:3: invalid UTF-8 at byte 3" % path)
