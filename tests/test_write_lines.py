"""The output-file writer: a file is replaced whole or left as it was."""

import ast
import pathlib

import pytest

import attex
from attex.errors import read_lines, write_lines


def test_lines_end_with_newline_as_utf8(tmp_path):
    path = tmp_path / "out.tsv"
    write_lines(str(path), ["да\tb", "", "c"])
    assert path.read_bytes() == "да\tb\n\nc\n".encode("utf-8")
    assert list(read_lines(path, keep_blank=True)) == [
        (1, "да\tb"), (2, ""), (3, "c")]


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"old\ncontent\n")

    def lines():
        yield "new"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_lines(str(path), lines())
    assert path.read_bytes() == b"old\ncontent\n"
    assert list(tmp_path.glob("*.tmp")) == []


def test_path_target_in_missing_directory(tmp_path):
    path = tmp_path / "a" / "b" / "means.csv"
    write_lines(path, ["group,mean_N,mean_S"])
    assert path.read_text(encoding="utf-8") == "group,mean_N,mean_S\n"
    write_lines(path, [])
    assert path.read_bytes() == b""
    assert sorted(p.name for p in path.parent.iterdir()) == ["means.csv"]


def test_open_is_called_only_in_errors_module():
    package = pathlib.Path(attex.__file__).parent
    callers = []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                callers.append("%s:%d" % (source.name, node.lineno))
    assert callers and all(c.startswith("errors.py:") for c in callers), \
        callers
