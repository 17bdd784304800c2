"""Mutated input files through `cli.main`.

Each example flips bytes, truncates the file, or duplicates, deletes or
inserts lines, then runs a command that reads the file. A data file must
give exit 0 or 2 and a config file 0 or 1; no exception may escape `main`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attex import cli
from test_cli import write_fixture

JUNK_LINES = st.one_of(
    st.binary(max_size=24),
    st.text(max_size=24).map(lambda text: text.encode("utf-8")),
    st.sampled_from([b"[" * 5000, b"{}", b"\t\t\t", b"nan", b"1e999 -1e999",
                     b"x = 1"]),
)

MUTATIONS = ("flip", "truncate", "duplicate", "delete", "insert")


@st.composite
def mutated(draw, data):
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(MUTATIONS))
        if kind == "flip" and data:
            i = draw(st.integers(0, len(data) - 1))
            data = data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1:]
        elif kind == "truncate":
            data = data[:draw(st.integers(0, len(data)))]
        else:
            lines = data.splitlines(keepends=True)
            i = draw(st.integers(0, len(lines)))
            if kind == "insert":
                lines.insert(i, draw(JUNK_LINES) + b"\n")
            elif kind == "duplicate" and i < len(lines):
                lines.insert(i, lines[i])
            elif kind == "delete" and i < len(lines):
                del lines[i]
            data = b"".join(lines)
    return data


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """The test_cli fixture, prepared and trained in traintest mode."""
    root = tmp_path_factory.mktemp("fuzz")
    config, out = write_fixture(root)
    for command in ("prepare", "train"):
        assert cli.main([command, "--config", str(config),
                         "--mode", "traintest"]) == 0
    return root, config, out


def run_with(path, data, argv):
    """cli.main(argv) while path holds data; path is restored after."""
    original = path.read_bytes()
    path.write_bytes(data)
    try:
        return cli.main(argv)
    finally:
        path.write_bytes(original)


# prepare writes elsewhere so that the prepared cache stays intact.
@pytest.mark.parametrize("name,command", [
    ("documents.jsonl", "prepare"),
    ("opinions.tsv", "prepare"),
    ("frames.tsv", "prepare"),
    ("manifest.tsv", "eval"),
    ("out/contexts.jsonl", "analyze"),
    ("out/vocab.txt", "eval"),
    ("out/model.ckpt", "analyze"),
])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_data_file_exits_zero_or_two(workspace, name, command, data):
    root, config, out = workspace
    path = root / name
    mutation = data.draw(mutated(path.read_bytes()))
    out_dir = root / "prepared" if command == "prepare" else out
    argv = [command, "--config", str(config), "--mode", "traintest",
            "--out", str(out_dir)]
    assert run_with(path, mutation, argv) in (0, 2)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_config_exits_zero_or_one(workspace, data):
    # Only the settings are mutated: a changed path that names no file
    # is a data error by design.
    root, config, out = workspace
    paths, rest = b"", b""
    for line in config.read_bytes().splitlines(keepends=True):
        if line.split(b"=")[0].strip().decode() in cli._PATH_KEYS + ("out",):
            paths += line
        else:
            rest += line
    path = root / "fuzz.conf"
    path.write_bytes(paths + data.draw(mutated(rest)))
    assert cli.main(["prepare", "--config", str(path),
                     "--out", str(root / "prepared")]) in (0, 1)
