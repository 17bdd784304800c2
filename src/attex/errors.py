"""Shared exception types, the one reader of input files (a line it
cannot decode raises DataError with its file and line number) and the one
writer of output files (a file is replaced whole or left as it was)."""

import json
import os


class DataError(Exception):
    """Malformed or inconsistent input data.

    Carries file/line context when the problem was found while parsing.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{prefix} {message}" if prefix else message)


class NumericError(RuntimeError):
    """Non-finite value or a failed numeric tolerance during a run."""


def read_lines(path, keep_blank=False):
    """Yield (line number, line) for each line of a UTF-8 text file.

    Lines end at \\n, \\r\\n or \\r, as in text mode, and are yielded
    without that ending. Lines holding only whitespace are skipped unless
    keep_blank is set. A line that is not valid UTF-8 raises DataError
    with the path and line number.
    """
    with open(path, "rb") as fh:
        raws = fh.read().splitlines()
    for lineno, raw in enumerate(raws, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError("invalid UTF-8 at byte %d: %s"
                            % (exc.start + 1, exc.reason),
                            path=path, line=lineno)
        if keep_blank or line.strip():
            yield lineno, line


def read_json_lines(path):
    """Yield (line number, value) for each non-blank line of a JSONL file."""
    for lineno, line in read_lines(path):
        try:
            yield lineno, json.loads(line.strip())
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nesting deeper than the interpreter's stack.
            raise DataError("invalid JSON: %s" % exc, path=path, line=lineno)


def write_lines(path, lines):
    """Replace path with the given lines as UTF-8, each ended by \\n.

    The lines stream to `<path>.<pid>.tmp`, which os.replace then moves
    onto path, so a failed or killed write leaves the old file whole. The
    directory is created when missing.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(line + "\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
