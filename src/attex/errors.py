"""Shared exception types, and the one reader of input files: a line it
cannot decode raises DataError with its file and line number."""

import json


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
