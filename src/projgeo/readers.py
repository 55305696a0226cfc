"""The input format shared by chart, alpha and targets files and by CLI numbers.

Every input file is UTF-8 text read line by line. `#` starts a comment that
runs to the end of the line, and blank lines are skipped. Chart and alpha
entries are `key = expression` lines, and a `dim = n` header gives the chart
dimension. A targets file holds one point per line, as comma-separated
coordinates. Points and numbers given on the command line use the same
number reader, so every number that enters the program is finite. A
malformed line raises ChartError("line N: ...").
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterator

import numpy as np

from . import expr as ex
from .tensor import MAX_DIM

__all__ = ["ChartError", "MAX_DIM", "read_text", "content_lines", "split_entry",
           "read_numbers", "read_dim", "parse_expr", "parse_points"]


class ChartError(ValueError):
    """Malformed chart, field or targets file, or a bad number.

    Errors found on a line of a file carry "line N:".
    """


def read_text(path: "str | Path") -> str:
    """The text of a UTF-8 file; an unreadable or undecodable file is a ChartError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        lineno = err.object.count(b"\n", 0, err.start) + 1
        raise ChartError(f"line {lineno}: not UTF-8 text in {path}") from None
    except OSError as err:
        raise ChartError(f"cannot read {path}: {err.strerror or err}") from None


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, content) of each line that holds more than a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def split_entry(lineno: int, line: str, form: str = "key = expression") -> tuple[list[str], str]:
    """The whitespace-separated key words and the right-hand side of `key = expr`."""
    key, equals, rhs = line.partition("=")
    words = key.split()
    if not equals or not words:
        raise ChartError(f"line {lineno}: expected '{form}'")
    return words, rhs.strip()


def read_numbers(text: str, count: int | None, kind: type = float) -> list:
    """The comma-separated numbers in `text`, exactly `count` of them unless None.

    Floats must be finite; kind=int reads whole numbers (counts, seeds, dims).
    """
    noun = "integers" if kind is int else "numbers"
    try:
        values = [kind(part) for part in text.split(",")]
    except ValueError:
        raise ChartError(f"expected comma-separated {noun}, got {text!r}") from None
    if kind is float and not all(math.isfinite(v) for v in values):
        raise ChartError(f"expected finite numbers, got {text!r}")
    if count is not None and len(values) != count:
        raise ChartError(f"expected {count} comma-separated {noun}, got {len(values)}")
    return values


def read_dim(lineno: int, rhs: str) -> int:
    """The chart dimension of a `dim = n` header: 2 to MAX_DIM, since the
    projective decomposition and the holonomy loops need a 2-plane."""
    try:
        (n,) = read_numbers(rhs, 1, int)
    except ChartError:
        raise ChartError(f"line {lineno}: dim must be an integer") from None
    if not 2 <= n <= MAX_DIM:
        raise ChartError(f"line {lineno}: dim must be in 2..{MAX_DIM}")
    return n


def parse_expr(lineno: int, rhs: str, n: int) -> ex.Expr:
    """The expression on a line, with a parse error reported at that line."""
    try:
        return ex.parse(rhs, n)
    except ex.ParseError as err:
        raise ChartError(f"line {lineno}: {err}") from err


def parse_points(text: str, n: int) -> np.ndarray:
    """The (P, n) points of a targets file, one point of n coordinates a line."""
    rows = []
    for lineno, line in content_lines(text):
        try:
            rows.append(read_numbers(line, n))
        except ChartError as err:
            raise ChartError(f"line {lineno}: {err}") from None
    if not rows:
        raise ChartError("targets file contains no points")
    return np.array(rows)
