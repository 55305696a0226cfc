"""The input format shared by chart, alpha and targets files and by CLI numbers.

Every input file is UTF-8 text read line by line: a line ends at `\n`, with
a `\r` before it dropped. `#` starts a comment that runs to the end of the
line, and blank lines are skipped. Only ASCII whitespace is stripped or
separates the words of a key; any other space is refused. Chart and alpha
files go through one line loop, read_entries: `key = expression` lines, a
`dim = n` header and, in a chart, one [metric] or [christoffel] section, all
under the same rules. A targets file holds one point per line, as
comma-separated coordinates. Points and numbers given on the command line use
the same number reader, so every number that enters the program is finite
and written in ASCII, as are indices and dims. A malformed line raises
ChartError("line N: ...").
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Iterator

import numpy as np

from . import expr as ex
from .tensor import MAX_DIM

__all__ = ["ChartError", "MAX_DIM", "read_text", "content_lines", "read_numbers",
           "read_entries", "parse_points"]


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


# The ASCII whitespace within a line, which the expression tokenizer's \s takes
# too; str.strip and str.split would take any Unicode space.
_SPACE = " \t\r\v\f"
_WORDS = re.compile(f"[^{_SPACE}]+")


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, content) of each line that holds more than a comment."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip(_SPACE)
        if line:
            yield lineno, line


def _whole(text: str) -> int:
    """A whole number written in ASCII digits alone, no sign; else ValueError.
    (int() would also take a sign, other scripts' digits and underscores.)"""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


def read_numbers(text: str, count: int | None, kind: type = float) -> list:
    """The comma-separated numbers in `text`, exactly `count` of them unless None.

    Floats must be finite; kind=int reads whole numbers (counts, seeds). Each
    number is ASCII text without underscores.
    """
    noun = "integers" if kind is int else "numbers"
    try:
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        values = [kind(part) for part in text.split(",")]
    except ValueError:
        raise ChartError(f"expected comma-separated {noun}, got {text!r}") from None
    if kind is float and not all(math.isfinite(v) for v in values):
        raise ChartError(f"expected finite numbers, got {text!r}")
    if count is not None and len(values) != count:
        raise ChartError(f"expected {count} comma-separated {noun}, got {len(values)}")
    return values


# The key of an entry in each section: its letter, then the names of its 1-based indices.
KEYS = {"metric": "g i j", "christoffel": "G k i j", "alpha": "a i"}


def read_entries(text: str, n: "int | None") -> "tuple[int, str, dict[tuple[int, ...], ex.Expr]]":
    """(n, section, {0-based key: Expr}) of a chart file (n is None) or an alpha file.

    A chart needs a `dim` header before its one [metric] or [christoffel]
    section; an alpha file of dimension n has no sections, and its optional
    `dim` header must agree with n. Keys follow KEYS, with 1-based indices in
    range, each key once and metric keys i <= j; absent entries are zero.
    Within the file each repeated text or group is parsed once (see
    expr.shared_groups).
    """
    section = None if n is None else "alpha"
    entries, has_dim = {}, False
    with ex.shared_groups():
        for lineno, line in content_lines(text):
            if line.startswith("[") and line.endswith("]"):
                header = line[1:-1].strip(_SPACE)
                if header not in ("metric", "christoffel") or section == "alpha":
                    raise ChartError(f"line {lineno}: unknown section [{header}]")
                if section is not None:
                    raise ChartError(f"line {lineno}: [metric] and [christoffel] are "
                                     f"exclusive, and only one section is allowed")
                if n is None:
                    raise ChartError(f"line {lineno}: dim must come before any section")
                section = header
                continue
            key, equals, rhs = line.partition("=")
            words = _WORDS.findall(key)
            if not equals or not words:
                raise ChartError(f"line {lineno}: expected 'key = expression'")
            if words == ["dim"]:
                if has_dim:
                    raise ChartError(f"line {lineno}: duplicate dim")
                try:
                    dim = _whole(rhs.strip(_SPACE))
                except ValueError:
                    raise ChartError(f"line {lineno}: dim must be an integer") from None
                # the projective decomposition and the holonomy loops need a 2-plane
                if not 2 <= dim <= MAX_DIM:
                    raise ChartError(f"line {lineno}: dim must be in 2..{MAX_DIM}")
                if n is not None and dim != n:
                    raise ChartError(f"line {lineno}: alpha file has dim = {dim}, expected {n}")
                n, has_dim = dim, True
                continue
            if section is None:
                raise ChartError(f"line {lineno}: entry before any section")
            form = KEYS[section]
            if words[0] != form[0] or len(words) != len(form.split()):
                raise ChartError(f"line {lineno}: {section} entries look like '{form} = ...'")
            try:
                index = tuple(_whole(word) - 1 for word in words[1:])
            except ValueError:
                raise ChartError(f"line {lineno}: bad index in {' '.join(words)!r}") from None
            if not all(0 <= i < n for i in index):
                raise ChartError(f"line {lineno}: {section} index out of range 1..{n}")
            if section == "metric" and index[0] > index[1]:
                raise ChartError(f"line {lineno}: metric entries use i <= j")
            if index in entries:
                raise ChartError(f"line {lineno}: duplicate entry {' '.join(words)}")
            try:
                entries[index] = ex.parse(rhs.strip(_SPACE), n)
            except ex.ParseError as err:
                raise ChartError(f"line {lineno}: {err}") from err
    if n is None:
        raise ChartError("missing dim header")
    if section is None:
        raise ChartError("missing [metric] or [christoffel] section")
    return n, section, entries


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
