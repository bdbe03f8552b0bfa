"""The line grammar shared by every text file format of the package.

A group, action, rep, endomorphism or lattice file is a header line
`keyword n1 ... nk` of integers followed by records, one per nonblank line.
Blank lines are skipped anywhere, and every ParseError raised here or by a
reader built on these helpers carries the 1-based line of the file itself.
`write_records` is the one writer of that grammar.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import ParseError

Record = tuple[int, str]  # (1-based file line, line text)


def read_records(text: str, keyword: str,
                 n_fields: int) -> tuple[int, list[int], list[Record]]:
    """The header's line and integer fields, and every later nonblank line
    as a Record."""
    records = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not records:
        raise ParseError(f"empty file, expected a '{keyword}' header", 1)
    line, head = records[0]
    tokens = head.split()
    if len(tokens) != 1 + n_fields or tokens[0] != keyword:
        raise ParseError(f"expected '{keyword}' and {n_fields} integer(s)", line)
    return line, read_ints(tokens[1:], line, "header field"), records[1:]


def write_records(keyword: str, fields: Sequence[int],
                  records: Iterable[Sequence[object]]) -> str:
    """The header `keyword n1 ... nk`, then each record's tokens joined by
    single spaces, one record per line, and a final newline."""
    return "\n".join(" ".join(map(str, r)) for r in ((keyword, *fields), *records)) + "\n"


def read_ints(tokens: Sequence[str], line: int, what: str,
              bound: Optional[int] = None) -> list[int]:
    """Convert tokens to integers, each in 0..bound-1 when a bound is given."""
    try:
        values = list(map(int, tokens))
    except ValueError:
        raise ParseError(f"non-integer {what}", line) from None
    if bound is not None and values and (min(values) < 0 or max(values) >= bound):
        raise ParseError(f"{what} out of range 0..{bound - 1}", line)
    return values


def read_floats(tokens: Sequence[str], line: int, what: str) -> list[float]:
    try:
        return list(map(float, tokens))
    except ValueError:
        raise ParseError(f"non-numeric {what}", line) from None


def end_line(head_line: int, records: Sequence[Record]) -> int:
    """The line to blame for records missing at the end of a file."""
    return records[-1][0] if records else head_line
