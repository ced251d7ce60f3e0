"""Plain-text point files: one point per line, "x y", exact rationals.

Each coordinate is an integer or "p/q" with q > 0, in ASCII digits with an
optional sign on the numerator only. p and q have at most 4300 digits
each, CPython's default int-string conversion limit; longer ones raise
ValueError. Lines end at "\n" only, so a "\r" before it is stripped as
whitespace and any other line or paragraph separator stays inside its
line. Blank lines and lines starting with '#' are ignored. The format
round-trips exactly.

parse_rational, the coordinate grammar, is _record's, re-exported here as
the same function: records, flags and point files read numbers alike.
"""

from __future__ import annotations

from ._record import parse_rational
from .errors import PointFormatError
from .geometry import PointSet


def parse_points(text: str) -> PointSet:
    """Parse a point file into a PointSet, preserving line order.

    Raises PointFormatError with the offending 1-based line number, or
    DuplicatePoints if the file repeats a point.
    """
    coords = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise PointFormatError(line_no, f"expected 2 fields, got {len(fields)}")
        try:
            x = parse_rational(fields[0])
            y = parse_rational(fields[1])
        except ValueError as exc:
            raise PointFormatError(line_no, str(exc)) from None
        coords.append((x, y))
    return PointSet.from_coords(coords)


def format_points(ps: PointSet) -> str:
    """Serialize a PointSet in the point-file format (parse round-trips)."""
    return "".join(f"{p.x} {p.y}\n" for p in ps)
