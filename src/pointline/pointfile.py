"""Plain-text point files: one point per line, "x y", exact rationals.

Each coordinate is an integer or "p/q" with q > 0, in ASCII digits with an
optional sign on the numerator only. Blank lines and lines starting with
'#' are ignored. The format round-trips exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import PointFormatError
from .geometry import PointSet

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(token: str) -> Fraction:
    """Parse an integer or "p/q" token of ASCII digits; q must be positive."""
    match = _RATIONAL.fullmatch(token.strip())
    if match is None:
        raise ValueError(f"not an integer or p/q: {token!r}")
    num, den = match.groups(default="1")
    if int(den) == 0:
        raise ValueError(f"denominator must be positive in {token!r}")
    return Fraction(int(num), int(den))


def parse_points(text: str) -> PointSet:
    """Parse a point file into a PointSet, preserving line order.

    Raises PointFormatError with the offending 1-based line number, or
    DuplicatePoints if the file repeats a point.
    """
    coords = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
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
