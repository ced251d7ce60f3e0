"""Exact arrangement statistics for finite planar point sets.

Everything here runs on exact rational arithmetic (fractions.Fraction and
arbitrary-precision int). Collinearity is a discrete property: a single
rounded bit would move lines between histogram buckets, so no floating
point is allowed anywhere in this module.

The arrangement kernel scales all coordinates once to their common
denominator, which keeps every collinear triple, and groups the pairs at
each point by their gcd-reduced integer direction: one group per line.

All functions are pure; callers may fan work out over configurations
freely.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterator, Sequence

from .errors import CollinearInput, DuplicatePoints, IdenticalPoints


@dataclass(frozen=True)
class Point:
    """A planar point with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        # Accept int / str / Fraction inputs; normalise to Fraction.
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))


@dataclass(frozen=True)
class PointSet:
    """An ordered tuple of pairwise distinct points.

    Order is preserved exactly as given; point indices used in reports and
    witnesses refer to this order. Distinctness is enforced at construction
    so downstream statistics never see a degenerate multiset.
    """

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        seen: dict[Point, int] = {}
        clashes = []
        for idx, p in enumerate(pts):
            if p in seen:
                clashes.append((seen[p], idx))
            else:
                seen[p] = idx
        if clashes:
            raise DuplicatePoints(clashes)

    @classmethod
    def from_coords(cls, coords) -> "PointSet":
        return cls(tuple(Point(x, y) for x, y in coords))

    @property
    def n(self) -> int:
        return len(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __getitem__(self, idx: int) -> Point:
        return self.points[idx]


@dataclass(frozen=True)
class Line:
    """A line a*x + b*y + c = 0 in canonical integer form.

    Canonical means: a, b, c are integers with gcd 1, (a, b) != (0, 0), and
    the sign is fixed by a > 0, or a == 0 and b > 0. Two point pairs span
    the same line exactly when their canonical triples are equal.
    """

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if (a, b) == (0, 0):
            raise ValueError("degenerate line: a = b = 0")
        if gcd(a, b, c) != 1:
            raise ValueError(f"non-reduced line triple ({a}, {b}, {c})")
        if a < 0 or (a == 0 and b < 0):
            raise ValueError(f"sign rule violated for ({a}, {b}, {c})")


def collinear(p: Point, q: Point, r: Point) -> bool:
    """Exact orientation test: True iff the three points lie on one line."""
    return (q.x - p.x) * (r.y - p.y) == (q.y - p.y) * (r.x - p.x)


def canonical_line(p: Point, q: Point) -> Line:
    """The unique canonical Line through two distinct points."""
    if p == q:
        raise IdenticalPoints(f"cannot span a line from coincident points {p}")
    a = q.y - p.y
    b = p.x - q.x
    c = q.x * p.y - p.x * q.y
    d = lcm(a.denominator, b.denominator, c.denominator)
    ai = a.numerator * (d // a.denominator)
    bi = b.numerator * (d // b.denominator)
    ci = c.numerator * (d // c.denominator)
    g = gcd(ai, bi, ci)
    ai, bi, ci = ai // g, bi // g, ci // g
    if ai < 0 or (ai == 0 and bi < 0):
        ai, bi, ci = -ai, -bi, -ci
    return Line(ai, bi, ci)


@dataclass(frozen=True)
class ArrangementStats:
    """Line histogram of a point set.

    s maps i to the number of lines containing exactly i of the points
    (only nonzero entries, ascending keys). lines, incidences and edges are
    sum(s_i), sum(i * s_i) and sum((i-1) * s_i). l_max is the largest line
    size (0 when no line is determined). dirac_degree is the maximum number
    of determined lines through any single point, attained at index
    dirac_witness (lowest such index; None only for the empty set).
    """

    n: int
    s: dict[int, int]
    lines: int
    incidences: int
    edges: int
    l_max: int
    dirac_degree: int
    dirac_witness: int | None


def direction_classes(pts: Sequence[tuple[int, int]]) -> list[dict[tuple[int, int], int]]:
    """For each of the distinct integer points, the lines through it.

    classes[i] maps each reduced direction (dx, dy), with dx > 0 or
    dx == 0 < dy, to the number of other points on the line through point
    i in that direction. Each pair i < j is visited once and counted at
    both ends, so a line of k points is a class of size k - 1 at each of
    its k members.
    """
    n = len(pts)
    classes: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
    for i, (px, py) in enumerate(pts):
        at_i = classes[i]
        for j in range(i + 1, n):
            qx, qy = pts[j]
            dx, dy = qx - px, qy - py
            g = gcd(dx, dy)
            if dx < 0 or (dx == 0 and dy < 0):
                g = -g
            key = (dx // g, dy // g)
            at_i[key] = at_i.get(key, 0) + 1
            at_j = classes[j]
            at_j[key] = at_j.get(key, 0) + 1
    return classes


def _integer_coords(ps: PointSet) -> list[tuple[int, int]]:
    """The points scaled by the common denominator of all coordinates."""
    d = lcm(*(c.denominator for p in ps for c in (p.x, p.y)))
    return [
        (p.x.numerator * (d // p.x.denominator), p.y.numerator * (d // p.y.denominator))
        for p in ps
    ]


def compute_arrangement(ps: PointSet) -> ArrangementStats:
    """Histogram the lines of a point set from its direction classes.

    O(n^2) pairs on integers. A line of k points is a class of size k - 1
    at each of its k members, so s_k is the number of such classes over k.
    Point sets with n < 2 determine no lines and yield all-zero statistics.
    """
    classes = direction_classes(_integer_coords(ps))
    tally = Counter(size for at_i in classes for size in at_i.values())
    s = {k + 1: tally[k] // (k + 1) for k in sorted(tally)}
    degrees = [len(at_i) for at_i in classes]
    degree = max(degrees, default=0)
    return ArrangementStats(
        n=ps.n,
        s=s,
        lines=sum(s.values()),
        incidences=sum(i * si for i, si in s.items()),
        edges=sum((i - 1) * si for i, si in s.items()),
        l_max=max(s, default=0),
        dirac_degree=degree,
        dirac_witness=degrees.index(degree) if degrees else None,
    )


def require_noncollinear(stats: ArrangementStats) -> None:
    """Raise CollinearInput for sets with fewer than 3 points or all on one line."""
    if stats.n < 3:
        raise CollinearInput(f"need at least 3 points, got {stats.n}")
    if stats.l_max == stats.n:
        raise CollinearInput("all points lie on a single line")


def dirac_degree(ps: PointSet) -> tuple[int, int]:
    """(witness index, degree): the point lying on the most determined lines.

    Ties go to the lowest index. Refuses sets with fewer than 3 points and
    fully collinear sets, where the maximum is degenerate.
    """
    stats = compute_arrangement(ps)
    require_noncollinear(stats)
    return stats.dirac_witness, stats.dirac_degree


def subgraph_edge_count(stats: ArrangementStats, i: int) -> int:
    """sum_{j >= i} (j - 1) * s_j: edges of the visibility subgraph at level i."""
    if i < 2:
        raise ValueError(f"level must be >= 2, got {i}")
    return sum((j - 1) * sj for j, sj in stats.s.items() if j >= i)


def pair_tally(stats: ArrangementStats, lo: int, hi: int) -> int:
    """sum_{lo <= i <= hi} C(i, 2) * s_i: point pairs on lines of size lo..hi."""
    if not 2 <= lo <= hi:
        raise ValueError(f"need 2 <= lo <= hi, got lo={lo} hi={hi}")
    return sum(comb(i, 2) * si for i, si in stats.s.items() if lo <= i <= hi)
