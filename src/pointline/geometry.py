"""Exact arrangement statistics for finite planar point sets.

Everything here runs on exact rational arithmetic (fractions.Fraction and
arbitrary-precision int). Collinearity is a discrete property: a single
rounded bit would move lines between histogram buckets, so no floating
point is allowed anywhere in this module.

The arrangement kernel writes each point in homogeneous integer
coordinates (X, Y, D), D > 0 the lcm of its own two denominators, so no
number grows with the rest of the set. It then walks the points in order
and groups the points after each one by their gcd-reduced integer
direction, coded as one int id (_directions), one group per line, holding
one point's groups at a time: O(n^2) pairs, each reduced by gcd on
integers at most four times as wide as the widest input numerator or
denominator, and O(n) memory. The search in generators codes its pair
keys with the same _directions.

All functions are pure; callers may fan work out over configurations
freely.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import comb, gcd, lcm

from ._record import Record
from .errors import CollinearInput, DuplicatePoints


class Point(Record):
    """A planar point with exact rational coordinates.

    Each coordinate is given as an int, a Fraction or a str such as "1/3"
    and stored as a Fraction. A str must be a point-file token
    (_record.parse_rational), else ValueError names the coordinate
    ("Point.x: not an integer or p/q: '1e3'"); a float, a Decimal or a
    bool raises TypeError.
    """

    x: Fraction
    y: Fraction


class PointSet(Record):
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


class ArrangementStats(Record):
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


def _directions(anchor: tuple[int, int, int], others: Sequence[tuple[int, int, int]],
                w: int) -> list[int]:
    """The id of the reduced direction from anchor to each of others, in
    order.

    Points are homogeneous triples (X, Y, D) for the point (X/D, Y/D),
    with D > 0. From (x, y, d) to (u, v, e) the kernel reduces
    (dx, dy) = (u*d - x*e, v*d - y*e), which is d*e > 0 times the real
    difference, so no common denominator is needed. The direction is
    (rx, ry) = (dx/g, dy/g) for g = gcd(dx, dy), signed so that rx > 0 or
    rx == 0 < ry: the primitive integer vector along the real difference,
    whatever the D values. Its id is the int rx*w + ry, so distinct
    directions get distinct ids while every |ry| < w/2. Two others share
    an id exactly when they lie on one line through anchor, on either side
    of it. No other may equal anchor.
    """
    px, py, pd = anchor
    ids = []
    for qx, qy, qd in others:
        dx, dy = qx * pd - px * qd, qy * pd - py * qd
        g = gcd(dx, dy)
        if dx < 0 or (dx == 0 and dy < 0):
            g = -g
        ids.append(dx // g * w + dy // g)
    return ids


def _homogeneous(ps: PointSet) -> list[tuple[int, int, int]]:
    """Each point as (X, Y, D) with (x, y) = (X/D, Y/D) and D > 0 the lcm
    of its two denominators."""
    out = []
    for p in ps:
        xd, yd = p.x.denominator, p.y.denominator
        d = lcm(xd, yd)
        out.append((p.x.numerator * (d // xd), p.y.numerator * (d // yd), d))
    return out


def compute_arrangement(ps: PointSet) -> ArrangementStats:
    """Histogram the lines of a point set, one anchor at a time.

    Anchor i groups only the points after it by direction: its forward
    classes. A line of k points has one forward class of each size
    1..k-1, at its first k-1 points in index order, so with N_m the number
    of forward classes of size m, s_k = N_(k-1) - N_k. Point i lies on one
    line per forward class, plus one per line on which it comes last; such
    a line's class of size 1 sits at its second-to-last point and holds i,
    so that anchor credits i in the same scan of its own ids.
    Classes are keyed by _directions' ids with w = 4*max|Y|*max D + 1:
    |dy| = |Y_q*D_p - Y_p*D_q| <= 2*max|Y|*max D, so every |ry| < w/2.
    O(n^2) pairs on homogeneous integers, one anchor's classes held at a
    time: O(n) memory. Point sets with n < 2 determine no lines and yield
    all-zero statistics.
    """
    pts = _homogeneous(ps)
    n = len(pts)
    top_y = max((abs(y) for _x, y, _d in pts), default=0)
    w = 4 * top_y * max((d for _x, _y, d in pts), default=0) + 1
    sizes: Counter[int] = Counter()
    degrees = [0] * n
    for i in range(n - 1):
        keys = _directions(pts[i], pts[i + 1:], w)
        forward = Counter(keys)
        sizes.update(forward.values())
        degrees[i] += len(forward)
        for j, key in enumerate(keys, i + 1):
            if forward[key] == 1:
                degrees[j] += 1
    s = {m + 1: sizes[m] - sizes[m + 1] for m in sorted(sizes) if sizes[m] > sizes[m + 1]}
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


def is_noncollinear(stats: ArrangementStats) -> bool:
    """True when the set has at least 3 points and not all on one line."""
    return stats.n >= 3 and stats.l_max < stats.n


def require_noncollinear(stats: ArrangementStats) -> None:
    """Raise CollinearInput for sets with fewer than 3 points or all on one line."""
    if not is_noncollinear(stats):
        raise CollinearInput(f"need at least 3 points, got {stats.n}" if stats.n < 3
                             else "all points lie on a single line")


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
