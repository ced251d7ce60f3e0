"""The benchmark's own exact references, computed without importing pointline.

The checkers compare pointline's output against these:

* `arrangement` is an integer direction-grouping kernel for integer point
  sets. Rational inputs in the workloads are built as images of integer
  sets (affine maps) or have a known answer (points on the unit circle),
  so an integer kernel covers every reference the benchmark needs.
* `Enclosures` brackets T(c) = sum_{i>=c} (i+1)/i^3 by a different method
  than pointline's: a directed-rounded partial sum on a 2^-200 grid up to
  N, then the trapezoid and midpoint bounds for the convex, decreasing
  summand, F(N) + f(N)/2 <= sum_{i>=N} f(i) <= F(N - 1/2), where
  F(a) = 1/a + 1/(2a^2) is the integral of f from a to infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

ALPHA = Fraction(103, 16)
BETA = Fraction(31827, 1024)
LAMBDA = {"dirac": Fraction(1), "beck": Fraction(2, 3)}

_GRID_BITS = 200
_GRID = 1 << _GRID_BITS
# Partial sums run up to this index; the remainder bracket at N has width
# about 1/(4 N^3), far below the tightest tail width the workloads request.
_SUM_LIMIT = 20_000


def arrangement(pts: list[tuple[int, int]]) -> dict:
    """Line histogram and Dirac degree of distinct integer points.

    For each point, the other points are grouped by reduced direction; each
    group is one line through the point. A line is counted once, at its
    lowest-index member. Returns the fields of pointline's analyze payload.
    """
    n = len(pts)
    s: dict[int, int] = {}
    degrees = [0] * n
    for i, (px, py) in enumerate(pts):
        lowest: dict[tuple[int, int], int] = {}
        sizes: dict[tuple[int, int], int] = {}
        for j, (qx, qy) in enumerate(pts):
            if j == i:
                continue
            dx, dy = qx - px, qy - py
            g = gcd(dx, dy)
            dx, dy = dx // g, dy // g
            if dx < 0 or (dx == 0 and dy < 0):
                dx, dy = -dx, -dy
            key = (dx, dy)
            if key in sizes:
                sizes[key] += 1
            else:
                sizes[key] = 1
                lowest[key] = j
        degrees[i] = len(sizes)
        for key, size in sizes.items():
            if i < lowest[key]:
                s[size + 1] = s.get(size + 1, 0) + 1
    s = {k: s[k] for k in sorted(s)}
    degree = max(degrees) if n else 0
    return {
        "n": n,
        "s": [[k, v] for k, v in s.items()],
        "lines": sum(s.values()),
        "incidences": sum(k * v for k, v in s.items()),
        "edges": sum((k - 1) * v for k, v in s.items()),
        "l_max": max(s) if s else 0,
        "dirac_degree": degree,
        "dirac_witness": degrees.index(degree) if n else None,
    }


def general_position_stats(n: int) -> dict:
    """The analyze payload of n points with no three collinear."""
    pairs = comb(n, 2)
    return {
        "n": n,
        "s": [[2, pairs]],
        "lines": pairs,
        "incidences": 2 * pairs,
        "edges": pairs,
        "l_max": 2,
        "dirac_degree": n - 1,
        "dirac_witness": 0,
    }


def _integral(a: Fraction) -> Fraction:
    return 1 / a + 1 / (2 * a * a)


def _remainder(n: int) -> tuple[Fraction, Fraction]:
    f_n = Fraction(n + 1, n**3)
    return _integral(Fraction(n)) + f_n / 2, _integral(Fraction(2 * n - 1, 2))


def h_of(c: int) -> Fraction:
    return Fraction(c * (c - 2), 5 * c - 18)


def mid_term(c: int) -> Fraction:
    return (c - h_of(c) - 2) * (c + 1) / Fraction(c**3)


@dataclass(frozen=True)
class Bracket:
    lo: Fraction
    hi: Fraction

    def overlaps(self, lo: Fraction, hi: Fraction) -> bool:
        return max(self.lo, lo) <= min(self.hi, hi)


class Enclosures:
    """Tail, delta and fixed-point brackets at any cutoff c >= 8."""

    def __init__(self) -> None:
        # suffix_lo[k] = sum of floor(f(i) * 2^200) for i in k+8 .. _SUM_LIMIT-1.
        lo_terms, hi_terms = [], []
        for i in range(8, _SUM_LIMIT):
            q, r = divmod((i + 1) << _GRID_BITS, i**3)
            lo_terms.append(q)
            hi_terms.append(q + (1 if r else 0))
        self._suffix_lo = _suffix_sums(lo_terms)
        self._suffix_hi = _suffix_sums(hi_terms)
        self._rem = _remainder(_SUM_LIMIT)

    def tail(self, c: int) -> Bracket:
        if c >= _SUM_LIMIT:
            lo, hi = _remainder(c)
            return Bracket(lo, hi)
        k = c - 8
        return Bracket(
            Fraction(self._suffix_lo[k], _GRID) + self._rem[0],
            Fraction(self._suffix_hi[k], _GRID) + self._rem[1],
        )

    def delta(self, c: int, eps: Fraction, tail_hi_slack: Fraction = Fraction(0)) -> Bracket:
        """delta(eps) at cutoff c; the low end may allow extra tail width."""
        t = self.tail(c)
        b = 1 / (h_of(c) + 1)
        m = mid_term(c)
        return Bracket(
            b * (1 - eps * ALPHA - BETA / 2 * (m + t.hi + tail_hi_slack)),
            b * (1 - eps * ALPHA - BETA / 2 * (m + t.lo)),
        )

    def fixed_point(self, c: int, mode: str, tail_hi_slack: Fraction = Fraction(0)) -> Bracket | None:
        """Bracket of eps = lam * delta(eps); None when no positive root may exist."""
        t = self.tail(c)
        lam = LAMBDA[mode]
        b = 1 / (h_of(c) + 1)
        m = mid_term(c)

        def root(tail: Fraction) -> Fraction:
            return lam * b * (1 - BETA / 2 * (m + tail)) / (1 + lam * ALPHA * b)

        lo = root(t.hi + tail_hi_slack)
        if lo <= 0:
            return None
        return Bracket(lo, root(t.lo))

    def has_no_root(self, c: int, mode: str) -> bool:
        """True when even the smallest tail leaves no positive fixed point."""
        return 1 - BETA / 2 * (mid_term(c) + self.tail(c).lo) <= 0


def _suffix_sums(terms: list[int]) -> list[int]:
    out = [0] * (len(terms) + 1)
    for k in range(len(terms) - 1, -1, -1):
        out[k] = out[k + 1] + terms[k]
    return out
