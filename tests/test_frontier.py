"""Exact frontiers on small hosts, from an oracle that shares no code with
geometry.

The oracle builds a host's line table from exact cross products: each
line is the set of host points collinear with one pair, found once. It then
walks every n-subset of the host from itertools.combinations. A subset's
point degree is the number of distinct host lines through the point that
hold another point of the subset; its lines are the host lines holding at
least two of its points, and l_max is the most of its points on one. The
least values pinned here were first found by a branch-and-bound over the
same hosts.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import itemgetter
from pathlib import Path

import pytest

from pointline import PointSet, check_beck, compute_arrangement, parse_points, search_min_dirac

DATA = Path(__file__).resolve().parent / "data"


class Host:
    """A host point list with the index of the line through each pair."""

    def __init__(self, coords):
        self.coords = [(Fraction(x), Fraction(y)) for x, y in coords]
        m = len(self.coords)
        self.line_of = [[-1] * m for _ in range(m)]  # -1 on the diagonal
        self.masks = []  # each line's points as a bitmask of host indices
        for i, j in combinations(range(m), 2):
            if self.line_of[i][j] >= 0:
                continue
            (ax, ay), (bx, by) = self.coords[i], self.coords[j]
            on = [k for k, (x, y) in enumerate(self.coords)
                  if (bx - ax) * (y - ay) == (by - ay) * (x - ax)]
            for p, q in combinations(on, 2):
                self.line_of[p][q] = self.line_of[q][p] = len(self.masks)
            self.masks.append(sum(1 << k for k in on))

    def kernel_stats(self, subset):
        """compute_arrangement of the subset, checked to give the same s
        and maximum degree in each cyclic order of it: every point comes
        last once, and every line is walked from each end."""
        runs = [compute_arrangement(PointSet.from_coords(
                    self.coords[k] for k in subset[r:] + subset[:r]))
                for r in range(len(subset))]
        for stats in runs:
            assert (stats.s, stats.dirac_degree) == (runs[0].s, runs[0].dirac_degree)
        return runs[0]

    def least_max_degree(self, n):
        """(least max degree over the non-collinear n-subsets, first such subset)."""
        best = None
        for subset in combinations(range(len(self.coords)), n):
            get = itemgetter(*subset)
            # the -1 of the point's own diagonal entry is in each set
            degree = max(len(set(get(self.line_of[p]))) for p in subset) - 1
            if degree >= 2 and (best is None or degree < best[0]):
                best = degree, subset
        return best

    def least_lines(self, n, ells):
        """{l: (least line count over the n-subsets with l_max <= l, first such subset)}."""
        best = {}
        for subset in combinations(range(len(self.coords)), n):
            bits = sum(1 << k for k in subset)
            sizes = [(mask & bits).bit_count() for mask in self.masks]
            lines, l_max = sum(size >= 2 for size in sizes), max(sizes)
            for ell in ells:
                if l_max <= ell and (ell not in best or lines < best[ell][0]):
                    best[ell] = lines, subset
        return best


GRID_4 = Host((x, y) for x in range(4) for y in range(4))


def closure_3():
    """The 3x3 grid plus the point at infinity of each primitive direction
    between its cells, under (X, Y, Z) -> (X, Y)/(X + 7Y + 100Z)."""
    host = [(x, y, 1) for x in range(3) for y in range(3)]
    host += [(dx, dy, 0) for dx in range(3) for dy in range(-2, 3)
             if (dx > 0 or dy > 0) and gcd(dx, dy) == 1]
    return Host((Fraction(x, x + 7 * y + 100 * z), Fraction(y, x + 7 * y + 100 * z))
                for x, y, z in host)


def test_dirac_frontier_of_the_4x4_grid():
    least = {}
    for n in range(5, 11):
        degree, witness = GRID_4.least_max_degree(n)
        least[n] = degree
        assert GRID_4.kernel_stats(witness).dirac_degree == degree
        # the climb runs on the same 16 cells, so it can never go lower
        for seed in (1, 2, 3):
            assert search_min_dirac(n, 3, 3000, seed).degree >= degree, (n, seed)
    assert least == {5: 3, 6: 4, 7: 4, 8: 5, 9: 6, 10: 6}


def test_dirac_frontier_of_the_3x3_closure_drops_below_half():
    host = closure_3()
    assert len(host.coords) == 17
    triangle = parse_points((DATA / "triangle_9.txt").read_text())
    assert {(p.x, p.y) for p in triangle} <= set(host.coords)
    for n, want in ((9, 4), (13, 6)):
        degree, witness = host.least_max_degree(n)
        assert degree == want < (n + 1) // 2
        assert host.kernel_stats(witness).dirac_degree == degree


BECK_4X4 = {(6, 2): 15, (6, 3): 9, (6, 4): 8, (8, 2): 28, (8, 3): 16, (8, 4): 15,
            (10, 3): 27, (10, 4): 23, (12, 3): 42, (12, 4): 34}


@pytest.mark.parametrize("n", sorted({n for n, _ell in BECK_4X4}))
def test_beck_frontier_of_the_4x4_grid(n):
    ells = [ell for m, ell in BECK_4X4 if m == n]
    found = GRID_4.least_lines(n, ells)
    assert {ell: lines for ell, (lines, _w) in found.items()} == {
        ell: BECK_4X4[n, ell] for ell in ells}
    for ell, (lines, witness) in found.items():
        stats = GRID_4.kernel_stats(witness)
        assert stats.lines == lines and stats.l_max <= ell
        assert check_beck(stats).holds
