"""Deterministic configuration generators and a degree-minimizing search.

generate(kind, *sizes, extent=None, seed=None) builds each of KINDS and
owns every rule on its arguments; the generate command passes its
arguments through unchanged. Randomness comes from an in-package
SplitMix64 stream so that every result is reproducible bit-for-bit across
platforms and runs; the search command writes the algorithm name,
RNG_ALGORITHM, into every search document.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, gcd

from ._record import Record
from .errors import GenerationFailed
from .geometry import PointSet, _directions

_MASK64 = (1 << 64) - 1

KINDS = ("grid", "near_pencil", "collinear", "parabola", "random_grid")

# Largest point count generate() builds: WIDTH * HEIGHT for
# generate("grid", WIDTH, HEIGHT), N for generate(kind, N) of every other kind.
MAX_POINTS = 10**6

# Largest amount of work search_min_dirac() takes on, in units of about a
# microsecond. A search of n points over I iterations in R restarts counts
# R * C(n, 2) + I * (n + 10) and is refused above the cap: each restart
# reduces its start's C(n, 2) point pairs, and each proposal reduces at most
# n - 1 pairs, plus a fixed cost of about ten.
MAX_SEARCH_WORK = 10**6

RNG_ALGORITHM = "splitmix64"


class SplitMix64:
    """The standard splitmix64 generator; 64-bit state, fixed increment."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        return self.below(1 << 64)

    def below(self, bound: int) -> int:
        """Uniform draw from 0..bound-1 by rejection; no modulo bias.
        bound is at most 2^64, the number of values a draw can take. Each
        attempt is the next value of the stream, mixed inline."""
        if not 0 < bound <= 1 << 64:
            raise ValueError(f"bound must be in 1..2^64, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            self._state = z = (self._state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            z ^= z >> 31
            if z < limit:
                return z % bound


def generate(kind: str, *sizes: int, extent: int | None = None,
             seed: int | None = None) -> PointSet:
    """The configuration of one of KINDS. Deterministic: equal arguments
    give equal point sets.

    - grid WIDTH HEIGHT: the integer grid {0..WIDTH-1} x {0..HEIGHT-1}.
    - near_pencil N: N - 1 points on a line and one off it (N >= 3).
    - collinear N: N points on a line (N >= 1).
    - parabola N: (i, i^2) for i < N, no three collinear (N >= 1).
    - random_grid N: N distinct cells of {0..extent}^2 drawn from
      SplitMix64(seed); extent and seed are required, 0 <= extent < 2^64.
      Every other kind refuses them rather than ignoring them.

    The checks run in this order, so a request that breaks several rules
    gets the first one's error: the kind; the number of sizes; random_grid's
    extent and seed, given to it and to no other kind; grid width and
    height >= 1; the MAX_POINTS cap, before anything is built; the kind's
    own minimum n, then random_grid's extent range and room on its grid.
    The cap and a random_grid that cannot be placed raise
    GenerationFailed, every other rule ValueError.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    if kind == "grid":
        if len(sizes) != 2:
            raise ValueError("grid takes two sizes: WIDTH HEIGHT")
    elif len(sizes) != 1:
        raise ValueError(f"{kind} takes one size: N")
    if kind == "random_grid" and (extent is None or seed is None):
        raise ValueError("random_grid requires --extent and --seed")
    if kind != "random_grid" and (extent, seed) != (None, None):
        raise ValueError(f"{kind} takes no --extent or --seed")
    if kind == "grid":
        width, height = sizes
        if width < 1 or height < 1:
            raise ValueError("grid needs width >= 1 and height >= 1")
        count = width * height
    else:
        (count,) = sizes
    if count > MAX_POINTS:
        raise GenerationFailed(f"{count} points requested; the cap is {MAX_POINTS}")
    if kind == "grid":
        return PointSet.from_coords((x, y) for x in range(width) for y in range(height))
    n = count
    if kind == "random_grid":
        return _random_grid(n, extent, seed)
    if kind == "near_pencil":
        if n < 3:
            raise ValueError("near_pencil needs n >= 3")
        return PointSet.from_coords([(i, 0) for i in range(n - 1)] + [(0, 1)])
    if n < 1:
        raise ValueError(f"{kind} needs n >= 1")
    if kind == "collinear":
        return PointSet.from_coords((i, 0) for i in range(n))
    return PointSet.from_coords((i, i * i) for i in range(n))


def _grid_side(n: int, extent: int) -> int:
    """The side of the grid {0..extent}^2, once it holds n distinct points
    and SplitMix64.below can draw a coordinate on it."""
    side = extent + 1
    if side > 1 << 64:
        raise ValueError(f"need extent < 2^64, got {extent}")
    if n > side * side:
        raise GenerationFailed(f"cannot place {n} distinct points on a {side}x{side} grid")
    return side


def _random_grid(n: int, extent: int, seed: int) -> PointSet:
    if n < 1 or extent < 0:
        raise ValueError("random_grid needs n >= 1 and extent >= 0")
    cells = _draw_cells(SplitMix64(seed), n, _grid_side(n, extent))
    if len(cells) < n:
        raise GenerationFailed(f"retry budget exhausted at {len(cells)}/{n} points")
    return PointSet.from_coords(cells)


def _draw_cells(rng: SplitMix64, n: int, side: int) -> list[tuple[int, int]]:
    """n distinct cells of the side x side grid in draw order, or fewer if
    the budget of 1000 + 200n draws runs out first."""
    cells: dict[tuple[int, int], None] = {}
    for _ in range(1000 + 200 * n):
        if len(cells) == n:
            break
        cells[(rng.below(side), rng.below(side))] = None
    return list(cells)


class _Climb:
    """One restart's configuration with its pair keys and direction classes
    kept live.

    A key is an int direction id of geometry._directions,
    |(dx*w + dy) / gcd(dx, dy)|, taken on (x, y, 1) triples with
    w = 2*side - 1: on a grid of that side every |dy| < w/2, so the id is
    the same from either end.
    keys[j][i] is the id between points j and i, one int object serving
    keys[i][j] too, and keys[j][j] is None. classes[j] maps each id in
    keys[j] to the number of other points on the line through j that way.
    The build reduces each pair once, from its earlier point, by
    _directions. An accepted move updates row and column idx of keys
    and the classes in O(n), so a proposal is scored without recomputing
    the arrangement. The classes are plain dicts, whose subscripts CPython
    specialises, and an int id hashes and compares faster than a tuple.
    occupied is set(pts).
    """

    def __init__(self, pts: list[tuple[int, int]], w: int):
        self.pts = pts
        self.w = w
        self.occupied = set(pts)
        hom = [(x, y, 1) for x, y in pts]
        # the id from j back to an earlier i is later[i][j - i - 1],
        # gathered by map because a comprehension over the n^2/2 entries
        # measured slower
        later = [_directions(h, hom[j + 1:], w) for j, h in enumerate(hom)]
        self.keys = [[*map(list.__getitem__, later, range(j - 1, -1, -1)), None, *later[j]]
                     for j in range(len(pts))]
        self.classes = [_classes_of(row) for row in self.keys]
        self.degree = max(len(at_j) for at_j in self.classes)

    def score(self, idx: int, cell: tuple[int, int], bound: int) -> tuple[int, list] | None:
        """The maximum point degree once point idx moves to cell, and the
        new row idx of keys for accept(); None as soon as that degree is
        seen to exceed bound. The state is unchanged.

        The old id of each other point j is keys[idx][j]; the new id, from
        j to cell, is the one reduction per point. When the two ids differ,
        j loses a line if its old class holds only the moved point and
        gains one if it has no class for the new id, so a point with fewer
        classes than the largest degree seen so far cannot raise it and its
        classes are not read. The moved point lies on one line per distinct
        new id. The reduction is _directions' expression on (x, y, 1)
        triples, |(dx*w + dy) / gcd(dx, dy)|, kept inline in this hot loop
        so that a rejected proposal stops at the first point whose degree
        passes bound: reducing the row first in one call made
        search_min_dirac(12, 11, 3000, s) 7-11% and (40, 30, 500, s) 2-5%
        slower in CPU (Python 3.11, 20 interleaved runs, seeds 2024 and
        434089801).
        """
        cx, cy = cell
        w = self.w
        degree = 0
        row = []
        for (px, py), old, at_j in zip(self.pts, self.keys[idx], self.classes):
            if old is None:  # the moved point itself
                row.append(None)
                continue
            dx, dy = cx - px, cy - py
            new = abs((dx * w + dy) // gcd(dx, dy))
            row.append(new)
            d = len(at_j)
            if d >= degree and old != new:
                d += (new not in at_j) - (at_j[old] == 1)
            if d > degree:
                if d > bound:
                    return None
                degree = d
        moved = len(set(row)) - 1  # less the None at idx
        if moved > bound:
            return None
        return max(degree, moved), row

    def accept(self, idx: int, cell: tuple[int, int], degree: int, row: list) -> None:
        """Move point idx to cell, given score(idx, cell, bound) == (degree, row).
        The moved point's classes are counted in the same walk, which took
        less time than a Counter of the row at n = 12 and 40 (Python 3.11)."""
        keys = self.keys
        moved = {}
        for old, new, at_j, keys_j in zip(keys[idx], row, self.classes, keys):
            if old != new:
                if at_j[old] == 1:
                    del at_j[old]
                else:
                    at_j[old] -= 1
                at_j[new] = at_j.get(new, 0) + 1
            keys_j[idx] = new
            moved[new] = moved.get(new, 0) + 1
        del moved[None]
        keys[idx] = row
        self.classes[idx] = moved
        self.occupied.remove(self.pts[idx])
        self.occupied.add(cell)
        self.pts[idx] = cell
        self.degree = degree


def _classes_of(row: list) -> dict:
    """The direction classes of one row of _Climb.keys: each id's count,
    the None on the diagonal left out."""
    at_j = dict(Counter(row))
    del at_j[None]
    return at_j


def _sample_start(rng: SplitMix64, n: int, side: int) -> _Climb:
    """A distinct, non-collinear starting configuration."""
    for _ in range(4096):
        pts = sorted(_draw_cells(rng, n, side))
        if len(pts) == n:
            climb = _Climb(pts, 2 * side - 1)
            if climb.degree >= 2:
                return climb
    raise GenerationFailed("could not sample a non-collinear start")


class SearchResult(Record):
    best_set: PointSet
    degree: int
    ratio: Fraction
    # always the iterations argument, kept only because bench/trace_entry.py
    # counts generators.iterations from it; ROADMAP item 2's in-package
    # instrument retires it
    iterations_run: int


def search_min_dirac(n: int, extent: int, iterations: int, seed: int) -> SearchResult:
    """Random-restart hill climb minimizing the maximum point degree.

    Each step moves one point to a random grid cell and keeps the move when
    the degree does not increase (plateau moves allowed). Candidates must
    stay distinct and non-collinear; invalid proposals are redrawn a few
    times, then the step is a no-op. A fresh restart begins every
    iterations//10 steps with the stream reseeded to seed XOR restart
    index, so the outcome does not depend on scheduling; the best restart
    wins, ties to the lowest restart index. ratio reports degree / (n/2).

    A restart keys each of its start's C(n, 2) pairs by an int direction
    id, in a table of pair keys and the direction classes built from it; a
    proposal is then scored in O(n) from them (see _Climb.score): only
    lines through the moved point's old or new cell can change, so each
    other point's degree moves by at most one either way, and the moved
    point's degree is its number of distinct directions to the others. The
    old keys are read from the table, so a proposal reduces at most n - 1
    new ones, and scoring stops as soon as the candidate's degree exceeds
    the current one, which rejects it. The table and classes are updated
    only when a move is accepted.

    The work cap and the loop read one restart schedule, and
    iterations_run equals iterations. Raises GenerationFailed, before any
    work is done, when the restarts' pairs plus the iterations' proposals
    exceed MAX_SEARCH_WORK.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if extent < 2:
        raise ValueError(f"need extent >= 2, got {extent}")
    if iterations < 1:
        raise ValueError(f"need iterations >= 1, got {iterations}")
    side = _grid_side(n, extent)
    restart_len = max(1, iterations // 10)
    starts = range(0, iterations, restart_len)
    work = len(starts) * comb(n, 2) + iterations * (n + 10)
    if work > MAX_SEARCH_WORK:
        raise GenerationFailed(
            f"search work {work} requested for n={n} over {iterations} iterations; "
            f"the cap is {MAX_SEARCH_WORK}"
        )

    best_pts: list[tuple[int, int]] | None = None
    best_deg = 0
    for restart, first in enumerate(starts):
        rng = SplitMix64(seed ^ restart)
        climb = _sample_start(rng, n, side)
        for _ in range(min(restart_len, iterations - first)):
            for _attempt in range(64):
                idx = rng.below(n)
                cell = (rng.below(side), rng.below(side))
                if cell == climb.pts[idx]:
                    break  # moving onto itself: valid no-op proposal
                if cell in climb.occupied:
                    continue
                scored = climb.score(idx, cell, climb.degree)
                if scored is None:
                    break  # worse than the incumbent: rejected
                cand_deg, row = scored
                if cand_deg < 2:
                    continue  # collinear candidates are rejected
                climb.accept(idx, cell, cand_deg, row)
                break
        if best_pts is None or climb.degree < best_deg:
            best_pts, best_deg = climb.pts, climb.degree

    return SearchResult(
        best_set=PointSet.from_coords(best_pts),
        degree=best_deg,
        ratio=Fraction(2 * best_deg, n),
        iterations_run=iterations,
    )
