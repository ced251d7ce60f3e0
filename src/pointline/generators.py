"""Deterministic configuration generators and a degree-minimizing search.

generate(kind, *sizes, extent=None, seed=None) builds each of KINDS and
owns every rule on its arguments; the generate command passes its
arguments through unchanged. Randomness comes from an in-package
SplitMix64 stream so that every result is reproducible bit-for-bit across
platforms and runs; the algorithm name travels with search results.
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
# microsecond: each restart reduces C(n, 2) point pairs, and each iteration
# scores one proposal against the n points plus a fixed cost of about ten.
MAX_SEARCH_WORK = 10**6

RNG_ALGORITHM = "splitmix64"


class SplitMix64:
    """The standard splitmix64 generator; 64-bit state, fixed increment."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform draw from 0..bound-1 by rejection; no modulo bias.
        bound is at most 2^64, the number of values a draw can take."""
        if not 0 < bound <= 1 << 64:
            raise ValueError(f"bound must be in 1..2^64, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound


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

    The checks run in this order, so a request that breaks several rules
    gets the first one's error: the kind; the number of sizes; random_grid's
    extent and seed; grid width and height >= 1; the MAX_POINTS cap,
    before anything is built; the kind's own minimum n, then random_grid's
    extent range and room on its grid. The cap and a random_grid that
    cannot be placed raise GenerationFailed, every other rule ValueError.
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
    """One restart's configuration with its direction classes kept live.

    classes[j] maps each direction from point j, reduced as in
    geometry._directions, to the number of other points on the line
    through j that way. It is built once, from each point's directions to
    the points after it, by geometry._directions on (x, y, 1) triples.
    score reduces plain integer differences inline, which gives the same
    keys because every D is 1. An accepted move updates the classes in
    O(n), so a proposal is scored without recomputing the arrangement.
    The classes are plain dicts, whose subscripts CPython specialises.
    occupied is set(pts).
    """

    def __init__(self, pts: list[tuple[int, int]]):
        self.pts = pts
        self.occupied = set(pts)
        # each pair is reduced once, from its earlier point; the direction
        # from j back to an earlier i is later[i][j - i - 1]
        hom = [(x, y, 1) for x, y in pts]
        later = [_directions(h, hom[j + 1:]) for j, h in enumerate(hom)]
        self.classes = [dict(Counter([later[i][j - i - 1] for i in range(j)] + later[j]))
                        for j in range(len(pts))]
        self.degree = max(len(at_j) for at_j in self.classes)

    def score(self, idx: int, cell: tuple[int, int]) -> tuple[int, list]:
        """The maximum point degree once point idx moves to cell, and the
        (j, old key, new key) of every other point j for accept(). The
        state is unchanged.

        A key is the reduced direction from j to the moved point, signed as
        in geometry._directions. When the two keys differ, j loses a line if
        its old class holds only the moved point and gains one if it has no
        class for the new key; the moved point lies on one line per
        distinct new key. Both reductions stay inline, the hot loop of the
        search: routing them through geometry._directions builds two more
        lists per proposal and measured up to 10% slower at n = 100.
        """
        ox, oy = self.pts[idx]
        cx, cy = cell
        classes = self.classes
        degree = 0
        rekeys = []
        for j, (px, py) in enumerate(self.pts):
            if j == idx:
                continue
            dx, dy = ox - px, oy - py
            g = gcd(dx, dy)
            if dx < 0 or (dx == 0 and dy < 0):
                g = -g
            old = (dx // g, dy // g)
            dx, dy = cx - px, cy - py
            g = gcd(dx, dy)
            if dx < 0 or (dx == 0 and dy < 0):
                g = -g
            new = (dx // g, dy // g)
            at_j = classes[j]
            d = len(at_j)
            if old != new:
                d += (new not in at_j) - (at_j[old] == 1)
            if d > degree:
                degree = d
            rekeys.append((j, old, new))
        return max(degree, len({new for _j, _old, new in rekeys})), rekeys

    def accept(self, idx: int, cell: tuple[int, int], degree: int, rekeys: list) -> None:
        """Move point idx to cell, given score(idx, cell) == (degree, rekeys)."""
        at_idx: dict[tuple[int, int], int] = {}
        for j, old, new in rekeys:
            at_idx[new] = at_idx.get(new, 0) + 1
            if old != new:
                at_j = self.classes[j]
                if at_j[old] == 1:
                    del at_j[old]
                else:
                    at_j[old] -= 1
                at_j[new] = at_j.get(new, 0) + 1
        self.classes[idx] = at_idx
        self.occupied.remove(self.pts[idx])
        self.occupied.add(cell)
        self.pts[idx] = cell
        self.degree = degree


def _sample_start(rng: SplitMix64, n: int, side: int) -> _Climb:
    """A distinct, non-collinear starting configuration."""
    for _ in range(4096):
        pts = sorted(_draw_cells(rng, n, side))
        if len(pts) == n:
            climb = _Climb(pts)
            if climb.degree >= 2:
                return climb
    raise GenerationFailed("could not sample a non-collinear start")


class SearchResult(Record):
    best_set: PointSet
    degree: int
    ratio: Fraction
    iterations_run: int
    seed: int
    rng_algorithm: str = RNG_ALGORITHM


def search_min_dirac(n: int, extent: int, iterations: int, seed: int) -> SearchResult:
    """Random-restart hill climb minimizing the maximum point degree.

    Each step moves one point to a random grid cell and keeps the move when
    the degree does not increase (plateau moves allowed). Candidates must
    stay distinct and non-collinear; invalid proposals are redrawn a few
    times, then the step is a no-op. A fresh restart begins every
    iterations//10 steps with the stream reseeded to seed XOR restart
    index, so the outcome does not depend on scheduling; the best restart
    wins, ties to the lowest restart index. ratio reports degree / (n/2).

    A restart computes its start's direction classes once; a proposal is
    then scored in O(n) from them (see _Climb.score): only lines through
    the moved point's old or new cell can change, so each other point's
    degree moves by at most one either way, and the moved point's degree
    is its number of distinct directions to the others. The classes are
    updated only when a move is accepted.

    Raises GenerationFailed, before any work is done, when the restarts'
    pairs plus the iterations' proposals exceed MAX_SEARCH_WORK.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if extent < 2:
        raise ValueError(f"need extent >= 2, got {extent}")
    if iterations < 1:
        raise ValueError(f"need iterations >= 1, got {iterations}")
    side = _grid_side(n, extent)
    restart_len = max(1, iterations // 10)
    restarts = -(-iterations // restart_len)
    work = restarts * comb(n, 2) + iterations * (n + 10)
    if work > MAX_SEARCH_WORK:
        raise GenerationFailed(
            f"search work {work} requested for n={n} over {iterations} iterations; "
            f"the cap is {MAX_SEARCH_WORK}"
        )

    best_pts: list[tuple[int, int]] | None = None
    best_deg = 0
    consumed = 0
    restart = 0
    while consumed < iterations:
        budget = min(restart_len, iterations - consumed)
        rng = SplitMix64(seed ^ restart)
        climb = _sample_start(rng, n, side)
        for _ in range(budget):
            for _attempt in range(64):
                idx = rng.below(n)
                cell = (rng.below(side), rng.below(side))
                if cell == climb.pts[idx]:
                    break  # moving onto itself: valid no-op proposal
                if cell in climb.occupied:
                    continue
                cand_deg, rekeys = climb.score(idx, cell)
                if cand_deg < 2:
                    continue  # collinear candidates are rejected
                if cand_deg <= climb.degree:
                    climb.accept(idx, cell, cand_deg, rekeys)
                break
        consumed += budget
        if best_pts is None or climb.degree < best_deg:
            best_pts, best_deg = climb.pts, climb.degree
        restart += 1

    return SearchResult(
        best_set=PointSet.from_coords(best_pts),
        degree=best_deg,
        ratio=Fraction(2 * best_deg, n),
        iterations_run=consumed,
        seed=seed,
    )
