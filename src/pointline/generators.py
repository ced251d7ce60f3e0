"""Deterministic configuration generators and a degree-minimizing search.

Randomness comes from an in-package SplitMix64 stream so that every result
is reproducible bit-for-bit across platforms and runs; the algorithm name
travels with search results.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from ._record import Record
from .errors import GenerationFailed
from .geometry import PointSet, direction_classes

_MASK64 = (1 << 64) - 1

KINDS = ("grid", "near_pencil", "collinear", "parabola", "random_grid")

# Largest point count generate() builds: W*H for a grid, n for every other kind.
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
        """Uniform draw from 0..bound-1 by rejection; no modulo bias."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound


class GeneratorSpec(Record):
    """A named configuration recipe; build one via the classmethods."""

    kind: str
    n: int | None = None
    width: int | None = None
    height: int | None = None
    extent: int | None = None
    seed: int | None = None

    @classmethod
    def grid(cls, width: int, height: int) -> "GeneratorSpec":
        return cls(kind="grid", width=width, height=height)

    @classmethod
    def near_pencil(cls, n: int) -> "GeneratorSpec":
        return cls(kind="near_pencil", n=n)

    @classmethod
    def collinear(cls, n: int) -> "GeneratorSpec":
        return cls(kind="collinear", n=n)

    @classmethod
    def parabola(cls, n: int) -> "GeneratorSpec":
        return cls(kind="parabola", n=n)

    @classmethod
    def random_grid(cls, n: int, extent: int, seed: int) -> "GeneratorSpec":
        return cls(kind="random_grid", n=n, extent=extent, seed=seed)


def generate(spec: GeneratorSpec) -> PointSet:
    """Materialize a spec. Deterministic: equal specs give equal point sets.

    Raises GenerationFailed, before building anything, when the spec asks
    for more than MAX_POINTS points.
    """
    if spec.kind == "grid":
        if not (spec.width and spec.height and spec.width >= 1 and spec.height >= 1):
            raise ValueError("grid needs width >= 1 and height >= 1")
        count = spec.width * spec.height
    else:
        count = spec.n or 0
    if count > MAX_POINTS:
        raise GenerationFailed(f"{count} points requested; the cap is {MAX_POINTS}")
    if spec.kind == "grid":
        return PointSet.from_coords(
            (x, y) for x in range(spec.width) for y in range(spec.height)
        )
    if spec.kind == "near_pencil":
        if spec.n is None or spec.n < 3:
            raise ValueError("near_pencil needs n >= 3")
        coords = [(i, 0) for i in range(spec.n - 1)]
        coords.append((0, 1))
        return PointSet.from_coords(coords)
    if spec.kind == "collinear":
        if spec.n is None or spec.n < 1:
            raise ValueError("collinear needs n >= 1")
        return PointSet.from_coords((i, 0) for i in range(spec.n))
    if spec.kind == "parabola":
        if spec.n is None or spec.n < 1:
            raise ValueError("parabola needs n >= 1")
        return PointSet.from_coords((i, i * i) for i in range(spec.n))
    if spec.kind == "random_grid":
        if spec.n is None or spec.extent is None or spec.seed is None:
            raise ValueError("random_grid needs n, extent and seed")
        return _random_grid(spec.n, spec.extent, spec.seed)
    raise ValueError(f"unknown generator kind {spec.kind!r}")


def _random_grid(n: int, extent: int, seed: int) -> PointSet:
    if n < 1 or extent < 0:
        raise ValueError("random_grid needs n >= 1 and extent >= 0")
    side = extent + 1
    if n > side * side:
        raise GenerationFailed(f"cannot place {n} distinct points on a {side}x{side} grid")
    cells = _draw_cells(SplitMix64(seed), n, side)
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

    classes equals direction_classes(pts) at all times: it is built once,
    and an accepted move updates it in O(n), so a proposal is scored
    without recomputing the arrangement. occupied is set(pts).
    """

    def __init__(self, pts: list[tuple[int, int]]):
        self.pts = pts
        self.occupied = set(pts)
        self.classes = direction_classes(pts)
        self.degree = max(len(at_j) for at_j in self.classes)

    def score(self, idx: int, cell: tuple[int, int]) -> tuple[int, list]:
        """The maximum point degree once point idx moves to cell, and the
        (j, old key, new key) of every other point j for accept(). The
        state is unchanged.

        A key is the reduced direction from j to the moved point, signed as
        in direction_classes. When the two keys differ, j loses a line if
        its old class holds only the moved point and gains one if it has no
        class for the new key; the moved point lies on one line per
        distinct new key.
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


def _sample_start(rng: SplitMix64, n: int, extent: int) -> _Climb:
    """A distinct, non-collinear starting configuration."""
    side = extent + 1
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
    side = extent + 1
    if n > side * side:
        raise GenerationFailed(f"cannot place {n} distinct points on a {side}x{side} grid")
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
        climb = _sample_start(rng, n, extent)
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
