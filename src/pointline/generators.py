"""Deterministic configuration generators and a degree-minimizing search.

Randomness comes from an in-package SplitMix64 stream so that every result
is reproducible bit-for-bit across platforms and runs; the algorithm name
travels with search results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GenerationFailed
from .geometry import PointSet, direction_classes

_MASK64 = (1 << 64) - 1

KINDS = ("grid", "near_pencil", "collinear", "parabola", "random_grid")

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


@dataclass(frozen=True)
class GeneratorSpec:
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
    """Materialize a spec. Deterministic: equal specs give equal point sets."""
    if spec.kind == "grid":
        if not (spec.width and spec.height and spec.width >= 1 and spec.height >= 1):
            raise ValueError("grid needs width >= 1 and height >= 1")
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
    rng = SplitMix64(seed)
    chosen: list[tuple[int, int]] = []
    occupied = set()
    budget = 1000 + 200 * n
    while len(chosen) < n:
        if budget == 0:
            raise GenerationFailed(f"retry budget exhausted at {len(chosen)}/{n} points")
        budget -= 1
        cell = (rng.below(side), rng.below(side))
        if cell not in occupied:
            occupied.add(cell)
            chosen.append(cell)
    return PointSet.from_coords(chosen)


def _max_degree(pts: list[tuple[int, int]]) -> int:
    """The most determined lines through one point; 1 exactly when n >= 2
    points are collinear."""
    return max(len(at_i) for at_i in direction_classes(pts))


def _sample_start(rng: SplitMix64, n: int, extent: int) -> list[tuple[int, int]]:
    """A distinct, non-collinear starting candidate."""
    side = extent + 1
    for _ in range(4096):
        occupied = set()
        attempts = 1000 + 200 * n
        while len(occupied) < n and attempts:
            attempts -= 1
            occupied.add((rng.below(side), rng.below(side)))
        if len(occupied) < n:
            continue
        pts = sorted(occupied)
        if _max_degree(pts) >= 2:
            return pts
    raise GenerationFailed("could not sample a non-collinear start")


@dataclass(frozen=True)
class SearchResult:
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
    best_pts: list[tuple[int, int]] | None = None
    best_deg = 0
    consumed = 0
    restart = 0
    while consumed < iterations:
        budget = min(restart_len, iterations - consumed)
        rng = SplitMix64(seed ^ restart)
        pts = _sample_start(rng, n, extent)
        deg = _max_degree(pts)
        for _ in range(budget):
            for _attempt in range(64):
                idx = rng.below(n)
                cell = (rng.below(side), rng.below(side))
                if cell == pts[idx]:
                    break  # moving onto itself: valid no-op proposal
                if cell in pts:
                    continue
                candidate = list(pts)
                candidate[idx] = cell
                cand_deg = _max_degree(candidate)
                if cand_deg < 2:
                    continue  # collinear candidates are rejected
                if cand_deg <= deg:
                    pts, deg = candidate, cand_deg
                break
        consumed += budget
        if best_pts is None or deg < best_deg:
            best_pts, best_deg = pts, deg
        restart += 1

    return SearchResult(
        best_set=PointSet.from_coords(best_pts),
        degree=best_deg,
        ratio=Fraction(2 * best_deg, n),
        iterations_run=consumed,
        seed=seed,
    )
