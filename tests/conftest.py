"""Shared test fixtures: a brute-force oracle, the audit corpus, and the
import path for CLI subprocesses.

The oracle recomputes every statistic from scratch in O(n^3): for each
point pair it collects all points collinear with the pair (via an inline
cross-product, independent of the library's canonical-line machinery) and
deduplicates lines as frozen index sets. Tests treat its output as ground
truth for the library's direction kernel.
"""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

import pytest

from pointline import GeneratorSpec, PointSet, generate


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session", autouse=True)
def cli_imports_this_checkout():
    """CLI tests spawn `python -m pointline`; put src on its import path too."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield


def oracle_arrangement(coords) -> dict:
    pts = [(Fraction(x), Fraction(y)) for x, y in coords]
    n = len(pts)
    lines: set[frozenset[int]] = set()
    for i in range(n):
        for j in range(i + 1, n):
            (px, py), (qx, qy) = pts[i], pts[j]
            group = frozenset(
                k
                for k, (rx, ry) in enumerate(pts)
                if (qx - px) * (ry - py) == (qy - py) * (rx - px)
            )
            lines.add(group)
    s: dict[int, int] = {}
    for group in lines:
        s[len(group)] = s.get(len(group), 0) + 1
    s = {i: s[i] for i in sorted(s)}
    per_point = [0] * n
    for group in lines:
        for idx in group:
            per_point[idx] += 1
    degree = max(per_point) if n else 0
    witness = per_point.index(degree) if n else None
    return {
        "n": n,
        "s": s,
        "lines": len(lines),
        "incidences": sum(i * si for i, si in s.items()),
        "edges": sum((i - 1) * si for i, si in s.items()),
        "l_max": max(s) if s else 0,
        "dirac_degree": degree,
        "dirac_witness": witness,
    }


def stats_as_dict(stats) -> dict:
    return {
        "n": stats.n,
        "s": stats.s,
        "lines": stats.lines,
        "incidences": stats.incidences,
        "edges": stats.edges,
        "l_max": stats.l_max,
        "dirac_degree": stats.dirac_degree,
        "dirac_witness": stats.dirac_witness,
    }


def build_corpus() -> list[tuple[str, PointSet]]:
    """Grids 2x2..7x7, near-pencils n=4..30, parabolas n=3..30, and 100
    seeded random grid samples with n <= 40."""
    corpus = []
    for side in range(2, 8):
        corpus.append((f"grid-{side}x{side}", generate(GeneratorSpec.grid(side, side))))
    for n in range(4, 31):
        corpus.append((f"near-pencil-{n}", generate(GeneratorSpec.near_pencil(n))))
    for n in range(3, 31):
        corpus.append((f"parabola-{n}", generate(GeneratorSpec.parabola(n))))
    for seed in range(1, 101):
        n = 3 + (seed * 7) % 38  # 3..40, deterministic spread
        ps = generate(GeneratorSpec.random_grid(n=n, extent=25, seed=seed))
        corpus.append((f"random-n{n}-seed{seed}", ps))
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()
