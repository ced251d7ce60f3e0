"""Shared test fixtures: a brute-force oracle, a reference hill climb, the
audit corpus, and the import path for CLI subprocesses.

The oracle recomputes every statistic from scratch in O(n^3): for each
point pair it collects all points collinear with the pair (via an inline
cross-product, independent of the library's canonical-line machinery) and
deduplicates lines as frozen index sets. Tests treat its output as ground
truth for the library's direction kernel.

The reference climb is search_min_dirac written the direct way: every
proposal builds the full candidate list and recomputes all its direction
classes. Tests treat it as ground truth for the incremental climb.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from pointline import PointSet, generate
from pointline.generators import SplitMix64, _draw_cells
from pointline.geometry import _directions


SRC = Path(__file__).resolve().parents[1] / "src"

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    """Hypothesis caches the literals of the package's source in its home
    directory, ./.hypothesis by default, while pytest collects; send that to
    a temporary directory so a test run leaves nothing in the checkout."""
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    home = tempfile.mkdtemp(prefix="pointline-hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    set_hypothesis_home_dir(home)


def pytest_unconfigure(config):
    home = config.stash.get(_HYPOTHESIS_HOME, None)
    if home is not None:
        shutil.rmtree(home, ignore_errors=True)


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


def _max_degree(pts) -> int:
    # ids of width w = 4*max|y| + 1, the arrangement kernel's rule for D = 1
    hom = [(x, y, 1) for x, y in pts]
    w = 4 * max(abs(y) for _x, y in pts) + 1
    return max(len(set(_directions(h, hom[:i] + hom[i + 1:], w))) for i, h in enumerate(hom))


def reference_climb(n: int, extent: int, iterations: int, seed: int):
    """(degree, iterations run, points) of search_min_dirac's climb, with an
    O(n^2) recompute per proposal. Expects arguments search_min_dirac
    accepts."""
    side = extent + 1
    restart_len = max(1, iterations // 10)
    best_pts, best_deg = None, 0
    consumed = restart = 0
    while consumed < iterations:
        budget = min(restart_len, iterations - consumed)
        rng = SplitMix64(seed ^ restart)
        for _ in range(4096):
            pts = sorted(_draw_cells(rng, n, side))
            if len(pts) == n and _max_degree(pts) >= 2:
                break
        else:
            raise AssertionError("no non-collinear start")
        deg = _max_degree(pts)
        for _ in range(budget):
            for _attempt in range(64):
                idx = rng.below(n)
                cell = (rng.below(side), rng.below(side))
                if cell == pts[idx]:
                    break
                if cell in pts:
                    continue
                candidate = list(pts)
                candidate[idx] = cell
                cand_deg = _max_degree(candidate)
                if cand_deg < 2:
                    continue
                if cand_deg <= deg:
                    pts, deg = candidate, cand_deg
                break
        consumed += budget
        if best_pts is None or deg < best_deg:
            best_pts, best_deg = pts, deg
        restart += 1
    return best_deg, consumed, best_pts


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
        corpus.append((f"grid-{side}x{side}", generate("grid", side, side)))
    for n in range(4, 31):
        corpus.append((f"near-pencil-{n}", generate("near_pencil", n)))
    for n in range(3, 31):
        corpus.append((f"parabola-{n}", generate("parabola", n)))
    for seed in range(1, 101):
        n = 3 + (seed * 7) % 38  # 3..40, deterministic spread
        ps = generate("random_grid", n, extent=25, seed=seed)
        corpus.append((f"random-n{n}-seed{seed}", ps))
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()
