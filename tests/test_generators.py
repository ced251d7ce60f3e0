import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import _max_degree, reference_climb
from pointline import (
    GenerationFailed,
    Point,
    SearchResult,
    compute_arrangement,
    dirac_degree,
    generate,
    search_min_dirac,
)
from pointline import cli, generators, geometry
from pointline.generators import MAX_POINTS, RNG_ALGORITHM, SplitMix64
from pointline.geometry import _directions


def test_splitmix64_reference_vectors():
    # published test vectors for the standard splitmix64 stream
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    rng = SplitMix64(0x123456789ABCDEF0)
    assert rng.next_u64() == 0x161922C645CE50E8


def test_splitmix64_below_is_unbiased_range():
    rng = SplitMix64(7)
    draws = [rng.below(10) for _ in range(1000)]
    assert set(draws) == set(range(10))
    with pytest.raises(ValueError):
        rng.below(0)


def test_extent_of_2_64_or_more_is_refused():
    rng = SplitMix64(3)
    assert 0 <= rng.below(2**64) < 2**64
    with pytest.raises(ValueError):
        rng.below(2**64 + 1)
    assert generate("random_grid", 3, extent=2**64 - 1, seed=1).n == 3
    with pytest.raises(ValueError, match=r"extent < 2\^64"):
        generate("random_grid", 3, extent=2**64, seed=1)
    with pytest.raises(ValueError, match=r"extent < 2\^64"):
        search_min_dirac(n=5, extent=2**64, iterations=10, seed=1)


def test_grid_order():
    ps = generate("grid", 2, 3)
    assert [(p.x, p.y) for p in ps] == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    with pytest.raises(ValueError):
        generate("grid", 0, 3)


def test_near_pencil():
    ps = generate("near_pencil", 5)
    assert [(p.x, p.y) for p in ps] == [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)]
    assert dirac_degree(ps) == (4, 4)
    with pytest.raises(ValueError):
        generate("near_pencil", 2)


def test_collinear_and_parabola():
    ps = generate("collinear", 4)
    assert [(p.x, p.y) for p in ps] == [(0, 0), (1, 0), (2, 0), (3, 0)]
    ps = generate("parabola", 6)
    assert [(p.x, p.y) for p in ps] == [(i, i * i) for i in range(6)]
    # no 3 points of a parabola are collinear
    st = compute_arrangement(ps)
    assert st.l_max == 2
    assert st.s == {2: 15}


def test_random_grid():
    ps = generate("random_grid", 12, extent=9, seed=5)
    assert ps.n == 12
    assert all(0 <= p.x <= 9 and 0 <= p.y <= 9 for p in ps)
    assert generate("random_grid", 12, extent=9, seed=5) == ps  # same arguments, same set
    other = generate("random_grid", 12, extent=9, seed=6)
    assert other != ps
    with pytest.raises(GenerationFailed):
        generate("random_grid", 10, extent=2, seed=1)
    with pytest.raises(ValueError):
        generate("random_grid", 0, extent=2, seed=1)


def test_only_random_grid_takes_extent_and_seed():
    for kind, sizes in (("grid", (2, 2)), ("near_pencil", (4,)), ("collinear", (3,)),
                        ("parabola", (3,))):
        assert generate(kind, *sizes, extent=None, seed=None) == generate(kind, *sizes)
        for kw in ({"extent": 5}, {"seed": 0}, {"extent": 5, "seed": 3}):
            with pytest.raises(ValueError, match=f"^{kind} takes no --extent or --seed$"):
                generate(kind, *sizes, **kw)
    # refused before the size rules and the cap
    with pytest.raises(ValueError, match="takes no"):
        generate("grid", 0, 5, seed=1)
    with pytest.raises(ValueError, match="takes no"):
        generate("collinear", MAX_POINTS + 1, extent=1)


def test_generate_caps_the_point_count():
    assert MAX_POINTS == 10**6
    for args, kw in ((("grid", 100000, 100000), {}), (("grid", 1000, 1001), {}),
                     (("collinear", MAX_POINTS + 1), {}),
                     (("random_grid", MAX_POINTS + 1), {"extent": 10**4, "seed": 1})):
        with pytest.raises(GenerationFailed, match="cap"):
            generate(*args, **kw)


def test_over_cap_requests_are_refused_at_once():
    # At the caps the work is real: generate("collinear", 10**5) takes about
    # 1 s and search_min_dirac(1400, 10**6, 1, 1) about 1.3 s and 174 MB, so
    # no at-cap run starts here. Each request past a cap or out of range is
    # refused before any of its work is done.
    for error, call in (
        (GenerationFailed, lambda: generate("grid", 1000, 1001)),
        (GenerationFailed, lambda: generate("random_grid", 10**6, extent=0, seed=1)),
        (GenerationFailed, lambda: search_min_dirac(1415, 10**6, 1, 1)),
        (ValueError, lambda: generate("random_grid", MAX_POINTS, extent=2**64, seed=1)),
        (ValueError, lambda: search_min_dirac(1400, 2**64, 1, 1)),
    ):
        start = time.process_time()
        with pytest.raises(error):
            call()
        assert time.process_time() - start < 0.1


def test_search_tiny():
    res = search_min_dirac(n=3, extent=2, iterations=10, seed=1)
    assert res.degree == 2
    assert res.ratio == Fraction(4, 3)  # 2 / (3/2)
    # the result holds what the climb found; its RNG name is the constant
    assert SearchResult._fields == ("best_set", "degree", "ratio", "iterations_run")
    assert RNG_ALGORITHM == "splitmix64"


def test_search_forced_full_grid():
    # 9 points on {0..2}^2 fill the grid, so the answer is the 3x3 value
    res = search_min_dirac(n=9, extent=2, iterations=1000, seed=1)
    assert res.degree == 6
    assert sorted((p.x, p.y) for p in res.best_set) == [
        (x, y) for x in range(3) for y in range(3)]


def test_search_golden_run(capsys):
    # regression anchor, pinned from the first run of this configuration
    res = search_min_dirac(n=12, extent=11, iterations=10**4, seed=42)
    assert res.degree == 8
    assert res.ratio == Fraction(4, 3)
    assert res.iterations_run == 10**4
    # the document's seed and iteration count are the flags, its RNG name the constant
    assert cli.main(["search", "--n", "12", "--extent", "11", "--iters", "10000",
                     "--seed", "42", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert (payload["seed"], payload["rng"], payload["iterations_run"]) == (
        42, RNG_ALGORITHM, 10**4)
    assert payload["degree"] == 8


def test_search_golden_run_n40():
    # pinned from the per-proposal recompute climb, before proposals were
    # scored incrementally; the bench-sized search must not drift
    res = search_min_dirac(n=40, extent=30, iterations=500, seed=2024)
    assert res.degree == 37
    assert res.ratio == Fraction(37, 20)
    assert res.iterations_run == 500
    assert [(p.x, p.y) for p in res.best_set] == [
        (12, 6), (3, 28), (10, 5), (5, 13), (5, 16), (4, 0), (8, 0), (8, 28),
        (15, 9), (9, 0), (26, 25), (30, 17), (10, 18), (10, 0), (21, 22),
        (3, 27), (13, 20), (15, 12), (15, 21), (15, 25), (15, 28), (17, 16),
        (26, 12), (0, 25), (18, 10), (12, 21), (6, 9), (21, 18), (12, 23),
        (16, 24), (23, 10), (20, 28), (24, 10), (12, 14), (24, 19), (4, 21),
        (26, 23), (14, 8), (25, 8), (30, 29)]
    proc = subprocess.run(
        [sys.executable, "-m", "pointline", "search", "--n", "40", "--extent", "30",
         "--iters", "500", "--seed", "2024", "--json"],
        capture_output=True, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "34ebe01bc7f165102505c1be74c9c465d9081dc8e631e623c14452723d6fcce7")


@pytest.mark.parametrize("n, extent, iterations, seeds", [
    (3, 2, 40, (0, 1, 2, 5)),  # includes collinear candidates, rejected
    (4, 2, 200, (0, 3, 9)),  # few free cells
    (9, 2, 100, (1, 2, 7)),  # full grid: every proposal hits an occupied cell
    (16, 3, 50, (1, 4)),  # full grid
    (12, 11, 600, (0, 1, 42)),
    (40, 30, 200, (1, 2, 2024)),
    (12, 10**6, 300, (1, 7)),  # large extent: ids of about 2^41
    (8, 2**64 - 1, 100, (3,)),  # the largest extent: ids of about 2^129
])
def test_search_matches_reference_climb(n, extent, iterations, seeds):
    for seed in seeds:
        res = search_min_dirac(n, extent, iterations, seed)
        degree, consumed, pts = reference_climb(n, extent, iterations, seed)
        assert (res.degree, res.iterations_run) == (degree, consumed), seed
        assert res.ratio == Fraction(2 * degree, n)
        assert [(p.x, p.y) for p in res.best_set] == pts, seed


def test_climb_classes_stay_live(monkeypatch):
    accepted = []
    accept = generators._Climb.accept

    def checked(climb, idx, cell, degree, row):
        accept(climb, idx, cell, degree, row)
        assert climb.pts[idx] == cell
        fresh = generators._Climb(list(climb.pts), climb.w)
        assert climb.keys == fresh.keys
        n = len(climb.pts)
        assert all(climb.keys[i][j] is climb.keys[j][i] for i in range(n) for j in range(n))
        assert climb.classes == fresh.classes
        assert climb.occupied == set(climb.pts)
        assert climb.degree == max(len(at_j) for at_j in climb.classes)
        accepted.append(idx)

    monkeypatch.setattr(generators._Climb, "accept", checked)
    # ids above 256 are not cached ints, so "is" holds only for a shared
    # object: the 31x31 and the large grid have many
    for n, extent, seed in ((8, 2, 1), (7, 3, 5), (12, 6, 11), (12, 30, 3), (12, 10**6, 11)):
        search_min_dirac(n, extent, 300, seed)
    assert len(accepted) > 100


@pytest.mark.parametrize("n, extent, iterations, seeds", [
    (3, 2, 40, (0, 1, 2, 5)),  # includes collinear candidates
    (9, 2, 100, (1,)),  # full grid: no proposal is scored
    (16, 3, 50, (1,)),  # full grid
    (8, 2, 100, (1, 2)),  # one free cell
    (15, 3, 100, (1, 4)),  # one free cell
    (12, 11, 300, (0, 42)),
    (40, 30, 100, (2024,)),
    (12, 10**6, 300, (1, 7)),  # large extent
    (8, 2**64 - 1, 100, (3,)),  # the largest extent
])
def test_bounded_score_matches_the_candidate_degree(monkeypatch, n, extent, iterations, seeds):
    # every proposal the search scores, rescored at every bound the climb
    # can pass (its incumbent degree is 2..n-1); the expected row is
    # geometry._directions's ids with the climb's w
    scored = []
    score = generators._Climb.score

    def checked(climb, idx, cell, bound):
        candidate = list(climb.pts)
        candidate[idx] = cell
        true_deg = _max_degree(candidate)
        hom = [(x, y, 1) for x, y in candidate]
        row = _directions(hom[idx], hom[:idx] + hom[idx + 1:], climb.w)
        row.insert(idx, None)
        for b in range(2, n):
            got = score(climb, idx, cell, b)
            if true_deg > b:
                assert got is None, (b, true_deg)
            else:
                assert got == (true_deg, row), (b, true_deg)
        scored.append(idx)
        return score(climb, idx, cell, bound)

    monkeypatch.setattr(generators._Climb, "score", checked)
    for seed in seeds:
        search_min_dirac(n, extent, iterations, seed)
    if n == (extent + 1) ** 2:
        assert scored == []
    else:
        assert len(scored) >= iterations // 2


def test_each_scored_proposal_reduces_at_most_n_minus_1_pairs(monkeypatch):
    # deterministic work count: gcd calls in the proposal loop, apart from
    # those of the restart builds, which reduce through geometry._directions
    calls = []
    scored = []
    gcd = generators.gcd
    score = generators._Climb.score

    def counting_gcd(a, b):
        calls.append(None)
        return gcd(a, b)

    def counting_score(climb, idx, cell, bound):
        before = len(calls)
        try:
            return score(climb, idx, cell, bound)
        finally:
            scored.append(len(calls) - before)

    monkeypatch.setattr(generators, "gcd", counting_gcd)
    monkeypatch.setattr(geometry, "gcd", counting_gcd)
    monkeypatch.setattr(generators._Climb, "score", counting_score)
    res = search_min_dirac(12, 11, 3000, 42)
    assert res.degree == 8
    assert max(scored) <= 11
    # pinned: 2978 scored proposals, 25467 reductions (65516 = 2 * 11 * 2978
    # when both the old and the new key were reduced for every other point)
    assert (len(scored), sum(scored)) == (2978, 25467)
    # and each of the 10 restarts reduces its start's C(12, 2) pairs once
    assert len(calls) - sum(scored) == 10 * 66


def test_proposals_do_not_recompute_the_kernel(monkeypatch):
    kernel = []
    monkeypatch.setattr(geometry, "compute_arrangement", lambda *args: kernel.append(args))
    calls = []
    directions = generators._directions

    def counting(anchor, others, w):
        calls.append(len(others))
        return directions(anchor, others, w)

    monkeypatch.setattr(generators, "_directions", counting)
    res = search_min_dirac(n=12, extent=11, iterations=3000, seed=42)
    # each restart builds its start's keys from 12 anchors, each over the
    # points after it; 3000 proposals add no call, and nothing calls the
    # arrangement kernel
    assert calls == list(range(11, -1, -1)) * 10
    assert res.iterations_run == 3000
    assert kernel == []


def test_score_reduces_as_geometry_does():
    # each id score builds is geometry._directions's id with the same w,
    # whatever the signs of dx and dy: for each cell c of a 4x4 grid, every
    # other point of the grid moves onto c; the same on a copy stretched
    # across 0..2^64 - 1 by coprime scales, whose ids are big ints
    for side, (sx, sy) in ((4, (1, 1)), (2**64, ((2**64 - 1) // 3, 2**62 - 1))):
        w = 2 * side - 1
        cells = [(x * sx, y * sy) for x in range(4) for y in range(4)]
        for c in cells:
            pts = [cell for cell in cells if cell != c]
            climb = generators._Climb(list(pts), w)
            for idx in range(len(pts)):
                others = [(x, y, 1) for j, (x, y) in enumerate(pts) if j != idx]
                _, row = climb.score(idx, c, 15)
                assert row[idx] is None
                assert row[:idx] + row[idx + 1:] == _directions((*c, 1), others, w)


def test_search_result_invariants():
    for seed in (0, 3, 11):
        res = search_min_dirac(n=8, extent=7, iterations=400, seed=seed)
        st = compute_arrangement(res.best_set)
        assert st.l_max < 8  # never collinear
        assert res.degree >= 2
        w, d = dirac_degree(res.best_set)
        assert d == res.degree
        assert res.ratio == Fraction(2 * res.degree, 8)


def test_search_deterministic():
    a = search_min_dirac(n=7, extent=9, iterations=300, seed=123)
    b = search_min_dirac(n=7, extent=9, iterations=300, seed=123)
    assert a == b


def test_search_validation():
    with pytest.raises(ValueError):
        search_min_dirac(n=2, extent=5, iterations=10, seed=0)
    with pytest.raises(ValueError):
        search_min_dirac(n=5, extent=1, iterations=10, seed=0)
    with pytest.raises(ValueError):
        search_min_dirac(n=5, extent=5, iterations=0, seed=0)
    with pytest.raises(GenerationFailed):
        search_min_dirac(n=10, extent=2, iterations=10, seed=0)


def test_point_type_from_generators():
    ps = generate("grid", 2, 2)
    assert isinstance(ps[0], Point)
    assert isinstance(ps[0].x, Fraction)
