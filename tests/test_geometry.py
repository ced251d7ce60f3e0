import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import oracle_arrangement, stats_as_dict
from pointline import (
    CollinearInput,
    DuplicatePoints,
    Point,
    PointSet,
    compute_arrangement,
    dirac_degree,
    generate,
    pair_tally,
    subgraph_edge_count,
)


def grid(w, h):
    return generate("grid", w, h)


def test_kernel_line_symmetry_and_membership():
    # seeded sweep: a third point on the span of p and q makes one line of
    # three points, whichever order the three are given in
    rnd = random.Random(1805)
    checked = 0
    for _ in range(300):
        p = (Fraction(rnd.randint(-30, 30), rnd.randint(1, 9)),
             Fraction(rnd.randint(-30, 30), rnd.randint(1, 9)))
        q = (Fraction(rnd.randint(-30, 30), rnd.randint(1, 9)),
             Fraction(rnd.randint(-30, 30), rnd.randint(1, 9)))
        if p == q:
            continue
        t = Fraction(rnd.randint(2, 40), rnd.randint(1, 7))
        r = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
        if r == q:
            continue
        for order in itertools.permutations((p, q, r)):
            st = compute_arrangement(PointSet.from_coords(order))
            assert st.s == {3: 1}
        checked += 1
    assert checked > 250


def test_point_set_basics():
    ps = PointSet.from_coords([(0, 0), (1, 2), (Fraction(1, 2), 3)])
    assert ps.n == 3
    assert len(ps) == 3
    assert ps[1] == Point(1, 2)
    assert [p.x for p in ps] == [0, 1, Fraction(1, 2)]
    with pytest.raises(DuplicatePoints) as exc:
        PointSet.from_coords([(1, 2), (0, 0), (1, 2), (0, 0)])
    assert exc.value.pairs == ((0, 2), (1, 3))


def test_arrangement_3x3_grid():
    st = compute_arrangement(grid(3, 3))
    assert st.s == {2: 12, 3: 8}
    assert st.lines == 20
    assert st.incidences == 48
    assert st.edges == 28
    assert st.l_max == 3
    assert st.dirac_degree == 6
    # max degree sits at the edge midpoints; (0,1) is the first of them
    assert st.dirac_witness == 1


def test_arrangement_collinear():
    for n in (2, 3, 7):
        st = compute_arrangement(PointSet.from_coords((i, 0) for i in range(n)))
        assert st.s == {n: 1}
        assert st.lines == 1
        assert st.incidences == n
        assert st.edges == n - 1
        assert st.l_max == n


def test_arrangement_5x5_grid_frozen():
    st = compute_arrangement(grid(5, 5))
    assert st.s == {2: 108, 3: 16, 4: 4, 5: 12}
    assert st.lines == 140
    assert st.incidences == 340
    assert st.edges == 200
    assert st.l_max == 5
    assert st.dirac_degree == 15
    assert st.dirac_witness == 1


def test_arrangement_tiny_n():
    st0 = compute_arrangement(PointSet(()))
    assert (st0.n, st0.lines, st0.incidences, st0.edges, st0.l_max) == (0, 0, 0, 0, 0)
    assert st0.dirac_witness is None
    st1 = compute_arrangement(PointSet.from_coords([(4, 5)]))
    assert (st1.n, st1.lines, st1.s) == (1, 0, {})
    st2 = compute_arrangement(PointSet.from_coords([(0, 0), (1, 3)]))
    assert st2.s == {2: 1}
    assert (st2.lines, st2.incidences, st2.edges) == (1, 2, 1)


def test_subgraph_edge_count():
    st = compute_arrangement(grid(3, 3))
    assert subgraph_edge_count(st, 2) == 28
    assert subgraph_edge_count(st, 3) == 16
    assert subgraph_edge_count(st, 4) == 0
    with pytest.raises(ValueError):
        subgraph_edge_count(st, 1)


def test_dirac_degree():
    w, d = dirac_degree(generate("near_pencil", 5))
    assert (w, d) == (4, 4)  # the apex is the last generated point
    assert dirac_degree(grid(3, 3)) == (1, 6)
    w, d = dirac_degree(PointSet.from_coords([(0, 0), (1, 0), (0, 1)]))
    assert d == 2
    with pytest.raises(CollinearInput):
        dirac_degree(PointSet.from_coords([(i, i) for i in range(4)]))
    with pytest.raises(CollinearInput):
        dirac_degree(PointSet.from_coords([(0, 0), (1, 1)]))


def test_pair_tally():
    st = compute_arrangement(grid(3, 3))
    assert pair_tally(st, 2, 2) == 12
    assert pair_tally(st, 2, 9) == 36
    assert pair_tally(st, 4, 9) == 0
    with pytest.raises(ValueError):
        pair_tally(st, 1, 3)
    with pytest.raises(ValueError):
        pair_tally(st, 5, 4)


def _random_coords(rnd, n, span=14):
    seen = set()
    while len(seen) < n:
        seen.add((rnd.randint(0, span), rnd.randint(0, span)))
    return sorted(seen)


def test_identities_on_random_sets():
    rnd = random.Random(977)
    for _ in range(80):
        n = rnd.randint(2, 12)
        st = compute_arrangement(PointSet.from_coords(_random_coords(rnd, n)))
        assert sum(math.comb(i, 2) * si for i, si in st.s.items()) == math.comb(n, 2)
        assert st.incidences == st.edges + st.lines
        assert subgraph_edge_count(st, 2) == st.edges
        prev = None
        for i in range(2, st.l_max + 2):
            cur = subgraph_edge_count(st, i)
            if prev is not None:
                assert cur <= prev
            prev = cur


def test_permutation_invariance():
    rnd = random.Random(31)
    coords = _random_coords(rnd, 9)
    base = compute_arrangement(PointSet.from_coords(coords))
    for _ in range(10):
        shuffled = coords[:]
        rnd.shuffle(shuffled)
        st = compute_arrangement(PointSet.from_coords(shuffled))
        assert st.s == base.s
        assert st.lines == base.lines
        assert st.incidences == base.incidences
        assert st.edges == base.edges
        assert st.l_max == base.l_max
        assert st.dirac_degree == base.dirac_degree


def test_determinism():
    coords = _random_coords(random.Random(5), 10)
    a = compute_arrangement(PointSet.from_coords(coords))
    b = compute_arrangement(PointSet.from_coords(coords))
    assert a == b


def test_oracle_equivalence_quick():
    # a fast slice of the acceptance run: random small sets against the
    # O(n^3) per-pair oracle, field by field
    rnd = random.Random(40414)
    for _ in range(60):
        coords = _random_coords(rnd, rnd.randint(1, 8))
        st = compute_arrangement(PointSet.from_coords(coords))
        assert stats_as_dict(st) == oracle_arrangement(coords)


def test_oracle_equivalence_rational_coords():
    rnd = random.Random(2711)
    for _ in range(25):
        seen = set()
        while len(seen) < 6:
            seen.add((Fraction(rnd.randint(-12, 12), rnd.randint(1, 4)),
                      Fraction(rnd.randint(-12, 12), rnd.randint(1, 4))))
        coords = sorted(seen)
        st = compute_arrangement(PointSet.from_coords(coords))
        assert stats_as_dict(st) == oracle_arrangement(coords)


def test_oracle_equivalence_negative_mixed_denominators():
    # negative coordinates over several denominators, in shuffled order so
    # that later points lie on both sides of earlier ones along a line
    rnd = random.Random(6143)
    for _ in range(40):
        seen = set()
        while len(seen) < 9:
            seen.add((Fraction(rnd.randint(-6, 6), rnd.choice((1, 2, 3))),
                      Fraction(rnd.randint(-6, 6), rnd.choice((1, 2, 4)))))
        coords = list(seen)
        rnd.shuffle(coords)
        st = compute_arrangement(PointSet.from_coords(coords))
        assert stats_as_dict(st) == oracle_arrangement(coords)


def test_unit_circle_points_with_distinct_denominators():
    # ((1-t^2)/(1+t^2), 2t/(1+t^2)): no three points of a circle are
    # collinear, and each point has its own denominator
    def circle(n):
        return [(Fraction(1 - t * t, 1 + t * t), Fraction(2 * t, 1 + t * t))
                for t in range(1, n + 1)]

    coords = circle(9)
    assert stats_as_dict(compute_arrangement(PointSet.from_coords(coords))) == (
        oracle_arrangement(coords))
    n = 60
    st = compute_arrangement(PointSet.from_coords(circle(n)))
    assert st.s == {2: math.comb(n, 2)}
    assert (st.l_max, st.dirac_degree, st.dirac_witness) == (2, n - 1, 0)


def test_affine_image_of_grid_keeps_stats():
    # an invertible rational affine map preserves every collinear triple,
    # so the stats, witness included, equal those of the preimage
    a, b, c, d = Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3), Fraction(5, 4)
    e, f = Fraction(-11, 6), Fraction(2, 9)
    assert a * d - b * c != 0
    pre = [(x, y) for x in range(7) for y in range(6)]
    random.Random(12).shuffle(pre)
    image = [(a * x + b * y + e, c * x + d * y + f) for x, y in pre]
    base = compute_arrangement(PointSet.from_coords(pre))
    assert compute_arrangement(PointSet.from_coords(image)) == base
    assert stats_as_dict(base) == oracle_arrangement(pre)


def test_kernel_memory_stays_linear():
    # the kernel holds one anchor's classes at a time, about 0.5 MB on this
    # set; keeping every point's classes at once peaked at about 92 MB
    import tracemalloc

    ps = generate("random_grid", 1000, extent=10**6, seed=1)
    tracemalloc.start()
    try:
        st = compute_arrangement(ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak
    assert sum(math.comb(i, 2) * si for i, si in st.s.items()) == math.comb(1000, 2)


# 150 rational points of the unit circle, each with its own denominator
CIRCLE_150 = [(Fraction(1 - t * t, 1 + t * t), Fraction(2 * t, 1 + t * t))
              for t in range(2, 302, 2)]


def test_kernel_operands_stay_within_four_times_the_input_width(monkeypatch):
    # each pair is reduced in its own two points' denominators: from b-bit
    # inputs, X, Y and D have at most 2b bits and every gcd operand at most
    # 4b + 1. One common denominator for the whole set grew with the number
    # of distinct denominators instead, to 1438 bits here.
    from pointline import geometry

    coords = CIRCLE_150
    assert len({x.denominator for x, _y in coords}) == len(coords) == 150
    b = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            for xy in coords for c in xy)
    widest = 0

    def recording(u, v):
        nonlocal widest
        widest = max(widest, u.bit_length(), v.bit_length())
        return math.gcd(u, v)

    monkeypatch.setattr(geometry, "gcd", recording)
    st = compute_arrangement(PointSet.from_coords(coords))
    assert st.s == {2: math.comb(150, 2)}
    assert 0 < widest <= 4 * b + 1, (widest, b)


# integer points, x and y with different denominators, negative
# coordinates, and two lines of five points each whose D values differ
F = Fraction
ON_HALF = [(F(0), F(-1, 3)), (F(1, 5), F(-7, 30)), (F(-1), F(-5, 6)),
           (F(4), F(5, 3)), (F(1, 2), F(-1, 12))]        # y = x/2 - 1/3
ON_STEEP = [(F(0), F(1)), (F(1), F(-1)), (F(1, 3), F(1, 3)),
            (F(-1, 4), F(3, 2)), (F(3, 5), F(-1, 5))]    # y = 1 - 2x
LOOSE = [(F(-7, 2), F(5, 3)), (F(-3), F(-2)), (F(5, 7), F(-9, 4)),
         (F(2), F(3)), (F(-11, 6), F(0))]
MIXED_DENOMINATORS = ON_HALF + ON_STEEP + LOOSE


def test_kernel_mixed_denominators_match_oracle():
    from pointline.geometry import _homogeneous

    for line in (ON_HALF, ON_STEEP):
        assert len({d for _x, _y, d in _homogeneous(PointSet.from_coords(line))}) >= 3
    coords = list(MIXED_DENOMINATORS)
    rnd = random.Random(37)
    for _ in range(4):
        st = compute_arrangement(PointSet.from_coords(coords))
        assert stats_as_dict(st) == oracle_arrangement(coords)
        assert st.l_max == 5
        rnd.shuffle(coords)


@pytest.mark.parametrize("coords, widest", [
    # y = +-M with unit x-steps: from (i, -M) to (i + 1, M) is (1, 2M)
    ([(x, y) for x in range(6) for y in (-1000, 1000)], 2000),
    (MIXED_DENOMINATORS, None),
    (CIRCLE_150, None),
])
def test_kernel_ids_decode_to_the_exact_directions(monkeypatch, coords, widest):
    # every id compute_arrangement keys a class by, decoded with the w it
    # was coded with, is the primitive, sign-ruled vector along the exact
    # difference of its two points, with |ry| < w/2
    from pointline import geometry

    directions = geometry._directions
    calls = []

    def recording(anchor, others, w):
        ids = directions(anchor, others, w)
        calls.append((anchor, others, w, ids))
        return ids

    monkeypatch.setattr(geometry, "_directions", recording)
    compute_arrangement(PointSet.from_coords(coords))
    assert len(calls) == len(coords) - 1
    top = 0
    for (px, py, pd), others, w, ids in calls:
        for (qx, qy, qd), direction_id in zip(others, ids, strict=True):
            rx, ry = divmod(direction_id + w // 2, w)
            ry -= w // 2
            assert math.gcd(rx, ry) == 1
            assert rx > 0 or (rx == 0 and ry > 0)
            fx, fy = Fraction(qx, qd) - Fraction(px, pd), Fraction(qy, qd) - Fraction(py, pd)
            assert rx * fy == ry * fx
            assert 2 * abs(ry) < w
            top = max(top, abs(ry))
    if widest is not None:
        assert top == widest


def cubic(k):
    """P_k: the points (t, t^3) of the cuspidal cubic y = x^3 for |t| <= k."""
    return [(t, t ** 3) for t in range(-k, k + 1)]


def cubic_oracle(k):
    """(s, degrees) of P_k from the group law alone, in O(n^2): three points
    of y = x^3 are collinear exactly when their t sum to 0, so every line
    holds 2 or 3 points, and point t lies on n - 1 lines less one per pair
    {u, v} of other points with t + u + v = 0."""
    ts = range(-k, k + 1)
    present = set(ts)
    n = len(ts)
    zero_pairs = [sum(1 for u in ts
                      if -t - u in present and len({t, u, -t - u}) == 3 and u < -t - u)
                  for t in ts]
    s3 = sum(zero_pairs) // 3
    return {2: math.comb(n, 2) - 3 * s3, 3: s3}, [n - 1 - z for z in zero_pairs]


def test_cuspidal_cubic_has_closed_forms():
    for k in range(2, 41):
        n = 2 * k + 1
        st = compute_arrangement(PointSet.from_coords(cubic(k)))
        s3 = (k * k + 1) // 2
        assert st.s == {2: math.comb(n, 2) - 3 * s3, 3: s3}
        assert st.dirac_degree == 3 * k // 2


def test_cuspidal_cubic_matches_the_zero_sum_oracle():
    s, degrees = cubic_oracle(300)
    st = compute_arrangement(PointSet.from_coords(cubic(300)))
    assert st.s == s
    assert (st.dirac_degree, st.dirac_witness) == (max(degrees), degrees.index(max(degrees)))
    # (X, Y, Z) -> (X, Z)/(Y + 10^7 Z) keeps collinearity and sends no point
    # of P_100 to infinity; the image gives every point its own x
    # denominator, so each pair is reduced on the homogeneous path
    s, degrees = cubic_oracle(100)
    image = [(Fraction(t, y + 10**7), Fraction(1, y + 10**7)) for t, y in cubic(100)]
    assert len({x.denominator for x, _y in image}) == 201
    st = compute_arrangement(PointSet.from_coords(image))
    assert s == st.s == {2: 5100, 3: 5000}
    assert (st.dirac_degree, st.dirac_witness) == (150, degrees.index(150))
    assert max(degrees) == 150


def grid_oracle(a, b):
    """(s, degrees) of the a x b grid {0..a-1} x {0..b-1}, its cells in
    x-major order, from its primitive directions alone.

    A line of the grid has a primitive direction v = (p, q), with q > 0 or
    v = (1, 0). The starting cells z of lines of v with at least k points
    (z, z + v, ..., z + (k-1)v inside, z - v outside) are the box of
    R(k-1) = (a - (k-1)|p|)(b - (k-1)q) cells that fit k points, less the
    R(k) that also fit z - v; so R(k-1) - 2R(k) + R(k+1) lines of v hold
    exactly k points. A cell's degree is its number of primitive vectors w
    with z + w in the grid, less one for each v with both z + v and z - v
    in it; P[X][Y] counts the primitive (p, q) with 1 <= p <= X, 1 <= q <= Y.
    """
    def fit(m, p, q):
        return max(0, a - m * abs(p)) * max(0, b - m * q)

    s = {}
    for p in range(-(a - 1), a):
        for q in range(b):
            if (q > 0 and math.gcd(p, q) == 1) or (p, q) == (1, 0):
                k = 2
                while fit(k - 1, p, q):
                    exact = fit(k - 1, p, q) - 2 * fit(k, p, q) + fit(k + 1, p, q)
                    if exact:
                        s[k] = s.get(k, 0) + exact
                    k += 1
    P = [[0] * b for _ in range(a)]
    for x in range(1, a):
        for y in range(1, b):
            P[x][y] = P[x - 1][y] + P[x][y - 1] - P[x - 1][y - 1] + (math.gcd(x, y) == 1)
    degrees = []
    for x in range(a):
        for y in range(b):
            left, right, down, up = x, a - 1 - x, y, b - 1 - y
            reach = (P[right][up] + P[left][up] + P[right][down] + P[left][down]
                     + (left > 0) + (right > 0) + (down > 0) + (up > 0))
            mx, my = min(left, right), min(down, up)
            both = 2 * P[mx][my] + (mx > 0) + (my > 0)
            degrees.append(reach - both)
    return dict(sorted(s.items())), degrees


def test_grid_oracle_matches_the_brute_force_oracle_on_small_grids():
    for a, b in [*itertools.product(range(1, 6), repeat=2), (2, 9), (7, 3)]:
        s, degrees = grid_oracle(a, b)
        expected = oracle_arrangement([(x, y) for x in range(a) for y in range(b)])
        assert s == expected["s"], (a, b)
        assert max(degrees) == expected["dirac_degree"], (a, b)
        assert degrees.index(max(degrees)) == expected["dirac_witness"], (a, b)


def test_analyze_of_a_40x40_grid_matches_the_grid_oracle(tmp_path):
    # 1600 points with lines of every length 2..40 in 1896 directions
    a = b = 40
    path = tmp_path / "grid40.txt"
    path.write_text("".join(f"{x} {y}\n" for x in range(a) for y in range(b)))
    proc = subprocess.run([sys.executable, "-m", "pointline", "analyze", str(path), "--json"],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    s, degrees = grid_oracle(a, b)
    assert json.loads(proc.stdout)["payload"] == {
        "n": a * b,
        "s": [[k, sk] for k, sk in s.items()],
        "lines": sum(s.values()),
        "incidences": sum(k * sk for k, sk in s.items()),
        "edges": sum((k - 1) * sk for k, sk in s.items()),
        "l_max": max(s),
        "dirac_degree": max(degrees),
        "dirac_witness": degrees.index(max(degrees)),
    }
