import math
import random
from fractions import Fraction

import pytest

from conftest import oracle_arrangement, stats_as_dict
from pointline import (
    CollinearInput,
    DuplicatePoints,
    GeneratorSpec,
    IdenticalPoints,
    Line,
    Point,
    PointSet,
    canonical_line,
    collinear,
    compute_arrangement,
    dirac_degree,
    generate,
    pair_tally,
    subgraph_edge_count,
)


def grid(w, h):
    return generate(GeneratorSpec.grid(w, h))


def test_collinear():
    assert collinear(Point(0, 0), Point(1, 1), Point(2, 2))
    assert not collinear(Point(0, 0), Point(1, 0), Point(0, 1))
    assert collinear(
        Point(0, 0),
        Point(Fraction(1, 3), Fraction(1, 3)),
        Point(Fraction(2, 7), Fraction(2, 7)),
    )
    # degenerate triples with repeats are collinear by the determinant
    assert collinear(Point(1, 2), Point(1, 2), Point(5, 9))


def test_canonical_line():
    assert canonical_line(Point(0, 0), Point(1, 1)) == Line(1, -1, 0)
    assert canonical_line(Point(0, 0), Point(0, 5)) == Line(1, 0, 0)
    assert canonical_line(Point(Fraction(1, 2), 0), Point(0, Fraction(1, 2))) == Line(2, 2, -1)
    with pytest.raises(IdenticalPoints):
        canonical_line(Point(3, 4), Point(3, 4))


def test_line_validation():
    with pytest.raises(ValueError):
        Line(0, 0, 1)
    with pytest.raises(ValueError):
        Line(2, 4, 6)  # gcd 2
    with pytest.raises(ValueError):
        Line(-1, 1, 0)  # sign rule wants a > 0
    with pytest.raises(ValueError):
        Line(0, -2, 1)  # a == 0 wants b > 0


def test_canonical_line_symmetry_and_membership():
    # seeded sweep: symmetry in arguments, and any third point on the
    # segment's span canonicalizes to the same triple
    rnd = random.Random(1805)
    for _ in range(300):
        p = Point(Fraction(rnd.randint(-30, 30), rnd.randint(1, 9)),
                  Fraction(rnd.randint(-30, 30), rnd.randint(1, 9)))
        q = Point(Fraction(rnd.randint(-30, 30), rnd.randint(1, 9)),
                  Fraction(rnd.randint(-30, 30), rnd.randint(1, 9)))
        if p == q:
            continue
        ln = canonical_line(p, q)
        assert ln == canonical_line(q, p)
        assert ln.a * p.x + ln.b * p.y + ln.c == 0
        assert ln.a * q.x + ln.b * q.y + ln.c == 0
        t = Fraction(rnd.randint(2, 40), rnd.randint(1, 7))
        r = Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
        assert collinear(p, q, r)
        if r != p and r != q:
            assert canonical_line(p, r) == ln


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
    w, d = dirac_degree(generate(GeneratorSpec.near_pencil(5)))
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
