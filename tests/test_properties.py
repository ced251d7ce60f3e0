"""Property tests drawn by Hypothesis: metamorphic relations of the
arrangement kernel, the point-file round trip, the incremental search
against the reference climb, and the CLI's JSON writer against json on
document strings, with its refusal of every other string.

Hypothesis is a test-only extra; without it this module is skipped. Every
test is derandomized and keeps no example database, so the suite draws the
same examples on every run; conftest keeps Hypothesis's other caches out
of the checkout.
"""

import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import reference_climb  # noqa: E402
from pointline import PointSet, compute_arrangement, search_min_dirac  # noqa: E402
from pointline.cli import _json  # noqa: E402
from pointline.geometry import _directions, _homogeneous  # noqa: E402
from pointline.pointfile import format_points, parse_points  # noqa: E402


def fixed(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples)


def point_sets(min_size, max_size, span):
    """Distinct integer points in [-span, span]^2: small spans force many
    collinear triples."""
    coord = st.integers(-span, span)
    return st.lists(st.tuples(coord, coord), min_size=min_size, max_size=max_size,
                    unique=True)


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def affine_maps(draw):
    """(a, b, c, d, e, f) for (x, y) -> (ax + by + e, cx + dy + f), ad - bc != 0."""
    a, b, c, d = draw(st.tuples(small_rationals, small_rationals,
                                small_rationals, small_rationals)
                      .filter(lambda m: m[0] * m[3] != m[1] * m[2]))
    return a, b, c, d, draw(small_rationals), draw(small_rationals)


def degrees(ps):
    """Lines through each point, in point order: its distinct directions to
    all the other points."""
    pts = _homogeneous(ps)
    w = 4 * max(abs(y) for _x, y, _d in pts) * max(d for _x, _y, d in pts) + 1
    return [len(set(_directions(p, pts[:i] + pts[i + 1:], w))) for i, p in enumerate(pts)]


def histogram(stats):
    return stats.s, stats.lines, stats.l_max, stats.dirac_degree


@fixed(40)
@given(point_sets(3, 20, 4), affine_maps())
def test_affine_maps_keep_the_arrangement(coords, m):
    a, b, c, d, e, f = m
    ps = PointSet.from_coords(coords)
    image = PointSet.from_coords((a * x + b * y + e, c * x + d * y + f) for x, y in coords)
    base = compute_arrangement(ps)
    moved = compute_arrangement(image)
    assert histogram(moved) == histogram(base)
    assert moved.dirac_witness == base.dirac_witness
    assert degrees(image) == degrees(ps)


@fixed(40)
@given(point_sets(3, 20, 4).flatmap(
    lambda coords: st.tuples(st.just(coords), st.permutations(range(len(coords))))))
def test_permutations_keep_the_arrangement(drawn):
    coords, order = drawn
    ps = PointSet.from_coords(coords)
    shuffled = PointSet.from_coords(coords[i] for i in order)
    base = compute_arrangement(ps)
    moved = compute_arrangement(shuffled)
    assert histogram(moved) == histogram(base)
    # point i moved to position order.index(i); its degree goes with it, and
    # the witness is the lowest new position among the maximal degrees
    old_degrees = degrees(ps)
    assert degrees(shuffled) == [old_degrees[i] for i in order]
    top = [pos for pos, i in enumerate(order) if old_degrees[i] == base.dirac_degree]
    assert moved.dirac_witness == min(top)


KELLY_MOSER_7 = [(p.x, p.y) for p in parse_points(
    (Path(__file__).resolve().parent / "data" / "kelly_moser_7.txt").read_text())]

# grids, two-row sets {0..k-1} x {0, 1} and the Kelly-Moser 7-point set:
# sets with many lines of three or more points
structured_sets = st.one_of(
    st.builds(lambda w, h: [(x, y) for x in range(w) for y in range(h)],
              st.integers(2, 5), st.integers(2, 5)),
    st.integers(2, 8).map(lambda k: [(x, y) for x in range(k) for y in (0, 1)]),
    st.just(KELLY_MOSER_7),
)


def determinant(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


small_ints = st.integers(-3, 3)
projective_maps = st.tuples(*[st.tuples(small_ints, small_ints, small_ints)] * 3).filter(
    lambda m: determinant(m) != 0)


@fixed(100)
@given(structured_sets, projective_maps)
def test_projective_maps_keep_the_arrangement(coords, m):
    # (x, y, 1) -> m (x, y, 1) keeps collinearity; the points generally get
    # different denominators, so pairs take the homogeneous path
    (a, b, c), (d, e, f), (g, h, i) = m
    assume(all(g * x + h * y + i != 0 for x, y in coords))
    ps = PointSet.from_coords(coords)
    image = PointSet.from_coords((Fraction(a * x + b * y + c, g * x + h * y + i),
                                  Fraction(d * x + e * y + f, g * x + h * y + i))
                                 for x, y in coords)
    base = compute_arrangement(ps)
    moved = compute_arrangement(image)
    assert histogram(moved) == histogram(base)
    assert moved.dirac_witness == base.dirac_witness
    assert degrees(image) == degrees(ps)


@fixed(8)
@given(point_sets(100, 300, 25))
def test_pairs_partition_into_lines(coords):
    ps = PointSet.from_coords(coords)
    stats = compute_arrangement(ps)
    assert sum(comb(i, 2) * si for i, si in stats.s.items()) == comb(len(coords), 2)
    # the kernel counts a point's lines from its forward classes plus the
    # lines it ends; each point's distinct directions count them directly
    per_point = degrees(ps)
    assert stats.dirac_degree == max(per_point)
    assert stats.dirac_witness == per_point.index(stats.dirac_degree)


big_rationals = st.builds(
    Fraction,
    st.integers(-10**400, 10**400),
    st.integers(1, 10**400),
)


@fixed(40)
@given(st.lists(st.tuples(big_rationals, big_rationals), max_size=12, unique=True))
def test_point_files_round_trip(coords):
    ps = PointSet.from_coords(coords)
    assert parse_points(format_points(ps)) == ps


@st.composite
def climbs(draw):
    extent = draw(st.integers(2, 8))
    n = draw(st.integers(3, min(14, (extent + 1) ** 2)))
    return n, extent, draw(st.integers(1, 60)), draw(st.integers(0, 2**64 - 1))


@fixed(40)
@given(climbs())
def test_small_searches_match_the_reference_climb(case):
    n, extent, iterations, seed = case
    res = search_min_dirac(n, extent, iterations, seed)
    degree, consumed, pts = reference_climb(n, extent, iterations, seed)
    assert (res.degree, res.iterations_run) == (degree, consumed)
    assert [(p.x, p.y) for p in res.best_set] == pts


# The strings a document holds: printable ASCII without '"' or '\\'.
DOCUMENT_ALPHABET = "".join(chr(c) for c in range(0x20, 0x7F) if chr(c) not in '"\\')
document_strings = st.text(DOCUMENT_ALPHABET)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**4299, 10**4299), document_strings)
json_payloads = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(document_strings, inner, max_size=4),
    max_leaves=24,
)

# Any other string: at least one character outside the alphabet, among any
# text, non-ASCII, astral (a surrogate pair if escaped), quotes,
# backslashes and control characters.
foreign_chars = st.one_of(
    st.characters(max_codepoint=0x7F).filter(lambda ch: ch not in DOCUMENT_ALPHABET),
    st.characters(min_codepoint=0x80),
    st.characters(min_codepoint=0x10000),
    st.sampled_from('"\\\x00\x01\x1f\x7f\b\f\n\r\t\u2028\u00e9\U0001f600'),
)
any_strings = st.one_of(st.text(), document_strings)
foreign_strings = st.builds(lambda head, ch, tail: head + ch + tail,
                            any_strings, foreign_chars, any_strings)


@st.composite
def foreign_payloads(draw):
    """A payload holding one foreign string, as a value or as a key, nested
    up to three levels among document values."""
    bad = draw(foreign_strings)
    if draw(st.booleans()):
        value = bad
    else:
        value = draw(st.dictionaries(document_strings, json_scalars, max_size=3))
        value[bad] = draw(json_scalars)
    for _ in range(draw(st.integers(0, 3))):
        key, sibling = draw(document_strings), draw(json_scalars)
        value = draw(st.sampled_from(([value, sibling], [sibling, value], {key: value})))
    return value


@fixed(300)
@given(json_payloads)
def test_json_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, sort_keys=True)
    assert _json(value, "\n") == json.dumps(value, sort_keys=True, indent=2)


@fixed(300)
@given(foreign_payloads())
def test_json_writer_refuses_foreign_strings(value):
    for newline in (None, "\n"):
        with pytest.raises(ValueError, match="^not a document string: "):
            _json(value, newline)
