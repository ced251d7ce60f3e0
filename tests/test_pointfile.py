from fractions import Fraction

import pytest

from pointline import (
    DuplicatePoints,
    Point,
    PointFormatError,
    PointSet,
    format_points,
    parse_points,
    parse_rational,
)


def test_parse_basic():
    pts = parse_points("0 0\n1 2\n-3 4\n")
    assert list(pts) == [Point(0, 0), Point(1, 2), Point(-3, 4)]


def test_parse_rationals_and_whitespace():
    pts = parse_points("  1/2\t0 \n0 -1/3\n")
    assert list(pts) == [Point(Fraction(1, 2), 0), Point(0, Fraction(-1, 3))]


def test_parse_skips_blanks_and_comments():
    pts = parse_points("# header\n\n1 1\n   \n# trailing\n2 3\n")
    assert list(pts) == [Point(1, 1), Point(2, 3)]


def test_parse_rational_token():
    assert parse_rational("-7") == -7
    assert parse_rational("14/4") == Fraction(7, 2)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("1/-2")
    with pytest.raises(ValueError):
        parse_rational("2.5")
    assert parse_rational("+3") == 3
    assert parse_rational(" -0/5 ") == 0
    # only ASCII digits, an optional sign on the numerator and one slash
    for token in ("1_0", "\u0663", "1/\u0663", "\uff11", "0x10", "1/+2", "--1",
                  "", "1/", "/2", "1 / 2", "1/2/3", "1e3"):
        with pytest.raises(ValueError):
            parse_rational(token)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PointFormatError) as exc:
        parse_points("0 0\n1 2 3\n")
    assert exc.value.line_no == 2
    assert "line 2" in str(exc.value)

    with pytest.raises(PointFormatError) as exc:
        parse_points("# ok\n0 0\nx 1\n")
    assert exc.value.line_no == 3

    with pytest.raises(PointFormatError):
        parse_points("1\n")
    with pytest.raises(PointFormatError):
        parse_points("1.5 2\n")  # floats are not part of the format


def test_format_round_trip():
    ps = PointSet.from_coords([(Fraction(1, 2), -3), (0, 0), (7, Fraction(-2, 5))])
    assert parse_points(format_points(ps)) == ps


def test_duplicates_rejected():
    with pytest.raises(DuplicatePoints) as exc:
        parse_points("1 2\n# note\n1 2\n")
    assert exc.value.pairs == ((0, 1),)
