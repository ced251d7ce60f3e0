import time
from fractions import Fraction

import pytest

from pointline import (
    DuplicatePoints,
    PipelineParams,
    Point,
    PointFormatError,
    PointSet,
    _record,
    format_points,
    parse_points,
    parse_rational,
    pointfile,
)
from pointline.constants import checked_eps, checked_tail_width


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
    # only ASCII digits, an optional sign on the numerator and one slash;
    # records and the checked_* gates read strings by the same grammar and
    # refuse a bad one at once, naming the field, whatever its exponent
    readers = [("Point.x", lambda t: Point(t, 0)), ("Point.y", lambda t: Point(0, t)),
               ("eps", checked_eps), ("width_bound", checked_tail_width)]
    readers += [(f"PipelineParams.{name}", lambda t, name=name: PipelineParams(**{name: t}))
                for name in PipelineParams._fields]
    start = time.process_time()
    for token in ("1_0", "\u0663", "1/\u0663", "\uff11", "0x10", "1/+2", "--1",
                  "", "1/", "/2", "1 / 2", "1/2/3", "1e3",
                  "1e10000000", "0.5", " 0.5 ", "1/0"):
        with pytest.raises(ValueError):
            parse_rational(token)
        for what, read in readers:
            with pytest.raises(ValueError) as exc:
                read(token)
            assert str(exc.value).startswith(f"{what}: "), (what, token)
    assert time.process_time() - start < 1
    assert pointfile.parse_rational is _record.parse_rational
    assert checked_eps("1/4") == Fraction(1, 4)
    assert PipelineParams(tail_width="1/10000000000000").tail_width == Fraction(1, 10**13)


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


def test_a_form_feed_does_not_end_a_line():
    # two lines as `wc -l` counts them; the second holds four fields
    with pytest.raises(PointFormatError) as exc:
        parse_points("0 0\n1 0\f0 1\n")
    assert exc.value.line_no == 2
    assert "expected 2 fields, got 4" in str(exc.value)


def test_a_line_separator_is_reported_at_its_own_line():
    with pytest.raises(PointFormatError) as exc:
        parse_points("0 0\n1 0\u2028x 1\n")
    assert exc.value.line_no == 2
    assert "line 2" in str(exc.value)


def test_every_other_separator_stays_inside_its_line():
    for sep in ("\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"):
        with pytest.raises(PointFormatError) as exc:
            parse_points(f"0 0{sep}1 0\n0 1\n")
        assert exc.value.line_no == 1, repr(sep)


def test_crlf_files_parse_as_lf_files():
    text = "# grid\n0 0\n1 0\n\n0 1\n2 3\n"
    assert parse_points(text.replace("\n", "\r\n")) == parse_points(text)
    with pytest.raises(PointFormatError) as exc:
        parse_points("0 0\r\n1\r\n")
    assert exc.value.line_no == 2


def test_a_last_line_needs_no_newline():
    assert parse_points("0 0\n1 2") == parse_points("0 0\n1 2\n")
    with pytest.raises(PointFormatError) as exc:
        parse_points("0 0\n1 2\n3")
    assert exc.value.line_no == 3
