import json
import math
from fractions import Fraction

import pytest

from pointline import (
    BadCutoff,
    BadEps,
    CollinearInput,
    PipelineParams,
    PointSet,
    PreconditionViolated,
    audit_proof_steps,
    check_beck,
    check_hirzebruch,
    check_kelly_moser,
    check_main,
    check_melchior,
    check_stt,
    combine_reports,
    compute_arrangement,
    delta_of,
    generate,
    solve_fixed_point,
    tail_sum,
)


def stats_of(kind, *sizes, **kw):
    return compute_arrangement(generate(kind, *sizes, **kw))


GRID3 = stats_of("grid", 3, 3)
GRID5 = stats_of("grid", 5, 5)
COLLINEAR5 = stats_of("collinear", 5)
TRIANGLE = compute_arrangement(PointSet.from_coords([(0, 0), (1, 0), (0, 1)]))


def test_melchior():
    rep = check_melchior(GRID3)
    assert (rep.lhs, rep.rhs, rep.holds, rep.preconditions_met) == (12, 3, True, True)
    assert rep.slack == 9

    para = stats_of("parabola", 7)
    rep = check_melchior(para)
    assert rep.lhs == math.comb(7, 2)
    assert rep.rhs == 3
    assert rep.holds

    rep = check_melchior(COLLINEAR5)
    assert not rep.preconditions_met
    assert rep.binding_failures() == []


def test_hirzebruch():
    rep = check_hirzebruch(GRID3)
    assert (rep.lhs, rep.rhs, rep.holds) == (18, 9, True)

    rep = check_hirzebruch(GRID5)
    assert rep.lhs == 108 + Fraction(3, 4) * 16
    assert rep.rhs == 25 + (2 * 5 - 9) * 12
    assert (rep.lhs, rep.rhs) == (120, 37)
    assert rep.holds and rep.preconditions_met

    pencil = stats_of("near_pencil", 5)  # l_max = 4 > n - 3
    rep = check_hirzebruch(pencil)
    assert not rep.preconditions_met
    assert rep.binding_failures() == []


def test_kelly_moser():
    rep = check_kelly_moser(GRID3)
    assert rep.holds
    by_name = {p.name: p for p in rep.parts}
    assert (by_name["kelly-moser-incidences"].lhs,
            by_name["kelly-moser-incidences"].rhs) == (60, 51)
    assert (by_name["kelly-moser-edges"].lhs,
            by_name["kelly-moser-edges"].rhs) == (40, 31)

    rep = check_kelly_moser(TRIANGLE)
    assert rep.holds
    assert all(p.slack == 0 for p in rep.parts)  # 9 >= 9 and 6 >= 6

    rep = check_kelly_moser(COLLINEAR5)
    assert not rep.holds  # 3 >= 3 + 5 is false on the raw numbers
    assert not rep.preconditions_met
    assert rep.binding_failures() == []  # non-binding: degenerate input


def test_stt():
    rep = check_stt(GRID5, 2, PipelineParams())
    assert rep.holds
    rep = check_stt(GRID3, 4, PipelineParams())
    assert rep.holds
    assert all(p.lhs == 0 for p in rep.parts)  # no 4-lines in the 3x3 grid
    with pytest.raises(ValueError, match=r"^level must be >= 2, got 1$"):
        check_stt(GRID5, 1, PipelineParams())


def test_stt_all_levels_on_random_sample():
    st = stats_of("random_grid", 30, extent=25, seed=9)
    for i in range(2, st.l_max + 1):
        assert check_stt(st, i, PipelineParams()).holds


def test_main():
    rep = check_main(GRID3)
    assert rep.holds
    by_name = {p.name: p for p in rep.parts}
    assert by_name["main-degree"].lhs == 6
    assert by_name["main-degree"].rhs == Fraction(9, 37)

    # n = 100, l_max = 10 > 100/37: incidence sub-verdict not applicable
    ps10 = generate("grid", 10, 10)
    rep = check_main(compute_arrangement(ps10))
    by_name = {p.name: p for p in rep.parts}
    assert by_name["main-degree"].holds and by_name["main-degree"].preconditions_met
    assert not by_name["main-incidences"].preconditions_met
    assert "not applicable" in by_name["main-incidences"].note
    assert rep.binding_failures() == []

    pencil = generate("near_pencil", 100)
    rep = check_main(compute_arrangement(pencil))
    by_name = {p.name: p for p in rep.parts}
    assert by_name["main-degree"].lhs == 99
    assert rep.holds

    with pytest.raises(CollinearInput):
        check_main(COLLINEAR5)


def test_beck():
    pencil6 = stats_of("near_pencil", 6)
    rep = check_beck(pencil6)
    assert rep.holds
    by_name = {p.name: p for p in rep.parts}
    assert (by_name["beck-lines"].lhs, by_name["beck-lines"].rhs) == (6, Fraction(3, 49))
    assert (by_name["beck-edges"].lhs, by_name["beck-edges"].rhs) == (9, 5)
    assert (by_name["beck-few-point-lines"].lhs,
            by_name["beck-few-point-lines"].rhs) == (10, 6)
    assert (by_name["beck-few-line-count"].lhs,
            by_name["beck-few-line-count"].rhs) == (5, Fraction(3, 98))

    para = stats_of("parabola", 9)
    rep = check_beck(para)
    assert rep.holds
    by_name = {p.name: p for p in rep.parts}
    assert by_name["beck-lines"].lhs == math.comb(9, 2)
    assert by_name["beck-edges"].rhs == 2 * (9 - 2)

    rep = check_beck(COLLINEAR5)
    by_name = {p.name: p for p in rep.parts}
    assert not by_name["beck-few-point-lines"].preconditions_met
    assert not by_name["beck-few-point-lines"].holds  # 0 > 1 fails, non-binding
    assert by_name["beck-lines"].holds
    assert rep.holds  # binding parts all pass
    assert rep.binding_failures() == []


def test_beck_takes_l_as_the_largest_collinear_subset():
    # l is l_max from two points on; a lone point is a collinear set of
    # size 1 although it lies on no line, so n - l is 0 for n < 2
    for coords, l in (([], 0), ([(Fraction(1, 2), Fraction(-3, 7))], 1), ([(0, 0), (1, 1)], 2)):
        stats = compute_arrangement(PointSet.from_coords(coords))
        rep = check_beck(stats)
        by_name = {p.name: p for p in rep.parts}
        assert by_name["beck-lines"].rhs == Fraction(len(coords) * (len(coords) - l), 98)
        assert by_name["beck-edges"].rhs == 0
        assert rep.holds and rep.binding_failures() == [], coords


def test_combine_reports():
    a = check_melchior(GRID3)
    b = check_kelly_moser(GRID3)
    top = combine_reports("both", (a, b))
    assert top.holds
    assert top.parts == (a, b)
    assert top.binding_failures() == []


def test_proof_trace_5x5():
    tr = audit_proof_steps(GRID5, delta_of(8, Fraction(1, 4)), PipelineParams())
    assert tr.name == "proof-trace"
    assert tr.c == 8
    assert tr.k == 3
    assert (tr.small_pairs, tr.medium_pairs, tr.large_pairs) == (300, 0, 0)
    assert tr.small_pairs + tr.medium_pairs + tr.large_pairs == math.comb(25, 2)
    assert (tr.small_incidences, tr.medium_incidences) == (340, 0)
    names = [r.name for r in tr.step_reports]
    assert names == ["small-pairs", "medium-lines", "medium-pairs", "large-pairs"]
    assert all(r.holds for r in tr.step_reports)
    by_name = {r.name: r for r in tr.step_reports}
    # X * I_S - h*n = (35/22)*340 - (24/11)*25
    assert by_name["small-pairs"].rhs == Fraction(5350, 11)
    # eps * alpha * n^2 / 2 with eps = 1/4
    assert by_name["large-pairs"].rhs == Fraction(64375, 128)
    assert tr.binding_failures() == []


def test_proof_trace_no_large_class():
    # parabola: every subgraph edge count is tiny, so k = 3 exceeds
    # floor(eps * n) = 2 and the large class is empty
    st = stats_of("parabola", 15)
    tr = audit_proof_steps(st, delta_of(8, Fraction(1, 6)), PipelineParams())
    assert tr.k == 3
    assert tr.k == int(Fraction(1, 6) * 15) + 1
    assert tr.large_pairs == 0
    by_name = {r.name: r for r in tr.step_reports}
    assert by_name["large-pairs"].lhs == 0
    assert by_name["large-pairs"].holds


def test_proof_trace_overlapping_classes():
    # 10x10 grid at eps = 1/8: k = 5 < c = 8, so sizes 5..8 sit in both
    # ranges and the small class wins; the tally still covers every pair
    st = stats_of("grid", 10, 10)
    tr = audit_proof_steps(st, delta_of(8, Fraction(1, 8)), PipelineParams())
    assert tr.k == 5
    assert (tr.small_pairs, tr.medium_pairs, tr.large_pairs) == (3816, 0, 1134)
    assert tr.small_pairs + tr.medium_pairs + tr.large_pairs == math.comb(100, 2)
    assert all(r.holds for r in tr.step_reports)
    assert "priority" in tr.note


def test_proof_trace_pins_every_step_with_medium_levels():
    # 30x30 grid at c = 8, eps = 2/5: k = 11, so line sizes 9 and 10 are
    # the two medium levels; every step's lhs/rhs is pinned exactly
    st = stats_of("grid", 30, 30)
    c, n = 8, 900
    tr = audit_proof_steps(st, delta_of(c, Fraction(2, 5)), PipelineParams())
    assert tr.k == 11
    assert (tr.small_pairs, tr.medium_pairs, tr.large_pairs) == (321888, 22032, 60630)
    assert (tr.small_incidences, tr.medium_incidences) == (420068, 4988)
    by_name = {r.name: r for r in tr.step_reports}
    h = Fraction(c * (c - 2), 5 * c - 18)
    beta = Fraction(31827, 1024)
    # X * I_S - h*n = (35/22)*420068 - (24/11)*900
    assert (by_name["small-pairs"].lhs, by_name["small-pairs"].rhs) == (
        321888, Fraction(7329590, 11))
    # tightest at i = 10: sum_{j>=10} j s_j <= beta n^2 i / (2 (i-1)^3)
    medium_lines = by_name["medium-lines"]
    assert (medium_lines.lhs, medium_lines.rhs) == (10260, Fraction(33153125, 192))
    assert medium_lines.note == "tightest of 2 medium levels, at i=10"
    # medium pairs - X * medium incidences = 22032 - (35/22)*4988
    medium_pairs = by_name["medium-pairs"]
    assert medium_pairs.lhs == Fraction(155062, 11)
    assert medium_pairs.rhs == beta * n * n / 4 * (
        (c - h - 2) * (c + 1) / Fraction(c**3) + tail_sum(8).hi)
    # eps * alpha * n^2 / 2 = (2/5)(103/16)(810000)/2
    assert (by_name["large-pairs"].lhs, by_name["large-pairs"].rhs) == (60630, 1042875)
    assert all(r.holds and r.preconditions_met for r in tr.step_reports)


# P_60 = {(t, t^3) : -60 <= t <= 60}: n = 121 and l_max = 3, so at c = 71
# and the dirac fixed point every precondition of the trace holds
P60 = PointSet.from_coords((t, t**3) for t in range(-60, 61))
P60_SLACKS = {
    "small-pairs": Fraction(20836761, 337),
    "medium-lines": 0,
    "medium-pairs": Fraction(402897665503681579, 140308258766848),
    "large-pairs": Fraction(64295581108300008115, 49331467823464448),
}


def test_proof_trace_bites_on_the_cuspidal_cubic(tmp_path, capsys):
    from pointline import cli

    eps, _ = solve_fixed_point(71)
    assert eps == Fraction(42635676716005, 1541608369483264)
    tr = audit_proof_steps(compute_arrangement(P60), delta_of(71, eps), PipelineParams())
    # every pair lies on a line of 2 or 3 points, all small at c = 71
    assert tr.k == 4
    assert (tr.small_pairs, tr.medium_pairs, tr.large_pairs) == (7260, 0, 0)
    assert {r.name: r.slack for r in tr.step_reports} == P60_SLACKS
    assert tr.step_reports[1].note == "no medium levels"
    assert all(r.holds and r.preconditions_met for r in tr.step_reports)
    assert tr.binding_failures() == []

    path = tmp_path / "p60.txt"
    path.write_text("".join(f"{p.x} {p.y}\n" for p in P60))
    assert cli.main(["verify", str(path), "--check", "proof-trace", "--c", "71",
                     "--eps", str(eps), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["binding_failures"] == []
    (trace,) = payload["checks"]
    assert (trace["k"], trace["small_pairs"], trace["medium_pairs"],
            trace["large_pairs"]) == (4, 7260, 0, 0)
    assert {r["name"]: r["slack"] for r in trace["step_reports"]} == {
        name: str(slack) for name, slack in P60_SLACKS.items()}


def test_proof_trace_domain_errors():
    st = stats_of("grid", 10, 10)
    with pytest.raises(PreconditionViolated):
        audit_proof_steps(st, delta_of(8, Fraction(1, 12)), PipelineParams())
    with pytest.raises(BadEps):
        audit_proof_steps(st, delta_of(8, Fraction(1, 2)), PipelineParams())
    with pytest.raises(BadEps):
        audit_proof_steps(st, delta_of(8, 0), PipelineParams())
    with pytest.raises(BadCutoff):
        audit_proof_steps(st, delta_of(7, Fraction(1, 8)), PipelineParams())


def test_reports_recompute_from_raw_stats():
    # independent recomputation of each lhs/rhs from the histogram
    s = GRID5.s
    n = GRID5.n
    mel = check_melchior(GRID5)
    assert mel.lhs == s.get(2, 0)
    assert mel.rhs == 3 + sum((i - 3) * si for i, si in s.items() if i >= 4)
    hir = check_hirzebruch(GRID5)
    assert hir.lhs == s.get(2, 0) + Fraction(3, 4) * s.get(3, 0)
    assert hir.rhs == n + sum((2 * i - 9) * si for i, si in s.items() if i >= 5)
    km = check_kelly_moser(GRID5)
    by_name = {p.name: p for p in km.parts}
    assert by_name["kelly-moser-incidences"].lhs == 3 * GRID5.lines
    assert by_name["kelly-moser-incidences"].rhs == 3 + GRID5.incidences
    assert by_name["kelly-moser-edges"].lhs == 2 * GRID5.lines
    assert by_name["kelly-moser-edges"].rhs == 3 + GRID5.edges
