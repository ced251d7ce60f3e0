from fractions import Fraction

import pytest

from pointline import (
    BadCutoff,
    BadEps,
    DEFAULT_TAIL_WIDTH,
    Interval,
    NoSolution,
    PipelineParams,
    beck_constant,
    beck_constant_from,
    delta_of,
    h_of,
    optimize_c,
    solve_fixed_point,
    sweep_fixed_points,
    tail_sum,
    x_of,
)

# zeta(2) + zeta(3) to 17 digits, an external anchor for the tail
# enclosure: tail_sum(2) certifies sum_{i>=2} (i+1)/i^3, which is this
# constant minus the i=1 term (= 2).
ZETA_2_PLUS_3 = Fraction("2.8469909700078207")


def test_h_of():
    assert h_of(8) == Fraction(24, 11)
    assert h_of(71) == Fraction(71 * 69, 5 * 71 - 18)
    with pytest.raises(BadCutoff):
        h_of(7)
    # h >= 24/11 across the working range (so h >= 1 in particular)
    assert all(h_of(c) >= Fraction(24, 11) for c in range(8, 201))


def test_x_is_half_h_plus_one():
    for c in (8, 9, 10, 28, 50, 67, 71, 128, 200):
        assert x_of(c) == (h_of(c) + 1) / 2


def test_x_of_matches_brute_force_branch_maximum():
    # x_of evaluates the convex inner branch only at i = 5 and i = c; a
    # loop over every i must find the same maximum and the same X
    for c in range(8, 301):
        h = h_of(c)
        inner = max(Fraction(i - 1, 2) - 2 * h + 9 * h / i for i in range(5, c + 1))
        assert inner == max(Fraction(i - 1, 2) - 2 * h + 9 * h / i for i in (5, c))
        assert x_of(c) == max((h + 1) / 2, (h + 4) / 4, Fraction(3, 2), inner)


def test_tail_enclosure_contains_truth():
    t = tail_sum(2, Fraction(1, 10**5))
    assert t.lo < t.hi
    assert t.hi - t.lo <= Fraction(1, 10**5)
    assert t.lo <= ZETA_2_PLUS_3 - 2 <= t.hi


def test_tail_width_request_honored():
    for width in (Fraction(1, 1000), Fraction(1, 10**9)):
        t = tail_sum(71, width)
        assert t.hi - t.lo <= width
        assert 0 < t.lo


def test_tail_against_plain_fraction_oracle():
    # independent enclosure: exact partial sum to N plus the integral
    # bracket for the remainder, no scaled rounding involved
    for c in (2, 8, 71):
        n_stop = 4096
        partial = sum(Fraction(i + 1, i**3) for i in range(c, n_stop))
        lo = partial + Fraction(1, n_stop) + Fraction(1, 2 * n_stop**2)
        hi = partial + Fraction(1, n_stop - 1) + Fraction(1, 2 * (n_stop - 1) ** 2)
        t = tail_sum(c, Fraction(1, 10**7))
        assert max(t.lo, lo) <= min(t.hi, hi)  # intervals overlap
        assert lo - Fraction(1, 10**6) <= t.lo and t.hi <= hi + Fraction(1, 10**6)


def test_tail_recurrence_consistency():
    for c in (8, 20, 66):
        t0 = tail_sum(c, Fraction(1, 10**9))
        t1 = tail_sum(c + 1, Fraction(1, 10**9))
        term = Fraction(c + 1, c**3)
        assert t0.lo <= t1.hi + term
        assert t1.lo + term <= t0.hi


def test_delta_of_breakdown():
    bd = delta_of(71, Fraction(1, 37))
    assert bd.c == 71
    assert bd.h == h_of(71)
    assert bd.x == x_of(71)
    assert bd.y == 71 - 1 - 2 * bd.x
    assert bd.eps == Fraction(1, 37)
    assert bd.delta.lo >= Fraction(1, 37)
    assert bd.delta.hi - bd.delta.lo <= Fraction(1, 10**6)


def test_delta_of_eps_domain():
    for bad in (0, Fraction(1, 2), Fraction(-1, 5), 1):
        with pytest.raises(BadEps):
            delta_of(71, bad)
    with pytest.raises(BadCutoff):
        delta_of(7, Fraction(1, 37))


def test_delta_is_affine_in_eps():
    # delta(eps) = K - eps * alpha/(h+1): both interval ends shift by the
    # exact same amount, since the tail enclosure is deterministic
    params = PipelineParams()
    e1, e2 = Fraction(1, 37), Fraction(1, 31)
    d1 = delta_of(71, e1, params)
    d2 = delta_of(71, e2, params)
    shift = (e2 - e1) * params.alpha / (h_of(71) + 1)
    assert d1.delta.lo - d2.delta.lo == shift
    assert d1.delta.hi - d2.delta.hi == shift


def test_dirac_fixed_point_71():
    eps, delta = solve_fixed_point(71, mode="dirac")
    assert eps == delta.lo  # the defining identity, exact
    assert delta.lo >= Fraction(1000, 36158)
    assert delta.hi - delta.lo <= Fraction(1, 10**6)
    # fresh delta_of at the solved eps reproduces the same lower bound
    assert delta_of(71, eps).delta.lo == delta.lo


def test_beck_fixed_point_67():
    eps, delta = solve_fixed_point(67, mode="beck")
    assert delta.lo == eps * Fraction(3, 2)  # eps = (2/3) delta.lo, exact
    assert eps >= Fraction(1, 49)
    assert delta.lo >= Fraction(100, 3257)
    const = beck_constant(67)
    assert const.lo == eps / 2  # min(eps/2, delta.lo/3) collapses
    assert const == beck_constant_from(eps, delta)
    assert const.lo >= Fraction(1, 98)


def test_no_solution_at_small_cutoffs():
    for c in (8, 15, 27):
        with pytest.raises(NoSolution):
            solve_fixed_point(c, mode="dirac")
    eps, delta = solve_fixed_point(28, mode="dirac")
    assert 0 < eps == delta.lo


def test_mode_validation():
    with pytest.raises(ValueError):
        solve_fixed_point(71, mode="fast")


def test_optimize_frozen_best_cutoffs():
    c_star, (eps, delta) = optimize_c(8, 100, mode="dirac")
    assert c_star == 71
    assert delta.lo >= Fraction(1000, 36158)
    c_star, (eps, delta) = optimize_c(8, 100, mode="beck")
    assert c_star == 67
    assert delta.lo >= Fraction(100, 3257)


def test_sweep_matches_direct_solve():
    rows = dict()
    for c, eps, delta in sweep_fixed_points(66, 72, mode="dirac"):
        rows[c] = (eps, delta)
    for c in range(66, 73):
        eps, delta = rows[c]
        d_eps, d_delta = solve_fixed_point(c, mode="dirac")
        # the incremental tail is re-quantized, so agreement is near-exact
        assert abs(delta.lo - d_delta.lo) <= Fraction(1, 10**8)
        assert abs(eps - d_eps) <= Fraction(1, 10**8)


def test_sweep_reports_no_solution_rows():
    rows = list(sweep_fixed_points(26, 29, mode="dirac"))
    assert [(c, eps is None) for c, eps, _ in rows] == [
        (26, True), (27, True), (28, False), (29, False)]
    with pytest.raises(BadCutoff):
        list(sweep_fixed_points(7, 10))
    with pytest.raises(NoSolution):
        optimize_c(8, 27, mode="dirac")


def test_params_validation_and_edge_values():
    with pytest.raises(ValueError):
        PipelineParams(alpha=Fraction(-1, 2))
    with pytest.raises(ValueError):
        PipelineParams(beta=0)
    # alpha = 0 degenerates gracefully: the fixed point still solves
    eps, delta = solve_fixed_point(71, PipelineParams(alpha=0), mode="dirac")
    assert eps == delta.lo > 0


def test_larger_alpha_shrinks_the_constant():
    base = solve_fixed_point(71, mode="dirac")[0]
    bumped = solve_fixed_point(
        71, PipelineParams(alpha=Fraction(1030, 16)), mode="dirac")[0]
    assert bumped < base


def test_interval_type():
    iv = Interval(Fraction(1, 3), Fraction(1, 2))
    assert iv.width == Fraction(1, 6)
    assert iv.contains(Fraction(2, 5))
    assert not iv.contains(Fraction(2, 3))
    with pytest.raises(ValueError):
        Interval(Fraction(1, 2), Fraction(1, 3))


def test_default_tail_width():
    assert DEFAULT_TAIL_WIDTH == Fraction(1, 10**9)
