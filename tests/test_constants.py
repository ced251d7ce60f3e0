from fractions import Fraction
from itertools import count
from math import comb

import pytest

from pointline import constants
from pointline import (
    BadCutoff,
    BadEps,
    DEFAULT_TAIL_WIDTH,
    MIN_TAIL_WIDTH,
    Interval,
    NoSolution,
    PipelineParams,
    beck_constant,
    beck_constant_from,
    best_cutoff,
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


def zeta_tail_oracle(terms=220):
    """Bracket of T(2) = zeta(2) + zeta(3) - 2 from central-binomial series.

    zeta(2) = 3 * sum_{k>=1} 1/(k^2 C(2k,k)): term ratios are below 1/4, so
    the tail after `terms` terms is at most 4/3 of the next term.
    zeta(3) = (5/2) * sum_{k>=1} (-1)^(k+1)/(k^3 C(2k,k)) (Apery): the terms
    alternate and shrink, so consecutive partial sums bracket it.
    With 220 terms the bracket is about 2e-136 wide.
    """
    z2 = sum(Fraction(1, k * k * comb(2 * k, k)) for k in range(1, terms + 1))
    z2_next = Fraction(1, (terms + 1) ** 2 * comb(2 * terms + 2, terms + 1))
    z3 = sum(Fraction((-1) ** (k + 1), k**3 * comb(2 * k, k)) for k in range(1, terms + 1))
    z3_next = Fraction((-1) ** terms, (terms + 1) ** 3 * comb(2 * terms + 2, terms + 1))
    z3_lo, z3_hi = sorted((z3, z3 + z3_next))
    lo = 3 * z2 + Fraction(5, 2) * z3_lo - 2
    hi = 3 * (z2 + Fraction(4, 3) * z2_next) + Fraction(5, 2) * z3_hi - 2
    return lo, hi


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
    for c in (71, 400000):
        for width in (Fraction(1, 1000), Fraction(1, 10**9), Fraction(1, 10**20),
                      Fraction(1, 10**60), Fraction(1, 10**100)):
            t = tail_sum(c, width)
            assert t.hi - t.lo <= width
            assert 0 < t.lo


def test_tail_width_floor():
    assert MIN_TAIL_WIDTH == Fraction(1, 10**100)
    narrow = Fraction(1, 10**101)
    for call in (lambda: tail_sum(71, narrow),
                 lambda: delta_of(71, Fraction(1, 37), PipelineParams(tail_width=narrow)),
                 lambda: solve_fixed_point(71, PipelineParams(tail_width=narrow))):
        with pytest.raises(ValueError, match="at least 1/10\\^100"):
            call()


def test_tail_against_zeta_oracle():
    oracle_lo, oracle_hi = zeta_tail_oracle()
    assert oracle_hi - oracle_lo < Fraction(1, 10**135)
    for c in (2, 8, 31, 32, 71):
        head = sum((Fraction(i + 1, i**3) for i in range(2, c)), Fraction(0))
        lo, hi = oracle_lo - head, oracle_hi - head
        for k in (5, 20, 60):
            t = tail_sum(c, Fraction(1, 10**k))
            assert t.hi - t.lo <= Fraction(1, 10**k), (c, k)
            assert max(t.lo, lo) <= min(t.hi, hi), (c, k)


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
        assert rows[c] == solve_fixed_point(c, mode="dirac")


def test_sweep_reports_no_solution_rows():
    rows = list(sweep_fixed_points(26, 29, mode="dirac"))
    assert [(c, eps is None) for c, eps, _ in rows] == [
        (26, True), (27, True), (28, False), (29, False)]
    with pytest.raises(BadCutoff):
        list(sweep_fixed_points(7, 10))
    with pytest.raises(NoSolution):
        optimize_c(8, 27, mode="dirac")


def test_best_cutoff_of_no_rows():
    with pytest.raises(NoSolution, match="^no cutoff admits a positive fixed point$"):
        best_cutoff([])
    with pytest.raises(NoSolution, match="^no cutoff in 26..27 admits"):
        best_cutoff(sweep_fixed_points(26, 27, mode="dirac"))


def test_sweep_row_cap():
    from pointline.constants import MAX_SWEEP_ROWS

    # at the cap the sweep starts; one row more is refused before any row
    assert next(sweep_fixed_points(8, 7 + MAX_SWEEP_ROWS))[0] == 8
    with pytest.raises(BadCutoff, match=f"the cap is {MAX_SWEEP_ROWS}"):
        next(sweep_fixed_points(8, 8 + MAX_SWEEP_ROWS))
    with pytest.raises(BadCutoff):
        optimize_c(8, 10**8, mode="beck")


def test_argument_checks_are_the_pipelines_own():
    from pointline.constants import checked_eps, checked_tail_width

    assert checked_eps("1/4") == Fraction(1, 4)
    assert checked_tail_width(MIN_TAIL_WIDTH) == MIN_TAIL_WIDTH
    for eps in (0, Fraction(1, 2), -1):
        with pytest.raises(BadEps):
            checked_eps(eps)
        with pytest.raises(BadEps):
            delta_of(71, eps)
    for width in (0, -1, MIN_TAIL_WIDTH / 2):
        with pytest.raises(ValueError):
            checked_tail_width(width)
        with pytest.raises(ValueError):
            tail_sum(71, width)


def test_params_validation_and_edge_values():
    with pytest.raises(ValueError):
        PipelineParams(alpha=Fraction(-1, 2))
    with pytest.raises(ValueError):
        PipelineParams(beta=0)
    with pytest.raises(ValueError, match="width bound must be positive, got 0"):
        PipelineParams(tail_width=0)
    with pytest.raises(ValueError, match="at least 1/10\\^100"):
        PipelineParams(tail_width=Fraction(1, 10**101))
    # a bad width is refused after a bad alpha or beta
    with pytest.raises(ValueError, match="beta must be > 0"):
        PipelineParams(beta=0, tail_width=0)
    # alpha = 0 degenerates gracefully: the fixed point still solves
    eps, delta = solve_fixed_point(71, PipelineParams(alpha=0), mode="dirac")
    assert eps == delta.lo > 0


def test_params_carry_the_tail_width():
    assert PipelineParams().tail_width == DEFAULT_TAIL_WIDTH
    # the width is part of the record's equality and hash
    narrow = PipelineParams(tail_width=Fraction(1, 10**13))
    assert narrow == PipelineParams(tail_width="1/10000000000000")
    assert hash(narrow) == hash(PipelineParams(tail_width="1/10000000000000"))
    assert narrow != PipelineParams()
    assert len({narrow, PipelineParams()}) == 2


def test_tail_width_from_params_reproduces_the_old_argument():
    # the values solve_fixed_point(71, tail_width=1/10^13) and
    # delta_of(71, 1/37, tail_width=1/10^13) gave when the width was a
    # separate argument
    params = PipelineParams(tail_width=Fraction(1, 10**13))
    eps, delta = solve_fixed_point(71, params)
    assert eps == delta.lo == Fraction(
        37920547575961378645627, 1371120103928359386237440)
    assert delta.hi == Fraction(
        3176831793724056053297238447, 114866957826702235941427773440)
    bd = delta_of(71, Fraction(1, 37), params)
    assert bd.tail == Interval(Fraction(27448213457, 1921504258815),
                               Fraction(1291420144343127, 90405494374406540))
    assert bd.delta == Interval(
        Fraction(1001387925561127757415879, 35869567459619896949309440),
        Fraction(7094595216093931963, 254127351854931681280))


def test_larger_alpha_shrinks_the_constant():
    base = solve_fixed_point(71, mode="dirac")[0]
    bumped = solve_fixed_point(
        71, PipelineParams(alpha=Fraction(1030, 16)), mode="dirac")[0]
    assert bumped < base


def test_interval_type():
    iv = Interval(Fraction(1, 3), Fraction(1, 2))
    assert iv.width == Fraction(1, 6)
    with pytest.raises(ValueError):
        Interval(Fraction(1, 2), Fraction(1, 3))


def test_default_tail_width():
    assert DEFAULT_TAIL_WIDTH == Fraction(1, 10**9)


# ---------------------------------------------------------------------------
# Fraction-chain oracle. The library evaluates tail_sum, delta and the fixed
# point as integer ratios reduced once; these are the same formulas written
# step by step in Fraction arithmetic. Equal rationals have one reduced
# form, so the two must agree exactly, NoSolution rows included.

ORACLE_WIDTHS = tuple(Fraction(1, 10**k) for k in (3, 9, 10, 11, 40))
ORACLE_CUTOFFS = (*range(8, 700), 1000, 5000, 104439, 401507)


def oracle_tail(c, width):
    """(lo, hi, n): the Euler-Maclaurin bracket [S_m, S_{m+1}] summed term by
    term, and the n it settled on."""
    n = max(c, 32)
    while True:
        s = sum((Fraction(i + 1, i**3) for i in range(c, n)), Fraction(0))
        s += Fraction(1, n) + Fraction(1, 2 * n * n) + Fraction(n + 1, n**3) / 2
        prev = None
        for k in count(1):
            t = constants._bernoulli(k) * Fraction(2 * n + 2 * k + 1, 2 * n ** (2 * k + 2))
            if abs(t) <= width:
                return (*sorted((s, s + t)), n)
            if prev is not None and abs(t) >= abs(prev):
                break
            s, prev = s + t, t
        n *= 2


def oracle_delta(c, eps, tail_lo, tail_hi, params):
    h = Fraction(c * (c - 2), 5 * c - 18)
    mid = (c - h - 2) * (c + 1) / Fraction(c**3)
    return tuple(
        (1 - eps * params.alpha - params.beta / 2 * (mid + t)) / (h + 1)
        for t in (tail_hi, tail_lo)
    )


def oracle_fixed_point(c, lam, tail_lo, tail_hi, params):
    """(eps, (delta.lo, delta.hi)), or None where no positive fixed point exists."""
    h = Fraction(c * (c - 2), 5 * c - 18)
    mid = (c - h - 2) * (c + 1) / Fraction(c**3)
    base = 1 - params.beta / 2 * (mid + tail_hi)
    if base <= 0:
        return None
    b = 1 / (h + 1)
    eps = lam * b * base / (1 + lam * params.alpha * b)
    return eps, oracle_delta(c, eps, tail_lo, tail_hi, params)


def _solved(c, params, mode):
    try:
        eps, delta = solve_fixed_point(c, params, mode)
    except NoSolution:
        return None
    return eps, (delta.lo, delta.hi)


def test_bernoulli_numbers():
    assert [constants._bernoulli(k) for k in range(1, 7)] == [
        Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
        Fraction(5, 66), Fraction(-691, 2730)]


def test_integer_evaluation_matches_fraction_oracle():
    lams = {"dirac": Fraction(1), "beck": Fraction(2, 3)}
    unsolved = 0
    for width in ORACLE_WIDTHS:
        params = PipelineParams(tail_width=width)
        for c in ORACLE_CUTOFFS:
            lo, hi, _n = oracle_tail(c, width)
            tail = tail_sum(c, width)
            assert (tail.lo, tail.hi) == (lo, hi), (c, width)
            for mode, lam in lams.items():
                want = oracle_fixed_point(c, lam, lo, hi, params)
                assert _solved(c, params, mode) == want, (c, width, mode)
                unsolved += want is None
            if c % 50 == 0 or c > 700:
                for eps in (Fraction(1, 37), Fraction(1, 45)):
                    bd = delta_of(c, eps, params)
                    assert (bd.delta.lo, bd.delta.hi) == oracle_delta(c, eps, lo, hi, params)
    assert unsolved > 0  # the grid reaches the NoSolution rows of both modes


def test_integer_evaluation_matches_oracle_off_the_default_grid():
    # c < 32 adds a partial sum to the bracket; c < 8 is tail_sum's alone
    for c in range(2, 32):
        for width in (Fraction(1, 10**3), Fraction(1, 10**9), Fraction(1, 10**40)):
            lo, hi, _n = oracle_tail(c, width)
            assert tail_sum(c, width) == Interval(lo, hi), (c, width)
    # a width narrow enough that the expansion diverges at n = 32 and n doubles
    for c in (8, 20, 32):
        lo, hi, n = oracle_tail(c, MIN_TAIL_WIDTH)
        assert n > max(c, 32)
        assert tail_sum(c, MIN_TAIL_WIDTH) == Interval(lo, hi)
    # other crossing-lemma constants, including alpha = 0
    for params in (PipelineParams(alpha=0), PipelineParams(Fraction(7, 3), Fraction(101, 4))):
        for c in (8, 28, 67, 71, 300):
            lo, hi, _n = oracle_tail(c, DEFAULT_TAIL_WIDTH)
            for mode, lam in (("dirac", Fraction(1)), ("beck", Fraction(2, 3))):
                assert _solved(c, params, mode) == oracle_fixed_point(
                    c, lam, lo, hi, params), (c, params, mode)
            bd = delta_of(c, Fraction(1, 37), params)
            assert (bd.delta.lo, bd.delta.hi) == oracle_delta(c, Fraction(1, 37), lo, hi, params)
    # beck_constant from the oracle's beck fixed point
    for c in (37, 67, 78, 592):
        lo, hi, _n = oracle_tail(c, DEFAULT_TAIL_WIDTH)
        eps, (d_lo, d_hi) = oracle_fixed_point(c, Fraction(2, 3), lo, hi, PipelineParams())
        assert beck_constant(c) == Interval(min(eps / 2, d_lo / 3), min(eps / 2, d_hi / 3))


def test_delta_of_breakdown_matches_fraction_oracle():
    for c in (8, 31, 71, 104439):
        bd = delta_of(c, Fraction(1, 37))
        h = Fraction(c * (c - 2), 5 * c - 18)
        assert bd.h == h
        assert bd.y == c - h - 2
        assert bd.mid_term == (c - h - 2) * (c + 1) / Fraction(c**3)


def test_sweep_calls_each_layer_once_per_row(monkeypatch):
    # The traced benchmark counts and times tail_sum and solve_fixed_point
    # through the module namespace; a sweep must keep calling both there.
    calls = {"tail_sum": 0, "solve_fixed_point": 0}
    for name in calls:
        original = getattr(constants, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(constants, name, counted)
    rows = list(sweep_fixed_points(20, 40, mode="beck"))
    assert len(rows) == 21 and any(eps is None for _, eps, _ in rows)
    assert calls == {"tail_sum": 21, "solve_fixed_point": 21}
    optimize_c(60, 75, mode="dirac")
    assert calls == {"tail_sum": 37, "solve_fixed_point": 37}
