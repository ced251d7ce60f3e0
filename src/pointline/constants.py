"""Certified evaluation of the incidence lower-bound constant pipeline.

The pipeline turns a cutoff c and a collinearity fraction eps into a
certified interval for the incidence coefficient

    delta = (1/(h+1)) * (1 - eps*alpha - (beta/2) * (Y*(c+1)/c^3 + T(c)))

with h = c(c-2)/(5c-18), Y = c - h - 2 and T(c) = sum_{i>=c} (i+1)/i^3.
Besides c and eps, every value depends only on a PipelineParams record:
the crossing-lemma constants alpha and beta, and the width bound
tail_width of the enclosure of T(c). delta_of, solve_fixed_point,
sweep_fixed_points, optimize_c and beck_constant take that one record.

Every quantity except T(c) is an exact rational. T(c) is irrational, so it
is enclosed two-sided: an exact partial sum up to N = max(c, 32), plus the
Euler-Maclaurin expansion of the remainder sum_{i>=N} f(i) for
f(x) = x^-2 + x^-3. f is completely monotone, so the expansion cut after
m terms and after m+1 terms brackets the remainder (see tail_sum). Both
ends are exact rationals; lower bounds reported by this module therefore
hold unconditionally, and no floating point is used anywhere.

How values are evaluated: tail_sum, delta_of and solve_fixed_point work on
integer numerators and denominators from closed forms in c, namely

    h + 1 = (c^2 + 3c - 18)/(5c - 18),
    Y(c+1)/c^3 = (4c^2 - 26c + 36)(c + 1)/((5c - 18) c^3),

and build every reported value as one integer ratio, which is reduced to a
Fraction once. Tests are made on integers too: the tail's stopping and
divergence tests cross-multiply, and a fixed point exists exactly when
the numerator of 1 - (beta/2)*(mid + tail.hi) is positive. A rational
number has exactly one reduced form, so a value reduced once equals the
Fraction that evaluating the same formula step by step in Fraction
arithmetic gives; only the number of gcds differs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cache
from itertools import count
from math import comb, lcm

from ._record import Record, rational
from .errors import BadCutoff, BadEps, ClaimViolated, NoSolution

# Default two-sided width for tail enclosures. Tight enough that the
# certified fixed points keep their documented margins with room to spare.
DEFAULT_TAIL_WIDTH = Fraction(1, 10**9)

# Narrowest tail width accepted. tail_sum meets it in milliseconds; far
# narrower widths take seconds to minutes, and their exact endpoints
# outgrow CPython's 4300-digit limit on printing an integer.
MIN_TAIL_WIDTH = Fraction(1, 10**100)

# Most cutoffs sweep_fixed_points solves in one sweep. A row costs about
# 35 us (Python 3.11, one core of a shared 2-vCPU x86 box), so 10^4 rows
# take about 0.35 s in process and 0.65 s through the CLI, which prints
# 1.5 MB of JSON; 10^8 rows would run for about an hour.
MAX_SWEEP_ROWS = 10**4

# The fixed-point modes and their factor lam in eps = lam * delta(eps).
_LAMBDA = {"dirac": Fraction(1), "beck": Fraction(2, 3)}
MODES = tuple(_LAMBDA)


class PipelineParams(Record):
    """Everything the pipeline is parameterised by, besides c and eps.

    alpha and beta are the crossing-lemma constants, by default those of
    Pach-Radoicic-Tardos-Toth (2006). alpha may be zero (the self-term then
    drops out of the fixed point); beta must be positive. tail_width bounds
    the width of every tail enclosure of T(c); checked_tail_width refuses
    it, after alpha and beta, unless it is at least MIN_TAIL_WIDTH. Each
    field has passed _record.rational before these range checks run.
    """

    alpha: Fraction = Fraction(103, 16)
    beta: Fraction = Fraction(31827, 1024)
    tail_width: Fraction = DEFAULT_TAIL_WIDTH

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        checked_tail_width(self.tail_width)


class Interval(Record):
    """A closed interval with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


class DeltaBreakdown(Record):
    """Every intermediate of one delta evaluation, for reports and audits."""

    c: int
    h: Fraction
    x: Fraction
    y: Fraction
    tail: Interval
    mid_term: Fraction
    eps: Fraction
    delta: Interval


def _check_cutoff(c: int) -> None:
    if c < 8:
        raise BadCutoff(f"cutoff must be >= 8, got {c}")


def h_of(c: int) -> Fraction:
    """h = c(c-2)/(5c-18); increasing in c, equals 24/11 at c = 8."""
    _check_cutoff(c)
    return Fraction(c * (c - 2), 5 * c - 18)


def x_of(c: int) -> Fraction:
    """The pair-weight coefficient X at cutoff c.

    X is the maximum of (h+1)/2, (h+4)/4, 3/2 and
    max_{5 <= i <= c} ((i-1)/2 - 2h + 9h/i). The first branch wins for
    every c >= 8; the full maximum is evaluated exactly anyway and a
    ClaimViolated is raised if that ever stopped being true.
    """
    h = h_of(c)
    # f(i) = (i-1)/2 - 2h + 9h/i has f''(i) = 18h/i^3 > 0, so f is convex
    # and its maximum over 5..c lies at i = 5 or i = c.
    inner = max(Fraction(i - 1, 2) - 2 * h + 9 * h / i for i in (5, c))
    lead = (h + 1) / 2
    x = max(lead, (h + 4) / 4, Fraction(3, 2), inner)
    if x != lead:
        raise ClaimViolated(f"X(c={c}) = {x} exceeds the leading branch {lead}")
    return lead


@cache
def _bernoulli(k: int) -> Fraction:
    """B_{2k} for k >= 1, from sum_{j=0}^{2k} C(2k+1, j) B_j = 0 with B_1 = -1/2."""
    acc = sum((comb(2 * k + 1, 2 * i) * _bernoulli(i) for i in range(1, k)), Fraction(0))
    return (Fraction(2 * k - 1, 2) - acc) / (2 * k + 1)


def _head(c: int, n: int) -> tuple[int, int]:
    """sum_{c<=i<n} f(i), f(i) = (i+1)/i^3, as (numerator, denominator)
    over the denominator lcm(i^3)."""
    den = lcm(*(i**3 for i in range(c, n)))
    return sum((i + 1) * (den // i**3) for i in range(c, n)), den


def checked_eps(eps) -> Fraction:
    """eps as a Fraction (see _record.rational); BadEps unless 0 < eps < 1/2."""
    eps = rational(eps, "eps")
    if not 0 < eps < Fraction(1, 2):
        raise BadEps(f"eps must lie in (0, 1/2), got {eps}")
    return eps


def checked_tail_width(width_bound) -> Fraction:
    """width_bound as a Fraction (see _record.rational); ValueError unless
    it is at least MIN_TAIL_WIDTH."""
    width_bound = rational(width_bound, "width_bound")
    if width_bound <= 0:
        raise ValueError(f"width bound must be positive, got {width_bound}")
    if width_bound < MIN_TAIL_WIDTH:
        raise ValueError("width bound must be at least 1/10^100")
    return width_bound


def tail_sum(c: int, width_bound: Fraction = DEFAULT_TAIL_WIDTH) -> Interval:
    """Two-sided enclosure of T(c) = sum_{i>=c} (i+1)/i^3 with width <= width_bound.

    width_bound must lie in [MIN_TAIL_WIDTH, inf); anything else raises
    ValueError (see checked_tail_width).

    With n = max(c, 32) and t_k = B_{2k} * (2n + 2k + 1)/(2 n^(2k+2)), which
    is -B_{2k}/(2k)! * f^(2k-1)(n) for f(i) = (i+1)/i^3,

        S_m = sum_{c<=i<n} f(i) + (1/n + 1/(2n^2)) + f(n)/2 + t_1 + ... + t_m,

    where 1/n + 1/(2n^2) is the integral of f over [n, inf). The result is
    [S_m, S_{m+1}], ordered, for the first m whose omitted term t_{m+1} is
    at most width_bound. If the terms start to grow before that (they do
    once 2k exceeds about 2*pi*n), n is doubled.

    Proof that T(c) lies in [S_m, S_{m+1}]: f(x) = x^-2 + x^-3 is completely
    monotone, (-1)^j f^(j)(x) > 0 for x > 0 and every j, so f^(2m+2) and
    f^(2m+4) are nonnegative on [n, b] for every b > n. By the
    Euler-Maclaurin remainder theorem (Graham-Knuth-Patashnik, Concrete
    Mathematics, section 9.5) the remainder of sum_{n<=i<b} f(i) after the
    B_{2m} term (after the f(n)/2 term when m = 0) is then theta times the
    B_{2m+2} term, for some theta in [0, 1]. As b grows, f and all its
    derivatives at b tend to 0, so in the limit T(c) - S_m lies between 0
    and t_{m+1}. Every term is an exact rational, so no rounding enters.
    """
    if c < 2:
        raise ValueError(f"tail cutoff must be >= 2, got {c}")
    width_bound = checked_tail_width(width_bound)
    p, q = width_bound.numerator, width_bound.denominator
    n = max(c, 32)
    while True:
        # S_k = num/den with den = 2 n^(2k+3) * scale, where scale is the
        # head's denominator times the denominators of B_2..B_2k. S_0 adds
        # 1/n + 1/(2n^2) + f(n)/2 = (2n^2 + 2n + 1)/(2n^3) to the head.
        nn = n * n
        head, scale = _head(c, n) if c < n else (0, 1)
        num = 2 * n * nn * head + (2 * nn + 2 * n + 1) * scale
        den = 2 * n * nn * scale
        power = 2 * nn
        prev = None
        for k in count(1):
            bernoulli = _bernoulli(k)
            b = bernoulli.denominator
            power *= nn
            tn, td = bernoulli.numerator * (2 * n + 2 * k + 1), b * power  # t_k = tn/td
            s_num, s_den = num * nn * b + tn * n * scale, den * nn * b  # S_k
            if abs(tn) * q <= p * td:
                ends = Fraction(num, den), Fraction(s_num, s_den)
                return Interval(*ends) if tn > 0 else Interval(*reversed(ends))
            if prev is not None and abs(tn) * prev[1] >= abs(prev[0]) * td:
                break
            num, den, scale, prev = s_num, s_den, scale * b, (tn, td)
        n *= 2


def _mid(c: int) -> tuple[int, int]:
    """The mid-term Y(c+1)/c^3 = (4c^2 - 26c + 36)(c + 1)/((5c - 18) c^3),
    as (numerator, denominator), unreduced."""
    return (4 * c * c - 26 * c + 36) * (c + 1), (5 * c - 18) * c**3


def _base(c: int, t: Fraction, beta: Fraction) -> tuple[int, int]:
    """1 - (beta/2)*(mid + t) as (numerator, positive denominator), unreduced."""
    mid_num, mid_den = _mid(c)
    den = 2 * beta.denominator * mid_den * t.denominator
    return den - beta.numerator * (mid_num * t.denominator + t.numerator * mid_den), den


def _delta_at(c: int, t: Fraction, eps: Fraction, params: PipelineParams) -> Fraction:
    """delta = (1/(h+1)) * (1 - eps*alpha - (beta/2)*(mid + t)) for a tail
    value t, with 1/(h+1) = (5c-18)/(c^2+3c-18). delta falls as t grows, so
    the tail's upper bound gives delta's lower endpoint and vice versa."""
    alpha = params.alpha
    scale = eps.denominator * alpha.denominator
    num, den = _base(c, t, params.beta)
    num = num * scale - eps.numerator * alpha.numerator * den  # base - eps*alpha
    return Fraction((5 * c - 18) * num, (c * c + 3 * c - 18) * den * scale)


def delta_of(
    c: int,
    eps,
    params: PipelineParams = PipelineParams(),
) -> DeltaBreakdown:
    """Certified interval for delta at a fixed eps, with full breakdown.

    The interval may be negative; interpreting it is the caller's concern.
    """
    eps = checked_eps(eps)
    h = h_of(c)
    tail = tail_sum(c, params.tail_width)
    return DeltaBreakdown(
        c=c,
        h=h,
        x=x_of(c),
        y=Fraction((c - 2) * (4 * c - 18), 5 * c - 18),
        tail=tail,
        mid_term=Fraction(*_mid(c)),
        eps=eps,
        delta=Interval(_delta_at(c, tail.hi, eps, params), _delta_at(c, tail.lo, eps, params)),
    )


def _lam(mode: str) -> Fraction:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return _LAMBDA[mode]


def solve_fixed_point(
    c: int,
    params: PipelineParams = PipelineParams(),
    mode: str = "dirac",
) -> tuple[Fraction, Interval]:
    """Certified fixed point: mode "dirac" solves eps = delta(eps), mode
    "beck" solves eps = (2/3) * delta(eps). Returns (eps, delta interval).

    delta(eps) is affine in eps, so the fixed point has the closed form
    eps = lam*B*(1 - (beta/2)*C) / (1 + lam*alpha*B) with B = 1/(h+1) and
    C = mid + tail. Using tail.hi makes eps the exact fixed point of the
    certified lower bound: delta.lo == eps / lam identically, so delta.lo
    is returned as eps / lam and only delta.hi (at tail.lo) is evaluated.
    """
    lam = _lam(mode)
    _check_cutoff(c)
    tail = tail_sum(c, params.tail_width)
    num, den = _base(c, tail.hi, params.beta)
    if num <= 0:
        raise NoSolution(
            f"no positive fixed point at c={c}: 1 - (beta/2)*(mid + tail) <= 0"
        )
    # With B = b_num/b_den and base = num/den, eps is one integer ratio.
    lam_num, lam_den = lam.numerator, lam.denominator
    alpha_num, alpha_den = params.alpha.numerator, params.alpha.denominator
    b_num, b_den = 5 * c - 18, c * c + 3 * c - 18
    eps = Fraction(
        lam_num * b_num * num * alpha_den,
        den * (lam_den * alpha_den * b_den + lam_num * alpha_num * b_num),
    )
    return eps, Interval(eps / lam, _delta_at(c, tail.lo, eps, params))


def sweep_fixed_points(
    c_min: int,
    c_max: int,
    params: PipelineParams = PipelineParams(),
    mode: str = "dirac",
) -> Iterator[tuple[int, Fraction | None, Interval | None]]:
    """Yield (c, eps, delta) = (c, *solve_fixed_point(c, ...)) over
    c_min..c_max; (c, None, None) where no positive fixed point exists.

    Each cutoff gets its own tail bracket, so every row equals the direct
    solve at that cutoff exactly. A range of more than MAX_SWEEP_ROWS
    cutoffs raises BadCutoff before any row is solved.
    """
    if not 8 <= c_min <= c_max:
        raise BadCutoff(f"need 8 <= c_min <= c_max, got {c_min}..{c_max}")
    if c_max - c_min + 1 > MAX_SWEEP_ROWS:
        raise BadCutoff(
            f"{c_max - c_min + 1} cutoffs requested in {c_min}..{c_max}; "
            f"the cap is {MAX_SWEEP_ROWS}"
        )
    for c in range(c_min, c_max + 1):
        try:
            eps, delta = solve_fixed_point(c, params, mode)
        except NoSolution:
            yield c, None, None
        else:
            yield c, eps, delta


def best_cutoff(
    rows: Iterable[tuple[int, Fraction | None, Interval | None]],
) -> tuple[int, tuple[Fraction, Interval]]:
    """The row of a sweep_fixed_points sweep with the largest delta.lo;
    ties go to the smaller c. Raises NoSolution if no row has a fixed point,
    an empty sweep included."""
    rows = list(rows)
    solved = [row for row in rows if row[2] is not None]
    if not solved:
        span = f" in {rows[0][0]}..{rows[-1][0]}" if rows else ""
        raise NoSolution(f"no cutoff{span} admits a positive fixed point")
    c, eps, delta = max(solved, key=lambda row: row[2].lo)
    return c, (eps, delta)


def optimize_c(
    c_min: int,
    c_max: int,
    params: PipelineParams = PipelineParams(),
    mode: str = "dirac",
) -> tuple[int, tuple[Fraction, Interval]]:
    """Exhaustive sweep maximizing delta.lo; ties go to the smaller c."""
    return best_cutoff(sweep_fixed_points(c_min, c_max, params, mode))


def beck_constant_from(eps: Fraction, delta: Interval) -> Interval:
    """min(eps/2, delta/3) from an already-solved beck fixed point."""
    return Interval(min(eps / 2, delta.lo / 3), min(eps / 2, delta.hi / 3))


def beck_constant(
    c: int,
    params: PipelineParams = PipelineParams(),
) -> Interval:
    """Certified min(eps/2, delta/3) at the beck-mode fixed point.

    With eps = (2/3) * delta.lo the two arguments coincide at the lower
    endpoint, so the interval collapses to the certified constant eps/2.
    """
    eps, delta = solve_fixed_point(c, params, "beck")
    return beck_constant_from(eps, delta)
