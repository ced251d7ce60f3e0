"""Certified evaluation of the incidence lower-bound constant pipeline.

The pipeline turns a cutoff c and a collinearity fraction eps into a
certified interval for the incidence coefficient

    delta = (1/(h+1)) * (1 - eps*alpha - (beta/2) * (Y*(c+1)/c^3 + T(c)))

with h = c(c-2)/(5c-18), Y = c - h - 2 and T(c) = sum_{i>=c} (i+1)/i^3.

Every quantity except T(c) is an exact rational. T(c) is irrational, so it
is enclosed two-sided: an exact partial sum up to a cutoff N, plus an
integral-comparison remainder bracket

    1/N + 1/(2N^2)  <=  sum_{i>=N} (i+1)/i^3  <=  1/(N-1) + 1/(2(N-1)^2).

Partial sums accumulate as directed-rounded integers scaled by 2^96
(numerator floor for the lower end, ceiling for the upper), which keeps
denominators bounded; the per-term rounding slack is charged to the
interval width. Lower bounds reported by this module therefore hold
unconditionally; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import BadCutoff, BadEps, ClaimViolated, NoSolution

SCALE_BITS = 96
_SCALE = 1 << SCALE_BITS

# Default two-sided width for tail enclosures. Tight enough that the
# certified fixed points keep their documented margins with room to spare.
DEFAULT_TAIL_WIDTH = Fraction(1, 10**9)

MODES = ("dirac", "beck")


@dataclass(frozen=True)
class PipelineParams:
    """Crossing-lemma constants used by the pipeline.

    alpha may be zero (the self-term then drops out of the fixed point);
    beta must be positive.
    """

    alpha: Fraction = Fraction(103, 16)
    beta: Fraction = Fraction(31827, 1024)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")


@dataclass(frozen=True)
class Interval:
    """A closed interval with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value) -> bool:
        v = Fraction(value)
        return self.lo <= v <= self.hi

    def shift(self, delta) -> "Interval":
        d = Fraction(delta)
        return Interval(self.lo + d, self.hi + d)


@dataclass(frozen=True)
class DeltaBreakdown:
    """Every intermediate of one delta evaluation, for reports and audits."""

    c: int
    h: Fraction
    x: Fraction
    y: Fraction
    tail: Interval
    mid_term: Fraction
    eps: Fraction
    delta: Interval


def h_of(c: int) -> Fraction:
    """h = c(c-2)/(5c-18); increasing in c, equals 24/11 at c = 8."""
    if c < 8:
        raise BadCutoff(f"cutoff must be >= 8, got {c}")
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


def _remainder_bracket(n: int) -> tuple[Fraction, Fraction]:
    """Integral-comparison bounds for sum_{i>=n} (i+1)/i^3, n >= 3."""
    lo = Fraction(1, n) + Fraction(1, 2 * n * n)
    hi = Fraction(1, n - 1) + Fraction(1, 2 * (n - 1) * (n - 1))
    return lo, hi


def tail_sum(c: int, width_bound: Fraction = DEFAULT_TAIL_WIDTH) -> Interval:
    """Two-sided enclosure of T(c) = sum_{i>=c} (i+1)/i^3 with width <= width_bound."""
    if c < 2:
        raise ValueError(f"tail cutoff must be >= 2, got {c}")
    width_bound = Fraction(width_bound)
    if width_bound <= 0:
        raise ValueError(f"width bound must be positive, got {width_bound}")
    n = max(c + 1, 32)
    while True:
        rem_lo, rem_hi = _remainder_bracket(n)
        # One unit of scaled rounding slack per term and side.
        slack = Fraction(2 * (n - c), _SCALE)
        if rem_hi - rem_lo + slack <= width_bound:
            break
        n *= 2
    lo_acc = 0
    hi_acc = 0
    for i in range(c, n):
        num = (i + 1) << SCALE_BITS
        den = i * i * i
        q, r = divmod(num, den)
        lo_acc += q
        hi_acc += q + (1 if r else 0)
    rem_lo, rem_hi = _remainder_bracket(n)
    return Interval(Fraction(lo_acc, _SCALE) + rem_lo, Fraction(hi_acc, _SCALE) + rem_hi)


def _mid_term(c: int, h: Fraction) -> Fraction:
    return (Fraction(c) - h - 2) * (c + 1) / Fraction(c**3)


def delta_of(
    c: int,
    eps,
    params: PipelineParams | None = None,
    tail_width: Fraction = DEFAULT_TAIL_WIDTH,
) -> DeltaBreakdown:
    """Certified interval for delta at a fixed eps, with full breakdown.

    The lower endpoint uses the tail's upper bound and vice versa, so the
    true delta always lies inside the reported interval. The interval may
    be negative; interpreting it is the caller's concern.
    """
    params = params or PipelineParams()
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise BadEps(f"eps must lie in (0, 1/2), got {eps}")
    h = h_of(c)
    x = x_of(c)
    tail = tail_sum(c, tail_width)
    mid = _mid_term(c, h)
    b = 1 / (h + 1)
    half_beta = params.beta / 2
    inner_lo = 1 - eps * params.alpha - half_beta * (mid + tail.hi)
    inner_hi = 1 - eps * params.alpha - half_beta * (mid + tail.lo)
    return DeltaBreakdown(
        c=c,
        h=h,
        x=x,
        y=Fraction(c - 1) - 2 * x,
        tail=tail,
        mid_term=mid,
        eps=eps,
        delta=Interval(b * inner_lo, b * inner_hi),
    )


def _lam(mode: str) -> Fraction:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return Fraction(1) if mode == "dirac" else Fraction(2, 3)


def _solve_with_tail(
    c: int, params: PipelineParams, mode: str, tail: Interval
) -> tuple[Fraction, Interval]:
    """Solve eps = lam * delta(eps) against the conservative end of the tail.

    delta(eps) is affine in eps, so the fixed point has the closed form
    eps = lam*B*(1 - (beta/2)*C) / (1 + lam*alpha*B) with B = 1/(h+1) and
    C = mid + tail. Using tail.hi makes eps the exact fixed point of the
    certified lower bound: delta.lo == eps / lam identically.
    """
    lam = _lam(mode)
    h = h_of(c)
    b = 1 / (h + 1)
    mid = _mid_term(c, h)
    half_beta = params.beta / 2
    base_lo = 1 - half_beta * (mid + tail.hi)
    if base_lo <= 0:
        raise NoSolution(
            f"no positive fixed point at c={c}: 1 - (beta/2)*(mid + tail) <= 0"
        )
    eps = lam * b * base_lo / (1 + lam * params.alpha * b)
    delta_lo = b * (1 - eps * params.alpha - half_beta * (mid + tail.hi))
    delta_hi = b * (1 - eps * params.alpha - half_beta * (mid + tail.lo))
    return eps, Interval(delta_lo, delta_hi)


def solve_fixed_point(
    c: int,
    params: PipelineParams | None = None,
    mode: str = "dirac",
    tail_width: Fraction = DEFAULT_TAIL_WIDTH,
) -> tuple[Fraction, Interval]:
    """Certified fixed point: mode "dirac" solves eps = delta(eps), mode
    "beck" solves eps = (2/3) * delta(eps). Returns (eps, delta interval)."""
    params = params or PipelineParams()
    _lam(mode)
    if c < 8:
        raise BadCutoff(f"cutoff must be >= 8, got {c}")
    tail = tail_sum(c, tail_width)
    return _solve_with_tail(c, params, mode, tail)


def _quantize_down(f: Fraction) -> Fraction:
    return Fraction((f.numerator * _SCALE) // f.denominator, _SCALE)


def _quantize_up(f: Fraction) -> Fraction:
    return Fraction(-((-f.numerator * _SCALE) // f.denominator), _SCALE)


def sweep_fixed_points(
    c_min: int,
    c_max: int,
    params: PipelineParams | None = None,
    mode: str = "dirac",
    tail_width: Fraction = DEFAULT_TAIL_WIDTH,
) -> Iterator[tuple[int, Fraction | None, Interval | None]]:
    """Yield (c, eps, delta) over c_min..c_max; (c, None, None) where no
    positive fixed point exists.

    The tail enclosure is computed once at c_min and advanced by exact
    term subtraction, T(c+1) = T(c) - (c+1)/c^3, then re-quantized to the
    2^-96 grid so denominators stay bounded. Each step widens the
    enclosure by at most 2^-95, negligible against the width bound.
    """
    params = params or PipelineParams()
    _lam(mode)
    if not 8 <= c_min <= c_max:
        raise BadCutoff(f"need 8 <= c_min <= c_max, got {c_min}..{c_max}")
    tail = tail_sum(c_min, tail_width)
    for c in range(c_min, c_max + 1):
        try:
            eps, delta = _solve_with_tail(c, params, mode, tail)
        except NoSolution:
            yield c, None, None
        else:
            yield c, eps, delta
        if c < c_max:
            term = Fraction(c + 1, c**3)
            tail = Interval(_quantize_down(tail.lo - term), _quantize_up(tail.hi - term))


def optimize_c(
    c_min: int,
    c_max: int,
    params: PipelineParams | None = None,
    mode: str = "dirac",
    tail_width: Fraction = DEFAULT_TAIL_WIDTH,
) -> tuple[int, tuple[Fraction, Interval]]:
    """Exhaustive sweep maximizing delta.lo; ties go to the smaller c."""
    best: tuple[int, Fraction, Interval] | None = None
    for c, eps, delta in sweep_fixed_points(c_min, c_max, params, mode, tail_width):
        if eps is None or delta is None:
            continue
        if best is None or delta.lo > best[2].lo:
            best = (c, eps, delta)
    if best is None:
        raise NoSolution(f"no cutoff in {c_min}..{c_max} admits a positive fixed point")
    return best[0], (best[1], best[2])


def beck_constant_from(eps: Fraction, delta: Interval) -> Interval:
    """min(eps/2, delta/3) from an already-solved beck fixed point."""
    return Interval(min(eps / 2, delta.lo / 3), min(eps / 2, delta.hi / 3))


def beck_constant(
    c: int,
    params: PipelineParams | None = None,
    tail_width: Fraction = DEFAULT_TAIL_WIDTH,
) -> Interval:
    """Certified min(eps/2, delta/3) at the beck-mode fixed point.

    With eps = (2/3) * delta.lo the two arguments coincide at the lower
    endpoint, so the interval collapses to the certified constant eps/2.
    """
    eps, delta = solve_fixed_point(c, params, "beck", tail_width)
    return beck_constant_from(eps, delta)
