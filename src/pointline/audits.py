"""Inequality audits over arrangement statistics.

Each check instantiates a known arrangement inequality on one point set
and reports exact lhs/rhs/slack values. Checks never fail silently and
never round: a report is produced even when the inequality's hypothesis
does not hold, flagged non-binding via preconditions_met.

Compound checks carry their sub-verdicts in parts; the top-level holds is
the conjunction over binding parts (over all parts when none is binding),
and the top-level lhs/rhs/slack are copied from the tightest part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, floor

from .constants import DEFAULT_TAIL_WIDTH, PipelineParams, h_of, tail_sum, x_of
from .errors import BadCutoff, BadEps, PreconditionViolated
from .geometry import ArrangementStats, require_noncollinear, subgraph_edge_count


@dataclass(frozen=True)
class CheckReport:
    name: str
    preconditions_met: bool
    holds: bool
    lhs: Fraction
    rhs: Fraction
    slack: Fraction
    note: str = ""
    parts: tuple["CheckReport", ...] = ()

    def binding_failures(self) -> list[str]:
        """Names of binding sub-checks (or this check) that fail."""
        if self.parts:
            found = []
            if self.preconditions_met:
                for p in self.parts:
                    found.extend(p.binding_failures())
            return found
        if self.preconditions_met and not self.holds:
            return [self.name]
        return []


def _ge(name, lhs, rhs, preconditions_met=True, note="") -> CheckReport:
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    return CheckReport(name, preconditions_met, lhs >= rhs, lhs, rhs, lhs - rhs, note)


def _le(name, lhs, rhs, preconditions_met=True, note="") -> CheckReport:
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    return CheckReport(name, preconditions_met, lhs <= rhs, lhs, rhs, rhs - lhs, note)


def _gt(name, lhs, rhs, preconditions_met=True, note="") -> CheckReport:
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    holds = lhs > rhs
    text = "strict inequality" + (f"; {note}" if note else "")
    return CheckReport(name, preconditions_met, holds, lhs, rhs, lhs - rhs, text)


def _compound(name, parts, preconditions_met=True, note="") -> CheckReport:
    parts = tuple(parts)
    if not parts:
        z = Fraction(0)
        return CheckReport(name, preconditions_met, True, z, z, z, note or "vacuous", parts)
    binding = [p for p in parts if p.preconditions_met]
    pool = binding if binding else list(parts)
    holds = all(p.holds for p in pool)
    failing = [p for p in pool if not p.holds]
    pick = min(failing or pool, key=lambda p: p.slack)
    return CheckReport(
        name, preconditions_met, holds, pick.lhs, pick.rhs, pick.slack, note, parts
    )


def combine_reports(name, parts, preconditions_met=True, note="") -> CheckReport:
    """Public composition point for callers that bundle several reports."""
    return _compound(name, parts, preconditions_met, note)


def _noncollinear(stats: ArrangementStats) -> bool:
    return stats.n >= 3 and stats.l_max < stats.n


def check_melchior(stats: ArrangementStats) -> CheckReport:
    """s_2 >= 3 + sum_{i>=4} (i-3) s_i; hypothesis: not all collinear."""
    lhs = Fraction(stats.s.get(2, 0))
    rhs = Fraction(3 + sum((i - 3) * si for i, si in stats.s.items() if i >= 4))
    return _ge("melchior", lhs, rhs, preconditions_met=_noncollinear(stats))


def check_hirzebruch(stats: ArrangementStats) -> CheckReport:
    """s_2 + (3/4) s_3 >= n + sum_{i>=5} (2i-9) s_i; hypothesis: l_max <= n-3."""
    lhs = stats.s.get(2, 0) + Fraction(3, 4) * stats.s.get(3, 0)
    rhs = Fraction(stats.n + sum((2 * i - 9) * si for i, si in stats.s.items() if i >= 5))
    return _ge("hirzebruch", lhs, rhs, preconditions_met=stats.l_max <= stats.n - 3)


def check_kelly_moser(stats: ArrangementStats) -> CheckReport:
    """3L >= 3 + I and 2L >= 3 + E; hypothesis: not all collinear."""
    ok = _noncollinear(stats)
    parts = (
        _ge("kelly-moser-incidences", 3 * stats.lines, 3 + stats.incidences, ok),
        _ge("kelly-moser-edges", 2 * stats.lines, 3 + stats.edges, ok),
    )
    return _compound("kelly-moser", parts, preconditions_met=ok)


def check_stt(
    stats: ArrangementStats, i: int, params: PipelineParams | None = None
) -> CheckReport:
    """Level-i crossing-lemma counts: both tail sums stay under their caps.

    (a) sum_{j>=i} (j-1) s_j <= max(alpha n, beta n^2 / (2 (i-1)^2))
    (b) sum_{j>=i} s_j       <= max(alpha n / (i-1), beta n^2 / (2 (i-1)^3))
    """
    if i < 2:
        raise ValueError(f"level must be >= 2, got {i}")
    params = params or PipelineParams()
    n = stats.n
    edge_lhs = Fraction(subgraph_edge_count(stats, i))
    line_lhs = Fraction(sum(sj for j, sj in stats.s.items() if j >= i))
    d = i - 1
    edge_rhs = max(params.alpha * n, params.beta * n * n / (2 * d * d))
    line_rhs = max(params.alpha * n / d, params.beta * n * n / (2 * d**3))
    parts = (
        _le(f"stt-edges(i={i})", edge_lhs, edge_rhs),
        _le(f"stt-lines(i={i})", line_lhs, line_rhs),
    )
    return _compound(f"stt(i={i})", parts)


def check_main(stats: ArrangementStats, dirac: tuple[int, int]) -> CheckReport:
    """Degree >= n/37; and when l_max <= n/37, incidences >= n^2/37.

    dirac is the (witness, degree) pair for the same point set. The second
    part is reported but non-binding when its hypothesis l_max <= n/37
    fails.
    """
    require_noncollinear(stats)
    n = stats.n
    witness, degree = dirac
    threshold = Fraction(n, 37)
    applicable = stats.l_max <= threshold
    parts = (
        _ge(
            "main-degree",
            Fraction(degree),
            threshold,
            note=f"witness index {witness}",
        ),
        _ge(
            "main-incidences",
            Fraction(stats.incidences),
            Fraction(n * n, 37),
            preconditions_met=applicable,
            note="" if applicable else f"not applicable: l_max {stats.l_max} > n/37",
        ),
    )
    return _compound("main", parts)


def check_beck(stats: ArrangementStats) -> CheckReport:
    """The 1/98 line-count split at l = l_max, all four pieces.

    (i) L >= n(n-l)/98, (ii) E >= l(n-l), (iii) 2(s_2+s_3) > L when not
    all collinear, (iv) s_2 + s_3 >= n(n-l)/196.
    """
    n, l = stats.n, stats.l_max
    few = stats.s.get(2, 0) + stats.s.get(3, 0)
    parts = (
        _ge("beck-lines", Fraction(stats.lines), Fraction(n * (n - l), 98)),
        _ge("beck-edges", Fraction(stats.edges), Fraction(l * (n - l))),
        _gt(
            "beck-few-point-lines",
            Fraction(2 * few),
            Fraction(stats.lines),
            preconditions_met=_noncollinear(stats),
        ),
        _ge("beck-few-line-count", Fraction(few), Fraction(n * (n - l), 196)),
    )
    return _compound("beck", parts)


@dataclass(frozen=True)
class ProofTrace:
    """Pair-partition tally plus the four audited step inequalities.

    Line sizes i in 2..floor(eps*n) are classified small (i <= c), large
    (i >= k) or medium, with the small class taking priority on overlap,
    so each size lands in exactly one class and the tally covers every
    point pair. k is the least level whose subgraph edge count drops to
    alpha*n, or floor(eps*n)+1 when none does.
    """

    c: int
    k: int
    eps: Fraction
    small_pairs: int
    medium_pairs: int
    large_pairs: int
    small_incidences: int
    medium_incidences: int
    step_reports: tuple[CheckReport, ...]
    note: str = ""

    def binding_failures(self) -> list[str]:
        found = []
        for r in self.step_reports:
            found.extend(r.binding_failures())
        return found


def audit_proof_steps(
    stats: ArrangementStats,
    c: int,
    eps,
    params: PipelineParams | None = None,
    tail_width: Fraction = DEFAULT_TAIL_WIDTH,
) -> ProofTrace:
    """Audit the four tally bounds behind the incidence lower bound.

    (1) small pairs   <= X * small incidences - h n
    (2) each medium i: sum_{j>=i} j s_j <= beta n^2 i / (2 (i-1)^3)
    (3) medium pairs  - X * medium incidences
                      <= (beta n^2 / 4) (Y (c+1)/c^3 + T(c))
    (4) large pairs   <= eps alpha n^2 / 2

    All comparisons are exact rationals except (3), which substitutes the
    certified upper end of the tail enclosure for T(c): a true instance
    can only gain slack from that, never flip verdict.
    """
    params = params or PipelineParams()
    eps = Fraction(eps)
    if c < 8:
        raise BadCutoff(f"cutoff must be >= 8, got {c}")
    if not 0 < eps < Fraction(1, 2):
        raise BadEps(f"eps must lie in (0, 1/2), got {eps}")
    n = stats.n
    if stats.l_max > eps * n:
        raise PreconditionViolated(
            f"l_max = {stats.l_max} exceeds eps*n = {eps * n}"
        )
    h = h_of(c)
    x = x_of(c)
    y = Fraction(c) - h - 2
    j_hi = floor(eps * n)

    k = j_hi + 1
    for i in range(2, j_hi + 1):
        if subgraph_edge_count(stats, i) <= params.alpha * n:
            k = i
            break

    small_p = medium_p = large_p = 0
    small_i = medium_i = 0
    mediums = []
    for i, si in stats.s.items():
        pairs = comb(i, 2) * si
        if i <= c:
            small_p += pairs
            small_i += i * si
        elif i >= k:
            large_p += pairs
        else:
            medium_p += pairs
            medium_i += i * si
            mediums.append(i)

    step1 = _le(
        "small-pairs",
        Fraction(small_p),
        x * small_i - h * n,
        preconditions_met=stats.l_max <= n - 3,
        note="needs at most n-3 collinear points",
    )

    if mediums:
        worst = None
        for i in mediums:
            lhs = Fraction(sum(j * sj for j, sj in stats.s.items() if j >= i))
            rhs = params.beta * n * n * i / Fraction(2 * (i - 1) ** 3)
            if worst is None or rhs - lhs < worst[1] - worst[0]:
                worst = (lhs, rhs, i)
        step2 = _le(
            "medium-lines",
            worst[0],
            worst[1],
            note=f"tightest of {len(mediums)} medium levels, at i={worst[2]}",
        )
    else:
        step2 = _le("medium-lines", Fraction(0), Fraction(0), note="no medium levels")

    tail = tail_sum(c, tail_width)
    step3 = _le(
        "medium-pairs",
        medium_p - x * medium_i,
        params.beta * n * n / 4 * (y * (c + 1) / Fraction(c**3) + tail.hi),
        note="tail replaced by its certified upper bound",
    )

    step4 = _le("large-pairs", Fraction(large_p), eps * params.alpha * n * n / 2)

    return ProofTrace(
        c=c,
        k=k,
        eps=eps,
        small_pairs=small_p,
        medium_pairs=medium_p,
        large_pairs=large_p,
        small_incidences=small_i,
        medium_incidences=medium_i,
        step_reports=(step1, step2, step3, step4),
        note="small takes priority over large when the classes overlap",
    )
