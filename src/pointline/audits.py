"""Inequality audits over arrangement statistics.

Each check instantiates a known arrangement inequality on one point set
and reports exact lhs/rhs/slack values. Checks never fail silently and
never round: a report is produced even when the inequality's hypothesis
does not hold, flagged non-binding via preconditions_met.

Compound checks carry their sub-verdicts in parts and are all built by
combine_reports: the top-level holds is the conjunction over binding parts
(over all parts when none is binding), and the top-level lhs/rhs/slack are
copied from the tightest part.

CHECK_NAMES lists the checks by the names the command line uses, and
run_check(name, ...) runs one of them: "stt" over every level 2..l_max,
"proof-trace" as audit_proof_steps, the rest as check_<name>. Every report
carries that name in its name field, a ProofTrace's being "proof-trace". A
check that refuses its input (CollinearInput, PreconditionViolated) comes
back as a skipped report: non-binding, all values zero, its note
"skipped: <reason>".
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, floor

from ._record import Record
from .constants import DeltaBreakdown, PipelineParams
from .errors import CollinearInput, PreconditionViolated
from .geometry import ArrangementStats, is_noncollinear, require_noncollinear, subgraph_edge_count

CHECK_NAMES = ("melchior", "hirzebruch", "kelly-moser", "stt", "main", "beck", "proof-trace")


class CheckReport(Record):
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
    return CheckReport(name, preconditions_met, lhs >= rhs, lhs, rhs, lhs - rhs, note)


def _le(name, lhs, rhs, preconditions_met=True, note="") -> CheckReport:
    return CheckReport(name, preconditions_met, lhs <= rhs, lhs, rhs, rhs - lhs, note)


def combine_reports(name, parts, preconditions_met=True, note="") -> CheckReport:
    """One report over parts: the compound rule of the module docstring."""
    parts = tuple(parts)
    if not parts:
        return CheckReport(name, preconditions_met, True, 0, 0, 0, note or "vacuous", parts)
    binding = [p for p in parts if p.preconditions_met]
    pool = binding if binding else list(parts)
    holds = all(p.holds for p in pool)
    failing = [p for p in pool if not p.holds]
    pick = min(failing or pool, key=lambda p: p.slack)
    return CheckReport(
        name, preconditions_met, holds, pick.lhs, pick.rhs, pick.slack, note, parts
    )


def check_melchior(stats: ArrangementStats) -> CheckReport:
    """s_2 >= 3 + sum_{i>=4} (i-3) s_i; hypothesis: not all collinear."""
    lhs = stats.s.get(2, 0)
    rhs = 3 + sum((i - 3) * si for i, si in stats.s.items() if i >= 4)
    return _ge("melchior", lhs, rhs, preconditions_met=is_noncollinear(stats))


def check_hirzebruch(stats: ArrangementStats) -> CheckReport:
    """s_2 + (3/4) s_3 >= n + sum_{i>=5} (2i-9) s_i; hypothesis: l_max <= n-3."""
    lhs = stats.s.get(2, 0) + Fraction(3, 4) * stats.s.get(3, 0)
    rhs = stats.n + sum((2 * i - 9) * si for i, si in stats.s.items() if i >= 5)
    return _ge("hirzebruch", lhs, rhs, preconditions_met=stats.l_max <= stats.n - 3)


def check_kelly_moser(stats: ArrangementStats) -> CheckReport:
    """3L >= 3 + I and 2L >= 3 + E; hypothesis: not all collinear."""
    ok = is_noncollinear(stats)
    parts = (
        _ge("kelly-moser-incidences", 3 * stats.lines, 3 + stats.incidences, ok),
        _ge("kelly-moser-edges", 2 * stats.lines, 3 + stats.edges, ok),
    )
    return combine_reports("kelly-moser", parts, preconditions_met=ok)


def check_stt(
    stats: ArrangementStats, i: int, params: PipelineParams = PipelineParams()
) -> CheckReport:
    """Level-i crossing-lemma counts: both tail sums stay under their caps.

    (a) sum_{j>=i} (j-1) s_j <= max(alpha n, beta n^2 / (2 (i-1)^2))
    (b) sum_{j>=i} s_j       <= max(alpha n / (i-1), beta n^2 / (2 (i-1)^3))

    A level i < 2 is refused by subgraph_edge_count's ValueError.
    """
    n = stats.n
    edge_lhs = subgraph_edge_count(stats, i)
    line_lhs = sum(sj for j, sj in stats.s.items() if j >= i)
    d = i - 1
    edge_rhs = max(params.alpha * n, params.beta * n * n / (2 * d * d))
    line_rhs = max(params.alpha * n / d, params.beta * n * n / (2 * d**3))
    parts = (
        _le(f"stt-edges(i={i})", edge_lhs, edge_rhs),
        _le(f"stt-lines(i={i})", line_lhs, line_rhs),
    )
    return combine_reports(f"stt(i={i})", parts)


def check_main(stats: ArrangementStats) -> CheckReport:
    """Degree >= n/37; and when l_max <= n/37, incidences >= n^2/37.

    The degree and its witness are stats.dirac_degree and
    stats.dirac_witness. Raises CollinearInput for fewer than 3 points or
    a collinear set. The second part is reported but non-binding when its
    hypothesis l_max <= n/37 fails.
    """
    require_noncollinear(stats)
    n = stats.n
    threshold = Fraction(n, 37)
    applicable = stats.l_max <= threshold
    parts = (
        _ge(
            "main-degree",
            stats.dirac_degree,
            threshold,
            note=f"witness index {stats.dirac_witness}",
        ),
        _ge(
            "main-incidences",
            stats.incidences,
            Fraction(n * n, 37),
            preconditions_met=applicable,
            note="" if applicable else f"not applicable: l_max {stats.l_max} > n/37",
        ),
    )
    return combine_reports("main", parts)


def check_beck(stats: ArrangementStats) -> CheckReport:
    """The 1/98 line-count split at l, the largest collinear subset.

    l is l_max when n >= 2 and n itself when n < 2: a lone point lies on
    no line, yet is a collinear set of size 1. All four pieces:
    (i) L >= n(n-l)/98, (ii) E >= l(n-l), (iii) 2(s_2+s_3) > L when not
    all collinear, (iv) s_2 + s_3 >= n(n-l)/196.
    """
    n = stats.n
    l = stats.l_max if n >= 2 else n
    few = stats.s.get(2, 0) + stats.s.get(3, 0)
    twice_few, lines = 2 * few, stats.lines
    parts = (
        _ge("beck-lines", lines, Fraction(n * (n - l), 98)),
        _ge("beck-edges", stats.edges, l * (n - l)),
        CheckReport("beck-few-point-lines", is_noncollinear(stats), twice_few > lines,
                    twice_few, lines, twice_few - lines, "strict inequality"),
        _ge("beck-few-line-count", few, Fraction(n * (n - l), 196)),
    )
    return combine_reports("beck", parts)


class ProofTrace(Record):
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
    name: str = "proof-trace"

    def binding_failures(self) -> list[str]:
        found = []
        for r in self.step_reports:
            found.extend(r.binding_failures())
        return found


def audit_proof_steps(
    stats: ArrangementStats,
    breakdown: DeltaBreakdown,
    params: PipelineParams = PipelineParams(),
) -> ProofTrace:
    """Audit the four tally bounds behind the incidence lower bound.

    (1) small pairs   <= X * small incidences - h n
    (2) each medium i: sum_{j>=i} j s_j <= beta n^2 i / (2 (i-1)^3)
    (3) medium pairs  - X * medium incidences
                      <= (beta n^2 / 4) (Y (c+1)/c^3 + T(c))
    (4) large pairs   <= eps alpha n^2 / 2

    All comparisons are exact rationals except (3), which substitutes the
    certified upper end of the tail enclosure for T(c): a true instance
    can only gain slack from that, never flip verdict. c, eps, h, X,
    Y(c+1)/c^3 and T(c) are read from breakdown, delta_of(c, eps, params),
    which has validated c, eps and the tail width.
    """
    c, h, x, eps = breakdown.c, breakdown.h, breakdown.x, breakdown.eps
    n = stats.n
    if stats.l_max > eps * n:
        raise PreconditionViolated(
            f"l_max = {stats.l_max} exceeds eps*n = {eps * n}"
        )
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
        small_p,
        x * small_i - h * n,
        preconditions_met=stats.l_max <= n - 3,
        note="needs at most n-3 collinear points",
    )

    if mediums:
        levels = (
            _le(
                "medium-lines",
                sum(j * sj for j, sj in stats.s.items() if j >= i),
                params.beta * n * n * i / (2 * (i - 1) ** 3),
                note=f"tightest of {len(mediums)} medium levels, at i={i}",
            )
            for i in mediums
        )
        step2 = min(levels, key=lambda r: r.slack)  # the first level wins a tie
    else:
        step2 = _le("medium-lines", 0, 0, note="no medium levels")

    step3 = _le(
        "medium-pairs",
        medium_p - x * medium_i,
        params.beta * n * n / 4 * (breakdown.mid_term + breakdown.tail.hi),
        note="tail replaced by its certified upper bound",
    )

    step4 = _le("large-pairs", large_p, eps * params.alpha * n * n / 2)

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


def run_check(name, stats, params, breakdown):
    """The report of the check called name (one of CHECK_NAMES) on stats.

    breakdown, delta_of(c, eps, params) at the trace's cutoff and eps, is
    read by "proof-trace" only. The check functions are looked up when
    called, so a wrapper put in their place in this module is the one that
    runs.
    """
    try:
        if name == "stt":
            reports = tuple(check_stt(stats, i, params) for i in range(2, stats.l_max + 1))
            return combine_reports("stt", reports, note=f"levels 2..{stats.l_max}")
        if name == "proof-trace":
            return audit_proof_steps(stats, breakdown, params)
        return globals()["check_" + name.replace("-", "_")](stats)
    except (CollinearInput, PreconditionViolated) as exc:
        return CheckReport(name, False, False, 0, 0, 0, f"skipped: {exc}")
