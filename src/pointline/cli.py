"""Command-line interface.

Subcommands: analyze, verify, constants, generate, search. Report-producing
commands emit a JSON document (--json) or a human summary; either way the
bytes are identical across reruns with identical flags. JSON uses sorted
keys, a trailing newline, "p/q" strings for rationals and decimal-string
previews with at least 10 significant digits; floats never appear.

Exit codes: 0 success / all binding checks hold; 1 a binding check failed;
2 unparseable input (file or flags); 3 duplicate points; 4 unknown check
name; 5 domain errors (no fixed point; a cutoff, eps, alpha, beta or tail
width out of range; generation failed).
"""

from __future__ import annotations

import argparse
import decimal
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from .audits import (
    CheckReport,
    ProofTrace,
    audit_proof_steps,
    check_beck,
    check_hirzebruch,
    check_kelly_moser,
    check_main,
    check_melchior,
    check_stt,
    combine_reports,
)
from .constants import (
    DEFAULT_TAIL_WIDTH,
    Interval,
    PipelineParams,
    beck_constant_from,
    delta_of,
    solve_fixed_point,
    sweep_fixed_points,
)
from .errors import (
    BadCutoff,
    BadEps,
    CollinearInput,
    DuplicatePoints,
    GenerationFailed,
    NoSolution,
    PointFormatError,
    PreconditionViolated,
)
from .generators import RNG_ALGORITHM, GeneratorSpec, generate, search_min_dirac
from .geometry import ArrangementStats, PointSet, compute_arrangement
from .pointfile import format_points, parse_points, parse_rational

SCHEMA_VERSION = "1"

CHECK_NAMES = ("melchior", "hirzebruch", "kelly-moser", "stt", "main", "beck", "proof-trace")
DEFAULT_CHECKS = "melchior,hirzebruch,kelly-moser,stt,main,beck"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DUPLICATE = 3
EXIT_UNKNOWN_CHECK = 4
EXIT_DOMAIN = 5


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _rat(value) -> str:
    return str(Fraction(value))


def _dec(value, sig: int = 12) -> str:
    """Decimal preview with sig significant digits, computed without floats."""
    f = Fraction(value)
    with decimal.localcontext() as ctx:
        ctx.prec = sig
        d = decimal.Decimal(f.numerator) / decimal.Decimal(f.denominator)
    return str(d)


def _interval_payload(iv: Interval) -> dict:
    return {
        "lo": _rat(iv.lo),
        "lo_decimal": _dec(iv.lo),
        "hi": _rat(iv.hi),
        "hi_decimal": _dec(iv.hi),
    }


def _stats_payload(stats: ArrangementStats) -> dict:
    return {
        "n": stats.n,
        "s": [[i, si] for i, si in stats.s.items()],
        "lines": stats.lines,
        "incidences": stats.incidences,
        "edges": stats.edges,
        "l_max": stats.l_max,
        "dirac_degree": stats.dirac_degree,
        "dirac_witness": stats.dirac_witness,
    }


def _report_payload(r: CheckReport) -> dict:
    return {
        "name": r.name,
        "preconditions_met": r.preconditions_met,
        "holds": r.holds,
        "lhs": _rat(r.lhs),
        "rhs": _rat(r.rhs),
        "slack": _rat(r.slack),
        "note": r.note,
        "parts": [_report_payload(p) for p in r.parts],
    }


def _trace_payload(t: ProofTrace) -> dict:
    return {
        "name": "proof-trace",
        "c": t.c,
        "k": t.k,
        "eps": _rat(t.eps),
        "small_pairs": t.small_pairs,
        "medium_pairs": t.medium_pairs,
        "large_pairs": t.large_pairs,
        "small_incidences": t.small_incidences,
        "medium_incidences": t.medium_incidences,
        "note": t.note,
        "step_reports": [_report_payload(r) for r in t.step_reports],
    }


def _document(command: str, digest: str, payload: dict) -> str:
    doc = {
        "command": command,
        "input_digest": digest,
        "payload": payload,
        "schema_version": SCHEMA_VERSION,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _params_digest(entries: dict) -> str:
    return hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()


def _read_point_file(path: str) -> tuple[str, PointSet]:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _CliFailure(EXIT_PARSE, f"cannot read {path}: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _CliFailure(EXIT_PARSE, f"{path} is not UTF-8: {exc}") from None
    try:
        ps = parse_points(text)
    except PointFormatError as exc:
        raise _CliFailure(EXIT_PARSE, f"{path}: {exc}") from None
    except DuplicatePoints as exc:
        raise _CliFailure(EXIT_DUPLICATE, f"{path}: {exc}") from None
    return hashlib.sha256(data).hexdigest(), ps


def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args) -> int:
    digest, ps = _read_point_file(args.file)
    stats = compute_arrangement(ps)
    if args.json:
        sys.stdout.write(_document("analyze", digest, _stats_payload(stats)))
        return EXIT_OK
    rows = [
        ("n", str(stats.n)),
        ("lines", str(stats.lines)),
        ("incidences", str(stats.incidences)),
        ("edges", str(stats.edges)),
        ("l_max", str(stats.l_max)),
        ("dirac", f"degree {stats.dirac_degree} at index {stats.dirac_witness}"),
    ]
    rows.extend((f"s[{i}]", str(si)) for i, si in stats.s.items())
    for key, val in rows:
        print(f"{key:<12}{val}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _skipped(name: str, reason: str) -> CheckReport:
    zero = Fraction(0)
    return CheckReport(
        name=name,
        preconditions_met=False,
        holds=False,
        lhs=zero,
        rhs=zero,
        slack=zero,
        note=f"skipped: {reason}",
    )


def _run_check(name, stats, params, c, eps, tail_width):
    if name == "melchior":
        return check_melchior(stats)
    if name == "hirzebruch":
        return check_hirzebruch(stats)
    if name == "kelly-moser":
        return check_kelly_moser(stats)
    if name == "stt":
        reports = tuple(check_stt(stats, i, params) for i in range(2, stats.l_max + 1))
        return combine_reports("stt", reports, note=f"levels 2..{stats.l_max}")
    if name == "main":
        try:
            return check_main(stats, (stats.dirac_witness, stats.dirac_degree))
        except CollinearInput as exc:
            return _skipped(name, str(exc))
    if name == "beck":
        return check_beck(stats)
    if name == "proof-trace":
        try:
            return audit_proof_steps(stats, c, eps, params, tail_width)
        except PreconditionViolated as exc:
            return _skipped(name, str(exc))
    raise AssertionError(f"unhandled check {name}")


def _cmd_verify(args) -> int:
    names = [t.strip() for t in args.check.split(",") if t.strip()]
    unknown = [t for t in names if t not in CHECK_NAMES]
    if unknown or not names:
        bad = ", ".join(unknown) or "(empty)"
        print(f"unknown check name: {bad}; valid: {', '.join(CHECK_NAMES)}", file=sys.stderr)
        return EXIT_UNKNOWN_CHECK
    digest, ps = _read_point_file(args.file)
    stats = compute_arrangement(ps)
    try:
        params = PipelineParams(alpha=args.alpha, beta=args.beta)
        entries = [
            _run_check(name, stats, params, args.c, args.eps, args.tail_width)
            for name in names
        ]
    except (BadCutoff, BadEps, ValueError) as exc:
        raise _CliFailure(EXIT_DOMAIN, str(exc)) from None
    failures: list[str] = []
    for entry in entries:
        failures.extend(entry.binding_failures())
    payload = {
        "checks": [
            _trace_payload(e) if isinstance(e, ProofTrace) else _report_payload(e)
            for e in entries
        ],
        "params": {
            "alpha": _rat(args.alpha),
            "beta": _rat(args.beta),
            "c": args.c,
            "eps": _rat(args.eps),
        },
        "binding_failures": failures,
    }
    if args.json:
        sys.stdout.write(_document("verify", digest, payload))
    else:
        for entry in entries:
            if isinstance(entry, ProofTrace):
                tally = entry.small_pairs + entry.medium_pairs + entry.large_pairs
                print(f"proof-trace: c={entry.c} k={entry.k} pairs {entry.small_pairs}"
                      f"+{entry.medium_pairs}+{entry.large_pairs}={tally}")
                for r in entry.step_reports:
                    print(f"  {_human_check_line(r)}")
            else:
                print(_human_check_line(entry))
        print(f"binding failures: {len(failures)}")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _human_check_line(r: CheckReport) -> str:
    verdict = "holds" if r.holds else "FAILS"
    flag = "" if r.preconditions_met else " (non-binding: hypothesis not met)"
    return f"{r.name}: {verdict}{flag} lhs={r.lhs} rhs={r.rhs} slack={r.slack}"


# ---------------------------------------------------------------------------
# constants


def _constants_payload_common(args) -> dict:
    return {
        "alpha": _rat(args.alpha),
        "beta": _rat(args.beta),
        "tail_width": _rat(args.tail_width),
    }


def _cmd_constants(args) -> int:
    try:
        params = PipelineParams(alpha=args.alpha, beta=args.beta)
    except ValueError as exc:
        raise _CliFailure(EXIT_DOMAIN, str(exc)) from None
    if args.optimize:
        if args.mode == "fixed-eps":
            raise _CliFailure(EXIT_PARSE, "--optimize needs --mode dirac or beck")
        return _constants_optimize(args, params)
    if args.c is None:
        raise _CliFailure(EXIT_PARSE, "--c is required unless --optimize is given")
    try:
        if args.mode == "fixed-eps":
            if args.eps is None:
                raise _CliFailure(EXIT_PARSE, "--mode fixed-eps requires --eps")
            bd = delta_of(args.c, args.eps, params, args.tail_width)
            payload = _constants_payload_common(args) | {
                "mode": "fixed-eps",
                "c": bd.c,
                "eps": _rat(bd.eps),
                "eps_decimal": _dec(bd.eps),
                "h": _rat(bd.h),
                "x": _rat(bd.x),
                "y": _rat(bd.y),
                "mid_term": _rat(bd.mid_term),
                "mid_term_decimal": _dec(bd.mid_term),
                "tail": _interval_payload(bd.tail),
                "delta": _interval_payload(bd.delta),
            }
        else:
            eps, delta = solve_fixed_point(args.c, params, args.mode, args.tail_width)
            payload = _constants_payload_common(args) | {
                "mode": args.mode,
                "c": args.c,
                "eps": _rat(eps),
                "eps_decimal": _dec(eps),
                "delta": _interval_payload(delta),
            }
            if args.mode == "beck":
                payload["beck_constant"] = _interval_payload(beck_constant_from(eps, delta))
                payload["eps_threshold"] = "1/49"
                payload["eps_at_least_threshold"] = eps >= Fraction(1, 49)
    except (BadCutoff, BadEps, NoSolution, ValueError) as exc:
        raise _CliFailure(EXIT_DOMAIN, str(exc)) from None
    _emit_constants(args, payload)
    return EXIT_OK


def _constants_optimize(args, params) -> int:
    try:
        entries = list(
            sweep_fixed_points(args.c_min, args.c_max, params, args.mode, args.tail_width)
        )
    except (BadCutoff, BadEps, ValueError) as exc:
        raise _CliFailure(EXIT_DOMAIN, str(exc)) from None
    best = None
    for c, eps, delta in entries:
        if delta is not None and (best is None or delta.lo > best[2].lo):
            best = (c, eps, delta)
    if best is None:
        raise _CliFailure(
            EXIT_DOMAIN, f"no cutoff in {args.c_min}..{args.c_max} admits a fixed point"
        )
    best_c, best_eps, best_delta = best
    payload = _constants_payload_common(args) | {
        "mode": args.mode,
        "c_min": args.c_min,
        "c_max": args.c_max,
        "best_c": best_c,
        "best_eps": _rat(best_eps),
        "best_eps_decimal": _dec(best_eps),
        "best_delta": _interval_payload(best_delta),
        "sweep": [
            {
                "c": c,
                "delta_lo": None if delta is None else _rat(delta.lo),
                "delta_lo_decimal": None if delta is None else _dec(delta.lo),
            }
            for c, _eps, delta in entries
        ],
    }
    if args.mode == "beck":
        payload["best_beck_constant"] = _interval_payload(
            beck_constant_from(best_eps, best_delta)
        )
    _emit_constants(args, payload)
    return EXIT_OK


def _emit_constants(args, payload) -> None:
    digest_source = {"command": "constants"} | {
        k: v for k, v in payload.items() if not isinstance(v, (dict, list))
    }
    if args.json:
        sys.stdout.write(_document("constants", _params_digest(digest_source), payload))
        return
    skip = {"sweep"}
    for key in sorted(payload):
        if key in skip:
            continue
        val = payload[key]
        if isinstance(val, dict):
            print(f"{key:<24}[{val['lo_decimal']}, {val['hi_decimal']}] exact [{val['lo']}, {val['hi']}]")
        else:
            print(f"{key:<24}{val}")


# ---------------------------------------------------------------------------
# generate


def _cmd_generate(args) -> int:
    sizes = args.sizes
    try:
        if args.kind == "grid":
            if len(sizes) != 2:
                raise _CliFailure(EXIT_PARSE, "grid takes two sizes: WIDTH HEIGHT")
            spec = GeneratorSpec.grid(sizes[0], sizes[1])
        elif args.kind == "random_grid":
            if len(sizes) != 1:
                raise _CliFailure(EXIT_PARSE, "random_grid takes one size: N")
            if args.extent is None or args.seed is None:
                raise _CliFailure(EXIT_PARSE, "random_grid requires --extent and --seed")
            spec = GeneratorSpec.random_grid(sizes[0], args.extent, args.seed)
        else:
            if len(sizes) != 1:
                raise _CliFailure(EXIT_PARSE, f"{args.kind} takes one size: N")
            spec = GeneratorSpec(kind=args.kind, n=sizes[0])
        ps = generate(spec)
    except ValueError as exc:
        raise _CliFailure(EXIT_PARSE, str(exc)) from None
    except GenerationFailed as exc:
        raise _CliFailure(EXIT_DOMAIN, str(exc)) from None
    text = format_points(ps)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"{args.out} n={ps.n}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# search


def _cmd_search(args) -> int:
    try:
        result = search_min_dirac(args.n, args.extent, args.iters, args.seed)
    except ValueError as exc:
        raise _CliFailure(EXIT_PARSE, str(exc)) from None
    except GenerationFailed as exc:
        raise _CliFailure(EXIT_DOMAIN, str(exc)) from None
    payload = {
        "n": args.n,
        "extent": args.extent,
        "iterations_run": result.iterations_run,
        "seed": result.seed,
        "rng": result.rng_algorithm,
        "degree": result.degree,
        "ratio": _rat(result.ratio),
        "ratio_decimal": _dec(result.ratio),
        "points": [[_rat(p.x), _rat(p.y)] for p in result.best_set],
    }
    if args.json:
        digest = _params_digest(
            {"command": "search", "n": args.n, "extent": args.extent,
             "iters": args.iters, "seed": args.seed}
        )
        sys.stdout.write(_document("search", digest, payload))
    else:
        print(f"degree {result.degree} ratio {result.ratio} "
              f"({RNG_ALGORITHM}, seed {result.seed}, {result.iterations_run} iterations)")
        for p in result.best_set:
            print(f"{p.x} {p.y}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointline",
        description="Exact point-line arrangement statistics, audits and constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="arrangement statistics for a point file")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="run inequality audits on a point file")
    p_verify.add_argument("file")
    p_verify.add_argument("--check", default=DEFAULT_CHECKS,
                          help=f"comma-separated subset of {','.join(CHECK_NAMES)}")
    p_verify.add_argument("--c", type=int, default=8, help="cutoff for proof-trace")
    p_verify.add_argument("--eps", type=_rational_flag, default=Fraction(499, 1000),
                          help="collinearity fraction for proof-trace, as p/q")
    p_verify.add_argument("--alpha", type=_rational_flag, default=Fraction(103, 16))
    p_verify.add_argument("--beta", type=_rational_flag, default=Fraction(31827, 1024))
    p_verify.add_argument("--tail-width", type=_rational_flag, default=DEFAULT_TAIL_WIDTH)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_const = sub.add_parser("constants", help="certified constant pipeline")
    p_const.add_argument("--c", type=int)
    p_const.add_argument("--mode", choices=("dirac", "beck", "fixed-eps"), required=True)
    p_const.add_argument("--eps", type=_rational_flag, help="eps for --mode fixed-eps")
    p_const.add_argument("--alpha", type=_rational_flag, default=Fraction(103, 16))
    p_const.add_argument("--beta", type=_rational_flag, default=Fraction(31827, 1024))
    p_const.add_argument("--tail-width", type=_rational_flag, default=DEFAULT_TAIL_WIDTH)
    p_const.add_argument("--optimize", action="store_true", help="sweep c-min..c-max")
    p_const.add_argument("--c-min", type=int, default=8)
    p_const.add_argument("--c-max", type=int, default=200)
    p_const.add_argument("--json", action="store_true")
    p_const.set_defaults(func=_cmd_constants)

    p_gen = sub.add_parser("generate", help="write a configuration as a point file")
    p_gen.add_argument("kind", choices=("grid", "near_pencil", "collinear", "parabola",
                                        "random_grid"))
    p_gen.add_argument("sizes", type=int, nargs="+")
    p_gen.add_argument("--extent", type=int)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=_cmd_generate)

    p_search = sub.add_parser("search", help="hill-climb for low max point degree")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--extent", type=int, required=True)
    p_search.add_argument("--iters", type=int, required=True)
    p_search.add_argument("--seed", type=int, required=True)
    p_search.add_argument("--json", action="store_true")
    p_search.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as failure:
        print(failure.message, file=sys.stderr)
        return failure.code


def run() -> None:
    raise SystemExit(main())
