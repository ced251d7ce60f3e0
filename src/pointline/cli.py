"""Command-line interface.

Subcommands: analyze, verify, constants, generate, search. Report-producing
commands emit a JSON document (--json) or a human summary; either way the
bytes are identical across reruns with identical flags. JSON uses sorted
keys, a trailing newline, "p/q" strings for rationals and decimal-string
previews with at least 10 significant digits; floats never appear.

Exit codes: 0 success / all binding checks hold; 1 a binding check failed;
2 unparseable input (file or flags) or an output file that cannot be
written; 3 duplicate points; 4 unknown check name; 5 domain errors (no
fixed point; a cutoff, eps, alpha, beta or tail width out of range; a sweep
over too many cutoffs; a search over its work cap; generation failed; a
constants or verify value whose integers exceed CPython's 4300-digit limit
on int-string conversion), with empty stdout.

A report's payload keys are its record's field names: _plain walks a
record's fields, so ArrangementStats, CheckReport, ProofTrace, Interval
and DeltaBreakdown are rendered without a key list of their own.

Each command imports the library modules it uses when it runs, and its
parser is filled in only when it is parsed, so a command pays start-up
only for its own modules. Documents are rendered by _json, which matches
json.dumps(..., sort_keys=True[, indent=2]) byte for byte, so no command
imports json.

run() is the one way a command ends, for `python -m pointline` and the
`pointline` script alike: it flushes stdout and stderr and leaves through
os._exit, skipping the interpreter's teardown, unless a flush fails or a
tracer or profiler is attached; then it raises SystemExit as before.
"""

from __future__ import annotations

import argparse
import decimal
import os
import sys
from fractions import Fraction
from pathlib import Path

from ._record import Record
from .errors import (
    BadCutoff,
    BadEps,
    DuplicatePoints,
    GenerationFailed,
    NoSolution,
    PointFormatError,
)

SCHEMA_VERSION = "1"

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


def _dec(value) -> str:
    """Decimal preview with 12 significant digits, computed without floats."""
    f = Fraction(value)
    with decimal.localcontext() as ctx:
        ctx.prec = 12
        d = decimal.Decimal(f.numerator) / decimal.Decimal(f.denominator)
    return str(d)


def _plain(value):
    """value as a document holds it.

    A record becomes a dict of its fields by name, a Fraction its "p/q"
    string, a tuple a list, and a dict (a line-size histogram) a list of
    [key, value] pairs. An Interval also carries lo_decimal and hi_decimal
    previews, and a ProofTrace its check name. Both classes are read from
    sys.modules rather than imported, so a command loads no module for
    them; a record of either exists only once its module is loaded.
    """
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return [[key, _plain(item)] for key, item in value.items()]
    if not isinstance(value, Record):
        return value
    plain = {name: _plain(getattr(value, name)) for name in value._fields}
    if type(value) is getattr(sys.modules.get(f"{__package__}.constants"), "Interval", None):
        plain |= {"lo_decimal": _dec(value.lo), "hi_decimal": _dec(value.hi)}
    elif type(value) is getattr(sys.modules.get(f"{__package__}.audits"), "ProofTrace", None):
        plain["name"] = "proof-trace"
    return plain


_ESCAPES = {chr(i): f"\\u{i:04x}" for i in range(0x20)} | {
    '"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t",
}


def _json_string(s: str) -> str:
    """s as a JSON string literal, escaped as json.dumps's ensure_ascii does."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    out = []
    for ch in s:
        code = ord(ch)
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif code < 0x7F:
            out.append(ch)
        elif code < 0x10000:
            out.append(f"\\u{code:04x}")
        else:  # astral: a UTF-16 surrogate pair
            code -= 0x10000
            out.append(f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}")
    return '"' + "".join(out) + '"'


def _json(value, newline: str | None = None) -> str:
    """json.dumps(value, sort_keys=True), byte for byte, or with indent=2
    when newline is "\\n" (it carries the indentation of nested levels).

    value holds str keys and str, int, bool, None, list and dict values. As
    in json, an int of more than 4300 digits raises ValueError.
    """
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = None if newline is None else newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        opening, closing = "{", "}"
        items = [f"{_json_string(key)}: {_json(value[key], inner)}" for key in sorted(value)]
    elif isinstance(value, list):
        if not value:
            return "[]"
        opening, closing = "[", "]"
        items = [_json(item, inner) for item in value]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if newline is None:
        return opening + ", ".join(items) + closing
    return opening + inner + ("," + inner).join(items) + newline + closing


def _document(command: str, source: bytes, payload: dict) -> str:
    """The JSON document; its input_digest is the sha256 of source."""
    import hashlib

    doc = {
        "command": command,
        "input_digest": hashlib.sha256(source).hexdigest(),
        "payload": payload,
        "schema_version": SCHEMA_VERSION,
    }
    return _json(doc, "\n") + "\n"


def _read_point_file(path: str) -> tuple:
    """(the file's bytes, its PointSet); exit 2 or 3 on bad input."""
    from .pointfile import parse_points

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
    return data, ps


def _rational_flag(text: str) -> Fraction:
    from .pointfile import parse_rational

    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args) -> int:
    from .geometry import compute_arrangement

    source, ps = _read_point_file(args.file)
    stats = compute_arrangement(ps)
    if args.json:
        sys.stdout.write(_document("analyze", source, _plain(stats)))
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


def _cmd_verify(args) -> int:
    from .audits import CHECK_NAMES, ProofTrace, run_check
    from .constants import PipelineParams, delta_of
    from .geometry import compute_arrangement

    names = [t.strip() for t in args.check.split(",") if t.strip()]
    unknown = [t for t in names if t not in CHECK_NAMES]
    if unknown or not names:
        bad = ", ".join(unknown) or "(empty)"
        raise _CliFailure(EXIT_UNKNOWN_CHECK,
                          f"unknown check name: {bad}; valid: {', '.join(CHECK_NAMES)}")
    source, ps = _read_point_file(args.file)
    try:
        params = PipelineParams(alpha=args.alpha, beta=args.beta)
        # Refuses a bad --eps, --c or --tail-width whichever checks run.
        breakdown = delta_of(args.c, args.eps, params, args.tail_width)
        stats = compute_arrangement(ps)
        entries = [run_check(name, stats, params, breakdown) for name in names]
        failures: list[str] = []
        for entry in entries:
            failures.extend(entry.binding_failures())
        payload = {
            "checks": [_plain(entry) for entry in entries],
            "params": {
                "alpha": _rat(args.alpha),
                "beta": _rat(args.beta),
                "c": args.c,
                "eps": _rat(args.eps),
            },
            "binding_failures": failures,
        }
    except (BadCutoff, BadEps, ValueError) as exc:
        raise _CliFailure(EXIT_DOMAIN, str(exc)) from None
    if args.json:
        sys.stdout.write(_document("verify", source, payload))
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


def _human_check_line(r) -> str:
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
    from .constants import PipelineParams, beck_constant_from, delta_of, solve_fixed_point

    try:
        params = PipelineParams(alpha=args.alpha, beta=args.beta)
        if args.optimize:
            if args.mode == "fixed-eps":
                raise _CliFailure(EXIT_PARSE, "--optimize needs --mode dirac or beck")
            payload = _constants_optimize(args, params)
        elif args.c is None:
            raise _CliFailure(EXIT_PARSE, "--c is required unless --optimize is given")
        elif args.mode == "fixed-eps":
            if args.eps is None:
                raise _CliFailure(EXIT_PARSE, "--mode fixed-eps requires --eps")
            bd = delta_of(args.c, args.eps, params, args.tail_width)
            payload = _constants_payload_common(args) | _plain(bd) | {
                "mode": "fixed-eps",
                "eps_decimal": _dec(bd.eps),
                "mid_term_decimal": _dec(bd.mid_term),
            }
        else:
            eps, delta = solve_fixed_point(args.c, params, args.mode, args.tail_width)
            payload = _constants_payload_common(args) | {
                "mode": args.mode,
                "c": args.c,
                "eps": _rat(eps),
                "eps_decimal": _dec(eps),
                "delta": _plain(delta),
            }
            if args.mode == "beck":
                payload["beck_constant"] = _plain(beck_constant_from(eps, delta))
                payload["eps_threshold"] = "1/49"
                payload["eps_at_least_threshold"] = eps >= Fraction(1, 49)
    except (BadCutoff, BadEps, NoSolution, ValueError) as exc:
        raise _CliFailure(EXIT_DOMAIN, str(exc)) from None
    _emit_constants(args, payload)
    return EXIT_OK


def _constants_optimize(args, params) -> dict:
    from .constants import beck_constant_from, best_cutoff, sweep_fixed_points

    entries = list(
        sweep_fixed_points(args.c_min, args.c_max, params, args.mode, args.tail_width)
    )
    best_c, (best_eps, best_delta) = best_cutoff(entries)
    payload = _constants_payload_common(args) | {
        "mode": args.mode,
        "c_min": args.c_min,
        "c_max": args.c_max,
        "best_c": best_c,
        "best_eps": _rat(best_eps),
        "best_eps_decimal": _dec(best_eps),
        "best_delta": _plain(best_delta),
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
        payload["best_beck_constant"] = _plain(beck_constant_from(best_eps, best_delta))
    return payload


def _emit_constants(args, payload) -> None:
    if args.json:
        entries = {"command": "constants"} | {
            k: v for k, v in payload.items() if not isinstance(v, (dict, list))
        }
        source = _json(entries).encode()
        sys.stdout.write(_document("constants", source, payload))
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
    from .generators import generate
    from .pointfile import format_points

    try:
        ps = generate(args.kind, *args.sizes, extent=args.extent, seed=args.seed)
    except ValueError as exc:
        raise _CliFailure(EXIT_PARSE, str(exc)) from None
    except GenerationFailed as exc:
        raise _CliFailure(EXIT_DOMAIN, str(exc)) from None
    text = format_points(ps)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _CliFailure(EXIT_PARSE, f"cannot write {args.out}: {exc}") from None
        print(f"{args.out} n={ps.n}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# search


def _cmd_search(args) -> int:
    from .generators import RNG_ALGORITHM, search_min_dirac

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
        entries = {"command": "search", "n": args.n, "extent": args.extent,
                   "iters": args.iters, "seed": args.seed}
        source = _json(entries).encode()
        sys.stdout.write(_document("search", source, payload))
    else:
        print(f"degree {result.degree} ratio {result.ratio} "
              f"({RNG_ALGORITHM}, seed {result.seed}, {result.iterations_run} iterations)")
        for p in result.best_set:
            print(f"{p.x} {p.y}")
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser that adds its arguments when it first parses.

    Some arguments take their defaults or choices from a library module,
    so adding them imports it. Deferred, only the command that runs, or
    whose help is asked for, imports its modules.
    """

    def __init__(self, *args, arguments, **kwargs):
        super().__init__(*args, **kwargs)
        self._arguments = arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._arguments is not None:
            arguments, self._arguments = self._arguments, None
            arguments(self)
        return super().parse_known_args(args, namespace)


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    """--alpha, --beta and --tail-width, defaulting to the library's values."""
    from .constants import DEFAULT_TAIL_WIDTH, PipelineParams

    defaults = PipelineParams()
    p.add_argument("--alpha", type=_rational_flag, default=defaults.alpha)
    p.add_argument("--beta", type=_rational_flag, default=defaults.beta)
    p.add_argument("--tail-width", type=_rational_flag, default=DEFAULT_TAIL_WIDTH)


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    from .audits import CHECK_NAMES

    p.add_argument("file")
    p.add_argument("--check", default=",".join(n for n in CHECK_NAMES if n != "proof-trace"),
                   help=f"comma-separated subset of {','.join(CHECK_NAMES)}")
    p.add_argument("--c", type=int, default=8, help="cutoff for proof-trace")
    p.add_argument("--eps", type=_rational_flag, default=Fraction(499, 1000),
                   help="collinearity fraction for proof-trace, as p/q")
    _add_pipeline_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)


def _constants_arguments(p: argparse.ArgumentParser) -> None:
    from .constants import MODES

    p.add_argument("--c", type=int)
    p.add_argument("--mode", choices=(*MODES, "fixed-eps"), required=True)
    p.add_argument("--eps", type=_rational_flag, help="eps for --mode fixed-eps")
    _add_pipeline_flags(p)
    p.add_argument("--optimize", action="store_true", help="sweep c-min..c-max")
    p.add_argument("--c-min", type=int, default=8)
    p.add_argument("--c-max", type=int, default=200)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_constants)


def _generate_arguments(p: argparse.ArgumentParser) -> None:
    from .generators import KINDS

    p.add_argument("kind", choices=KINDS)
    p.add_argument("sizes", type=int, nargs="+")
    p.add_argument("--extent", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)


def _search_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--extent", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointline",
        description="Exact point-line arrangement statistics, audits and constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    sub.add_parser("analyze", help="arrangement statistics for a point file",
                   arguments=_analyze_arguments)
    sub.add_parser("verify", help="run inequality audits on a point file",
                   arguments=_verify_arguments)
    sub.add_parser("constants", help="certified constant pipeline",
                   arguments=_constants_arguments)
    sub.add_parser("generate", help="write a configuration as a point file",
                   arguments=_generate_arguments)
    sub.add_parser("search", help="hill-climb for low max point degree",
                   arguments=_search_arguments)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as failure:
        print(failure.message, file=sys.stderr)
        return failure.code


def _observed() -> bool:
    """Whether a trace, profile or monitoring function is installed, as
    under cProfile, trace, coverage or a debugger."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or monitoring is not None
            and any(monitoring.get_tool(i) is not None for i in range(6)))


def run() -> None:
    """Run main() and end the process with its exit code.

    Once stdout and stderr are flushed, nothing is left to write, so the
    process ends with os._exit and skips the interpreter's teardown. When a
    flush fails, or a tool that reports at exit is attached, it ends with
    SystemExit instead, as an uncaught exception or argparse's exit do.
    """
    code = main()
    if not _observed():
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except (OSError, ValueError):  # a failed write, or a closed stream
            pass
        else:
            os._exit(code)
    raise SystemExit(code)
