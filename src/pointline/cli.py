"""Command-line interface.

Subcommands: analyze, verify, constants, generate, search. Report-producing
commands emit a JSON document (--json) or a human summary; either way the
bytes are identical across reruns with identical flags. JSON uses sorted
keys, a trailing newline, "p/q" strings for rationals and decimal-string
previews with at least 10 significant digits; floats never appear.

Exit codes: 0 success / all binding checks hold; 1 a binding check failed;
2 unparseable input (file or flags, a constants flag that its mode would
not read included) or an output file that cannot be written; 3 duplicate
points; 4 unknown check name; 5 domain errors (no fixed point; a cutoff,
eps, alpha, beta or tail width out of range; a sweep over too many
cutoffs; a search over its work cap; generation failed; a constants or
verify value whose integers exceed CPython's 4300-digit limit on
int-string conversion), with empty stdout.

main is the only writer of stdout and the only code that maps refusals
to exit codes. Each _cmd_* handler returns (payload, text, source, code):
the JSON payload (None for generate, which has no --json), the human
text, the point-file bytes it read (or None) and its exit code. main
writes _document(...) under --json, else the text. A refusal's message
goes to stderr, and its code comes from one table: a _CliFailure (a file
that cannot be read, an unknown check, a broken constants flag rule, a
failed --out write) carries its own; BadCutoff, BadEps, NoSolution and
GenerationFailed exit 5; a ValueError exits 2 under generate and search,
whose library functions check their own flags, and 5 under every other
command. Any other exception, ClaimViolated included, is not a refusal
and keeps its traceback.

A report's payload keys are its record's field names: _plain walks a
record's fields, so ArrangementStats, CheckReport, ProofTrace, Interval,
DeltaBreakdown and PipelineParams are rendered without a key list of
their own, and _plain renders every rational a document holds. Human
verify prints a skipped check as "NAME: skipped: REASON", from its note.

_document names a document's command and picks its input_digest: the
sha256 of the point file read (analyze, verify), or else of the parsed
flags as argparse holds them (constants, search), never of a result.

Each command imports the library modules it uses when it runs, and its
parser is filled in only when it is parsed, so a command pays start-up
only for its own modules. Documents are rendered by _json, which matches
json.dumps(..., sort_keys=True[, indent=2]) byte for byte, so no command
imports json. A document holds only strings pointline builds (names,
notes, p/q rationals, decimal previews, mode, rng, digests), all printable
ASCII without '"' or '\\'; _json writes those unescaped and refuses any
other string with ValueError.

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

from ._record import Record, parse_rational
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
    """A refusal that carries its own exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _dec(value) -> str:
    """Decimal preview with 12 significant digits, computed without floats."""
    with decimal.localcontext() as ctx:
        ctx.prec = 12
        d = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
    return str(d)


def _plain(value):
    """value as a document holds it.

    A record becomes a dict of its fields by name, a Fraction its "p/q"
    string, a tuple a list, and a dict (a line-size histogram) a list of
    [key, value] pairs. An Interval also carries lo_decimal and hi_decimal
    previews. Its class is read from sys.modules rather than imported, so a
    command loads no module for it; an Interval exists only once its
    module is loaded.
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
    return plain


def _json_string(s: str) -> str:
    """s between quotes, as json.dumps writes it; ValueError unless s is
    printable ASCII without '"' or '\\', so no escape is ever needed."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    raise ValueError(f"not a document string: {s!r}")


def _json(value, newline: str | None = None) -> str:
    """json.dumps(value, sort_keys=True), byte for byte, or with indent=2
    when newline is "\\n" (it carries the indentation of nested levels).

    value holds str keys and str, int, bool, None, list and dict values;
    every string is printable ASCII without '"' or '\\', and any other
    string raises ValueError where json.dumps would escape it. As in json,
    an int of more than 4300 digits raises ValueError.
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


def _document(args, payload: dict, source: bytes | None = None) -> str:
    """The JSON document of args' command. input_digest is the sha256 of
    source, the point file read, or else of _json of vars(args) but func
    and json, each through _plain: an omitted --c-min is hashed as null."""
    import hashlib

    if source is None:
        flags = {k: _plain(v) for k, v in vars(args).items() if k not in ("func", "json")}
        source = _json(flags).encode()
    doc = {
        "command": args.command,
        "input_digest": hashlib.sha256(source).hexdigest(),
        "payload": payload,
        "schema_version": SCHEMA_VERSION,
    }
    return _json(doc, "\n") + "\n"


def _read_point_file(path: str) -> tuple:
    """(the file's bytes, its PointSet); exit 2 or 3 on bad input."""
    from .pointfile import parse_points

    try:
        with open(path, "rb") as f:
            data = f.read()
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


def _text(lines) -> str:
    """lines as print writes them, one after another."""
    return "".join(line + "\n" for line in lines)


def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_flag(text: str) -> int:
    """An integer flag: a rational flag's token without a "/q" part."""
    if "/" in text:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return _rational_flag(text).numerator


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args) -> tuple:
    from .geometry import compute_arrangement

    source, ps = _read_point_file(args.file)
    stats = compute_arrangement(ps)
    rows = [
        ("n", str(stats.n)),
        ("lines", str(stats.lines)),
        ("incidences", str(stats.incidences)),
        ("edges", str(stats.edges)),
        ("l_max", str(stats.l_max)),
        ("dirac", f"degree {stats.dirac_degree} at index {stats.dirac_witness}"),
    ]
    rows.extend((f"s[{i}]", str(si)) for i, si in stats.s.items())
    return _plain(stats), _text(f"{key:<12}{val}" for key, val in rows), source, EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> tuple:
    from .audits import CHECK_NAMES, CheckReport, run_check
    from .constants import PipelineParams, delta_of
    from .geometry import compute_arrangement

    names = [t.strip() for t in args.check.split(",") if t.strip()]
    unknown = [t for t in names if t not in CHECK_NAMES]
    if unknown or not names:
        bad = ", ".join(unknown) or "(empty)"
        raise _CliFailure(EXIT_UNKNOWN_CHECK,
                          f"unknown check name: {bad}; valid: {', '.join(CHECK_NAMES)}")
    source, ps = _read_point_file(args.file)
    # Refuses a bad --alpha, --beta, --tail-width, --eps or --c, in that
    # order, whichever checks run.
    params = PipelineParams(alpha=args.alpha, beta=args.beta, tail_width=args.tail_width)
    breakdown = delta_of(args.c, args.eps, params)
    stats = compute_arrangement(ps)
    entries = [run_check(name, stats, params, breakdown) for name in names]
    failures = [failure for entry in entries for failure in entry.binding_failures()]
    payload = {
        "checks": [_plain(entry) for entry in entries],
        "params": _plain(params) | {"c": args.c, "eps": _plain(args.eps)},
        "binding_failures": failures,
    }
    lines = []
    for entry in entries:
        if isinstance(entry, CheckReport):
            lines.append(_human_check_line(entry))
            continue
        tally = entry.small_pairs + entry.medium_pairs + entry.large_pairs
        lines.append(f"{entry.name}: c={entry.c} k={entry.k} pairs {entry.small_pairs}"
                     f"+{entry.medium_pairs}+{entry.large_pairs}={tally}")
        lines.extend(f"  {_human_check_line(r)}" for r in entry.step_reports)
    lines.append(f"binding failures: {len(failures)}")
    return payload, _text(lines), source, EXIT_CHECK_FAILED if failures else EXIT_OK


def _human_check_line(r) -> str:
    if r.note.startswith("skipped: "):
        return f"{r.name}: {r.note}"
    verdict = "holds" if r.holds else "FAILS"
    flag = "" if r.preconditions_met else " (non-binding: hypothesis not met)"
    return f"{r.name}: {verdict}{flag} lhs={r.lhs} rhs={r.rhs} slack={r.slack}"


# ---------------------------------------------------------------------------
# constants


def _cmd_constants(args) -> tuple:
    from .constants import PipelineParams, beck_constant_from, delta_of, solve_fixed_point

    fixed_eps, optimize = args.mode == "fixed-eps", args.optimize
    params = PipelineParams(alpha=args.alpha, beta=args.beta, tail_width=args.tail_width)
    # The first rule the flags break is refused: a flag is never ignored.
    for broken, message in (
        (optimize and fixed_eps, "--optimize needs --mode dirac or beck"),
        (optimize and args.c is not None, "--c is not read under --optimize"),
        (not optimize and args.c is None, "--c is required unless --optimize is given"),
        (not optimize and (args.c_min, args.c_max) != (None, None),
         "--c-min and --c-max need --optimize"),
        (fixed_eps and args.eps is None, "--mode fixed-eps requires --eps"),
        (not fixed_eps and args.eps is not None, "--eps needs --mode fixed-eps"),
    ):
        if broken:
            raise _CliFailure(EXIT_PARSE, message)
    common = _plain(params) | {"mode": args.mode}
    if optimize:
        payload = common | _constants_optimize(args, params)
    elif fixed_eps:
        bd = delta_of(args.c, args.eps, params)
        payload = common | _plain(bd) | {
            "eps_decimal": _dec(bd.eps),
            "mid_term_decimal": _dec(bd.mid_term),
        }
    else:
        eps, delta = solve_fixed_point(args.c, params, args.mode)
        payload = common | {
            "c": args.c,
            "eps": _plain(eps),
            "eps_decimal": _dec(eps),
            "delta": _plain(delta),
        }
        if args.mode == "beck":
            payload["beck_constant"] = _plain(beck_constant_from(eps, delta))
            payload["eps_threshold"] = "1/49"
            payload["eps_at_least_threshold"] = eps >= Fraction(1, 49)
    lines = []
    for key in sorted(payload.keys() - {"sweep"}):
        val = payload[key]
        if isinstance(val, dict):
            lines.append(f"{key:<24}[{val['lo_decimal']}, {val['hi_decimal']}] exact [{val['lo']}, {val['hi']}]")
        else:
            lines.append(f"{key:<24}{val}")
    return payload, _text(lines), None, EXIT_OK


def _constants_optimize(args, params) -> dict:
    from .constants import beck_constant_from, best_cutoff, sweep_fixed_points

    c_min = 8 if args.c_min is None else args.c_min
    c_max = 200 if args.c_max is None else args.c_max
    entries = list(sweep_fixed_points(c_min, c_max, params, args.mode))
    best_c, (best_eps, best_delta) = best_cutoff(entries)
    payload = {
        "c_min": c_min,
        "c_max": c_max,
        "best_c": best_c,
        "best_eps": _plain(best_eps),
        "best_eps_decimal": _dec(best_eps),
        "best_delta": _plain(best_delta),
        "sweep": [
            {
                "c": c,
                "delta_lo": None if delta is None else _plain(delta.lo),
                "delta_lo_decimal": None if delta is None else _dec(delta.lo),
            }
            for c, _eps, delta in entries
        ],
    }
    if args.mode == "beck":
        payload["best_beck_constant"] = _plain(beck_constant_from(best_eps, best_delta))
    return payload


# ---------------------------------------------------------------------------
# generate


def _cmd_generate(args) -> tuple:
    from .generators import generate
    from .pointfile import format_points

    ps = generate(args.kind, *args.sizes, extent=args.extent, seed=args.seed)
    text = format_points(ps)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as exc:
            raise _CliFailure(EXIT_PARSE, f"cannot write {args.out}: {exc}") from None
        text = f"{args.out} n={ps.n}\n"
    return None, text, None, EXIT_OK


# ---------------------------------------------------------------------------
# search


def _cmd_search(args) -> tuple:
    from .generators import RNG_ALGORITHM, search_min_dirac

    result = search_min_dirac(args.n, args.extent, args.iters, args.seed)
    payload = {
        "n": args.n,
        "extent": args.extent,
        "iterations_run": result.iterations_run,
        "seed": result.seed,
        "rng": result.rng_algorithm,
        "degree": result.degree,
        "ratio": _plain(result.ratio),
        "ratio_decimal": _dec(result.ratio),
        "points": [_plain((p.x, p.y)) for p in result.best_set],
    }
    lines = [f"degree {result.degree} ratio {result.ratio} "
             f"({RNG_ALGORITHM}, seed {result.seed}, {result.iterations_run} iterations)"]
    lines.extend(f"{p.x} {p.y}" for p in result.best_set)
    return payload, _text(lines), None, EXIT_OK


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
    """One flag per PipelineParams field (--alpha, --beta, --tail-width),
    defaulting to the library's value."""
    from .constants import PipelineParams

    for name, default in PipelineParams._defaults.items():
        p.add_argument("--" + name.replace("_", "-"), type=_rational_flag, default=default)


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    from .audits import CHECK_NAMES

    p.add_argument("file")
    p.add_argument("--check", default=",".join(n for n in CHECK_NAMES if n != "proof-trace"),
                   help=f"comma-separated subset of {','.join(CHECK_NAMES)}")
    p.add_argument("--c", type=_int_flag, default=8, help="cutoff for proof-trace")
    p.add_argument("--eps", type=_rational_flag, default=Fraction(499, 1000),
                   help="collinearity fraction for proof-trace, as p/q")
    _add_pipeline_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)


def _constants_arguments(p: argparse.ArgumentParser) -> None:
    from .constants import MODES

    p.add_argument("--c", type=_int_flag)
    p.add_argument("--mode", choices=(*MODES, "fixed-eps"), required=True)
    p.add_argument("--eps", type=_rational_flag, help="eps for --mode fixed-eps")
    _add_pipeline_flags(p)
    p.add_argument("--optimize", action="store_true", help="sweep c-min..c-max")
    p.add_argument("--c-min", type=_int_flag)
    p.add_argument("--c-max", type=_int_flag)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_constants)


def _generate_arguments(p: argparse.ArgumentParser) -> None:
    from .generators import KINDS

    p.add_argument("kind", choices=KINDS)
    p.add_argument("sizes", type=_int_flag, nargs="+")
    p.add_argument("--extent", type=_int_flag)
    p.add_argument("--seed", type=_int_flag)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)


def _search_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_int_flag, required=True)
    p.add_argument("--extent", type=_int_flag, required=True)
    p.add_argument("--iters", type=_int_flag, required=True)
    p.add_argument("--seed", type=_int_flag, required=True)
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
    """Run one command, write its result and return its exit code, or
    print a refusal and return the table's code (see the module docstring).
    stdout is written outside the refusal catch, so a failed write is
    never taken for a refusal."""
    args = _build_parser().parse_args(argv)
    try:
        payload, text, source, code = args.func(args)
    except _CliFailure as failure:
        print(failure, file=sys.stderr)
        return failure.code
    except (BadCutoff, BadEps, NoSolution, GenerationFailed, ValueError) as refusal:
        print(refusal, file=sys.stderr)
        flags = isinstance(refusal, ValueError) and args.command in ("generate", "search")
        return EXIT_PARSE if flags else EXIT_DOMAIN
    if payload is not None and args.json:  # generate has no --json
        text = _document(args, payload, source)
    sys.stdout.write(text)
    return code


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
