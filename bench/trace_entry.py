"""Run one pointline command with a span around each layer's public functions.

usage: python trace_entry.py SPANS_JSON REQUEST_ID ARGS...

ARGS are pointline's own arguments. The wrappers are installed in every
pointline module whose namespace holds the function, so calls made through
`from .geometry import compute_arrangement` in cli or audits are recorded
too. Spans stay in memory and are written to SPANS_JSON when the command
has finished; stdout is pointline's, untouched.

Functions called once per point pair (`canonical_line`, `collinear`) are
not wrapped: they never cross a layer boundary and a span per pair would
cost more than the work it measures.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from math import comb, log2

import pointline
from pointline import audits, cli, constants, generators, geometry, pointfile

LAYERS = {
    pointfile: ("parse_points", "format_points", "parse_rational"),
    geometry: ("compute_arrangement", "dirac_degree", "subgraph_edge_count", "pair_tally"),
    audits: ("check_melchior", "check_hirzebruch", "check_kelly_moser", "check_stt",
             "check_main", "check_beck", "audit_proof_steps", "combine_reports"),
    constants: ("h_of", "x_of", "tail_sum", "delta_of", "solve_fixed_point",
                "sweep_fixed_points", "optimize_c", "beck_constant", "beck_constant_from"),
    generators: ("generate", "search_min_dirac"),
}
AUDIT_CHECKS = {name for name in LAYERS[audits] if name != "combine_reports"}


class Tracer:
    """Spans as [name, start_ns, end_ns, parent_index, request_id], plus counters."""

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.request_id])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, name: str, args, result) -> None:
        if name == "geometry.compute_arrangement":
            self.counts["geometry.pairs"] += comb(args[0].n, 2)
        elif name == "pointfile.parse_points":
            self.counts["pointfile.bytes"] += len(args[0].encode("utf-8"))
        elif name == "constants.tail_sum":
            self.counts["constants.tail_width_log2_sum"] += log2(result.width)
        elif name == "generators.search_min_dirac":
            self.counts["generators.iterations"] += result.iterations_run
        elif name.split(".")[1] in AUDIT_CHECKS:
            self.counts["audits.checks"] += 1


def _wrap(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        # One span per resume, so the consumer's work between items is not
        # charged to the generator.
        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                index = tracer.open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item

        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        tracer.count(name, args, result)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Replace each listed function in every pointline namespace that holds it."""
    wrappers = {}
    for module, names in LAYERS.items():
        layer = module.__name__.rsplit(".", 1)[1]
        for fn_name in names:
            fn = getattr(module, fn_name)
            wrappers[id(fn)] = _wrap(tracer, f"{layer}.{fn_name}", fn)
    for module in (pointline, cli, *LAYERS):
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])


def main() -> int:
    spans_path, request_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(request_id)
    install(tracer)
    index = tracer.open("cli.main")
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse reports bad flags this way
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.close(index)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as out:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
