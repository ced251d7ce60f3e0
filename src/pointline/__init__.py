"""Exact-arithmetic statistics and certified constants for planar point sets.

The public names live in the submodules named below. Each is imported the
first time one of its names is used (PEP 562), so `import pointline`, and
a command-line run, loads only the modules it needs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "audits": (
        "CheckReport",
        "ProofTrace",
        "audit_proof_steps",
        "check_beck",
        "check_hirzebruch",
        "check_kelly_moser",
        "check_main",
        "check_melchior",
        "check_stt",
        "combine_reports",
    ),
    "constants": (
        "DEFAULT_TAIL_WIDTH",
        "MIN_TAIL_WIDTH",
        "DeltaBreakdown",
        "Interval",
        "PipelineParams",
        "beck_constant",
        "beck_constant_from",
        "best_cutoff",
        "delta_of",
        "h_of",
        "optimize_c",
        "solve_fixed_point",
        "sweep_fixed_points",
        "tail_sum",
        "x_of",
    ),
    "errors": (
        "BadCutoff",
        "BadEps",
        "ClaimViolated",
        "CollinearInput",
        "DuplicatePoints",
        "GenerationFailed",
        "NoSolution",
        "PointFormatError",
        "PointlineError",
        "PreconditionViolated",
    ),
    "generators": (
        "RNG_ALGORITHM",
        "SearchResult",
        "SplitMix64",
        "generate",
        "search_min_dirac",
    ),
    "geometry": (
        "ArrangementStats",
        "Point",
        "PointSet",
        "compute_arrangement",
        "dirac_degree",
        "pair_tally",
        "subgraph_edge_count",
    ),
    "pointfile": ("format_points", "parse_points"),
    "_record": ("parse_rational",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import the submodule that defines name, or that name is, on first use."""
    module = _MODULE_OF.get(name)
    if module is None and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    if module is None:
        return import_module(f".{name}", __name__)
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys() | _EXPORTS.keys())
