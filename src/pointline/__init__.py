"""Exact-arithmetic statistics and certified constants for planar point sets."""

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
    MIN_TAIL_WIDTH,
    DeltaBreakdown,
    Interval,
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
from .errors import (
    BadCutoff,
    BadEps,
    ClaimViolated,
    CollinearInput,
    DuplicatePoints,
    GenerationFailed,
    IdenticalPoints,
    NoSolution,
    PointFormatError,
    PointlineError,
    PreconditionViolated,
)
from .generators import (
    RNG_ALGORITHM,
    GeneratorSpec,
    SearchResult,
    SplitMix64,
    generate,
    search_min_dirac,
)
from .geometry import (
    ArrangementStats,
    Line,
    Point,
    PointSet,
    canonical_line,
    collinear,
    compute_arrangement,
    dirac_degree,
    pair_tally,
    subgraph_edge_count,
)
from .pointfile import format_points, parse_points, parse_rational

__version__ = "0.1.0"
