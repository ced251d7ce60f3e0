"""Exception types shared across the package."""


class PointlineError(Exception):
    """Base class for every package-specific error."""


class PointFormatError(PointlineError):
    """A point-file line that cannot be parsed. Carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DuplicatePoints(PointlineError):
    """A point set contains repeated points. Carries (first, duplicate) index pairs."""

    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        detail = ", ".join(f"index {j} repeats index {i}" for i, j in self.pairs)
        super().__init__(f"duplicate points: {detail}")


class CollinearInput(PointlineError):
    """The input is degenerate (fewer than 3 points, or all on one line)."""


class PreconditionViolated(PointlineError):
    """An audit was invoked outside its stated hypothesis."""


class BadCutoff(PointlineError):
    """Cutoff parameter c outside the valid range."""


class BadEps(PointlineError):
    """Collinearity fraction eps outside (0, 1/2)."""


class ClaimViolated(PointlineError):
    """An internally asserted closed form failed an exact cross-check."""


class NoSolution(PointlineError):
    """The fixed-point equation has no positive solution at this cutoff."""


class GenerationFailed(PointlineError):
    """A random generator exhausted its retry budget or the request is infeasible."""
