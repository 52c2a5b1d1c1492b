"""Exception classes, one family per pipeline stage.

The CLI maps these to stable exit codes: ingest/config 2, distance 3,
solver 4, evaluation 5.
"""


class PantryPlanError(Exception):
    """Base class for all package errors."""


class ConfigError(PantryPlanError):
    """Bad run configuration or unusable input file."""


class IngestError(PantryPlanError):
    """Household loading, filtering, sampling or weighting failed."""


class DistanceError(PantryPlanError):
    """Distance provider or matrix cache failure."""


class UnreachablePairsError(DistanceError):
    """The routing service reported null distances for some pairs."""

    def __init__(self, pairs):
        self.pairs = sorted(pairs)
        shown = ", ".join(f"({r}, {c})" for r, c in self.pairs[:20])
        more = "" if len(self.pairs) <= 20 else f" and {len(self.pairs) - 20} more"
        super().__init__(f"unreachable pairs (source, destination): {shown}{more}")


class MatrixFormatError(DistanceError):
    """Matrix cache file is corrupt, truncated or not a DMAT1 file."""


class StaleMatrixError(DistanceError):
    """Matrix cache file is readable but not over the caller's points or provider."""


class SolveError(PantryPlanError):
    """Solver or allocation failure."""


class ConvergenceError(SolveError):
    """max_passes was exhausted before convergence.

    Carries the best clustering found so far in .best.
    """

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


class EvaluateError(PantryPlanError):
    """Evaluation inputs are inconsistent or unusable."""
