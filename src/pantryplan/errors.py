"""Exception classes, one family per pipeline stage, and the number rules
every module checks its inputs by.

Each family carries the CLI's stable exit code as its exit_code, which its
subclasses inherit: ingest/config 2, distance 3, solver 4, evaluation 5.
This is the one place the codes are written, and the one place the rules
are: an integer is a numbers.Integral and a real number a numbers.Real, so
numpy numbers pass, and a bool is neither. What passes leaves as a Python
number (as_python), so a numpy number hashes, prints and writes as the
Python number of the same value does. An integer past float64's range, where
float() overflows, reads as inf of its sign (past_float_as_inf): not finite.
"""

import math
import operator
import sys
from numbers import Integral, Real


def is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def past_float_as_inf(value):
    """value, save that an integer past float64's range is inf of its sign.
    Only an integer is compared with the bound, exactly, as a Python int."""
    if is_int(value) and abs(number := operator.index(value)) > sys.float_info.max:
        return math.inf if number > 0 else -math.inf
    return value


def as_python(value):
    """An integer as an int and any other real number as a float, a Python
    int or float being returned as it is; any other value unchanged."""
    if is_int(value):
        return operator.index(value)
    return float(value) if is_real(value) else value


def require_int(name: str, value, error) -> int:
    """value as an int; the caller's error family when it is not an integer."""
    if not is_int(value):
        raise error(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def require_real(name: str, value, error):
    """value as a Python number (as_python, after past_float_as_inf); the
    caller's error family when it is not a real number."""
    if not is_real(value):
        raise error(f"{name} must be a real number, got {value!r}")
    return as_python(past_float_as_inf(value))


def require_fields(owner, rule, error, *names) -> None:
    """Check each named field of the frozen dataclass owner by rule
    (require_int or require_real), and store what the rule returns."""
    for name in names:
        object.__setattr__(owner, name, rule(name, getattr(owner, name), error))


class PantryPlanError(Exception):
    """Base class for all package errors; only its families are raised."""


class ConfigError(PantryPlanError):
    """Bad run configuration or unusable input file."""
    exit_code = 2


class IngestError(PantryPlanError):
    """Household loading, filtering, sampling or weighting failed."""
    exit_code = 2


class DistanceError(PantryPlanError):
    """Distance provider or matrix cache failure."""
    exit_code = 3


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
    exit_code = 4


class ConvergenceError(SolveError):
    """A caller's max_passes cap ran out before the swap walk converged. The
    walk needs no cap to end: every swap it keeps lowers the objective by
    more than epsilon.

    Carries the best clustering found so far in .best.
    """

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


class EvaluateError(PantryPlanError):
    """Evaluation inputs are inconsistent or unusable."""
    exit_code = 5
