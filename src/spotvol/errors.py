"""Exception types shared across the spotvol package.

Two families matter to callers: InputError for bad source data or
configuration (CLI exit code 2) and AnalysisError for numerical or
statistical failures (CLI exit code 3).
"""

from __future__ import annotations

import copyreg


class SpotvolError(Exception):
    """Base class for all spotvol errors.

    Pipeline stages may attach a ``stage`` attribute before re-raising so
    callers can tell where in the chain a failure happened.
    """

    stage: str | None = None

    def __reduce__(self):
        # unpickle from the message and attributes without calling __init__,
        # whose signature differs between subclasses
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InputError(SpotvolError):
    """Malformed or inconsistent source data / configuration."""


class AnalysisError(SpotvolError):
    """A computation could not be carried out on otherwise valid input."""


# --- ingest ---------------------------------------------------------------

class MalformedRow(InputError):
    def __init__(self, line_number: int, reason: str):
        self.line_number = line_number
        self.reason = reason
        super().__init__(f"line {line_number}: {reason}")


class DuplicateTimestamp(InputError):
    pass


class EmptyInput(InputError):
    pass


class GapTooLong(InputError):
    def __init__(self, start: str, length: int):
        self.start = start
        self.length = length
        super().__init__(f"gap of {length} hours starting {start} exceeds the fill limit")


class WrongYearSpan(InputError):
    pass


# --- synth ----------------------------------------------------------------

class InvalidSpec(InputError):
    pass


# --- lowrank --------------------------------------------------------------

class NonFiniteInput(AnalysisError):
    def __init__(self, cells: list[tuple[int, int]]):
        self.cells = cells
        shown = ", ".join(f"({i},{j})" for i, j in cells[:5])
        more = "" if len(cells) <= 5 else f" and {len(cells) - 5} more"
        super().__init__(f"non-finite cells at {shown}{more}")


class RankOutOfRange(AnalysisError):
    pass


class ShapeMismatch(AnalysisError):
    pass


# --- residual statistics --------------------------------------------------

class TooFewResiduals(AnalysisError):
    pass


class TooFewTailPoints(AnalysisError):
    pass


class NonPositiveMu(AnalysisError):
    pass


# --- seasonality ----------------------------------------------------------

class EmptySeries(AnalysisError):
    pass


class TooFewPermutations(AnalysisError):
    pass


# --- trend ----------------------------------------------------------------

class DegenerateDesign(AnalysisError):
    pass
