"""Exception hierarchy shared across the package.

Every error carries an ``exit_code`` so the command line front end can map
failure classes to distinct process statuses without a lookup table:

    1  generic tool failure
    2  family expression syntax error
    3  invalid parameter / invalid embedding / invalid surgery
    4  family shape not supported by the constructions
    5  verification failure (stored certificate disagrees with recomputation)
"""

from __future__ import annotations


class ToolError(Exception):
    exit_code = 1


class ExprSyntaxError(ToolError):
    """Input text could not be parsed.  ``offset`` is a character position
    within a family expression; parse failures of other text (say a JSON
    argument) carry no offset."""

    exit_code = 2

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class InvalidParameterError(ToolError):
    exit_code = 3


class EmbeddingError(ToolError):
    """Rotation system inconsistent with its graph."""

    exit_code = 3


class NotApplicableError(ToolError):
    """Requested quantity is undefined for the input (e.g. the quadrilateral
    lower bound on a non-bipartite graph)."""

    exit_code = 3


class SurgeryError(ToolError):
    exit_code = 3


class LocalProofError(SurgeryError):
    """A handle's local proof failed after its splice.  That is a fault,
    not a refused handle, and it leaves the rows half changed."""


class ConstructionError(ToolError):
    """A construction invariant failed mid-build.  Always a bug or a
    misuse severe enough that continuing would certify garbage."""

    exit_code = 3


class UnsupportedFamilyError(ToolError):
    exit_code = 4


class VerificationError(ToolError):
    exit_code = 5


class BudgetExceededError(ToolError):
    """Search space larger than the configured enumeration cap."""

    exit_code = 3
