"""Error taxonomy shared by the whole package.

Three families matter to callers, and each carries the CLI exit code it
maps to: input that cannot be parsed, or a stream the CLI cannot write
its report to (2), mathematically meaningless requests (3), and case
dispatch that no parameter regime satisfies (4).
"""

from __future__ import annotations


class QuadmpsError(Exception):
    """Base class for every error raised deliberately by this package;
    each of the three families below sets its `exit_code`."""

    exit_code: int


class ParseError(QuadmpsError):
    """Malformed textual input (rationals, JSON payloads, CLI values), or
    an unwritable output stream."""

    exit_code = 2


class MathDomainError(QuadmpsError):
    """Request that is meaningless for the given mathematical data."""

    exit_code = 3


class RangeError(MathDomainError):
    """Coefficient data exhausted before the requested index."""


class InvalidSequenceError(MathDomainError):
    """Input polynomials are not a monic sequence with deg W_n = n."""


class RegularityError(MathDomainError):
    """A coefficient that must stay nonzero vanished."""


class DegenerateCaseError(MathDomainError):
    """Parameters sit on a hyperplane excluded by the requested regime."""


class NotNormalizableError(MathDomainError):
    """Secondary sequence has no constant degree offset, so no monic
    sequence can be extracted from it."""


class DispatchError(QuadmpsError):
    """Requested case does not match the supplied parameters."""

    exit_code = 4
