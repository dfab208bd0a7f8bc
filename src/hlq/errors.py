"""Error taxonomy shared by the library and the CLI.

Every failure mode the public API can signal has a dedicated class with a
stable ``kind`` string; the CLI prints that string on stderr and exits 1.
"""


class HlqError(Exception):
    """Base class for all library errors."""

    kind = "error"


class DomainError(HlqError, ValueError):
    """Argument outside the documented domain of an operation."""

    kind = "domain_error"


class PrecisionUnreachable(HlqError):
    """No available method certifies the requested error at this point."""

    kind = "precision_unreachable"


class CheckpointConflict(HlqError):
    """Checkpoint was produced under an incompatible configuration."""

    kind = "checkpoint_conflict"


class CheckpointIOError(HlqError):
    """Filesystem failure while reading or writing a checkpoint or output."""

    kind = "io_error"


class FormatError(HlqError):
    """Checkpoint or input file violates the documented format."""

    kind = "format_error"


class NoConvergence(HlqError):
    """Iterative solver exhausted its iteration budget."""

    kind = "no_convergence"


class InsufficientSpan(HlqError):
    """Supplied records do not cover the span required by a statistic."""

    kind = "insufficient_span"
