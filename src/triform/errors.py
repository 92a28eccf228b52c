"""The engine's error model: one root and the four kinds a caller tells apart.

TriformError means the engine refused: a malformed input, a singular matrix,
a zero divisor, a level past the cap.  A scenario that raises one ends as a
FAIL record carrying the message.  The subclasses exist only because some
caller acts on them differently; everything else is a plain TriformError.
"""


class TriformError(Exception):
    """The engine refused an input or an operation; the message says why."""


class ConfigError(TriformError):
    """The configuration cannot be run (the command line exits 2)."""


class PoleError(TriformError):
    """A geometric tail or specialization hit the excluded parameter locus."""


class TailError(TriformError):
    """A geometric tail did not continue at its derived ratio."""


class KernelUnsupportedError(TriformError):
    """The kernel evaluator does not cover this character data (a SKIPPED reason)."""
