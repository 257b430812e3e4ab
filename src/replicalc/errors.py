"""Exception taxonomy shared across the package.

Every error raised by the library derives from :class:`ReplicalcError` so
callers (including the CLI) can distinguish computation failures from plain
programming mistakes such as ``TypeError``.  :func:`require_unit_interval`
is the one check behind every "must lie in [0, 1]" message.
"""


class ReplicalcError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(ReplicalcError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateEvidenceError(ReplicalcError):
    """Evidence is identically zero, so no posterior can be formed."""


class IncompatibleGridsError(ReplicalcError):
    """Two curves that must share a grid were built on different grids."""


class ContradictoryEvidenceError(ReplicalcError):
    """A pointwise product of curves vanished everywhere."""


def require_unit_interval(**values: float) -> None:
    """Raise ``InvalidArgumentError("<name> must lie in [0, 1]")`` for the
    first keyword value, in the order given, outside [0, 1] or NaN."""
    for name, value in values.items():
        if not 0.0 <= value <= 1.0:  # written this way round so NaN fails too
            raise InvalidArgumentError(f"{name} must lie in [0, 1]")
