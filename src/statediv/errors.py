"""Exception hierarchy shared by all statediv modules."""


class StateDivError(Exception):
    """Base class for all statediv errors."""


class ValidationError(StateDivError):
    """A matrix or state failed a structural check (hermiticity, PSD, trace)."""


class DimensionMismatchError(StateDivError):
    """Operands have incompatible dimensions."""


class DomainError(StateDivError):
    """A scalar function was evaluated outside its domain."""


class ParameterError(StateDivError):
    """An operation was called with an out-of-range parameter."""


class RangeError(StateDivError):
    """A value to invert lies outside the admissible range of the map."""


class NotAPreserverError(StateDivError):
    """Probe images are inconsistent with any transition-probability preserver."""


class OracleError(StateDivError):
    """A preserver oracle returned something that is not a valid state."""


class FileFormatError(StateDivError):
    """A state/operator/probe file could not be parsed."""
