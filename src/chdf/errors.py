"""Exception hierarchy shared across the solver modules."""


class ChdfError(Exception):
    """Base class for all solver errors."""


class MeanNotZero(ChdfError):
    """Raised when an operator requiring a zero-mean field receives one that isn't."""


class OutOfDomain(ChdfError):
    """Raised when a singular potential is evaluated outside its open domain."""


class StepTooLarge(ChdfError):
    """Raised when the time step would push a prescribed mean out of its interval."""


class NonConvergence(ChdfError):
    """Raised when an iterative solve exhausts its iteration budget."""


class NewtonDivergence(NonConvergence):
    """Raised when a Newton iteration fails to reduce its residual."""


class BoundViolation(ChdfError):
    """Raised when a field reaches or leaves its bounds, or a step breaks a ledger law."""


class PicardStall(NonConvergence):
    """Raised when the velocity/phase coupling loop stops making progress."""


class ValidationError(ChdfError):
    """Raised when a configuration or parameter constraint is violated."""


class ParseError(ChdfError):
    """Raised on malformed configuration input."""


class UnknownPreset(ChdfError):
    """Raised when an initial-condition preset name is not recognized."""


class SnapshotFormatError(ChdfError):
    """Raised when a snapshot file fails to parse or its checksum mismatches."""
