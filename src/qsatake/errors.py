"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the documented domain of an operation."""


class NoSolutionError(ValueError):
    """A linear system is inconsistent."""


class NotACharacterError(ValueError):
    """A multiplicity datum is not the character of any actual object."""


class VerificationError(RuntimeError):
    """A structural fact that the engine relies on failed to verify."""


class InternalInconsistencyError(RuntimeError):
    """A computation contradicts an invariant the implementation guarantees."""
