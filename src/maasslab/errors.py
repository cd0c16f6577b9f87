"""Exception types shared across the package."""


class MaasslabError(Exception):
    """Base class for all package errors."""


class InvalidInputError(MaasslabError, ValueError):
    """An argument violates a documented precondition."""


class UnsupportedRangeError(MaasslabError, ValueError):
    """A closed-form evaluation was requested outside its supported range."""


class SignChangeNotFoundError(MaasslabError, RuntimeError):
    """No sign change was found below the configured cap."""


class NotConvergedError(MaasslabError, RuntimeError):
    """An iterative refinement stopped before meeting its tolerance."""


class ResourceLimitError(MaasslabError, RuntimeError):
    """A requested computation exceeds the configured memory/size budget."""


class DataGapError(MaasslabError, RuntimeError):
    """Coefficient data is missing at one or more required primes."""

    def __init__(self, message: str, gaps=None):
        super().__init__(message)
        self.gaps = list(gaps) if gaps is not None else []


class PreconditionError(MaasslabError, RuntimeError):
    """A sieve positivity precondition failed; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class CrossCheckError(MaasslabError, RuntimeError):
    """A result contradicts its own proof: an overflow or a broken lemma."""


class CacheParseError(MaasslabError, RuntimeError):
    """A cached record does not match the expected schema."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class RemoteUnavailableError(MaasslabError, RuntimeError):
    """Remote endpoint unreachable and no cached record exists."""
