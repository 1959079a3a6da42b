"""Domain error taxonomy.

Every module raises subclasses of :class:`DomainError`; the CLI maps them
to exit status 1 with a machine-readable JSON payload on stderr.

:class:`InternalError` is deliberately not a :class:`DomainError`: it
reports a broken internal invariant (a bug in this package, not bad
input), such as a phase-1 simplex that does not end optimal, and the CLI
does not turn it into a domain answer.  The CLI exits with status 3 and
writes ``{"error": {"type": "InternalError", "message": ...},
"version": ...}`` to stderr instead.
"""


class DomainError(Exception):
    """Base class for all domain-level failures."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class NotAPave(DomainError):
    pass


class EmptyInterior(DomainError):
    pass


class NotAPaving(DomainError):
    pass


class NotAdmissible(DomainError):
    pass


class TooLarge(DomainError):
    pass


class WrongDimension(DomainError):
    pass


class Singular(DomainError):
    pass


class ZeroLambda(DomainError):
    pass


class ZeroMu(DomainError):
    pass


class InvalidData(DomainError):
    pass


class NotOnStratum(DomainError):
    pass


class NotAChain(DomainError):
    pass


class NoDominantChain(DomainError):
    pass


class NotConvexEnough(DomainError):
    pass


class NonInvertibleRoots(DomainError):
    pass


class NonIntegralExponent(DomainError):
    pass


class RootFindingFailed(DomainError):
    pass


class InternalError(Exception):
    """An internal invariant failed; raised instead of ``assert`` so the
    check also runs under ``python -O``."""
