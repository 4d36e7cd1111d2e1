"""Errors shared across the package."""


class ModularCaseUnsupported(ValueError):
    """The characteristic divides the rotation group order.

    Homology then fails to be semisimple and the submodule lattice is not
    classified by this pipeline.
    """


class EvenPrimeUnsupported(ModularCaseUnsupported):
    """p = 2 always divides the rotation group order."""


class VerificationError(AssertionError):
    """An internal consistency check failed.

    Raised explicitly, so the check survives ``python -O``; it subclasses
    AssertionError so callers that catch failed assertions catch it too.
    """


def verify(condition, message: str) -> None:
    """Raise VerificationError(message) unless condition holds."""
    if not condition:
        raise VerificationError(message)
