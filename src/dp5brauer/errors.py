"""Exception hierarchy.

DomainError covers every failure of a mathematical precondition (bad input,
unattainable construction, inconsistent data).  The command line maps it to
exit code 3; usage errors stay with argparse and exit code 2.  Its two
subclasses ChartError and FiberInconsistencyError mean that the package's
own results contradict each other, not that the input was bad; they map to
exit code 4.
"""


class DomainError(ValueError):
    """A mathematical precondition was violated."""


class NotCyclicError(DomainError):
    """The quintic field could not be certified cyclic over Q."""


class DegenerateOrbitError(DomainError):
    """The conjugate point orbit does not span the expected linear systems."""


class RationalityFailureError(DomainError):
    """A Galois-stable line product (pentagon or pentagram) is not rational."""


class EnumerationBoundError(DomainError):
    """Requested prime exceeds the configured enumeration bound."""


class ChartError(DomainError):
    """A chart identity or bijectivity check failed."""


class FiberInconsistencyError(DomainError):
    """Fiber evidence contradicts the splitting-based prediction, or a census
    self-check fails."""


class UnknownModelError(DomainError):
    """Unrecognized fixture name or unusable model input."""
