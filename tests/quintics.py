"""Quintic polynomials and models shared by the test modules."""

from functools import cache

from dp5brauer.model import build_model
from dp5brauer.numberfield import QuinticFieldSpec


def lehmer_quintic(n):
    """E. Lehmer's simplest quintic for the integer n, leading coefficient
    first; cyclic for every n, and n = -1 gives the zeta11plus polynomial."""
    return (
        1,
        n * n,
        -(2 * n ** 3 + 6 * n * n + 10 * n + 10),
        n ** 4 + 5 * n ** 3 + 11 * n * n + 15 * n + 5,
        n ** 3 + 4 * n * n + 10 * n + 10,
        1,
    )


@cache
def lehmer_model(n):
    """The model built from the reversal of ``lehmer_quintic(n)``, once per
    test session."""
    return build_model(QuinticFieldSpec(lehmer_quintic(n)[::-1]))
