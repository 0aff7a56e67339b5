"""Quintic polynomials, models and point checks shared by the test modules."""

from fractions import Fraction
from functools import cache

import numpy as np

from dp5brauer.fibers import _polar_mod_p
from dp5brauer.model import _quadric_values, build_model, double_vanishing_matrix
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


def evaluate_quadrics(m, point):
    """The five quadric values of model m at an integral point."""
    return _quadric_values(m.quadrics, point)


def check_point(m, point):
    """True when the point lies on every quadric of model m."""
    return not any(evaluate_quadrics(m, point))


def double_vanishing_holds(system):
    """Every basis row of a ``QuinticSystem`` lies in the kernel of
    ``double_vanishing_matrix``."""
    product = double_vanishing_matrix(system.spec) @ system.basis.transpose()
    return not any(any(row) for row in product.entries)


def jacobian_matrix_mod_p(m, p, point):
    """5x6 matrix of quadric partials of model m at a point, entries mod p."""
    x = np.array([int(c) % p for c in point], dtype=np.int64)
    return (_polar_mod_p(m, p) @ x % p).tolist()


def is_rational(element):
    """True when a ``NumberFieldElement`` lies in Q."""
    return not any(element.num[1:])


def rational_value(element):
    """A rational ``NumberFieldElement`` as a Fraction."""
    assert is_rational(element)
    return Fraction(element.num[0], element.den)
