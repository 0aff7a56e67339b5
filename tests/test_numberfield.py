"""Quintic field arithmetic and the cyclic-Galois certificate."""

import random
from fractions import Fraction

import pytest

from dp5brauer.errors import DomainError, NotCyclicError
from dp5brauer.numberfield import (
    QuinticFieldSpec,
    apply_embedding,
    discriminant,
    evaluate_poly,
    galois_conjugates,
    real_cyclotomic_minpoly,
    zeta11_plus_field,
)

ZETA25_MINPOLY = (1, -20, 100, -125, 50, -5)

REAL_CYCLOTOMIC_MINPOLYS = {
    3: (1, 1),
    5: (1, 1, -1),
    7: (1, 1, -2, -1),
    11: (1, 1, -4, -3, 3, 1),
    13: (1, 1, -5, -4, 6, 3, -1),
    17: (1, 1, -7, -6, 15, 10, -10, -4, 1),
}


def lehmer_quintic(n):
    """E. Lehmer's simplest quintic, leading coefficient first; n = -1 is zeta11plus."""
    return (
        1,
        n * n,
        -(2 * n ** 3 + 6 * n * n + 10 * n + 10),
        n ** 4 + 5 * n ** 3 + 11 * n * n + 15 * n + 5,
        n ** 3 + 4 * n * n + 10 * n + 10,
        1,
    )


CYCLIC_QUINTICS = {"zeta25": ZETA25_MINPOLY}
CYCLIC_QUINTICS.update({f"lehmer{n}": lehmer_quintic(n) for n in range(-4, 6)})


@pytest.mark.parametrize("ell", sorted(REAL_CYCLOTOMIC_MINPOLYS))
def test_real_cyclotomic_minpoly(ell):
    assert tuple(real_cyclotomic_minpoly(ell)) == REAL_CYCLOTOMIC_MINPOLYS[ell]


@pytest.mark.parametrize("ell", [1, 2, 9, 15])
def test_real_cyclotomic_minpoly_needs_an_odd_prime(ell):
    with pytest.raises(DomainError):
        real_cyclotomic_minpoly(ell)


@pytest.mark.parametrize("n", range(-10, 11))
def test_discriminant_of_lehmer_quintic(n):
    # n = -1 is the zeta11plus polynomial, discriminant 11^4 = 121^2
    closed_form = (n ** 3 + 5 * n ** 2 + 10 * n + 7) ** 2 * (
        n ** 4 + 5 * n ** 3 + 15 * n ** 2 + 25 * n + 25
    ) ** 4
    assert discriminant(lehmer_quintic(n)) == closed_form


def test_discriminant_needs_a_monic_polynomial():
    with pytest.raises(ValueError):
        discriminant((2, 0, 1))


def test_spec_rejects_bad_polynomials():
    with pytest.raises(DomainError):
        QuinticFieldSpec((0, 1, 1, 1, 1, 1))
    with pytest.raises(DomainError):
        QuinticFieldSpec((2, 0, 0, 0, 0, -2))
    with pytest.raises(DomainError):
        QuinticFieldSpec((1, 0, 0, 0, -1, 0))  # rational root 0
    for reducible in (
        (1, 0, 2, 1, 1, 1),  # (s^2 + 1)(s^3 + s + 1)
        (1, -2, 0, 1, -1, -2),  # (s - 2)(s^4 + s + 1)
    ):
        with pytest.raises(DomainError, match="no prime below 500 certifies irreducibility"):
            QuinticFieldSpec(reducible)


def test_field_element_arithmetic():
    spec = zeta11_plus_field()
    alpha = spec.generator()
    # alpha satisfies its minimal polynomial
    assert evaluate_poly((1, 3, -3, -4, 1, 1), alpha) == 0
    inv = (alpha * alpha - 2).inverse()
    assert (alpha * alpha - 2) * inv == spec.rational(1)
    third = spec.rational(Fraction(1, 3))
    assert third * 3 == spec.rational(1)
    with pytest.raises(ZeroDivisionError):
        spec.rational(0).inverse()
    rng = random.Random(41)
    for field in (spec, QuinticFieldSpec(ZETA25_MINPOLY)):
        checked = 0
        while checked < 25:
            x = field.element(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(5)]
            )
            if x:
                assert x * x.inverse() == field.rational(1)
                checked += 1


def test_conjugates_of_the_cyclotomic_quintic():
    spec = zeta11_plus_field()
    assert spec.coefficients == (1, 1, -4, -3, 3, 1)
    conjugates = galois_conjugates(spec)
    assert len(conjugates) == 4
    alpha = spec.generator()
    assert alpha * alpha - 2 in conjugates
    asc = spec.ascending()
    for image in conjugates:
        assert evaluate_poly(asc, image) == 0


def test_conjugation_by_alpha_squared_minus_two_has_order_five():
    spec = zeta11_plus_field()
    alpha = spec.generator()
    sigma_alpha = alpha * alpha - 2
    element = alpha
    for _ in range(5):
        element = apply_embedding(element, sigma_alpha)
    assert element == alpha


@pytest.mark.parametrize("name", list(CYCLIC_QUINTICS))
def test_conjugates_are_four_distinct_roots_of_an_order_five_map(name):
    spec = QuinticFieldSpec(CYCLIC_QUINTICS[name])
    conjugates = galois_conjugates(spec)
    assert len(conjugates) == 4
    asc = spec.ascending()
    for image in conjugates:
        assert evaluate_poly(asc, image) == 0
    assert len(set(conjugates)) == 4
    alpha = spec.generator()
    assert alpha not in conjugates
    # sigma: alpha -> conjugates[0] walks the list, then returns to alpha
    element = alpha
    for expected in conjugates + (alpha,):
        element = apply_embedding(element, conjugates[0])
        assert element == expected


def test_non_cyclic_field_is_rejected():
    with pytest.raises(NotCyclicError):
        galois_conjugates(QuinticFieldSpec((1, 0, 0, 0, 0, -2)))


def test_embeddings_respect_arithmetic():
    spec = zeta11_plus_field()
    alpha = spec.generator()
    sigma_alpha = alpha * alpha - 2
    rng = random.Random(23)
    for _ in range(25):
        a = spec.element([Fraction(rng.randint(-4, 4)) for _ in range(5)])
        b = spec.element([Fraction(rng.randint(-4, 4)) for _ in range(5)])
        assert apply_embedding(a * b, sigma_alpha) == apply_embedding(
            a, sigma_alpha
        ) * apply_embedding(b, sigma_alpha)
        assert apply_embedding(a + b, sigma_alpha) == apply_embedding(
            a, sigma_alpha
        ) + apply_embedding(b, sigma_alpha)
