"""Quintic field arithmetic and the cyclic-Galois certificate."""

import hashlib
import random
import time
from fractions import Fraction
from math import gcd, isqrt

import pytest

from dp5brauer import model, numberfield, verify
from dp5brauer.errors import DomainError, NotCyclicError
from dp5brauer.numberfield import (
    QuinticFieldSpec,
    _refute_by_frobenius,
    _verify_conjugates,
    apply_embedding,
    discriminant,
    evaluate_poly,
    galois_conjugates,
    _prime_factors,
    minpoly_splitting_mod_p,
    ramified_primes,
    real_cyclotomic_minpoly,
    zeta11_plus_field,
)

from quintics import lehmer_quintic

ZETA25_MINPOLY = (1, -20, 100, -125, 50, -5)

REAL_CYCLOTOMIC_MINPOLYS = {
    3: (1, 1),
    5: (1, 1, -1),
    7: (1, 1, -2, -1),
    11: (1, 1, -4, -3, 3, 1),
    13: (1, 1, -5, -4, 6, 3, -1),
    17: (1, 1, -7, -6, 15, 10, -10, -4, 1),
}


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
    third = spec.rational(Fraction(1, 3))
    assert third * 3 == spec.rational(1)


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


# the ramified primes of twelve fields, each with its shift c, f(x + c)
# Eisenstein at p: the zeta11plus and zeta25 polynomials, then Lehmer's
# quintics n = -4..5, whose conductor is n^4 + 5n^3 + 15n^2 + 25n + 25
RAMIFIED_PRIMES = {
    "zeta11plus": ((11, 2),),
    "zeta25": ((5, 0),),
    "lehmer-4": ((101, 17),),
    "lehmer-3": ((31, 23),),
    "lehmer-2": ((11, 8),),
    "lehmer-1": ((11, 2),),
    "lehmer0": ((5, 4),),
    "lehmer1": ((71, 14),),
    "lehmer2": ((191, 152),),
    "lehmer3": ((11, 7), (41, 31)),
    "lehmer4": ((941, 185),),
    "lehmer5": ((5, 4), (71, 66)),
}


def _shifted(f, c):
    """Ascending coefficients of f(x + c), f ascending, by Horner's rule."""
    out = []
    for a in reversed(f):
        out = [x + c * y for x, y in zip([0] + out, out + [0])]
        out[0] += a
    return out


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


@pytest.mark.parametrize("name", list(RAMIFIED_PRIMES))
def test_ramified_primes_are_pinned(name):
    coefficients = {"zeta11plus": zeta11_plus_field().coefficients, **CYCLIC_QUINTICS}[name]
    spec = QuinticFieldSpec(coefficients)
    found = ramified_primes(spec)
    assert found == RAMIFIED_PRIMES[name]
    assert ramified_primes(spec) is found
    for p, c in found:
        g = _shifted(spec.ascending(), c)
        assert g[5] == 1 and all(a % p == 0 for a in g[:5]) and g[0] % (p * p)
    if name.startswith("lehmer"):
        n = int(name[len("lehmer"):])
        conductor = n ** 4 + 5 * n ** 3 + 15 * n ** 2 + 25 * n + 25
        primes = [p for p in range(2, conductor + 1) if conductor % p == 0 and _is_prime(p)]
        assert [p for p, _ in found] == primes


def test_a_candidate_that_is_not_eisenstein_is_refused():
    # x^5 + 121 x + 121 = x^5 mod 11, but 11^2 divides f(0); the spec is
    # accepted (7 is inert), and whether 11 ramifies is left undecided
    spec = QuinticFieldSpec((1, 0, 0, 0, 121, 121))
    assert spec.inert_prime == 7
    with pytest.raises(DomainError, match=r"^f = \(x - 0\)\^5 mod 11, but 11\^2 divides f\(0\)"):
        ramified_primes(spec)


def test_trial_division_refuses_a_cofactor_it_cannot_certify():
    # a cofactor below TRIAL_DIVISION_BOUND^2 = 2^32 is certified prime, and
    # 2^61 - 1, prime but above it, is refused
    assert _prime_factors(-2 * 3 ** 4 * 65537) == [2, 3, 65537]
    assert _prime_factors(2 ** 31 - 1) == [2 ** 31 - 1]
    assert _prime_factors(1) == []
    with pytest.raises(DomainError, match="^the cofactor 2305843009213693951 has no prime factor below"):
        _prime_factors(3 * (2 ** 61 - 1))


def test_a_spec_is_lifted_once(monkeypatch):
    # the certified conjugates are kept on the spec, so a cold claim table
    # lifts once per distinct spec: the zeta11plus field (shared by the
    # alpha^2 - 2 claim and the construct build), the zeta11plus Eisenstein
    # generator and the zeta25 polynomial
    lifted, lift = [], numberfield._newton_lift

    def counting(root, m_asc, p, k):
        lifted.append(tuple(m_asc))
        return lift(root, m_asc, p, k)

    monkeypatch.setattr(numberfield, "_newton_lift", counting)
    model._built.cache_clear()
    assert verify.run_claims()["counts"] == {"ok": 32, "flagged": 2, "fail": 0}
    assert len(lifted) == len(set(lifted)) == 3
    spec = zeta11_plus_field()
    assert galois_conjugates(spec) is galois_conjugates(spec)
    assert len(lifted) == 4


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
    # every Frobenius of a cyclic field is the identity or a 5-cycle
    _refute_by_frobenius(spec.ascending(), discriminant(spec.coefficients))
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


@pytest.mark.parametrize("name", list(CYCLIC_QUINTICS))
def test_verify_conjugates_refuses_each_broken_premise(name):
    # each bad list breaks exactly one premise, so each check is needed
    spec = QuinticFieldSpec(CYCLIC_QUINTICS[name])
    s1, s2, s3, s4 = galois_conjugates(spec)
    alpha = spec.generator()
    assert _verify_conjugates(spec, [s1, s2, s3, s4]) == (s1, s2, s3, s4)
    # alpha + 1 is no root of m, yet alpha - 1 maps back to alpha under it
    assert evaluate_poly(spec.ascending(), alpha + 1)
    assert apply_embedding(alpha - 1, alpha + 1) == alpha
    assert _verify_conjugates(spec, [alpha + 1, s2, s3, alpha - 1]) is None
    # roots whose last maps back to alpha, but one is listed twice
    assert _verify_conjugates(spec, [s1, s2, s2, s4]) is None
    # distinct roots, but the walk from the last does not return to alpha
    assert apply_embedding(s3, s1) == s4 != alpha
    assert _verify_conjugates(spec, [s1, s2, s4, s3]) is None


def test_non_cyclic_field_is_rejected():
    with pytest.raises(NotCyclicError):
        galois_conjugates(QuinticFieldSpec((1, 0, 0, 0, 0, -2)))


# Galois groups D_5 and A_5: square discriminants, so only a Frobenius of
# the wrong cycle type tells them from a cyclic field
SQUARE_DISCRIMINANT_NON_CYCLIC = {"D5": (1, 0, 0, 0, -5, 12), "A5": (1, 0, 0, 0, 20, 16)}


@pytest.mark.parametrize("name", list(SQUARE_DISCRIMINANT_NON_CYCLIC))
def test_square_discriminant_non_cyclic_fields_are_refuted(name):
    minpoly = SQUARE_DISCRIMINANT_NON_CYCLIC[name]
    disc = discriminant(minpoly)
    assert isqrt(disc) ** 2 == disc
    spec = QuinticFieldSpec(minpoly)
    start = time.perf_counter()
    with pytest.raises(NotCyclicError, match="Frobenius at p = "):
        galois_conjugates(spec)
    assert time.perf_counter() - start < 1


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


def _oracle_mul(spec, x, y):
    """The former tuple-of-Fractions product: schoolbook, then reduce top-down
    by the monic minimal polynomial."""
    prod = [Fraction(0)] * 9
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    m_asc = spec.ascending()
    for top in range(8, 4, -1):
        lead, prod[top] = prod[top], Fraction(0)
        for i in range(5):
            prod[top - 5 + i] -= lead * m_asc[i]
    return tuple(prod[:5])


ORACLE_FIELDS = {
    "zeta11plus": (1, 1, -4, -3, 3, 1),
    "zeta25": ZETA25_MINPOLY,
    "lehmer5": lehmer_quintic(5),
}


def _assert_lowest_terms(x):
    assert len(x.num) == 5 and all(isinstance(c, int) for c in x.num)
    assert isinstance(x.den, int) and x.den > 0
    assert gcd(x.den, *x.num) == 1


@pytest.mark.parametrize("name", list(ORACLE_FIELDS))
def test_integer_arithmetic_matches_the_fraction_oracle(name):
    spec = QuinticFieldSpec(ORACLE_FIELDS[name])
    rng = random.Random(2026)
    pool = [
        [Fraction(rng.randint(-60, 60), rng.randint(1, 30)) for _ in range(5)]
        for _ in range(24)
    ]
    # the conjugates bring their own denominators (307 for lehmer5)
    pool += [list(c.coords) for c in galois_conjugates(spec)]
    pool.append([Fraction(0)] * 5)
    for x in pool:
        for y in rng.sample(pool, 6):
            a, b = spec.element(x), spec.element(y)
            for got, want in (
                (a + b, tuple(u + v for u, v in zip(x, y))),
                (a - b, tuple(u - v for u, v in zip(x, y))),
                (a * b, _oracle_mul(spec, x, y)),
            ):
                _assert_lowest_terms(got)
                assert got.coords == want
                oracle = spec.element(want)
                assert got == oracle and hash(got) == hash(oracle)
            assert (a == b) == (tuple(x) == tuple(y))


def test_equal_values_have_one_form():
    spec = zeta11_plus_field()
    half = spec.element([Fraction(2, 4), 0, 0, 0, 0])
    assert half == spec.rational(Fraction(1, 2))
    assert hash(half) == hash(spec.rational(Fraction(1, 2)))
    assert (half.num, half.den) == ((1, 0, 0, 0, 0), 2)
    zero = spec.element([Fraction(3, 7)] * 5) - spec.element([Fraction(6, 14)] * 5)
    assert (zero.num, zero.den) == ((0, 0, 0, 0, 0), 1)
    assert not zero and zero == 0 and hash(zero) == hash(spec.rational(0))
    assert half.is_rational() and half.rational_value() == Fraction(1, 2)
    assert half * 2 == 1 and (half * 2).rational_value() == 1


@pytest.mark.parametrize("name", list(ORACLE_FIELDS))
def test_horner_equals_the_sum_of_the_terms(name):
    # sum c_k x^k by element arithmetic, each power a product of elements
    spec = QuinticFieldSpec(ORACLE_FIELDS[name])
    rng = random.Random(2027)
    points = [
        spec.element([Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(5)])
        for _ in range(10)
    ]
    points += [spec.generator(), spec.rational(0), *galois_conjugates(spec)]
    for x in points:
        for _ in range(4):
            coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(rng.randint(0, 7))]
            value = evaluate_poly(coeffs, x)
            _assert_lowest_terms(value)
            total, power = spec.rational(0), spec.rational(1)
            for c in coeffs:
                total, power = total + power * c, power * x
            assert value == total


@pytest.mark.parametrize("name", list(ORACLE_FIELDS))
def test_embedding_keeps_the_denominator(name):
    # sigma(x) = sum x_k sigma(alpha)^k by element arithmetic, on elements
    # whose denominators exceed 1
    spec = QuinticFieldSpec(ORACLE_FIELDS[name])
    rng = random.Random(2028)
    sigma_alpha = galois_conjugates(spec)[0]
    for _ in range(10):
        x = spec.element([Fraction(rng.randint(-40, 40), rng.randint(2, 12)) for _ in range(5)])
        assert x.den > 1
        total, power = spec.rational(0), spec.rational(1)
        for c in x.coords:
            total, power = total + power * c, power * sigma_alpha
        image = apply_embedding(x, sigma_alpha)
        _assert_lowest_terms(image)
        assert image == total


# both fixtures and Lehmer's quintic n = -10..10 in both coefficient orders
# (leading first, as the benchmark builds it, and reversed, as the fiber
# tests do), in this order
SPLITTING_QUINTICS = [(1, 1, -4, -3, 3, 1), ZETA25_MINPOLY] + [
    c for n in range(-10, 11) for c in (lehmer_quintic(n), lehmer_quintic(n)[::-1])
]
SPLITTING_PRIMES = [p for p in range(2, 98) if all(p % d for d in range(2, p))]
# SHA-256 of the repr of the 44 x 25 labels of minpoly_splitting_mod_p on
# SPLITTING_QUINTICS at SPLITTING_PRIMES, and of the inert prime and the
# conjugates (num, den) of each quintic, recorded from the four separate
# computations of s^p that ``_frobenius`` replaced
SPLITTING_SHA256 = "03838af3d8a30cf98d9611c6c88d05642bb8ef7b516fd94729e67ef6dd53c03e"
CONJUGATES_SHA256 = "5468fd3d3d38282fcada3b5598383e9f02bee0347b4cab0d7001d1e6a3452a6f"


def _splitting_labels():
    specs = [QuinticFieldSpec(c) for c in SPLITTING_QUINTICS]
    return [[minpoly_splitting_mod_p(spec, p) for p in SPLITTING_PRIMES] for spec in specs]


def test_splitting_labels_are_pinned():
    labels = _splitting_labels()
    assert sum(map(len, labels)) == 1100
    assert hashlib.sha256(repr(labels).encode()).hexdigest() == SPLITTING_SHA256


def test_inert_primes_and_conjugates_are_pinned():
    specs = [QuinticFieldSpec(c) for c in SPLITTING_QUINTICS]
    pinned = [(s.inert_prime, [(x.num, x.den) for x in galois_conjugates(s)]) for s in specs]
    assert hashlib.sha256(repr(pinned).encode()).hexdigest() == CONJUGATES_SHA256


def test_split_and_inert_labels_count_the_roots_mod_p():
    # the roots r in Z/p of m, by Horner's rule on integers: five at a
    # split label and none at an inert one; a cyclic quintic never splits
    # partially
    for coeffs, labels in zip(SPLITTING_QUINTICS, _splitting_labels()):
        for p, label in zip(SPLITTING_PRIMES, labels):
            roots = 0
            for r in range(p):
                value = 0
                for c in coeffs:
                    value = (value * r + c) % p
                roots += value == 0
            assert label != "separable-partial", (coeffs, p)
            if label == "separable-split":
                assert roots == 5, (coeffs, p)
            elif label == "separable-irreducible":
                assert roots == 0, (coeffs, p)


def test_a_quadratic_times_a_cubic_is_partial_not_irreducible():
    # x^5 - x - 1 (Galois group S_5) has no root mod 2, 7 or 37, where it is
    # a quadratic times a cubic: only s^(p^2) tells it from an irreducible
    spec = QuinticFieldSpec((1, 0, 0, 0, -1, -1))
    for p in (2, 7, 37):
        assert all((r ** 5 - r - 1) % p for r in range(p))
        assert minpoly_splitting_mod_p(spec, p) == "separable-partial", p
