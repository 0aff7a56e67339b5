"""Cyclic quintic number fields given by an explicit monic minimal polynomial.

Elements are stored on the power basis 1, a, a^2, a^3, a^4 as five integer
numerators over one positive common denominator, in lowest terms
(gcd(den, *num) == 1), so element arithmetic is integer arithmetic.
Fractions enter only where a caller hands rationals in (the constructor,
so ``spec.element`` and ``spec.rational``, a rational operand through
``_coerce``, and ``evaluate_poly``'s coefficients) and leave only where a
caller asks for them (``coords``, ``rational_value``).  Between the two,
the conjugate lift, products, embeddings and Horner's rule carry integer
numerators over one denominator, and no path divides in the field.

Conjugates of the generator are certified, not assumed: they are found by
Frobenius lifting at an inert prime, reconstructed over Q, and then verified
exactly, so a wrong input polynomial cannot produce a silently wrong Galois
action.  A non-cyclic field whose discriminant is a square is refuted by a
Frobenius whose cycle type C_5 does not contain.

All polynomial division is one routine, ``_poly_divmod``: division by a
monic polynomial over Z or Z/m.  Every divisor here is monic or made so
(the gcd mod p scales each remainder).  Inverses in F_{p^5} at the
inert prime p are taken by Fermat, d^(p^5 - 2), and the discriminant of a
monic f is the norm (-1)^(n(n-1)/2) N(f'(a)), a determinant.

How the minimal polynomial m splits mod p is one routine, ``_frobenius``:
it forms the Frobenius image F = s^p in (Z/p)[s]/(m) once, reads "split"
as F = s, and forms s^(p^2) as F(F), since x -> x^p is a ring map fixing
Z/p.  It labels the fibers (``minpoly_splitting_mod_p``), finds the inert
prime, refutes a non-cyclic field, and its F seeds the Newton lift of the
conjugates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .errors import DomainError, NotCyclicError
from .intlinalg import IntMatrix, det

DEGREE = 5


# ---------------------------------------------------------------------------
# dense univariate helpers, coefficients ascending (c0 + c1 s + ...)


def _trim(poly):
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _poly_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _poly_sub(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _poly_divmod(a, f, modulus=None):
    """Quotient and remainder of a by the monic f, over Z, or over
    Z/modulus when a modulus is given (both results then reduced)."""
    rem = list(a)
    df = len(f) - 1
    quo = [0] * max(0, len(rem) - df)
    for shift in reversed(range(len(quo))):
        factor = rem.pop()
        if modulus:
            factor %= modulus
        quo[shift] = factor
        if factor:
            for i in range(df):
                rem[shift + i] -= factor * f[i]
    if modulus:
        rem = [c % modulus for c in rem]
    return _trim(quo), _trim(rem)


def _poly_deriv(poly):
    return _trim([i * c for i, c in enumerate(poly)][1:])


# ---------------------------------------------------------------------------
# arithmetic in (Z/m)[s]/(minpoly), used by the lifting certificate


def _fp_normalize(poly, modulus):
    return _trim([c % modulus for c in poly])

def _fpq_mul(a, b, minpoly, modulus):
    return _poly_divmod(_poly_mul(a, b), minpoly, modulus)[1]


def _fpq_pow(base, exponent, minpoly, modulus):
    result = [1]
    base = _fp_normalize(base, modulus)
    while exponent:
        if exponent & 1:
            result = _fpq_mul(result, base, minpoly, modulus)
        base = _fpq_mul(base, base, minpoly, modulus)
        exponent >>= 1
    return result


def _fp_poly_gcd(a, b, p):
    a = _fp_normalize(a, p)
    b = _fp_normalize(b, p)
    while b:
        inv = pow(b[-1], -1, p)
        b_monic = [c * inv % p for c in b]
        a, b = b_monic, _poly_divmod(a, b_monic, p)[1]
    return a


# ---------------------------------------------------------------------------


def _is_square(n):
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def discriminant(coeffs_desc):
    """Discriminant of a monic integer polynomial, leading coefficient first.

    For monic f of degree n with a root a, disc(f) = (-1)^(n(n-1)/2) N(f'(a)),
    and the norm is the determinant of multiplication by f'(a) on the power
    basis 1, a, .., a^(n-1): row j holds the coordinates of a^j f'(a).
    """
    poly = [int(c) for c in reversed(coeffs_desc)]
    if poly[-1] != 1:
        raise ValueError("discriminant needs a monic polynomial")
    n = len(poly) - 1
    rows = []
    for j in range(n):
        row = _poly_divmod([0] * j + _poly_deriv(poly), poly)[1]
        rows.append(row + [0] * (n - len(row)))
    return (-1) ** (n * (n - 1) // 2) * det(IntMatrix(rows))


class QuinticFieldSpec:
    """Monic irreducible degree-5 polynomial over Z, leading coefficient first.

    Irreducibility over Q is certified on construction by a prime p in
    [3, 500] modulo which the polynomial stays irreducible
    (``_find_inert_prime``).  A factorization m = g h over Z into monic
    factors of degrees d and 5 - d reduces mod p to one of the same degrees,
    as m is monic, so m irreducible mod p has no such factorization, and by
    Gauss's lemma m is irreducible over Q.  In a cyclic quintic field 4/5 of
    the primes are inert, so such a p is found at once; a polynomial without
    one below 500 is refused.  The prime found is kept as ``inert_prime``,
    where ``galois_conjugates`` lifts the conjugates; equality and hashing
    read ``coefficients`` only.
    """

    __slots__ = ("coefficients", "inert_prime")

    def __init__(self, coefficients):
        coeffs = tuple(int(c) for c in coefficients)
        if len(coeffs) != DEGREE + 1:
            raise DomainError("need 6 coefficients for a quintic")
        if coeffs[0] != 1:
            raise DomainError("minimal polynomial must be monic")
        object.__setattr__(self, "inert_prime", _find_inert_prime(list(reversed(coeffs))))
        object.__setattr__(self, "coefficients", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("QuinticFieldSpec is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, QuinticFieldSpec)
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self):
        return f"QuinticFieldSpec({list(self.coefficients)})"

    def ascending(self):
        return list(reversed(self.coefficients))

    def generator(self):
        return NumberFieldElement(self, (0, 1, 0, 0, 0))

    def element(self, coords):
        return NumberFieldElement(self, coords)

    def rational(self, value):
        return NumberFieldElement(self, (value, 0, 0, 0, 0))

    def generator_power_table(self, top):
        """Integer coordinate vectors of a^0 .. a^top on the power basis.

        Valid because the minimal polynomial is monic, so reduction never
        introduces denominators.
        """
        m_asc = self.ascending()
        rows = []
        for k in range(top + 1):
            row = _poly_divmod([0] * k + [1], m_asc)[1]
            rows.append(row + [0] * (DEGREE - len(row)))
        return rows


class NumberFieldElement:
    """Element of Q(a) on the power basis 1, a, .., a^4.

    Stored as five integer numerators ``num`` over one common denominator
    ``den``, kept canonical: den > 0 and gcd(den, *num) == 1, with zero as
    0/1.  Equal elements therefore have equal (num, den), so equality and
    hashing read the pair directly.  Sums cross-multiply the denominators,
    products multiply the numerators and reduce them by the monic minimal
    polynomial, which keeps them integral; each result is brought to lowest
    terms by one gcd.  Fractions enter here only as the constructor's
    coordinates and as a rational operand (``_coerce``), and leave only as
    ``coords``, the same element as five Fractions, and ``rational_value``.
    """

    __slots__ = ("spec", "num", "den")

    def __init__(self, spec, coords):
        if len(coords) != DEGREE:
            raise ValueError("need 5 coordinates")
        fractions = [Fraction(c) for c in coords]
        den = lcm(*(f.denominator for f in fractions))
        _set_reduced(self, spec, [f.numerator * (den // f.denominator) for f in fractions], den)

    def __setattr__(self, name, value):
        raise AttributeError("NumberFieldElement is immutable")

    @property
    def coords(self):
        return tuple(Fraction(c, self.den) for c in self.num)

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.spec != self.spec:
                raise ValueError("elements of different fields")
            return other
        value = Fraction(other)
        return _element(self.spec, [value.numerator, 0, 0, 0, 0], value.denominator)

    def __add__(self, other):
        other = self._coerce(other)
        da, db = self.den, other.den
        return _element(
            self.spec, [a * db + b * da for a, b in zip(self.num, other.num)], da * db
        )

    __radd__ = __add__

    def __neg__(self):
        return _element(self.spec, [-a for a in self.num], self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        rem = _poly_divmod(_poly_mul(self.num, other.num), self.spec.ascending())[1]
        return _element(self.spec, rem + [0] * (DEGREE - len(rem)), self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.spec, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def rational_value(self):
        if not self.is_rational():
            raise DomainError("element is not rational")
        return Fraction(self.num[0], self.den)

    def __repr__(self):
        return f"NumberFieldElement({[str(c) for c in self.coords]})"


def _set_reduced(element, spec, num, den):
    """Fill the slots of ``element`` with num/den in lowest terms (den > 0)."""
    g = gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    object.__setattr__(element, "spec", spec)
    object.__setattr__(element, "num", tuple(num))
    object.__setattr__(element, "den", den)


def _element(spec, num, den):
    element = object.__new__(NumberFieldElement)
    _set_reduced(element, spec, num, den)
    return element


def _horner(coeffs, x):
    """(T, s) with c0 + c1 x + ... = T / s for integers c_k: Horner's rule on
    integers.  With x = num / den the value after j coefficients is
    T / den^j; the next one multiplies T by num, reduced by the monic
    minimal polynomial, and adds c_k den^(j+1).  So no step divides."""
    total, scale = [], 1
    for c in reversed(coeffs):
        scale *= x.den
        total = _poly_divmod(_poly_mul(total, x.num), x.spec.ascending())[1]
        total = _poly_add(total, [c * scale])
    return total + [0] * (DEGREE - len(total)), scale


def evaluate_poly(coeffs_asc, element):
    """Evaluate c0 + c1 x + ... at a field element x, for rational c_k.

    The c_k are written a_k / D over their common denominator D, and
    ``_horner`` evaluates the integers a_k, so the value is T / (D s),
    brought to lowest terms by one gcd at the end.
    """
    coeffs = [Fraction(c) for c in coeffs_asc]
    common = lcm(*(c.denominator for c in coeffs))
    total, scale = _horner([c.numerator * (common // c.denominator) for c in coeffs], element)
    return _element(element.spec, total, common * scale)


def apply_embedding(element, generator_image):
    """Field map determined by where the generator goes: the element
    num / den goes to num(image) / den, the numerators evaluated at the
    image by ``_horner``."""
    total, scale = _horner(element.num, generator_image)
    return _element(element.spec, total, scale * element.den)


# ---------------------------------------------------------------------------
# minimal polynomial of 2 cos(2 pi / ell)


def real_cyclotomic_minpoly(ell):
    """Minimal polynomial of s = t + 1/t for a primitive ell-th root of unity t.

    With T_k(s) = t^k + t^-k (so T_0 = 2, T_1 = s, T_k = s T_(k-1) - T_(k-2)),
    the relation 1 + t + .. + t^(ell-1) = 0 for an odd prime ell reads
    P(s) = 1 + T_1 + .. + T_n = 0 with n = (ell-1)/2.  P is monic of degree
    n = [Q(s):Q], hence the minimal polynomial; the integer coefficients are
    derived rather than copied in.  Returns descending coefficients, length
    n + 1.
    """
    if ell < 3 or not _is_prime(ell):
        raise DomainError("need an odd prime")
    prev, cur = [2], [0, 1]
    total = _poly_add([1], cur)
    for _ in range((ell - 1) // 2 - 1):
        prev, cur = cur, _poly_sub(_poly_mul([0, 1], cur), prev)
        total = _poly_add(total, cur)
    return total[::-1]


def zeta11_plus_field():
    """Quintic field of the real subfield at conductor 11, derived on the spot."""
    return QuinticFieldSpec(real_cyclotomic_minpoly(11))


# ---------------------------------------------------------------------------
# how the minimal polynomial splits mod p


def _is_prime(n):
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def _frobenius(m_asc, p):
    """(label, F) for the monic quintic m mod the prime p, where F = s^p in
    (Z/p)[s]/(m) is the Frobenius image of s; the one computation of s^p.

    The label is "inseparable", with F None, when gcd(m, m') != 1 mod p.
    Else it is "separable-split" when F = s: then m divides s^p - s, the
    product of the p factors s - r, so m is five distinct linear factors.
    Else it is "separable-irreducible" when gcd(s^(p^2) - s, m) = 1 and
    "separable-partial" otherwise.  s^(p^2) - s is the product of the monic
    irreducibles of degree 1 and 2 mod p, and a reducible quintic has a
    factor of degree at most 2, so that gcd is 1 iff m is irreducible mod p.

    s^(p^2) is F(F), F evaluated at itself by Horner's rule in four
    products, not a second power: x -> x^p is a ring map of (Z/p)[s]/(m)
    that fixes Z/p, so s^(p^2) = F(s)^p = F(s^p) = F(F).
    """
    m = _fp_normalize(m_asc, p)
    if len(_fp_poly_gcd(m, _poly_deriv(m), p)) != 1:
        return "inseparable", None
    s = [0, 1]
    frob = _fpq_pow(s, p, m, p)
    if frob == s:
        return "separable-split", frob
    frob2 = []
    for c in reversed(frob):
        frob2 = _poly_add(_fpq_mul(frob2, frob, m, p), [c])
    if len(_fp_poly_gcd(m, _poly_sub(frob2, s), p)) == 1:
        return "separable-irreducible", frob
    return "separable-partial", frob


def minpoly_splitting_mod_p(spec, p):
    """"separable-irreducible", "separable-split", "separable-partial", or
    "inseparable" for the quintic mod the prime p, by ``_frobenius``.  Any
    other p is refused before the reduction: Z/p is then no field, and
    ``_fpq_pow`` would never end on a negative p."""
    if not _is_prime(p):
        raise DomainError(f"{p} is not prime")
    m_asc = spec.ascending()
    if len(_fp_normalize(m_asc, p)) != DEGREE + 1:
        raise DomainError("leading coefficient vanished; not a valid reduction")
    return _frobenius(m_asc, p)[0]


# ---------------------------------------------------------------------------
# conjugates of the generator


# primes up to this bound are tried for an inert prime and for a refuting
# Frobenius
PRIME_BOUND = 500


def _find_inert_prime(m_asc):
    for p in range(3, PRIME_BOUND + 1, 2):
        if _is_prime(p) and _frobenius(m_asc, p)[0] == "separable-irreducible":
            return p
    raise DomainError(f"no prime below {PRIME_BOUND} certifies irreducibility")


def _newton_lift(root_mod_p, m_asc, p, k):
    """Lift a root of m living in (Z/p)[s]/(m) to precision p^k.

    beta is a polynomial expression in the generator; Newton iteration
    doubles the precision each round, carrying the inverse of m'(beta)
    along so no division is needed.  m(beta) and m'(beta) are read as
    combinations of the powers beta^0 .. beta^5, four products a round.
    """
    e = 1
    beta = [c % p for c in root_mod_p]
    mprime = _poly_deriv(m_asc)

    def values(modulus):
        powers = [[1], beta]
        while len(powers) <= DEGREE:
            powers.append(_fpq_mul(powers[-1], beta, m_asc, modulus))
        columns = list(zip(*(power + [0] * (DEGREE - len(power)) for power in powers)))
        return [_trim([sum(map(mul, f, col)) % modulus for col in columns]) for f in (m_asc, mprime)]

    # p is inert, so (Z/p)[s]/(m) is the field F_{p^5}: invert by Fermat
    d = values(p)[1]
    inv = _fpq_pow(d, p ** DEGREE - 2, m_asc, p)
    if _fpq_mul(d, inv, m_asc, p) != [1]:
        raise NotCyclicError("derivative not invertible at the chosen prime")
    while e < k:
        e = min(2 * e, k)
        modulus = p ** e
        # refresh the derivative inverse first: w <- w (2 - m'(b) w)
        value, d = values(modulus)
        two_minus = _fp_normalize(_poly_sub([2], _fpq_mul(d, inv, m_asc, modulus)), modulus)
        inv = _fpq_mul(inv, two_minus, m_asc, modulus)
        step = _fpq_mul(value, inv, m_asc, modulus)
        beta = _fp_normalize(_poly_sub(beta, step), modulus)
    return beta


def _rational_reconstruct(value, modulus):
    """The integer pair (n, d) of the unique n/d in lowest terms with
    n = value * d mod modulus, |n|, d <= sqrt(modulus/2) and d > 0, or None
    when there is none."""
    bound = isqrt(modulus // 2)
    r0, r1 = modulus, value % modulus
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if r1 > bound or t1 == 0 or abs(t1) > bound or gcd(r1, abs(t1)) != 1:
        return None
    if t1 < 0:
        r1, t1 = -r1, -t1
    return r1, t1


FIRST_LIFT_EXPONENT = 32
MAX_LIFT_BITS = 2 ** 20


def galois_conjugates(spec):
    """The four nontrivial conjugates of the generator, certified exactly.

    Ordering is by composition: with s the returned first conjugate map,
    entry j is s applied j+1 times to the generator.  Only s(alpha) is
    lifted: at an inert prime p, Newton's method lifts alpha^p, the
    Frobenius image of alpha in the residue field, to precision p^k, and
    rational reconstruction reads each coordinate as an integer pair
    (n_i, d_i); with D = lcm(d_i) the candidate is the numerators
    n_i D / d_i over D, built without a Fraction.  The other three are
    s(alpha) composed with itself by ``apply_embedding``, and
    ``_verify_conjugates`` certifies all four.  Raises NotCyclicError
    when the field cannot be cyclic (non-square discriminant, or a Frobenius
    outside C_5 once the first precision fails to certify) or when no
    conjugate survives exact verification below the precision cap.
    """
    disc = discriminant(list(spec.coefficients))
    if not _is_square(disc):
        # cyclic implies Galois group inside the alternating group
        raise NotCyclicError("discriminant is not a square")
    m_asc = spec.ascending()
    p = spec.inert_prime
    # Frobenius image s^p of the generator in the residue field
    frob = _frobenius(m_asc, p)[1]

    k = FIRST_LIFT_EXPONENT
    while k * p.bit_length() <= MAX_LIFT_BITS:
        modulus = p ** k
        lifted = _newton_lift(frob, m_asc, p, k)
        pairs = [_rational_reconstruct(c, modulus) for c in lifted + [0] * (DEGREE - len(lifted))]
        if None not in pairs:
            den = lcm(*(d for _, d in pairs))
            candidates = [_element(spec, [n * (den // d) for n, d in pairs], den)]
            for _ in range(3):
                candidates.append(apply_embedding(candidates[-1], candidates[0]))
            verified = _verify_conjugates(spec, candidates)
            if verified is not None:
                return verified
        if k == FIRST_LIFT_EXPONENT:
            # every cyclic field tried (zeta25, Lehmer n = -10..10) certifies
            # at the first precision; the walk costs about a whole build, so
            # it runs only before the precision doubles
            _refute_by_frobenius(m_asc, disc)
        k *= 2
    raise NotCyclicError("no rational conjugates found below the precision cap")


def _refute_by_frobenius(m_asc, disc):
    """Raise NotCyclicError at a prime p <= 500 whose Frobenius is not in C_5.

    At a prime p not dividing disc, m is squarefree mod p and the degrees of
    its irreducible factors are the cycle lengths of Frobenius on the roots.
    Every element of the cyclic group C_5 has cycle type 1^5 or 5, so m must
    either split into five distinct linear factors mod p, i.e. m divides
    s^p - s, or be irreducible mod p.  A D_5 or A_5 field fails this at a
    small prime; a cyclic field never fails it, so the check can only
    refute, never certify.
    """
    for p in range(2, PRIME_BOUND + 1):
        if not _is_prime(p) or disc % p == 0:
            continue
        if _frobenius(m_asc, p)[0] in ("separable-split", "separable-irreducible"):
            continue
        raise NotCyclicError(
            f"not cyclic: Frobenius at p = {p} is neither the identity nor a 5-cycle"
        )


def _verify_conjugates(spec, candidates):
    """The candidates as a tuple if they certify the Galois orbit, else None.

    ``candidates`` are sigma(alpha) .. sigma^4(alpha), formed by composition
    with ``apply_embedding`` from the first.  Checks: the first, sigma(alpha),
    is a root of m; the candidates and alpha are distinct; and
    sigma^5(alpha), the image of the last under sigma, is alpha.  A root
    sigma(alpha) of m makes alpha -> sigma(alpha) a field map of
    K = Q[s]/(m) into itself, onto as it is Q-linear and injective, so the
    candidates are the images of alpha under the powers of one automorphism
    sigma, and roots of m as images of the root alpha; so m is evaluated
    at the first only.  Five distinct ones and sigma^5 = 1 make sigma of
    order 5 = [K : Q], so K is cyclic with Galois group generated by sigma.
    """
    alpha = spec.generator()
    if evaluate_poly(spec.ascending(), candidates[0]):
        return None
    if len({alpha, *candidates}) != DEGREE:
        return None
    if apply_embedding(candidates[-1], candidates[0]) != alpha:
        return None
    return tuple(candidates)
