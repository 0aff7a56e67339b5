"""Integral models of quintic del Pezzo surfaces in P^5.

A model is five integral quadrics in u0..u5 cutting out the surface, plus
the two distinguished hyperplane forms l1, l2 that arise as rational
products of conjugate lines.  A quadric is stored as the tuple of its 21
integer coefficients along ``U_QUADRIC_PAIRS``, which is also the model
file format; ``_quadric_gram`` turns them into Gram matrices and
``_form_vectors`` back.  Models are built from a cyclic quintic field
spec (``build_model``) or read from a model file; the two conductor
fixtures are ``build_model`` on an Eisenstein generator (``fixture``).
A model stores only its field, quadrics, l1 and l2, all in the model
file: the ramified prime and the modulus are read off the field
(``numberfield.ramified_primes``), the integral points and the mod-2
insolubility class off the quadrics.

Construction pipeline: quintics through the conjugate point orbit with
double vanishing (a rank-6 kernel), the quadric relations among them (a
rank-5 kernel), and l1, l2 as the products of the lines in the two Galois
orbits of lines through the conjugate points, the pentagon and the
pentagram of the Galois walk, which descend to Q
(``find_line_products``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateOrbitError,
    DomainError,
    RationalityFailureError,
    UnknownModelError,
)
from .intlinalg import (
    IntMatrix,
    content,
    elementary_divisors,
    primitive_part,
    saturated_kernel,
    solve_in_lattice,
)
from .numberfield import (
    QuinticFieldSpec,
    _poly_add,
    _poly_mul,
    galois_conjugates,
    ramified_primes,
    real_cyclotomic_minpoly,
    zeta11_plus_field,
)


@lru_cache(maxsize=16)
def _exponents(count, degree):
    """Exponent tuples of the degree-d monomials in ``count`` variables, in
    descending lexicographic order: x^5, x^4 y, x^4 z, x^3 y^2, ...; built
    once per (count, degree)."""
    return tuple(
        tuple(combo.count(v) for v in range(count))
        for combo in combinations_with_replacement(range(count), degree)
    )


DEG5_MONOMIALS = _exponents(3, 5)
DEG10_MONOMIALS = _exponents(3, 10)
# a quadric is the tuple of its 21 coefficients, the one of u_i u_j at the
# position of (i, j), i <= j, in this table (also the model file format)
U_QUADRIC_PAIRS = tuple(combinations_with_replacement(range(6), 2))


@lru_cache(maxsize=8)
def _product_slots(d, e):
    """Read-only int64 array (len(``_exponents(3, d)``), len(``_exponents(3,
    e)``)): entry [i, j] is the position in ``_exponents(3, d + e)`` of the
    i-th degree-d monomial times the j-th degree-e monomial, whose exponents
    add.  For a fixed j the positions are distinct, as multiplying by one
    monomial is injective."""
    position = {m: k for k, m in enumerate(_exponents(3, d + e))}
    slots = np.array(
        [[position[tuple(map(sum, zip(m, n)))] for n in _exponents(3, e)] for m in _exponents(3, d)]
    )
    slots.flags.writeable = False
    return slots


def double_vanishing_matrix(spec):
    """15x21 integer matrix whose kernel is the space of quintics in x, y, z
    vanishing doubly at (a^2, a, 1) for the field generator a.

    Conditions are f = df/dx = df/dy = 0; the z-derivative follows from the
    Euler relation, so it is not a row.  Each field-valued condition expands
    to five integer rows on the power basis.  Columns follow
    DEG5_MONOMIALS.
    """
    table = spec.generator_power_table(10)

    def entry(kind, comp, exps):
        a, b, _ = exps
        if kind == 0:
            return table[2 * a + b][comp]
        if kind == 1:
            return a * table[2 * (a - 1) + b][comp] if a else 0
        return b * table[2 * a + b - 1][comp] if b else 0

    rows = []
    for kind in range(3):
        for comp in range(5):
            rows.append([entry(kind, comp, e) for e in DEG5_MONOMIALS])
    return IntMatrix(rows)


class QuinticSystem(NamedTuple):
    """Rank-6 lattice of quintics through the conjugate orbit, rows in
    Hermite form over DEG5_MONOMIALS."""

    spec: QuinticFieldSpec
    basis: IntMatrix


class DelPezzoModel:
    """Five integral quadrics plus the forms l1, l2 over the field of
    ``spec``; the modulus is read off the field, and the integral points and
    the mod-2 insolubility class are computed from the quadrics."""

    __slots__ = ("source", "spec", "quadrics", "l1", "l2", "system", "name")

    def __init__(self, source, spec, quadrics, l1, l2, system=None, name=None):
        self.source = source
        self.spec = spec
        self.quadrics = tuple(tuple(int(c) for c in q) for q in quadrics)
        if len(self.quadrics) != 5 or {len(q) for q in self.quadrics} != {21}:
            raise DomainError("a model needs five quadrics of 21 coefficients each")
        self.l1 = tuple(int(c) for c in l1)
        self.l2 = tuple(int(c) for c in l2)
        self.system = system
        self.name = name

    @property
    def integral_points(self):
        """``search_integral_points`` in the window 1, every point checked on
        all five quadrics; searched once per quadric tuple per process."""
        return _searched_points(self.quadrics, 1)

    @property
    def insolubility_class(self):
        """The one nonzero class mod 2, a 0/1 form, that vanishes at every
        point of the fiber mod 2, or None when none or several do."""
        # fibers imports this module, so its fiber solver is imported here
        from .fibers import _fiber_array

        x = _fiber_array(self, 2)
        forms = np.arange(1, 64)[:, None] >> np.arange(5, -1, -1) & 1
        hits = forms[~(x @ forms.T % 2).any(axis=0)]
        return tuple(hits[0].tolist()) if len(hits) == 1 else None

    @property
    def modulus(self):
        """The p-part of the conductor at the one prime p that ramifies in
        the field (``numberfield.ramified_primes``), the modulus of the
        invariant images: p for a tame p, 25 at the wild prime 5.  A field
        ramified at several primes is refused, naming them."""
        primes = [p for p, _ in ramified_primes(self.spec)]
        if len(primes) != 1:
            raise DomainError(
                f"the field ramifies at {' and '.join(map(str, primes))}; invariant images, "
                "verdicts and the chart need one ramified prime"
            )
        return 25 if primes[0] == 5 else primes[0]

    def quadric_vectors(self):
        return [list(q) for q in self.quadrics]

    def hyperplane_value(self, form, point):
        return sum(int(c) * int(x) for c, x in zip(form, point))

    def to_json_dict(self):
        return {
            "source": self.source,
            "minpoly": list(self.spec.coefficients),
            "quadrics": self.quadric_vectors(),
            "l1": list(self.l1),
            "l2": list(self.l2),
        }

    @classmethod
    def from_json_dict(cls, doc):
        """Inverse of ``to_json_dict``; a malformed document is an UnknownModelError."""
        if not isinstance(doc, dict) or not isinstance(doc.get("source"), str):
            raise UnknownModelError("model JSON must be an object with a string 'source'")
        shapes = dict(minpoly=(6,), quadrics=(5, len(U_QUADRIC_PAIRS)), l1=(6,), l2=(6,))
        for key, shape in shapes.items():
            if not _is_int_array(doc.get(key), shape):
                raise UnknownModelError(f"model JSON needs {key!r} as integers of shape {shape}")
        # fewer than five independent quadrics cut out more than a surface,
        # whose fibers the solver and the line search would list point by point
        rank = _quadric_rank(tuple(map(tuple, doc["quadrics"])))
        if rank < 5:
            raise UnknownModelError(
                f"model quadrics have rank {rank} over Q, expected 5 independent quadrics"
            )
        spec = QuinticFieldSpec(doc["minpoly"])
        return cls(doc["source"], spec, doc["quadrics"], doc["l1"], doc["l2"])


def _quadric_values(quadrics, point):
    products = [point[i] * point[j] for i, j in U_QUADRIC_PAIRS]
    return tuple(sum(c * x for c, x in zip(q, products)) for q in quadrics)


def _is_int_array(value, shape):
    if not shape:
        return isinstance(value, int) and not isinstance(value, bool)
    return (
        isinstance(value, list)
        and len(value) == shape[0]
        and all(_is_int_array(v, shape[1:]) for v in value)
    )


def build_model(spec):
    """Construct the integral model attached to a cyclic quintic field."""
    conjugates = galois_conjugates(spec)
    dv = double_vanishing_matrix(spec)
    quintic_basis = saturated_kernel(dv)
    if quintic_basis is None or quintic_basis.rows != 6:
        raise DegenerateOrbitError(
            "degenerate orbit: quintic system has rank "
            f"{0 if quintic_basis is None else quintic_basis.rows}, expected 6"
        )
    system = QuinticSystem(spec, quintic_basis)
    # the (66, 21) relation matrix: column (i, j) holds the degree-10
    # coefficients of quintic_i * quintic_j, along DEG10_MONOMIALS, summed
    # over the pairs of their nonzero terms (a, f) and (b, g)
    slots = _product_slots(5, 5).tolist()
    terms = [[(a, f) for a, f in enumerate(row) if f] for row in quintic_basis.entries]
    relation = [[0] * len(U_QUADRIC_PAIRS) for _ in DEG10_MONOMIALS]
    for col, (i, j) in enumerate(U_QUADRIC_PAIRS):
        for (a, f), (b, g) in product(terms[i], terms[j]):
            relation[slots[a][b]][col] += f * g
    quad_basis = saturated_kernel(relation)
    if quad_basis is None or quad_basis.rows != 5:
        raise DegenerateOrbitError(
            "degenerate orbit: quadric relation space has rank "
            f"{0 if quad_basis is None else quad_basis.rows}, expected 5"
        )
    quadrics = [primitive_part(quad_basis.row(i)) for i in range(5)]
    l1, l2 = find_line_products(spec, system, conjugates)
    return DelPezzoModel("constructed", spec, quadrics, l1, l2, system=system)


def find_line_products(spec, system, conjugates=None):
    """Products (l1, l2) of the lines along the two Galois-stable 5-cycles.

    Write g_k = s^k(alpha) for the generator alpha and a generator s of the
    Galois group; ``galois_conjugates`` returns g_1..g_4 in this order and
    certifies that the g_k are distinct.  The line through (a^2, a, 1) and
    (b^2, b, 1) is L(a, b) = x - (a + b) y + ab z, their cross product
    divided by a - b.  Of the twelve 5-cycles on the five points only two
    have rational products, so only those two are multiplied out:

    - s maps L(g_i, g_j) to L(g_{i+1}, g_{j+1}), indices mod 5;
    - the ten lines are irreducible and pairwise distinct, as the g_k are;
    - K[x, y, z] has unique factorization, so a cycle's product is fixed by
      s, i.e. rational, exactly when the shift k -> k + 1 permutes its edges;
    - the shift has two edge orbits, {k, k+1} and {k, k+2}: the pentagon,
      whose product is l1, and the pentagram, whose product is l2.

    The product of k lines is a form of degree k with one field element per
    monomial of ``_exponents(3, k)``, each stored as five integer numerators
    over one denominator shared by the whole form.  Multiplication by an
    element with numerators n is the integer matrix sum_i n_i C^i, C the
    companion matrix of the minimal polynomial, whose column j of C^i is the
    coordinate vector of a^(i+j) in ``generator_power_table(8)``.  With e =
    den(a) den(b), the line e L(a, b) = e x + s y + t z has s = -e (a + b)
    and t = e ab with integer coordinates.  So each factor adds e times the
    numerators at their x slots of ``_product_slots(k, 1)``, the numerators
    times the matrix of s at their y slots and times that of t at their z
    slots, and multiplies the denominator by e.  Denominators stay
    positive, so a rational product is its constant numerators over a
    positive integer and has the same primitive part; after five factors
    the rows follow DEG5_MONOMIALS.
    Both products are returned as primitive coordinate vectors in the
    quintic basis.  ``conjugates`` out of walk order break the first premise
    and end in a RationalityFailureError.
    """
    if conjugates is None:
        conjugates = galois_conjugates(spec)
    g = (spec.generator(),) + tuple(conjugates)
    if len(set(g)) != 5:
        raise DegenerateOrbitError("degenerate orbit: repeated points")
    table = spec.generator_power_table(8)
    # powers[i] is C^i, flattened: entry 5k + j is coordinate k of a^(i+j)
    powers = np.array(
        [[table[i + j][k] for k in range(5) for j in range(5)] for i in range(5)], dtype=object
    )

    def matrix_of(num):
        return np.dot(np.array(num, dtype=object), powers).reshape(5, 5)

    def orbit_product(step):
        # row i: the numerators of the coefficient of the i-th monomial of
        # degree k, the product of the first k lines
        form = np.array([[1, 0, 0, 0, 0]], dtype=object)
        for k in range(5):
            a, b = g[k], g[(k + step) % 5]
            s = [-(x * b.den + y * a.den) for x, y in zip(a.num, b.num)]
            t = matrix_of(a.num) @ np.array(b.num, dtype=object)
            x, y, z = _product_slots(k, 1).T
            grown = np.zeros((len(_exponents(3, k + 1)), 5), dtype=object)
            grown[x] = form * (a.den * b.den)
            grown[y] += form @ matrix_of(s).T
            grown[z] += form @ matrix_of(t).T
            form = grown
        if form[:, 1:].any():
            raise RationalityFailureError(
                "rationality failure: a shift-stable line product is not rational"
            )
        vec = primitive_part(form[:, 0])
        coords = solve_in_lattice(system.basis, vec)
        if coords is None:
            raise DegenerateOrbitError(
                "line product is not integral in the quintic basis"
            )
        if content(coords) != 1:
            raise DegenerateOrbitError("line product coordinates are imprimitive")
        return primitive_part(coords)

    return orbit_product(1), orbit_product(2)


def chart_point(y, z, p):
    """The point of the chart (1, y, z, y^2, y z, y^3 + z^2) over (y, z),
    coordinates reduced mod p."""
    return (1, y % p, z % p, y * y % p, y * z % p, (y ** 3 + z * z) % p)


# the chart of ``chart_point``: the exponents (b, c) of the monomials
# y^b z^c of each coordinate
_CHART_TERMS = (((0, 0),), ((1, 0),), ((0, 1),), ((2, 0),), ((1, 1),), ((3, 0), (0, 2)))


@lru_cache(maxsize=8)
def _chart_tables(p):
    """(points, tangents) of the chart mod p, read off ``_CHART_TERMS``: one
    row per (y, z) in ``product`` order, ``points`` (p^2, 6) the chart points
    and ``tangents`` (p^2, 2, 6) their derivatives d/dy and d/dz, the term
    y^b z^c giving b y^(b-1) z^c and c y^b z^(c-1).  Read-only int64 views
    of one array, shared; for p < 2^20 no power y^3 overflows."""
    y, z = np.divmod(np.arange(p * p, dtype=np.int64), p)

    def monomial(b, c):
        # an exponent -1 comes only with the factor 0 of its derivative
        return y ** max(b, 0) * z ** max(c, 0)

    # table[:, i]: the i-th coordinate and its d/dy and d/dz
    table = np.zeros((3, 6, p * p), dtype=np.int64)
    for i, terms in enumerate(_CHART_TERMS):
        for b, c in terms:
            table[:, i] += monomial(b, c), b * monomial(b - 1, c), c * monomial(b, c - 1)
    table = table.transpose(2, 0, 1) % p
    table.flags.writeable = False
    return table[:, 0], table[:, 1:]


_ZETA25_MINPOLY = (1, -20, 100, -125, 50, -5)


def _zeta11plus_generator():
    """x^5 - 11x^4 + 44x^3 - 77x^2 + 55x - 11, the minimal polynomial of
    2 - (t + 1/t) for t a primitive 11th root of unity: -f(2 - x) for
    f = ``real_cyclotomic_minpoly(11)``, by Horner's rule.  Eisenstein at 11."""
    value = []
    for c in real_cyclotomic_minpoly(11):
        value = _poly_add(_poly_mul(value, [2, -1]), [c])
    return tuple(-c for c in reversed(value))


@lru_cache(maxsize=2)
def _built(generator):
    """``build_model`` on a fixture's generator, once per process."""
    return build_model(QuinticFieldSpec(generator))


def fixture(name):
    """The two conductor models, "zeta11plus" and "zeta25": ``build_model``
    on an Eisenstein generator of the field, which ramifies at 11 and at 5
    (``numberfield.ramified_primes`` reads it off the field), so their
    moduli are 11 and 25.

    zeta25 is built from ``_ZETA25_MINPOLY``, Eisenstein at 5, and keeps its
    spec, l1 and l2.  zeta11plus is built from ``_zeta11plus_generator()``,
    Eisenstein at 11, and keeps ``zeta11_plus_field()`` as its spec, the
    same field.  Its l1 is the pentagon product of the walk by
    sigma: t -> t^2, with t a primitive 11th root of unity.  ``build_model``
    walks the Frobenius at the generator's inert prime 3, t -> t^3, and
    3 = 2^8 mod 11, so that Frobenius is sigma^8, which is sigma^3 on the
    real subfield since sigma^5: t -> 1/t fixes it.  An edge {k, k + 1} of
    the sigma^3 walk joins points 3 apart in the sigma walk, and 3 = -2
    mod 5, so the built pentagon is the pentagram of sigma: the built l1
    and l2 are the fixture's l2 and l1.
    """
    if name == "zeta11plus":
        built = _built(_zeta11plus_generator())
        spec, l1, l2 = zeta11_plus_field(), built.l2, built.l1
    elif name == "zeta25":
        built = _built(_ZETA25_MINPOLY)
        spec, l1, l2 = built.spec, built.l1, built.l2
    else:
        raise UnknownModelError(f"unknown fixture {name!r}")
    return DelPezzoModel(f"fixture:{name}", spec, built.quadrics, l1, l2, name=name)


def _quadric_gram(vectors):
    """Upper-triangular Gram matrices G[k][i][j], q_k(u) = sum G[k][i][j] u_i u_j."""
    gram = [[[0] * 6 for _ in range(6)] for _ in vectors]
    for g, vec in zip(gram, vectors):
        for (i, j), c in zip(U_QUADRIC_PAIRS, vec):
            g[i][j] = int(c)
    return gram


def _form_vectors(mats):
    """Coefficient vectors of the quadrics x^T S_k x for square matrices S_k,
    the inverse of ``_quadric_gram`` on upper-triangular ones."""
    return [[s[i][j] + s[j][i] if i < j else s[i][i] for i, j in U_QUADRIC_PAIRS] for s in mats]


def _solver_shaped(gram):
    """True when the upper-triangular Gram array (5, 6, 6) has no u0^2 term in
    quadrics 1-3 and no u0, u1^2, u1 u2 or u2^2 term in quadrics 4-5: then 4-5
    are linear in (u1, u2) for fixed (u3, u4, u5) and 1-3 are linear in u0
    (see ``fibers``)."""
    g = np.asarray(gram)
    return not (g[:3, 0, 0].any() or g[3:, 0].any() or g[3:, 1:3, 1:3].any())


def _has_solver_shape(vectors):
    """``_solver_shaped`` on the integer coefficients, so it holds mod every p."""
    return _solver_shaped(_quadric_gram(vectors))


@lru_cache(maxsize=16)
def _invariant_factors(vectors):
    return elementary_divisors(IntMatrix([list(v) for v in vectors]))


def _quadric_rank(vectors, p=None):
    """Rank of the quadrics over Q, or over F_p: the number of invariant
    factors that p does not divide, as the Smith form is U A V with U and V
    unimodular, so invertible mod p."""
    return sum(1 for d in _invariant_factors(vectors) if p is None or d % p)


def search_integral_points(model, window=9):
    """Primitive integral points found by back-solving from t = (u3, u4, u5).

    For models with the solver shape (``_has_solver_shape``) the last two
    quadrics are linear in (u1, u2) once t is fixed, with determinant
    det (u3 u5 - u4^2 on the fixtures), and the first three read
    lin(u) u0 + rest(u) = 0, with lin linear and rest quadratic in
    u1..u5.  Where det and some lin(u) are nonzero this gives one rational
    point u = (-rest(u)/lin(u), u1, .., u5), and the search stays in
    integers: Cramer's rule gives U = det (0, u1, .., u5) with integer
    entries, so lin(U) = det lin(u), rest(U) = det^2 rest(u), and
    (-rest(U), lin(U) U1, .., lin(U) U5) is det^2 lin(u) times u.  Its
    primitive part is u's, since ``primitive_part`` also removes the sign
    of det^2 lin(u).  These points and (1, 0, 0, 0, 0, 0) are kept when all
    five quadrics vanish there exactly.  Returns distinct primitive points
    sorted by size, searched once per (quadrics, window) per process.
    """
    return list(_searched_points(model.quadrics, window))


@lru_cache(maxsize=32)
def _searched_points(quadrics, window):
    points = [(1, 0, 0, 0, 0, 0)]
    if _has_solver_shape(quadrics):
        gram = _quadric_gram(quadrics)
        span = range(-window, window + 1)
        points += [_backsolve(gram, t) for t in product(span, repeat=3)]
    found = {pt for pt in points if pt is not None and not any(_quadric_values(quadrics, pt))}
    return tuple(sorted(found, key=lambda p: (max(abs(x) for x in p), p)))


def _backsolve(gram, t):
    # quadrics 4-5 read a[k] . (u1, u2) + c[k] = 0, quadrics 1-3 lin * u0 + rest = 0
    u = [0, 0, 0, *t]
    a = [[sum(g[v][j] * u[j] for j in range(3, 6)) for v in (1, 2)] for g in gram[3:]]
    c = [sum(g[i][j] * u[i] * u[j] for i in range(3, 6) for j in range(3, 6)) for g in gram[3:]]
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if det == 0:
        return None
    # U = det * u by Cramer's rule, integral (see search_integral_points)
    u = [0, a[0][1] * c[1] - a[1][1] * c[0], a[1][0] * c[0] - a[0][0] * c[1], *(det * x for x in t)]
    for g in gram[:3]:
        lin = sum(g[0][j] * u[j] for j in range(1, 6))
        if lin:
            rest = sum(g[i][j] * u[i] * u[j] for i in range(1, 6) for j in range(1, 6))
            return primitive_part([-rest, *(lin * x for x in u[1:])])
    return None
