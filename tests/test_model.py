"""Model fixtures and the construction pipeline."""

import hashlib
import json
import random
from fractions import Fraction
from math import lcm, prod

import numpy as np
import pytest

from dp5brauer.errors import (
    DegenerateOrbitError,
    DomainError,
    NotCyclicError,
    RationalityFailureError,
)
from dp5brauer.intlinalg import (
    IntMatrix,
    hnf,
    lattice_index,
    primitive_part,
    saturated_kernel,
    solve_in_lattice,
)
from dp5brauer.model import (
    _ZETA25_MINPOLY,
    DEG5_MONOMIALS,
    DEG10_MONOMIALS,
    U_QUADRIC_PAIRS,
    DelPezzoModel,
    QuinticSystem,
    _chart_tables,
    _zeta11plus_generator,
    _exponents,
    _product_slots,
    build_model,
    chart_point,
    double_vanishing_matrix,
    find_line_products,
    fixture,
    search_integral_points,
)
from dp5brauer.numberfield import (
    QuinticFieldSpec,
    galois_conjugates,
    real_cyclotomic_minpoly,
    zeta11_plus_field,
)
from dp5brauer.obstruction import _random_invertible_mod11, transformed_model_mod11

from quintics import lehmer_model, lehmer_quintic

L1_STORED = (1, 22, -363, 165, -1859, 484)
L2_STORED = (1, 22, -352, 143, -1595, 363)


def test_fixture_registry():
    assert fixture("zeta11plus").name == "zeta11plus"
    assert fixture("zeta25").name == "zeta25"
    with pytest.raises(DomainError):
        fixture("nope")


def test_zeta11plus_fixture_data(m11):
    assert m11.spec.coefficients == (1, 1, -4, -3, 3, 1)
    assert m11.ramified_prime == 11
    assert m11.modulus == 11
    assert m11.l1 == L1_STORED
    assert m11.l2 == L2_STORED
    assert m11.insolubility_class == (0, 0, 1, 0, 0, 1)
    assert len(m11.quadrics) == 5


def test_zeta25_fixture_data(m25):
    assert m25.spec.coefficients == (1, -20, 100, -125, 50, -5)
    assert m25.ramified_prime == 5
    assert m25.modulus == 25
    assert m25.insolubility_class == (0, 0, 1, 1, 0, 0)
    assert tuple(c % 25 for c in m25.l1) == (1, 0, 0, 0, 0, 0)


def test_the_modulus_is_read_off_the_ramified_prime(m11, m25):
    # the p-part of the conductor: p at a tame p, 25 at the wild prime 5
    moved = transformed_model_mod11(m11, _random_invertible_mod11(random.Random(79)))
    assert m11.modulus == moved.modulus == 11
    assert m25.modulus == 25
    assert DelPezzoModel.from_json_dict(m11.to_json_dict()).modulus is None
    tame = DelPezzoModel(m11.source, m11.spec, m11.quadrics, m11.l1, m11.l2, ramified_prime=31)
    assert tame.modulus == 31
    with pytest.raises(TypeError, match="modulus"):
        DelPezzoModel(m11.source, m11.spec, m11.quadrics, m11.l1, m11.l2, modulus=11)
    with pytest.raises(AttributeError):
        m11.modulus = 25


def test_stored_points_lie_on_every_quadric(m11, m25):
    # the points are searched, not stored: window 1 finds ten on each fixture
    for m in (m11, m25):
        assert len(m.integral_points) == 10
        for point in m.integral_points:
            assert m.check_point(point)
        assert lattice_index(m.integral_points) == 2


def test_known_points_are_stored(m11):
    # searched points are primitive with a positive first nonzero entry, so
    # the point +-(693, 88, 11, 0, -1, -1) is listed with this sign
    assert (1, 0, 0, 0, 0, 0) in m11.integral_points
    assert (693, 88, 11, 0, -1, -1) in m11.integral_points


def test_points_and_class_are_read_only_and_not_keywords(m11):
    for name in ("integral_points", "insolubility_class"):
        with pytest.raises(AttributeError):
            setattr(m11, name, None)
        with pytest.raises(TypeError, match=name):
            DelPezzoModel(m11.source, m11.spec, m11.quadrics, m11.l1, m11.l2, **{name: None})
    # computed from the quadrics alone, so a model file has them too
    clone = DelPezzoModel.from_json_dict(m11.to_json_dict())
    assert clone.integral_points == m11.integral_points
    assert clone.insolubility_class == m11.insolubility_class


def test_line_products_share_a_reduction_at_the_ramified_prime(m11):
    assert tuple(c % 11 for c in m11.l1) == (1, 0, 0, 0, 0, 0)
    assert tuple(c % 11 for c in m11.l2) == (1, 0, 0, 0, 0, 0)


# SHA-256 over the Hermite form of each fixture's quadric rows with its l1
# and l2, recorded on the hand-copied tables the built fixtures replaced
FIXTURE_TABLES_SHA256 = "dc0246e4143705893ff6d9cc9c772100665ed117f9d6ba72a3dc15c16c49e91c"


def test_fixture_tables_are_pinned(m11, m25):
    digest = hashlib.sha256()
    for m in (m11, m25):
        rows = hnf(IntMatrix(m.quadric_vectors()))[0]
        digest.update(repr((m.name, rows.to_lists(), list(m.l1), list(m.l2))).encode())
    assert digest.hexdigest() == FIXTURE_TABLES_SHA256


def _is_eisenstein(coeffs, p):
    return coeffs[0] == 1 and all(c % p == 0 for c in coeffs[1:]) and coeffs[-1] % (p * p)


def _value(coeffs, x):
    return sum(c * x ** k for k, c in enumerate(reversed(coeffs)))


def test_fixture_generators_are_eisenstein():
    g, f = _zeta11plus_generator(), real_cyclotomic_minpoly(11)
    assert len(g) == 6
    # two polynomials of degree 5 that agree at six points are equal
    assert all(_value(g, x) == -_value(f, 2 - x) for x in range(6))
    assert _is_eisenstein(g, 11)
    assert _is_eisenstein(_ZETA25_MINPOLY, 5)
    assert not _is_eisenstein(zeta11_plus_field().coefficients, 11)


def test_the_sigma_walk_names_the_zeta11plus_labels(m11):
    # sigma: t -> t^2 sends alpha = 2 - (t + 1/t) to 4 alpha - alpha^2; the
    # built walk s is the Frobenius at 3, and s^2 = sigma makes s = sigma^3
    spec = QuinticFieldSpec(_zeta11plus_generator())
    built = build_model(spec)
    assert spec.inert_prime == 3 and pow(2, 8, 11) == 3
    a, c = spec.generator(), galois_conjugates(spec)
    assert c[1] == 4 * a - a * a
    sigma_walk = (c[1], c[3], c[0], c[2])
    assert find_line_products(spec, built.system, sigma_walk) == (m11.l1, m11.l2)
    assert (built.l1, built.l2) == (m11.l2, m11.l1)


def test_double_vanishing_kernel_has_rank_six(m11):
    kernel = saturated_kernel(double_vanishing_matrix(m11.spec))
    assert kernel is not None
    assert kernel.rows == 6


def test_monomial_orders_are_pinned():
    # descending lex within one degree: the model file and every vector rely on it
    assert DEG5_MONOMIALS[:7] == (
        (5, 0, 0), (4, 1, 0), (4, 0, 1), (3, 2, 0), (3, 1, 1), (3, 0, 2), (2, 3, 0)
    )
    assert DEG5_MONOMIALS[-1] == (0, 0, 5)
    assert (len(DEG5_MONOMIALS), len(DEG10_MONOMIALS)) == (21, 66)
    assert DEG10_MONOMIALS[:3] == ((10, 0, 0), (9, 1, 0), (9, 0, 1))
    assert U_QUADRIC_PAIRS[:7] == ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 1))
    assert U_QUADRIC_PAIRS[-3:] == ((4, 4), (4, 5), (5, 5))
    assert len(U_QUADRIC_PAIRS) == 21
    assert _exponents(1, 0) == ((0,),)


def _times(f, d, g, e):
    """The product of the plane forms f of degree d and g of degree e, given
    as coefficient vectors along ``_exponents(3, d)`` and ``_exponents(3,
    e)``, by ``_product_slots(d, e)``."""
    out = [0] * len(_exponents(3, d + e))
    for (i, j), slot in np.ndenumerate(_product_slots(d, e)):
        out[slot] += f[i] * g[j]
    return out


def _form_value(f, d, point):
    return sum(c * prod(v ** k for v, k in zip(point, m)) for c, m in zip(f, _exponents(3, d)))


@pytest.mark.parametrize("p", [5, 11])
def test_chart_tables_are_the_chart_and_its_derivatives(p):
    # rows in (y, z) product order: the scalar chart formula, and the hand
    # derivatives of (1, y, z, y^2, y z, y^3 + z^2) in y and in z
    points, tangents = _chart_tables(p)
    assert points.shape == (p * p, 6) and tangents.shape == (p * p, 2, 6)
    assert not points.flags.writeable and not tangents.flags.writeable
    assert _chart_tables(p)[0] is points
    grid = [(y, z) for y in range(p) for z in range(p)]
    assert points.tolist() == [list(chart_point(y, z, p)) for y, z in grid]
    assert tangents.tolist() == [
        [[c % p for c in (0, 1, 0, 2 * y, z, 3 * y * y)], [c % p for c in (0, 0, 1, 0, y, 2 * z)]]
        for y, z in grid
    ]


def test_product_slots_follow_the_ring_laws():
    rng = random.Random(11)
    for _ in range(30):
        d, e = rng.randint(0, 5), rng.randint(0, 5)
        f, g, h = ([rng.randint(-9, 9) for _ in _exponents(3, k)] for k in (d, e, e))
        assert _times(f, d, g, e) == _times(g, e, f, d)
        g_plus_3h = [u + 3 * v for u, v in zip(g, h)]
        assert _times(f, d, g_plus_3h, e) == [
            u + 3 * v for u, v in zip(_times(f, d, g, e), _times(f, d, h, e))
        ]
        point = [rng.randint(-5, 5) for _ in range(3)]
        product_value = _form_value(_times(f, d, g, e), d + e, point)
        assert product_value == _form_value(f, d, point) * _form_value(g, e, point)
        # one monomial times all of the others lands on distinct slots
        slots = _product_slots(d, e)
        assert all(len(set(column)) == len(column) for column in slots.T.tolist())


def test_double_vanishing_rejects_a_quintic_off_the_orbit(built11):
    rows = [list(r) for r in built11.system.basis.entries]
    rows[0][DEG5_MONOMIALS.index((5, 0, 0))] += 1
    moved = QuinticSystem(built11.spec, IntMatrix(rows))
    assert not moved.double_vanishing_holds()


def test_build_model_reproduces_the_quintic_system(built11):
    assert built11.source == "constructed"
    assert len(built11.quadrics) == 5
    assert built11.system is not None
    assert built11.system.basis.rows == 6
    assert built11.system.double_vanishing_holds()


def test_built_line_products_are_distinct_but_congruent(built11):
    assert built11.l1 != built11.l2
    r1 = tuple(c % 11 for c in built11.l1)
    r2 = tuple(c % 11 for c in built11.l2)
    assert r1 == r2 != (0, 0, 0, 0, 0, 0)


def test_built_line_products_are_pinned(built11):
    assert built11.l1 == (1, -2, -12, -5, 27, 13)
    assert built11.l2 == (1, -2, -1, -5, -17, 2)


@pytest.mark.parametrize(
    "minpoly, l1, l2",
    [
        # Lehmer's simplest quintics for n = 0 and n = 3
        ((1, 0, -10, 5, 10, 1), (1, -5, 20, -30, -115, 25), (1, -5, -5, -5, 85, 25)),
        (
            (1, 9, -148, 365, 103, 1),
            (1, -74, 107, -2049, -30157, 1822),
            (1, -74, -344, -245, 5923, 469),
        ),
    ],
    ids=["lehmer0", "lehmer3"],
)
def test_built_line_products_of_lehmer_quintics(minpoly, l1, l2):
    built = build_model(QuinticFieldSpec(minpoly))
    assert (built.l1, built.l2) == (l1, l2)


# SHA-256 over the model document and the str of every conjugate coordinate
# of zeta11plus and Lehmer's quintics n = -4..5, recorded with the earlier
# Fraction-coordinate field arithmetic: a change of element representation
# must leave every built model and conjugate as it was
CONSTRUCTION_SHA256 = "83795d6d1ff99af4c0a22088d08126f6fdc6713478b316471840f17bd962b768"
# the same digest over Lehmer's quintics n = -10..-5 and 6..10 and the zeta25
# minimal polynomial, recorded with the object-by-object kernels and line
# products that the integer-array ones replaced
WIDER_CONSTRUCTION_SHA256 = "41f6d4bef8358af45f2821fa1e1589a47b79b15148334cb78cc544dc4334a202"


def _construction_digest(minpolys):
    digest = hashlib.sha256()
    for minpoly in minpolys:
        spec = QuinticFieldSpec(minpoly)
        doc = build_model(spec).to_json_dict()
        conjugates = [[str(c) for c in beta.coords] for beta in galois_conjugates(spec)]
        digest.update(json.dumps({"model": doc, "conjugates": conjugates}, sort_keys=True).encode())
    return digest.hexdigest()


def test_construction_is_pinned():
    assert lehmer_quintic(-1) == zeta11_plus_field().coefficients
    minpolys = [zeta11_plus_field().coefficients] + [lehmer_quintic(n) for n in range(-4, 6)]
    assert _construction_digest(minpolys) == CONSTRUCTION_SHA256


def test_wider_construction_is_pinned(m25):
    minpolys = [lehmer_quintic(n) for n in [*range(-10, -4), *range(6, 11)]]
    assert _construction_digest(minpolys + [m25.spec.coefficients]) == WIDER_CONSTRUCTION_SHA256


def _field_orbit_product(spec, system, g, step):
    """The product of the lines L(g_k, g_{k+step}) with ``NumberFieldElement``
    coefficients on a dense (y, z) grid, one line x + s y + t z at a time, as
    a primitive vector in the quintic basis; shares no code with the
    multiplication matrices of ``find_line_products``."""
    product = {(0, 0): spec.rational(1)}
    for k in range(5):
        a, b = g[k], g[(k + step) % 5]
        s, t = -(a + b), a * b
        grown = {}
        for (i, j), v in product.items():
            for key, w in (((i, j), v), ((i + 1, j), v * s), ((i, j + 1), v * t)):
                grown[key] = grown.get(key, spec.rational(0)) + w
        product = grown
    coeffs = [product[b, c] for _, b, c in DEG5_MONOMIALS]
    assert all(c.is_rational() for c in coeffs)
    fractions = [Fraction(c.rational_value()) for c in coeffs]
    scale = lcm(*(f.denominator for f in fractions))
    vec = primitive_part([int(f * scale) for f in fractions])
    return primitive_part(solve_in_lattice(system.basis, vec))


@pytest.mark.parametrize("n", range(-10, 11))
def test_line_products_equal_the_field_element_products(n):
    spec = QuinticFieldSpec(lehmer_quintic(n))
    system = QuinticSystem(spec, saturated_kernel(double_vanishing_matrix(spec)))
    c = galois_conjugates(spec)
    for walk in (tuple(c), (c[1], c[3], c[0], c[2])):
        g = (spec.generator(),) + walk
        oracle = tuple(_field_orbit_product(spec, system, g, step) for step in (1, 2))
        assert find_line_products(spec, system, walk) == oracle


def test_conjugates_out_of_walk_order_are_not_rational(built11):
    c = galois_conjugates(built11.spec)
    with pytest.raises(RationalityFailureError):
        find_line_products(built11.spec, built11.system, (c[1], c[0], c[2], c[3]))


def test_the_square_walk_swaps_pentagon_and_pentagram(built11):
    # s^2 generates the same group; its pentagon is the pentagram of s
    c = galois_conjugates(built11.spec)
    square_walk = (c[1], c[3], c[0], c[2])
    assert find_line_products(built11.spec, built11.system, square_walk) == (
        built11.l2,
        built11.l1,
    )


def test_repeated_conjugates_are_degenerate(built11):
    c = galois_conjugates(built11.spec)
    with pytest.raises(DegenerateOrbitError):
        find_line_products(built11.spec, built11.system, (c[0], c[0], c[2], c[3]))


def test_build_model_rejects_non_cyclic_fields():
    with pytest.raises(NotCyclicError):
        build_model(QuinticFieldSpec((1, 0, 0, 0, 0, -2)))


def test_serialization_roundtrip(m11):
    doc = m11.to_json_dict()
    clone = DelPezzoModel.from_json_dict(doc)
    assert clone.quadric_vectors() == m11.quadric_vectors()
    assert clone.l1 == m11.l1
    assert clone.l2 == m11.l2
    assert clone.modulus is None  # fixture extras do not survive JSON


def test_model_requires_five_quadrics(m11):
    with pytest.raises(DomainError):
        DelPezzoModel("constructed", m11.spec, m11.quadrics[:4], m11.l1, m11.l2)


def test_point_search_stays_on_the_surface(m11):
    found = search_integral_points(m11, window=3)
    assert found
    for point in found:
        assert m11.check_point(point)


# SHA-256 of the repr of search_integral_points(m, w) on both fixtures, the
# rebuilt zeta11plus model and the Lehmer models n = -4..5, at w = 1 and 3,
# recorded with the Fraction back-solve that the homogeneous one replaced
SEARCHED_POINTS_SHA256 = "1bff4a3d8b871ddef7474cd819d03025045174756ad5aedc5ff384bb8686a06b"


def test_searched_points_are_pinned(m11, m25, built11):
    models = [m11, m25, built11, *(lehmer_model(n) for n in range(-4, 6))]
    searched = [search_integral_points(m, w) for m in models for w in (1, 3)]
    assert hashlib.sha256(repr(searched).encode()).hexdigest() == SEARCHED_POINTS_SHA256


def test_every_searched_point_is_checked(m11, m25):
    # the moved model lacks the solver shape, and (1, 0, 0, 0, 0, 0) is not
    # on it: its quadric values there are (3, 9, 6, 3, 6)
    moved = transformed_model_mod11(m11, _random_invertible_mod11(random.Random(11)))
    assert moved.evaluate_quadrics((1, 0, 0, 0, 0, 0)) == (3, 9, 6, 3, 6)
    assert search_integral_points(moved, window=1) == []
    for m in (moved, m11, m25):
        for window in (1, 2):
            assert all(m.check_point(point) for point in search_integral_points(m, window))
