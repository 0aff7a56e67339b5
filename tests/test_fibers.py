"""Prime fibers: enumeration, classification, lines, charts.

Counts frozen here were produced by the enumeration itself and are kept as
regression anchors; the cross-cutting checks (Weil counts, line
containment, Jacobian ranks) are the independent part.
"""

import random
import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp5brauer import fibers, obstruction, verify
from dp5brauer.errors import (
    ChartError,
    DomainError,
    EnumerationBoundError,
    FiberInconsistencyError,
)
from dp5brauer.fibers import (
    classify_fiber,
    enumerate_fiber,
    find_lines,
    rank_mod_p,
    singular_points,
    solve_mod_p,
    verify_chart,
)
from dp5brauer.model import (
    U_QUADRIC_PAIRS,
    DelPezzoModel,
    _has_solver_shape,
    _quadric_gram,
    _quadric_rank,
    _solver_shaped,
    build_model,
    fixture,
)
from dp5brauer.numberfield import QuinticFieldSpec, minpoly_splitting_mod_p
from dp5brauer.obstruction import _random_invertible_mod11, transformed_model_mod11

from quintics import evaluate_quadrics, jacobian_matrix_mod_p, lehmer_model, lehmer_quintic

PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_five_points_over_f2(m11, m25):
    assert len(enumerate_fiber(m11, 2)) == 5
    assert len(enumerate_fiber(m25, 2)) == 5


def test_f2_points_lie_on_the_insolubility_hyperplane(m11, m25):
    for m in (m11, m25):
        for point in enumerate_fiber(m, 2):
            value = m.hyperplane_value(m.insolubility_class, point)
            assert value % 2 == 0


def test_inert_fibers_are_interesting(m11):
    for p, count in ((2, 5), (3, 10), (7, 50)):
        report = classify_fiber(m11, p)
        assert report.classification == "interesting"
        assert report.point_count == count == p * p + 1
        assert report.lines == ()
        assert report.singular == ()


def test_split_fiber_at_23(m11):
    report = classify_fiber(m11, 23)
    assert report.classification == "split"
    assert report.point_count == 645 == 23 * 23 + 5 * 23 + 1
    assert len(report.lines) == 10
    assert report.singular == ()


def test_a_fiber_that_breaks_its_prediction_is_refused(m11):
    # zeta11plus's quadrics over Lehmer's n = 5 field: 19 splits there but
    # is inert for zeta11plus, and 11 is inert there but ramified for
    # zeta11plus
    swapped = DelPezzoModel("swapped", QuinticFieldSpec(lehmer_quintic(5)), m11.quadrics, m11.l1, m11.l2)
    assert minpoly_splitting_mod_p(swapped.spec, 19) == "separable-split"
    for p, message in (
        (19, "split prediction violated at 19: 362 points (expected 457), 0 lines, 0 singular"),
        (11, "inert prediction violated at 11: 133 points (expected 122), 1 lines, 1 singular"),
    ):
        with pytest.raises(FiberInconsistencyError, match=f"^{re.escape(message)}$"):
            classify_fiber(swapped, p)


def test_singular_fiber_at_the_ramified_prime(m11):
    report = classify_fiber(m11, 11)
    assert report.classification == "singular"
    assert report.point_count == 133
    assert report.singular == ((0, 0, 0, 0, 0, 1),)
    assert len(report.lines) == 1
    assert report.singular[0] in report.lines[0].points
    assert len(report.lines[0].points) == 12


def test_singular_fiber_of_the_second_fixture(m25):
    report = classify_fiber(m25, 5)
    assert report.classification == "singular"
    assert report.point_count == 31
    assert len(report.singular) == 1
    assert len(report.lines) == 1
    assert report.singular[0] in report.lines[0].points
    assert len(report.lines[0].points) == 6


def test_second_fixture_is_singular_at_seven_despite_splitting(m25):
    # the quintic has repeated roots mod 7, so no smooth-fiber prediction
    # applies; the fiber is genuinely singular
    assert minpoly_splitting_mod_p(m25.spec, 7) == "inseparable"
    report = classify_fiber(m25, 7)
    assert report.classification == "singular"
    assert len(report.singular) >= 1


def test_weil_counts_match_splitting(m11, m25):
    for m in (m11, m25):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            splitting = minpoly_splitting_mod_p(m.spec, p)
            if splitting == "inseparable":
                continue
            count = len(enumerate_fiber(m, p))
            if splitting == "separable-irreducible":
                assert count == p * p + 1, (m.name, p)
            elif splitting == "separable-split":
                assert count == p * p + 5 * p + 1, (m.name, p)
            else:
                raise AssertionError(f"unexpected splitting {splitting}")


def test_line_points_stay_in_the_fiber(m11):
    fiber = enumerate_fiber(m11, 23)
    fiber_set = set(fiber)
    lines = find_lines(m11, 23, fiber=fiber)
    assert len(lines) == 10
    for line in lines:
        assert len(line.points) == 24
        assert set(line.points) <= fiber_set
        assert set(line.span) <= set(line.points)


def test_smooth_points_have_jacobian_rank_three(m11):
    fiber = enumerate_fiber(m11, 7)
    for point in fiber:
        assert rank_mod_p(jacobian_matrix_mod_p(m11, 7, point), 7) == 3


def test_singular_point_drops_jacobian_rank(m11):
    singular = singular_points(m11, 11)
    assert singular == [(0, 0, 0, 0, 0, 1)]
    rank = rank_mod_p(jacobian_matrix_mod_p(m11, 11, singular[0]), 11)
    assert rank < 3


def test_chart_certificate_zeta11plus(m11):
    cert = verify_chart(m11)
    assert cert.prime == 11
    assert cert.identity_ok
    assert cert.injective
    assert cert.chart_size == 121
    assert len(cert.line_points) == 12
    assert cert.chart_size + len(cert.line_points) == 133
    assert set(cert.off_chart_points) == set(cert.line_points)


def test_chart_certificate_zeta25(m25):
    cert = verify_chart(m25)
    assert cert.prime == 5
    assert cert.identity_ok
    assert cert.injective
    assert cert.chart_size == 25
    assert len(cert.line_points) == 6
    assert set(cert.off_chart_points) == set(cert.line_points)


def test_chart_identity_is_a_polynomial_identity(m25):
    # u3 u5 - u4^2 - u0 u1 restricts to y^5 - y on the chart: zero at every
    # F_5-point, yet not the zero polynomial mod 5
    quadrics = [list(q) for q in m25.quadrics]
    for pair, c in (((3, 5), 1), ((4, 4), -1), ((0, 1), -1)):
        quadrics[0][U_QUADRIC_PAIRS.index(pair)] += c
    perturbed = DelPezzoModel(m25.source, m25.spec, quadrics, m25.l1, m25.l2)
    assert _has_solver_shape(perturbed.quadrics)
    with pytest.raises(ChartError, match="chart identity") as excinfo:
        verify_chart(perturbed)
    assert str(excinfo.value) == "chart identity fails mod 5: residue (1)*y^5 + (4)*y"


def test_chart_restriction_kills_a_quadric_combination():
    # u1 u5 - u2 u4 - 11 u2 u5 - u3^2 + 11 u3 u4 - 44 u4^2 restricted to the
    # chart collapses to -11 z^3 - 44 y^2 z^2, i.e. vanishes mod 11
    terms = {(1, 5): 1, (2, 4): -1, (2, 5): -11, (3, 3): -1, (3, 4): 11, (4, 4): -44}
    q = [terms.get(pair, 0) for pair in U_QUADRIC_PAIRS]
    (restricted,) = fibers._on_chart(np.array(_quadric_gram([q])))
    expected = np.zeros_like(restricted)
    expected[0, 3], expected[2, 2] = -11, -44
    assert (restricted == expected).all()
    assert not (restricted % 11).any()


def test_chart_restriction_commutes_with_evaluation(m11):
    rng = random.Random(17)
    vectors = [[rng.randint(-9, 9) for _ in U_QUADRIC_PAIRS] for _ in range(5)]
    m = DelPezzoModel("random", m11.spec, vectors, m11.l1, m11.l2)
    restricted = fibers._on_chart(np.array(_quadric_gram(m.quadrics)))
    for _ in range(20):
        y, z = rng.randint(-5, 5), rng.randint(-5, 5)
        point = (1, y, z, y * y, y * z, y ** 3 + z * z)
        values = tuple(
            sum(int(r[b, c]) * y ** b * z ** c for (b, c), _ in np.ndenumerate(r))
            for r in restricted
        )
        assert values == evaluate_quadrics(m, point)


def test_a_stripped_fixture_certifies_its_chart_and_a_construct_output_is_refused(m11, m25):
    # the prime is read off the field, so a fixture written to JSON keeps it
    for m in (m11, m25):
        stripped = DelPezzoModel.from_json_dict(m.to_json_dict())
        assert verify_chart(stripped) == verify_chart(m)
    # the model construct writes for the zeta11plus polynomial is not on the
    # chart at 11; one for a field ramified at two primes has no one prime
    with pytest.raises(ChartError, match="^chart identity fails mod 11: residue "):
        verify_chart(build_model(m11.spec))
    with pytest.raises(DomainError, match="^the field ramifies at 11 and 41; "):
        verify_chart(lehmer_model(3))


def test_enumeration_bound_is_enforced(m11):
    with pytest.raises(DomainError):
        enumerate_fiber(m11, 101)


def test_point_normalization_is_canonical(m11):
    fiber = enumerate_fiber(m11, 3)
    assert fiber == sorted(fiber)
    for point in fiber:
        lead = next(c for c in point if c)
        assert lead == 1
        assert all(0 <= c < 3 for c in point)


def scanned(m, p):
    """The chart scan of P^5, kept as the oracle of the solver: on each of the
    six standard charts the sparsest quadric is evaluated on a grid of at
    most 2^23 cells, and all five on its zeros."""
    gram = fibers._gram_mod_p(m.quadrics, p)
    k = min(range(5), key=lambda k: (not gram[k].any(), np.count_nonzero(gram[k])))
    terms = [(int(gram[k, i, j]), i, j) for i, j in zip(*np.nonzero(gram[k]))]
    found = []
    for chart in range(6):
        free = 5 - chart
        # leading free coordinates loop in python, the rest form one grid
        lead = 0
        while free - lead > 1 and p ** (free - lead) > 1 << 23:
            lead += 1
        dims = free - lead
        axes = [
            np.arange(p, dtype=np.int32).reshape([p if e == d else 1 for e in range(dims)])
            for d in range(dims)
        ]
        for head in np.ndindex(*((p,) * lead)):
            fixed = (0,) * chart + (1,) + head
            coords = list(fixed) + axes
            values = sum(c * (coords[i] * coords[j]) for c, i, j in terms) % p
            zero = np.broadcast_to(np.asarray(values) == 0, (p,) * dims)
            hits = np.flatnonzero(zero)[:, None] // p ** np.arange(dims - 1, -1, -1) % p
            x = np.column_stack([np.broadcast_to(fixed, (len(hits), len(fixed))), hits])
            found.append(x[fibers._on_fiber(gram, x, p)])
    return sorted(map(tuple, np.concatenate(found).tolist()))


def test_solver_equals_scan_up_to_31(m11, m25, built11):
    for m in (m11, m25, built11):
        assert _has_solver_shape(m.quadrics)
        for p in PRIMES_TO_31:
            assert enumerate_fiber(m, p) == scanned(m, p), (m.source, p)


def _unimodular(rng):
    """A random integer matrix of determinant 1: unit lower times unit upper."""
    lower = np.array([[rng.randint(-2, 2) if j < i else int(i == j) for j in range(6)] for i in range(6)])
    upper = np.array([[rng.randint(-2, 2) if j > i else int(i == j) for j in range(6)] for i in range(6)])
    return (lower @ upper).tolist()


def _normalize_point(coords, p):
    """The point with these coordinates scaled to first nonzero entry 1."""
    coords = [c % p for c in coords]
    lead = next((i for i, c in enumerate(coords) if c), None)
    if lead is None:
        return None
    inv = pow(coords[lead], -1, p)
    return tuple(c * inv % p for c in coords)


def _image(g, fiber, p):
    """The normalized points g v mod p of the points v of ``fiber``."""
    x = np.array(fiber, dtype=np.int64).reshape(-1, 6) @ np.array(g, dtype=np.int64).T % p
    return sorted(_normalize_point(v, p) for v in x.tolist())


def test_solver_coordinates_are_the_identity_where_the_shape_holds(m11):
    # the fixture is solved as given; a moved model gets an invertible g and
    # shaped quadrics, whose polar array is F g; the arrays are shared, so
    # read-only; the two caches evict on their own, so the gram cache is
    # filled afresh by the solver's own call before both are compared
    for p in (2, 11, 97):
        fibers._solver_coordinates.cache_clear()
        folded, g, moved = fibers._solver_coordinates(m11.quadrics, p)
        assert (g == np.eye(6)).all() and (folded == fibers._polar_mod_p(m11, p)).all()
        # the shared identity, so enumeration skips the map back
        assert g is fibers._IDENTITY_6
        assert moved is fibers._gram_mod_p(m11.quadrics, p)
        folded, g, moved = fibers._solver_coordinates(_substituted(m11, _unimodular(random.Random(0))).quadrics, p)
        assert rank_mod_p(g.tolist(), p) == 6 and _solver_shaped(moved)
        assert (folded @ g % p == (moved + moved.transpose(0, 2, 1)) % p).all()
        assert not any(a.flags.writeable for a in (folded, g, moved))


def test_a_move_without_the_solver_shape_is_never_solved(m11, monkeypatch):
    # with the tangent basis replaced by the identity, no move of a moved
    # model has the shape; the search refuses rather than hand the solver
    # an array its completeness proof does not cover
    gram = fibers._gram_mod_p(_substituted(m11, _unimodular(random.Random(0))).quadrics, 23)
    polar = (gram + gram.transpose(0, 2, 1)) % 23
    assert fibers._shaped_coordinates(gram, polar, 23)
    monkeypatch.setattr(fibers, "_tangent_basis", lambda *args: np.eye(6, dtype=np.int64))
    with pytest.raises(DomainError, match="no smooth point of the fiber mod 23"):
        fibers._shaped_coordinates(gram, polar, 23)


def test_singular_points_of_a_moved_fiber_are_certified_by_the_minor(m11, monkeypatch):
    # read in solver coordinates, the minor answers all but a handful of the
    # 9,410 points of a moved fiber at 97, so few are row-reduced
    moved = _substituted(m11, _unimodular(random.Random(0)))
    fiber = enumerate_fiber(moved, 97)
    sizes, reduce = [], fibers._row_reduce_mod_p
    monkeypatch.setattr(fibers, "_row_reduce_mod_p", lambda m, p: sizes.append(len(m)) or reduce(m, p))
    assert singular_points(moved, 97, fiber=fiber) == []
    assert sum(sizes) * 100 < len(fiber) == 9410


def test_inert_fibers_run_no_elimination(m11, m25, monkeypatch):
    # the two families of minors decide every point of an inert fixture
    # fiber, e0 included, so none is row-reduced; the one singular point at
    # each ramified prime still is
    sizes, reduce = [], fibers._row_reduce_mod_p
    monkeypatch.setattr(fibers, "_row_reduce_mod_p", lambda m, p: sizes.append(len(m)) or reduce(m, p))
    inert = [
        (m, p)
        for m in (m11, m25)
        for p in (2, 3, 7, 13)
        if minpoly_splitting_mod_p(m.spec, p) == "separable-irreducible"
    ]
    assert len(inert) == 7
    for m, p in inert:
        assert classify_fiber(m, p).classification == "interesting"
    assert sizes == []
    assert singular_points(m11, 11) == [(0, 0, 0, 0, 0, 1)]
    assert len(singular_points(m25, 5)) == 1
    assert sizes == [1, 1]


def test_quadric_rank_is_read_off_the_invariant_factors(m11, m25):
    # no fixture or Lehmer model n = -4..5 has dependent quadrics mod a
    # prime <= 100, so the rank rule changes none of their fibers; the rank
    # mod p agrees with a row reduction, on rank-deficient models too
    models = [m11, m25] + [lehmer_model(n) for n in range(-4, 6)]
    primes = [p for p in range(2, 101) if fibers._is_prime(p)]
    for m in models:
        assert _quadric_rank(m.quadrics) == 5
        assert all(_quadric_rank(m.quadrics, p) == 5 for p in primes), m.source
    for p in (7, 13):
        for m in [*_rank_deficient_models(m11, p), *_no_smooth_point_models(m11)]:
            for q in primes[:8] + [p]:
                assert _quadric_rank(m.quadrics, q) == rank_mod_p(m.quadrics, q), (m.source, q)


def test_moved_model_fibers_are_the_coordinate_image_up_to_97(m11):
    # an integer change of coordinates u = g v with det g = 1 destroys the
    # solver shape; at every prime the moved fiber is g^-1 of the fixture's
    g = _unimodular(random.Random(0))
    moved = _substituted(m11, g)
    assert not _has_solver_shape(moved.quadrics)
    counts = {}
    for p in range(2, 98):
        if fibers._is_prime(p):
            fiber = enumerate_fiber(moved, p)
            assert _image(g, fiber, p) == enumerate_fiber(m11, p), p
            if p <= 13:
                assert fiber == scanned(moved, p), p
            counts[p] = len(fiber)
    assert [counts[p] for p in (23, 31, 47, 97)] == [645, 962, 2210, 9410]


def _drawn_unimodular(data, n=6):
    """An n x n ``_unimodular`` matrix with its entries drawn by hypothesis."""
    entry = st.integers(-2, 2)
    lower = [[data.draw(entry) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[data.draw(entry) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    return (np.array(lower) @ np.array(upper)).tolist()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(fixture=st.sampled_from(("zeta11plus", "zeta25")), data=st.data())
def test_moved_model_keeps_lines_singular_points_and_classification(m11, m25, fixture, data):
    # the quadrics E q(g v) for unimodular E and g cut out g^-1 of the
    # fixture's fiber at every prime <= 31, singular points and lines
    # included, whichever coordinates the solver and the minor work in
    m = m11 if fixture == "zeta11plus" else m25
    g, e = _drawn_unimodular(data), _drawn_unimodular(data, 5)
    substituted = _substituted(m, g)
    moved = DelPezzoModel("moved", m.spec, (np.array(e) @ substituted.quadrics).tolist(), m.l1, m.l2)
    for p in PRIMES_TO_31:
        report, reference = classify_fiber(moved, p), classify_fiber(m, p)
        assert report.classification == reference.classification, p
        assert _image(g, report.points, p) == list(reference.points), p
        assert _image(g, report.singular, p) == list(reference.singular), p
        lines = sorted(_image(g, line.points, p) for line in report.lines)
        assert lines == [list(line.points) for line in reference.lines], p


def test_transformed_models_mod_11_are_solved(m11):
    # a random GL6 change of coordinates mod 11 destroys the solver shape;
    # its fiber is the coordinate change of the fixture's fiber
    g = _random_invertible_mod11(random.Random(3))
    moved = transformed_model_mod11(m11, g)
    assert not _has_solver_shape(moved.quadrics)
    fiber = enumerate_fiber(moved, 11)
    assert fiber == scanned(moved, 11)
    assert len(fiber) == 133
    assert _image(g, fiber, 11) == enumerate_fiber(m11, 11)


@pytest.mark.parametrize("seed", (3, 30, 31, 37))
def test_moves_that_put_the_line_m_on_the_plane_t0_are_solved(m11, seed):
    # these moves mod 11 put the line M = {l1 = 0} of the fiber at 11
    # through the solver's base point e0, into the plane t = 0: its other
    # eleven points come from the one P^1 row of its direction, where
    # quadrics 1-3 have no u0 coefficient and all eleven u0 are taken
    moved = transformed_model_mod11(m11, _random_invertible_mod11(random.Random(seed)))
    _, g, gram = fibers._solver_coordinates(moved.quadrics, 11)
    solved = fibers._solve_fiber(gram, 11)
    plane = _image(g, solved[~solved[:, 3:].any(axis=1)].tolist(), 11)
    fiber = enumerate_fiber(moved, 11)
    assert fiber == scanned(moved, 11)
    assert plane == [x for x in fiber if np.dot(x, moved.l1) % 11 == 0] and len(plane) == 12


def _invertible(data, p):
    """A matrix of GL6(F_p) as P L U: a permutation, a unit lower triangular
    and an upper triangular matrix with a unit diagonal, so every element
    of GL6(F_p) can be drawn."""
    entry = st.integers(0, p - 1)
    perm = data.draw(st.permutations(range(6)))
    lower = [[data.draw(entry) if j < i else int(i == j) for j in range(6)] for i in range(6)]
    upper = [
        [data.draw(entry) if j > i else data.draw(st.integers(1, p - 1)) if i == j else 0
         for j in range(6)]
        for i in range(6)
    ]
    g = np.array(lower)[perm] @ np.array(upper) % p
    return g.tolist()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(p=st.sampled_from((2, 3, 5, 7, 11, 13)), data=st.data())
def test_solver_equals_scan_after_changes_in_gl6(m11, p, data):
    moved = _substituted(m11, _invertible(data, p))
    assert enumerate_fiber(moved, p) == scanned(moved, p)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(p=st.sampled_from((2, 3, 5, 7)), data=st.data())
def test_slice_zeros_are_the_zeros_of_the_restricted_quadric(p, data):
    entries = data.draw(st.lists(st.integers(0, p - 1), min_size=16, max_size=16))
    h = np.triu(np.array(entries, dtype=np.int64).reshape(4, 4))
    expected = sorted(
        y
        for y in product(range(p), repeat=4)
        if any(y) and y[next(i for i, c in enumerate(y) if c)] == 1 and int(y @ h @ y) % p == 0
    )
    assert sorted(map(tuple, fibers._slice_zeros(h, p).tolist())) == expected


def _no_smooth_point_models(m11):
    """Two models without the solver shape whose fiber mod 7 has no point of
    Jacobian rank 3: quadrics that all vanish mod 7, and five random
    independent quadrics meeting in finitely many transversal points."""
    zero = _substituted(m11, _unimodular(random.Random(0)))
    zero = DelPezzoModel("zero", m11.spec, [[7 * c for c in q] for q in zero.quadrics], m11.l1, m11.l2)
    rng = random.Random(2)
    generic = DelPezzoModel(
        "generic", m11.spec, [[rng.randint(-3, 3) for _ in range(21)] for _ in range(5)], m11.l1, m11.l2
    )
    return zero, generic


def _dependence_message(rank, p):
    return re.escape(f"model quadrics have rank {rank} mod {p}, expected 5 independent quadrics")


def test_a_fiber_without_a_smooth_point_is_refused(m11):
    # quadrics that all vanish mod 7 are refused by the rank rule before any
    # search; independent ones after SLICE_BOUND slices without a move
    zero, generic = _no_smooth_point_models(m11)
    for m in (zero, generic):
        assert not _has_solver_shape(m.quadrics)
        fiber = scanned(m, 7)
        assert fiber and 3 not in _jacobian_ranks(m, 7, fiber), m.source
    assert rank_mod_p(zero.quadrics, 7) == 0 and rank_mod_p(generic.quadrics, 7) == 5
    with pytest.raises(DomainError, match=_dependence_message(0, 7)):
        enumerate_fiber(zero, 7)
    with pytest.raises(DomainError, match="no smooth point of the fiber mod 7"):
        enumerate_fiber(generic, 7)


def _rank_deficient_models(m11, p, moved=True):
    """A unimodular change of zeta11plus (or zeta11plus as given, with the
    solver shape) with two quadrics, or one, multiplied by p: mod p its
    quadrics span three or four dimensions."""
    q = (_substituted(m11, _unimodular(random.Random(0))) if moved else m11).quadrics
    return [
        DelPezzoModel(
            f"rank-{5 - n}", m11.spec, [[p * c for c in v] if k >= 5 - n else v for k, v in enumerate(q)],
            m11.l1, m11.l2,
        )
        for n in (2, 1)
    ]


@pytest.mark.parametrize("p", (7, 13))
def test_a_fiber_cut_by_fewer_than_five_quadrics_is_refused(m11, p):
    # such a fiber has smooth points, but it is more than a surface
    for m, rank in zip(_rank_deficient_models(m11, p), (3, 4)):
        assert 3 in _jacobian_ranks(m, p, scanned(m, p)), m.source
        with pytest.raises(DomainError, match=_dependence_message(rank, p)):
            enumerate_fiber(m, p)


@pytest.mark.parametrize("moved", (False, True), ids=("as-given", "moved"))
def test_rank_deficient_quadrics_are_refused_in_every_coordinate_system(m11, moved):
    # the same rule and message whether or not the model has the solver
    # shape, for enumeration, singular points and classification alike
    for p in (7, 13):
        for m, rank in zip(_rank_deficient_models(m11, p, moved), (3, 4)):
            assert _has_solver_shape(m.quadrics) != moved
            assert rank_mod_p(m.quadrics, p) == rank
            for step in (enumerate_fiber, singular_points, classify_fiber):
                with pytest.raises(DomainError, match=_dependence_message(rank, p)):
                    step(m, p)


def _every_plane_degenerate(m, p):
    gram = fibers._gram_mod_p(m.quadrics, p)
    a = np.einsum("kvj,nj->nkv", gram[3:, 1:3, 3:], fibers._projective_plane(p)) % p
    det = (a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]) % p
    return _has_solver_shape(m.quadrics) and not det.any()


@pytest.mark.parametrize("p", (7, 13))
@pytest.mark.parametrize("block", (1, 500, fibers._CANDIDATE_BLOCK))
def test_a_solver_shaped_fiber_cut_by_fewer_than_five_quadrics_is_solved(m11, monkeypatch, p, block):
    # det a(t) = 0 at every t: the blocked solver still lists the fiber
    # exactly, with the candidates in blocks of one plane, of a few planes,
    # or in one block; enumerate_fiber refuses the model by the rank rule
    # before it reaches the solver
    monkeypatch.setattr(fibers, "_CANDIDATE_BLOCK", block)
    for m, rank in zip(_rank_deficient_models(m11, p, moved=False), (3, 4)):
        assert _every_plane_degenerate(m, p), m.source
        solved = fibers._solve_fiber(fibers._gram_mod_p(m.quadrics, p), p).tolist()
        assert sorted(_normalize_point(x, p) for x in solved) == scanned(m, p), m.source
        with pytest.raises(DomainError, match=_dependence_message(rank, p)):
            enumerate_fiber(m, p)


def test_degenerate_candidates_come_in_blocks_of_whole_planes(m11, monkeypatch):
    # independent quadrics whose quadrics 4-5 have no (u1, u2) term: a(t) =
    # 0 on every plane, which lists all p^2 pairs, p^2 (p^2 + p + 1)
    # candidates, and no block reaches _CANDIDATE_BLOCK + p^2 of them
    p = 23
    m = _degenerate_model(m11, 0)
    assert rank_mod_p(m.quadrics, p) == 5
    assert not fibers._gram_mod_p(m.quadrics, p)[3:, 1:3, 3:].any()
    sizes, solve = [], fibers._plane_solutions
    monkeypatch.setattr(
        fibers, "_plane_solutions", lambda a, c, t, *rest: sizes.append(p * p * len(t)) or solve(a, c, t, *rest)
    )
    # each enumeration below solves afresh, not from the request cache
    fibers._FIBER_CACHE.clear()
    fiber = enumerate_fiber(m, p)
    assert sum(sizes) == p * p * (p * p + p + 1)
    assert len(sizes) > 2 and max(sizes) < fibers._CANDIDATE_BLOCK + p * p
    monkeypatch.setattr(fibers, "_CANDIDATE_BLOCK", 1)
    fibers._FIBER_CACHE.clear()
    assert enumerate_fiber(m, p) == fiber


def _block_triangular(data, p):
    """Random g with u0 -> a u0 + L, (u1, u2) -> M (u1, u2) + N, t -> G t."""

    def row(size):
        return data.draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))

    g = [[data.draw(st.integers(1, p - 1))] + row(5)] + [[0] * 6 for _ in range(5)]
    for lo, hi in ((1, 3), (3, 6)):
        block = [row(hi - lo) for _ in range(lo, hi)]
        if rank_mod_p(block, p) < hi - lo:
            # keep the strictly lower part under a unit diagonal
            rows = enumerate(block)
            block = [[x if j < i else int(i == j) for j, x in enumerate(r)] for i, r in rows]
        for i in range(lo, hi):
            g[i][lo:] = block[i - lo] + row(6 - hi)
    return g


def _substituted(m, g):
    """The quadrics of m in coordinates u = g v, read off pointwise.

    Polarization holds in every characteristic: the coefficient of v_i^2 is
    q(g e_i) and that of v_i v_j is q(g (e_i + e_j)) - q(g e_i) - q(g e_j).
    The values come from ``evaluate_quadrics`` on m, not from a Gram array.
    """

    def q(*cols):
        return evaluate_quadrics(m, [sum(g[r][c] for c in cols) for r in range(6)])

    coeffs = [
        q(i) if i == j else [a - b - c for a, b, c in zip(q(i, j), q(i), q(j))]
        for i, j in U_QUADRIC_PAIRS
    ]
    return DelPezzoModel("substituted", m.spec, list(zip(*coeffs)), m.l1, m.l2)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(p=st.sampled_from((2, 3, 5, 7, 11, 13)), data=st.data())
def test_solver_equals_scan_after_block_triangular_changes(m11, p, data):
    moved = _substituted(m11, _block_triangular(data, p))
    assert _has_solver_shape(moved.quadrics)
    assert enumerate_fiber(moved, p) == scanned(moved, p)


# the (i, j) pairs that a quadric k of the solver shape may use
SHAPED_PAIRS = [
    [(i, j) != (0, 0) and (k < 3 or (i > 0 and j > 2)) for i, j in U_QUADRIC_PAIRS]
    for k in range(5)
]


def _random_shaped(m11, data):
    coefficients = st.lists(st.integers(-2, 2), min_size=21, max_size=21)
    vectors = [[c * ok for c, ok in zip(data.draw(coefficients), row)] for row in SHAPED_PAIRS]
    return DelPezzoModel("random", m11.spec, vectors, m11.l1, m11.l2)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(p=st.sampled_from((2, 3, 5, 7)), data=st.data())
def test_solver_equals_scan_on_random_shaped_quadrics(m11, p, data):
    # random quadrics with the solver shape reach every branch: vanishing
    # determinants of every rank and points where no u0 coefficient survives;
    # dependent ones are refused
    shaped = _random_shaped(m11, data)
    rank = rank_mod_p(shaped.quadrics, p)
    if rank < 5:
        with pytest.raises(DomainError, match=_dependence_message(rank, p)):
            enumerate_fiber(shaped, p)
        return
    assert enumerate_fiber(shaped, p) == scanned(shaped, p)


def _degenerate_model(m11, rank):
    """Quadrics 1-3 seeded at random with the solver shape, and quadrics 4-5
    u3 u4 and u4 u5 plus, at rank 1, multiples 1 and 3 of one (u1, u2) part:
    the 2x2 system a(t) of quadrics 4-5 has rank at most ``rank`` at every t."""
    rng = random.Random(5)
    vectors = [[rng.randint(-3, 3) * ok for ok in row] for row in SHAPED_PAIRS]
    for k, pair in ((3, (3, 4)), (4, (4, 5))):
        vectors[k] = [int(q == pair) for q in U_QUADRIC_PAIRS]
    if rank:
        # both rows of a(t) are multiples of (u3 + u5, 2 u4 - u3)
        for k, scale in ((3, 1), (4, 3)):
            for pair, c in (((1, 3), 1), ((1, 5), 1), ((2, 3), -1), ((2, 4), 2)):
                vectors[k][U_QUADRIC_PAIRS.index(pair)] = scale * c
    return DelPezzoModel("degenerate", m11.spec, vectors, m11.l1, m11.l2)


@pytest.mark.parametrize("rank", (0, 1))
def test_solver_equals_scan_when_every_plane_is_degenerate(m11, rank):
    # rank 0: both equations are constant on every plane, so each plane
    # lists all p^2 pairs (u1, u2); rank 1: the line of the first equation,
    # except on the plane u3 + u5 = 2 u4 - u3 = 0, where a(t) = 0
    m = _degenerate_model(m11, rank)
    assert _has_solver_shape(m.quadrics)
    a = np.array(_quadric_gram(m.quadrics))[3:, 1:3, 3:]
    assert np.linalg.matrix_rank(a.reshape(2, 6)) == rank
    for p in range(2, 14):
        if fibers._is_prime(p):
            fiber = enumerate_fiber(m, p)
            assert fiber and fiber == scanned(m, p), (rank, p)


def _jacobian_ranks(m, p, fiber):
    """The Jacobian rank at every fiber point, by one row reduction."""
    x = np.array(fiber, dtype=np.int64)
    jacobians = (fibers._polar_mod_p(m, p) @ x.T % p).transpose(2, 0, 1)
    return fibers._row_reduce_mod_p(jacobians, p)[1].sum(axis=1).tolist()


def _full_rank_test(m, p, fiber):
    """Fiber points whose Jacobian has rank below 3."""
    return [pt for pt, rank in zip(fiber, _jacobian_ranks(m, p, fiber)) if rank < 3]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(p=st.sampled_from((2, 3, 5, 7)), data=st.data())
def test_minor_shortcut_equals_the_full_rank_test_on_random_shaped_quadrics(m11, p, data):
    shaped = _random_shaped(m11, data)
    rank = rank_mod_p(shaped.quadrics, p)
    if rank < 5:
        with pytest.raises(DomainError, match=_dependence_message(rank, p)):
            singular_points(shaped, p, fiber=scanned(shaped, p))
        return
    fiber = enumerate_fiber(shaped, p)
    assert singular_points(shaped, p, fiber=fiber) == _full_rank_test(shaped, p, fiber)


def test_minor_shortcut_equals_the_full_rank_test_up_to_31(m11, m25, built11):
    singular = 0
    for m in (m11, m25, built11):
        for p in PRIMES_TO_31:
            fiber = enumerate_fiber(m, p)
            expected = _full_rank_test(m, p, fiber)
            assert singular_points(m, p, fiber=fiber) == expected, (m.source, p)
            singular += len(expected)
    assert singular >= 4


def test_cofactor_minors_equal_the_cross_product_minors():
    # the ten minors of rows 1-3 on three of u1..u5, read as r0 . (r1 x r2)
    rng = np.random.default_rng(7)
    columns = list(combinations(range(5), 3))
    for p in PRIMES_TO_31:
        jacobians = rng.integers(0, p, size=(200, 5, 6))
        r = jacobians[:, :3, 1:][..., columns]
        crossed = (r[:, 0] * np.cross(r[:, 1], r[:, 2])).sum(axis=-1) % p
        assert (fibers._row_1_3_minors(jacobians) % p == crossed).all(), p
        assert crossed.any() and not crossed.all(), p


def test_weil_counts_at_89_and_97(m11):
    split = classify_fiber(m11, 89)
    assert minpoly_splitting_mod_p(m11.spec, 89) == "separable-split"
    assert split.classification == "split"
    assert split.point_count == 8367 == 89 * 89 + 5 * 89 + 1
    assert len(split.lines) == 10
    assert all(len(line.points) == 90 for line in split.lines)
    inert = classify_fiber(m11, 97)
    assert inert.classification == "interesting"
    assert inert.point_count == 9410 == 97 * 97 + 1


def test_solve_mod_p_returns_rank_particular_and_kernel():
    rows = [[1, 2, 3], [2, 4, 6]]
    rank, part, kernel = solve_mod_p(rows, 7, [1, 2])
    assert rank == 1
    assert part == (1, 0, 0)
    assert kernel == ((5, 1, 0), (4, 0, 1))
    for vec in kernel:
        assert all(sum(a * b for a, b in zip(row, vec)) % 7 == 0 for row in rows)
    assert solve_mod_p(rows, 7, [1, 3])[1] is None
    assert rank_mod_p([[1, 1], [1, 1]], 2) == 1
    assert rank_mod_p([[1, 1], [1, 0]], 2) == 2


def _reader_systems(rng, p, c):
    """Systems [A | b] mod p with A (4, c): random, all zero, rank-deficient
    (row 3 repeats row 0) and inconsistent (row 3 repeats row 0 of A with
    another right-hand side)."""
    systems = []
    for kind in ("random", "zero", "deficient", "inconsistent"):
        a = [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(c + 1)] for _ in range(4)]
        if kind == "zero":
            a = [[0] * (c + 1)] * 4
        elif kind != "random":
            a[3] = list(a[0])
            a[3][c] = (a[3][c] + (kind == "inconsistent")) % p
        systems.append(a)
    return systems


def test_the_kernel_reader_solves_every_system_of_a_stack():
    # _free_kernels of one row-reduced stack: the free rows span the kernel,
    # counted against every vector of F_p^c, and minus the row of the
    # right-hand column solves A x = b exactly when some vector does
    rng = random.Random(19)
    consistent = inconsistent = 0
    for p in (2, 3, 5, 11):
        for c in range(1, 5 if p == 11 else 7):
            stack = np.array([s for _ in range(3) for s in _reader_systems(rng, p, c)], dtype=np.int64)
            reduced, pivots = fibers._row_reduce_mod_p(stack, p)
            kernels = fibers._free_kernels(reduced, pivots, p)
            grid = np.array(list(product(range(p), repeat=c)), dtype=np.int64)
            for system, k, pivot in zip(stack, kernels, pivots):
                a, b = system[:, :c], system[:, c]
                free = ~pivot[:c]
                basis = k[:c, :c][free]
                assert not (a @ basis.T % p).any()
                # c - rank of them, independent: the identity on the free columns
                assert p ** len(basis) == (~(a @ grid.T % p).any(axis=0)).sum()
                assert (basis[:, free] == np.eye(len(basis))).all()
                solvable = (~((a @ grid.T - b[:, None]) % p).any(axis=0)).any()
                assert solvable == (not pivot[c])
                if solvable:
                    assert not ((a @ (-k[c, :c] % p) - b) % p).any()
                consistent += solvable
                inconsistent += not solvable
    assert consistent > 100 and inconsistent > 50


def _oracle_lines(m, p):
    """The lines of the fiber of m mod p by brute force, as a sorted list of
    sorted point tuples.

    Every pair of fiber points on which the five polar forms of
    ``m.quadrics`` vanish spans a line of the surface, since q(aP + bQ) =
    a^2 q(P) + b^2 q(Q) + ab P^T B Q.  The p + 1 points of each pair's line
    are normalized here, each must be a fiber point, and the lines are
    deduplicated as point sets.
    """
    fiber = enumerate_fiber(m, p)
    x = np.array(fiber, dtype=np.int64).reshape(-1, 6)
    polar = np.zeros((5, 6, 6), dtype=np.int64)
    for b, q in zip(polar, m.quadrics):
        for (i, j), c in zip(U_QUADRIC_PAIRS, q):
            b[i, j] += c
            b[j, i] += c
    on_lines = np.ones((len(x), len(x)), dtype=bool)
    for b in polar % p:
        on_lines &= (x @ b % p) @ x.T % p == 0
    i, j = np.nonzero(np.triu(on_lines, 1))
    points = np.concatenate([(x[i, None] + np.arange(p)[:, None] * x[j, None]) % p, x[j, None]], axis=1)
    lead = np.take_along_axis(points, (points != 0).argmax(axis=2)[..., None], axis=2)
    inverse = np.array([0] + [pow(v, -1, p) for v in range(1, p)])
    points = points * inverse[lead] % p
    # one row of point indices in P^5 per line, its points in any order
    lines = np.unique(np.sort(np.ravel_multi_index(points.transpose(2, 0, 1), (p,) * 6), axis=1), axis=0)
    lines = [set(zip(*np.unravel_index(line, (p,) * 6))) for line in lines]
    members = set(fiber)
    assert all(line <= members for line in lines), "a line leaves the fiber"
    return sorted(tuple(sorted(tuple(map(int, pt)) for pt in line)) for line in lines)


def _line_models():
    """Both fixtures, the ten Lehmer models and three unimodular moves of
    each fixture, by name."""
    models = {name: fixture(name) for name in ("zeta11plus", "zeta25")}
    models.update({f"lehmer{n}": lehmer_model(n) for n in range(-4, 6)})
    for name in ("zeta11plus", "zeta25"):
        rng = random.Random(name)
        models.update({f"{name}-moved{k}": _substituted(models[name], _unimodular(rng)) for k in range(3)})
    return models


LINE_MODELS = _line_models()


@pytest.mark.parametrize("name", LINE_MODELS)
def test_find_lines_equals_a_brute_force_line_search(name):
    # every pair of fiber points, not only the pairs with a point on u0 = 0,
    # on all five polar forms; the fiber passed as an array, as tuples in
    # any order, or not at all gives the same lines
    m = LINE_MODELS[name]
    for p in PRIMES_TO_31:
        expected = _oracle_lines(m, p)
        fiber = enumerate_fiber(m, p)
        for given in (None, fiber[::-1], np.array(fiber, dtype=np.int64)):
            lines = find_lines(m, p, fiber=given)
            assert [line.points for line in lines] == expected, (name, p)
            assert all(line.span == line.points[:2] for line in lines), (name, p)


def test_the_fiber_is_in_increasing_tuple_order(m11):
    # the rows of the fiber array are sorted by base-p code, which is tuple
    # order; the points are distinct
    fiber = enumerate_fiber(m11, 97)
    assert len(fiber) == 9410
    assert all(a < b for a, b in zip(fiber, fiber[1:]))


def test_find_lines_raises_when_a_line_leaves_the_fiber(m11):
    # drop a point of a line off u0 = 0: the line's other points still span it
    fiber = enumerate_fiber(m11, 23)
    line = find_lines(m11, 23, fiber=fiber)[0]
    dropped = next(pt for pt in line.points if pt[0])
    with pytest.raises(FiberInconsistencyError):
        find_lines(m11, 23, fiber=[pt for pt in fiber if pt != dropped])


@pytest.mark.parametrize("seed", range(5))
def test_transformed_model_matches_the_substitution(m11, seed):
    # the Gram congruence g^T G g against substituting u = g v into each quadric
    g = _random_invertible_mod11(random.Random(seed))
    moved = transformed_model_mod11(m11, g)
    reference = _substituted(m11, g)
    assert moved.quadrics == tuple(tuple(c % 11 for c in q) for q in reference.quadrics)


def test_one_claim_table_solves_each_fiber_once(fiber_solves):
    # the fibers, the smooth routes, the chart certificates and the chart
    # lifts share one request cache, so one clear() starts a claim table
    # cold, and it solves each (quadrics, p) once: 14 fibers, 4 routes, 2
    # certificates and 1 lift table stay inside it
    assert obstruction._FIBER_CACHE is fibers._FIBER_CACHE
    assert verify.run_claims(fast=False)["counts"] == {"ok": 32, "flagged": 2, "fail": 0}
    assert len(fiber_solves) == 14 and set(fiber_solves.values()) == {1}
    assert len(fibers._FIBER_CACHE) == 21 <= fibers.CACHE_SIZE
    assert sum(key[0] == "chart" for key in fibers._FIBER_CACHE) == 2
