"""The lattice side: ten classes, their graph, the order-5 action, H^1."""

import random
from itertools import product

import pytest

from dp5brauer.errors import DomainError
from dp5brauer.intlinalg import IntMatrix
from dp5brauer.picard import (
    CANONICAL_CLASS,
    _graph_automorphisms,
    _lattice_map,
    class_label,
    h1_cyclic,
    image_lattice_hnf,
    interesting_sigma,
    matrix_order,
    minus_one_classes,
    pairing,
    petersen_graph,
    pic_u_action,
    preserves_pairing,
)

# 4x4 quotient action in the basis [L0..L3], as derived from the 5x5 action
QUOTIENT_MATRIX = [[2, 1, 1, 3], [-1, -1, 0, -1], [-1, -1, -1, -1], [-1, 0, -1, -1]]


def test_exactly_ten_minus_one_classes():
    classes = minus_one_classes()
    assert len(classes) == 10
    assert (0, 1, 0, 0, 0) in classes
    assert (1, -1, -1, 0, 0) in classes
    for v in classes:
        assert pairing(v, v) == -1
        assert pairing(v, CANONICAL_CLASS) == -1
    # widening the search window finds nothing new
    assert minus_one_classes(bound=5) == classes


def test_minus_one_classes_match_a_search_of_the_whole_box():
    for bound in (2, 3):
        box = range(-bound, bound + 1)
        expected = sorted(
            v
            for v in product(box, repeat=5)
            if pairing(v, v) == -1 and pairing(v, CANONICAL_CLASS) == -1
        )
        assert minus_one_classes(bound) == expected


def test_class_labels():
    assert class_label((0, 1, 0, 0, 0)) == "L1"
    assert class_label((1, -1, -1, 0, 0)) == "L0-L1-L2"
    with pytest.raises(DomainError):
        class_label((0, 2, 0, 0, 0))


def test_petersen_graph_structure():
    report = petersen_graph()
    assert len(report.vertices) == 10
    assert len(report.edges) == 15
    assert report.automorphism_count == 120
    assert report.lattice_extensions_ok
    degree = {i: 0 for i in range(10)}
    for i, j in report.edges:
        degree[i] += 1
        degree[j] += 1
    assert set(degree.values()) == {3}
    # Kneser labeling: adjacency is exactly label disjointness
    for i, j in report.edges:
        assert not (report.pair_labels[i] & report.pair_labels[j])


def test_a_class_permutation_that_is_not_linear_does_not_extend():
    classes = minus_one_classes()
    image_of = dict(zip(classes, classes))
    # L1..L4 and the first conic class stay fixed, so the map built from them
    # is the identity; only the check of the other images can refuse it
    a, b = classes[-2], classes[-1]
    image_of[a], image_of[b] = b, a
    matrices, ok = _lattice_map(classes, [[image_of[v] for v in classes], classes])
    assert ok.tolist() == [False, True]
    assert IntMatrix(matrices[1].tolist()) == IntMatrix.identity(5)


def _automorphisms_by_backtracking(adjacency):
    """Every automorphism, vertex by vertex with a check against the earlier
    ones; the reference of the array search."""
    n, found = len(adjacency), []

    def extend(image):
        v = len(image)
        if v == n:
            found.append(tuple(image))
            return
        for w in range(n):
            if w not in image and len(adjacency[w]) == len(adjacency[v]) and all(
                (u in adjacency[v]) == (image[u] in adjacency[w]) for u in range(v)
            ):
                extend(image + [w])

    extend([])
    return found


def test_graph_automorphisms_match_a_backtracking_search():
    classes = minus_one_classes()
    graphs = [
        [frozenset(j for j, w in enumerate(classes) if pairing(v, w) == 1) for v in classes]
    ]
    rng = random.Random(3)
    for n in (1, 4, 6, 7):
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5}
        graphs.append([frozenset(j for j in range(n) if (i, j) in edges or (j, i) in edges) for i in range(n)])
    for adjacency in graphs:
        assert _graph_automorphisms(adjacency) == _automorphisms_by_backtracking(adjacency)


def test_sigma_is_an_order_five_lattice_symmetry():
    action = interesting_sigma()
    assert action.order == 5
    assert matrix_order(action.matrix) == 5
    assert preserves_pairing(action.matrix)
    assert action.matrix.apply(CANONICAL_CLASS) == CANONICAL_CLASS
    assert action.matrix.apply((1, 0, 0, 0, 0)) == (2, -1, -1, -1, 0)


def test_sigma_splits_the_classes_into_two_five_orbits():
    action = interesting_sigma()
    classes = minus_one_classes()
    image = {v: action.matrix.apply(v) for v in classes}
    assert set(image.values()) == set(classes)
    sizes = []
    seen = set()
    for v in classes:
        if v in seen:
            continue
        orbit = [v]
        seen.add(v)
        w = image[v]
        while w != v:
            orbit.append(w)
            seen.add(w)
            w = image[w]
        sizes.append(len(orbit))
    assert sorted(sizes) == [5, 5]


def test_quotient_action_matches_the_derived_matrix():
    quotient = pic_u_action(interesting_sigma())
    assert quotient.to_lists() == QUOTIENT_MATRIX
    assert matrix_order(quotient) == 5
    # norm relation: 1 + s + s^2 + s^3 + s^4 = 0 on the quotient
    power = IntMatrix.identity(4)
    acc = IntMatrix.zeros(4, 4)
    for _ in range(5):
        acc = IntMatrix(
            [[acc[i, j] + power[i, j] for j in range(4)] for i in range(4)]
        )
        power = power @ quotient
    assert acc == IntMatrix.zeros(4, 4)


def test_quotient_action_requires_fixing_k():
    flip = IntMatrix(
        [
            [1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, -1],
        ]
    )
    with pytest.raises(DomainError):
        pic_u_action(flip)


def test_h1_of_the_quotient_action_is_cyclic_of_order_five():
    assert h1_cyclic(IntMatrix(QUOTIENT_MATRIX)) == (5,)
    assert h1_cyclic(pic_u_action(interesting_sigma()), order=5) == (5,)


def test_image_lattice_basis():
    hnf_basis = image_lattice_hnf(IntMatrix(QUOTIENT_MATRIX))
    assert hnf_basis.to_lists() == [
        [1, 0, 0, 2],
        [0, 1, 0, 4],
        [0, 0, 1, 4],
        [0, 0, 0, 5],
    ]


def test_h1_trivial_cases():
    assert h1_cyclic(IntMatrix.identity(4), order=5) == ()
    cycle = IntMatrix(
        [
            [0, 0, 0, 0, 1],
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
        ]
    )
    assert h1_cyclic(cycle) == ()


def test_h1_rejects_wrong_order_declarations():
    with pytest.raises(DomainError):
        h1_cyclic(IntMatrix(QUOTIENT_MATRIX), order=3)
    with pytest.raises(DomainError):
        matrix_order(IntMatrix([[1, 1], [0, 1]]))


def _preserves_pairing_by_unit_vectors(matrix):
    # the pairing of M e_i with M e_j against that of e_i with e_j
    units = [tuple(int(k == i) for k in range(5)) for i in range(5)]
    return all(
        pairing(matrix.apply(ei), matrix.apply(ej)) == pairing(ei, ej)
        for ei in units
        for ej in units
    )


def test_gram_identity_matches_the_unit_vector_pairings():
    classes = minus_one_classes()
    adjacency = [
        frozenset(j for j, w in enumerate(classes) if pairing(v, w) == 1) for v in classes
    ]
    autos = _graph_automorphisms(adjacency)
    matrices, ok = _lattice_map(classes, [[classes[i] for i in perm] for perm in autos])
    assert ok.all()
    extensions = [IntMatrix(m) for m in matrices.tolist()]
    assert len(extensions) == 120
    rng = random.Random(5)
    matrices = []
    for _ in range(20):
        matrices.append(IntMatrix([[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]))
        # I + v w^T fixes K when w . K = 0, as a plain dot product
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        w = (a, 3 * a + b, c - b, d - c, -d)
        v = [rng.randint(-2, 2) for _ in range(5)]
        matrices.append(IntMatrix([[int(i == j) + v[i] * w[j] for j in range(5)] for i in range(5)]))
    assert any(
        m.apply(CANONICAL_CLASS) == CANONICAL_CLASS and not preserves_pairing(m) for m in matrices
    )
    for m in extensions + matrices:
        assert preserves_pairing(m) == _preserves_pairing_by_unit_vectors(m)
