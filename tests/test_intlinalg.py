"""Exact integer linear algebra: normal forms, kernels, indices.

The worked examples are frozen by hand; the law suite drives the same
routines over seeded random matrices and checks the defining equations
instead of outputs.
"""

import hashlib
import random
from itertools import combinations
from math import gcd, prod

import numpy as np
import pytest

from dp5brauer import model
from dp5brauer.intlinalg import (
    IntMatrix,
    content,
    det,
    elementary_divisors,
    hnf,
    lattice_index,
    primitive_part,
    saturated_kernel,
    snf,
    solve_in_lattice,
)
from dp5brauer.numberfield import QuinticFieldSpec, zeta11_plus_field

from quintics import lehmer_quintic


def test_hnf_collapses_dependent_rows():
    h, transform = hnf(IntMatrix([[2, 4], [1, 2]]))
    assert h.to_lists() == [[1, 2], [0, 0]]
    assert (transform @ IntMatrix([[2, 4], [1, 2]])) == h
    assert abs(det(transform)) == 1


def test_hnf_of_identity_is_identity():
    h, transform = hnf(IntMatrix.identity(3))
    assert h == IntMatrix.identity(3)
    assert transform == IntMatrix.identity(3)


def test_snf_of_coprime_diagonal():
    s, left, right = snf(IntMatrix([[2, 0], [0, 3]]))
    assert s.to_lists() == [[1, 0], [0, 6]]
    assert (left @ IntMatrix([[2, 0], [0, 3]]) @ right) == s


def test_snf_of_zero_matrix():
    s, _, _ = snf(IntMatrix.zeros(2, 2))
    assert s == IntMatrix.zeros(2, 2)
    assert elementary_divisors(IntMatrix.zeros(2, 2)) == ()


def test_saturated_kernel_of_single_row():
    kernel = saturated_kernel(IntMatrix([[2, 4]]))
    assert kernel.to_lists() == [[2, -1]]


def test_saturated_kernel_of_identity_is_empty():
    assert saturated_kernel(IntMatrix.identity(2)) is None


def test_lattice_index_examples(m11, m25):
    assert lattice_index([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
    assert lattice_index([(2, 0), (0, 2)]) == 4
    assert lattice_index(m11.integral_points) == 2
    assert lattice_index(m25.integral_points) == 2


def test_stored_point_rows_have_one_nontrivial_divisor(m11):
    rows = IntMatrix([list(p) for p in m11.integral_points])
    assert elementary_divisors(rows) == (1, 1, 1, 1, 1, 2)


def test_content_and_primitive_part():
    assert content((4, -6, 8)) == 2
    assert primitive_part((4, -6, 8)) == (2, -3, 4)
    assert content((0, 0, 0)) == 0
    with pytest.raises(ValueError):
        primitive_part((0, 0, 0))


def test_solve_in_lattice_recovers_coefficients():
    basis = IntMatrix([[1, 0], [0, 2]])
    assert solve_in_lattice(basis, (3, 4)) == (3, 2)
    assert solve_in_lattice(basis, (0, 1)) is None


def _random_matrix(rng, rows, cols, bound=9):
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def test_hnf_laws_on_seeded_matrices():
    rng = random.Random(401)
    for _ in range(200):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        h, transform = hnf(a)
        assert (transform @ a) == h
        assert abs(det(transform)) == 1
        # canonical: running it again must not move anything
        again, _ = hnf(h)
        assert again == h


def test_snf_laws_on_seeded_matrices():
    rng = random.Random(402)
    for _ in range(200):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        s, left, right = snf(a)
        assert (left @ a @ right) == s
        assert abs(det(left)) == abs(det(right)) == 1
        diag = [s[i, i] for i in range(min(s.rows, s.cols))]
        for i in range(s.rows):
            for j in range(s.cols):
                if i != j:
                    assert s[i, j] == 0
        for d, e in zip(diag, diag[1:]):
            if e:
                assert d != 0 and e % d == 0
        assert elementary_divisors(a) == elementary_divisors(a.transpose())


def _minor_gcds(a):
    """g_k, the gcd of the k x k minors of a, for k = 1 .. min(rows, cols),
    each minor a ``det``: shares no code with ``_echelon``."""
    gcds = []
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rows in combinations(range(a.rows), k):
            for cols in combinations(range(a.cols), k):
                g = gcd(g, det(IntMatrix([[a[i, j] for j in cols] for i in rows])))
        gcds.append(g)
    return gcds


def test_smith_diagonal_products_are_the_gcds_of_the_minors():
    # d_1 ... d_k = g_k, the gcd of the k x k minors, which the unimodular
    # transforms keep; zero and duplicate rows make the rank fall short
    rng = random.Random(407)
    deficient = 0
    for _ in range(150):
        rows = [[rng.randint(-30, 30) for _ in range(rng.randint(1, 5))]]
        rows += [[rng.randint(-30, 30) for _ in rows[0]] for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.2:
            rows[rng.randrange(len(rows))] = [0] * len(rows[0])
        if len(rows) > 1 and rng.random() < 0.3:
            rows[rng.randrange(len(rows))] = list(rows[rng.randrange(len(rows))])
        a = IntMatrix(rows)
        s, _, _ = snf(a)
        gcds = _minor_gcds(a)
        assert [prod(s[i, i] for i in range(k)) for k in range(1, len(gcds) + 1)] == gcds
        deficient += gcds[-1] == 0
    assert 20 < deficient < 130


def test_kernel_laws_on_seeded_matrices():
    rng = random.Random(403)
    seen_kernel = 0
    for _ in range(200):
        a = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        kernel = saturated_kernel(a)
        if kernel is None:
            continue
        seen_kernel += 1
        for i in range(kernel.rows):
            v = kernel.row(i)
            assert all(x == 0 for x in a.apply(v))
        # saturation: the kernel basis extends to a basis of Z^n
        assert set(elementary_divisors(kernel)) == {1}
    assert seen_kernel > 50


def test_lattice_index_matches_determinant():
    rng = random.Random(404)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = _random_matrix(rng, n, n, bound=5)
        d = det(a)
        if d == 0:
            continue
        assert lattice_index([a.row(i) for i in range(n)]) == abs(d)


def _list_hnf(rows):
    """Row Hermite form on lists of Python ints, reducing above each pivot as
    soon as it is found; the transform U is returned as well.  Shares no code
    with ``intlinalg``."""
    m, n = len(rows), len(rows[0])
    h = [list(r) for r in rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]

    def addmul(dst, src, q):
        h[dst] = [x + q * y for x, y in zip(h[dst], h[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, m) if h[i][c]]
            if not nz:
                break
            k = min(nz, key=lambda i: abs(h[i][c]))
            h[r], h[k], u[r], u[k] = h[k], h[r], u[k], u[r]
            if len(nz) == 1:
                break
            for i in range(r + 1, m):
                if h[i][c]:
                    addmul(i, r, -(h[i][c] // h[r][c]))
        if not any(h[i][c] for i in range(r, m)):
            continue
        if h[r][c] < 0:
            h[r], u[r] = [-x for x in h[r]], [-x for x in u[r]]
        for i in range(r):
            if h[i][c] // h[r][c]:
                addmul(i, r, -(h[i][c] // h[r][c]))
        r += 1
        if r == m:
            break
    return h, u


def _hnf_transform_kernel(rows):
    """The kernel from the reduced Hermite transform of A^T, then its Hermite
    basis: a second route to ``saturated_kernel``."""
    h, u = _list_hnf([list(col) for col in zip(*rows)])
    rank = sum(1 for row in h if any(row))
    if rank == len(u):
        return None
    return _list_hnf(u[rank:])[0]


def _oracle_matrix(rng):
    rows, cols = rng.randint(1, 6), rng.randint(1, 7)
    a = [
        [rng.choice((0, rng.randint(-9, 9), rng.randint(-10 ** 6, 10 ** 6))) for _ in range(cols)]
        for _ in range(rows)
    ]
    if rows > 1 and rng.random() < 0.4:
        # rank-deficient: the last row is a combination of the first two
        a[-1] = [3 * x - y for x, y in zip(a[0], a[1])]
    if rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in a:
            row[j] = 0
    return a


def test_echelon_kernel_equals_the_hermite_transform_kernel():
    rng = random.Random(405)
    trivial = 0
    for _ in range(150):
        a = _oracle_matrix(rng)
        expected = _hnf_transform_kernel(a)
        kernel = saturated_kernel(IntMatrix(a))
        trivial += expected is None
        assert (kernel is None) == (expected is None)
        if kernel is not None:
            assert kernel.to_lists() == expected
            assert saturated_kernel(np.array(a, dtype=object)) == kernel
    assert 20 < trivial < 130


def test_hnf_and_its_transform_equal_the_list_route():
    rng = random.Random(406)
    for _ in range(150):
        a = _oracle_matrix(rng)
        h, u = hnf(IntMatrix(a))
        assert (h.to_lists(), u.to_lists()) == _list_hnf(a)


def _build_kernel_inputs(monkeypatch):
    """The matrices a build takes kernels of, as ``build_model`` passes them,
    read as lists of int rows: the (15, 21) double-vanishing matrix and the
    (66, 21) quadric relation matrix of each of zeta11plus and the Lehmer
    quintics n = -4..5."""
    inputs = []

    def recording(matrix):
        rows = matrix.to_lists() if isinstance(matrix, IntMatrix) else matrix
        inputs.append([[int(x) for x in row] for row in rows])
        return saturated_kernel(matrix)

    monkeypatch.setattr(model, "saturated_kernel", recording)
    for spec in [zeta11_plus_field()] + [QuinticFieldSpec(lehmer_quintic(n)) for n in range(-4, 6)]:
        model.build_model(spec)
    return inputs


def test_build_kernels_equal_the_list_route(monkeypatch):
    inputs = _build_kernel_inputs(monkeypatch)
    assert [(len(a), len(a[0])) for a in inputs] == [(15, 21), (66, 21)] * 11
    for a in inputs:
        assert saturated_kernel(a).to_lists() == _hnf_transform_kernel(a)


# SHA-256 of the eleven (66, 21) relation matrices of ``_build_kernel_inputs``,
# recorded when the quintic products were taken on dense (y, z) grids: the
# products by exponent slots must fill the same matrices
RELATION_SHA256 = "f4c5abfdc1d5f2bc4876407363b9694b8bbe383fc525a99b0922b49d9be1f002"


def test_relation_matrices_are_pinned(monkeypatch):
    relations = _build_kernel_inputs(monkeypatch)[1::2]
    assert hashlib.sha256(repr(relations).encode()).hexdigest() == RELATION_SHA256


# SHA-256 of the (D, U, V) of ``snf`` on the matrices of
# ``_smith_pinned_matrices``, recorded with the object-array elimination that
# multiplied each step's transform into U and V: every Smith form and both
# transforms must stay as they were.  Re-recorded, with the same ``snf``, when
# the fixtures' quadric rows became ``build_model`` output: a new basis of
# the same lattice, with the same elementary divisors
SMITH_SHA256 = "5bd518b37aa3f83c43387d104dd1d17c2f5ebb94f31368efabf8f4ae4a442601"


def _smith_pinned_matrices(models):
    rng = random.Random(408)
    matrices = [
        _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), bound=rng.choice((2, 9, 10 ** 6)))
        for _ in range(300)
    ]
    return matrices + [IntMatrix(m.quadric_vectors()) for m in models]


def test_smith_forms_and_transforms_are_pinned(m11, m25, built11):
    for m in (m11, m25):
        assert elementary_divisors(IntMatrix(m.quadric_vectors())) == (1, 1, 1, 1, 1)
    digest = hashlib.sha256()
    for a in _smith_pinned_matrices((m11, m25, built11)):
        digest.update(repr([part.to_lists() for part in snf(a)]).encode())
    assert digest.hexdigest() == SMITH_SHA256
