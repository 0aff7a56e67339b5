"""Degree-5 del Pezzo Picard lattice: (-1)-classes, their graph, and the
cohomology of a cyclic action.

The lattice is Z^5 with pairing diag(1, -1, -1, -1, -1) and canonical class
K = (-3, 1, 1, 1, 1).  Everything downstream is computed from that data, not
written down by hand: the ten (-1)-classes and the five conic classes come
from one search, each (-1)-class is labelled by the two conic classes it
meets, the Petersen graph is the disjointness of the labels, and the
order-5 Galois action sigma is the walk of the conjugate points
g_0..g_4 on the conic classes, carried to the labels, with its H^1.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .intlinalg import IntMatrix, elementary_divisors, hnf, saturated_kernel, solve_in_lattice

RANK = 5
FORM = (1, -1, -1, -1, -1)
CANONICAL_CLASS = (-3, 1, 1, 1, 1)
# the Gram matrix diag(FORM) of the pairing
GRAM = IntMatrix([[FORM[i] * (i == j) for j in range(RANK)] for i in range(RANK)])


def pairing(u, v):
    return sum(s * a * b for s, a, b in zip(FORM, u, v))


def _classes(square, degree, bound=3):
    """All classes D with D.D = square, D.K = degree and coordinates in
    [-bound, bound], sorted.

    D.K is affine in the last coordinate e, with slope FORM[-1] * K[-1], so
    D.K = degree fixes e from the first four coordinates and only those are
    searched, as one integer array in lexicographic order, so the list
    comes out sorted.
    """
    form, canonical = np.array(FORM), np.array(CANONICAL_CLASS)
    side = 2 * bound + 1
    head = np.indices((side,) * (RANK - 1)).reshape(RANK - 1, -1).T - bound
    e, rest = np.divmod(degree - head @ (form * canonical)[:-1], form[-1] * canonical[-1])
    vectors = np.column_stack([head, e])
    keep = (rest == 0) & (abs(e) <= bound) & ((vectors * vectors) @ form == square)
    return [tuple(v) for v in vectors[keep].tolist()]


def minus_one_classes(bound=3):
    """All classes D with D.D = D.K = -1 and coordinates in [-bound, bound].

    The default window is known to be exhaustive; widening it is a test,
    not a runtime need.
    """
    return _classes(-1, -1, bound)


@lru_cache(maxsize=1)
def _conic_classes():
    """The five conic classes, D.D = 0 and D.K = -2, numbered 1..5 in
    sorted order: L0 - L1, ..., L0 - L4 and 2L0 - L1 - L2 - L3 - L4."""
    return _classes(0, -2)


def _labels(classes):
    """The label of each class: the set of conic classes it meets (pairing
    1), by their numbers.  Li meets L0 - Li and 2L0 - L1 - ... - L4, so its
    label is {i, 5}; L0 - Li - Lj meets L0 - Lk exactly for k not in {i, j}
    and pairs to 0 with 2L0 - L1 - ... - L4, so its label is {1..4} - {i, j}.
    """
    meets = np.array(classes) @ np.diag(FORM) @ np.array(_conic_classes()).T == 1
    return [frozenset((np.flatnonzero(row) + 1).tolist()) for row in meets]


class PetersenReport(NamedTuple):
    vertices: tuple
    edges: tuple
    automorphism_count: int
    pair_labels: dict
    lattice_extensions_ok: bool


def petersen_graph(classes=None):
    """Incidence graph of the ten (-1)-classes, with its symmetries.

    Two classes are adjacent when they meet (pairing 1).  The report
    carries the labels of ``_labels``, which exhibit the Kneser structure:
    two classes are adjacent exactly when their labels are disjoint.  It
    also carries the automorphism count and the result of extending every
    graph automorphism to a pairing-preserving lattice map fixing K.
    """
    if classes is None:
        classes = minus_one_classes()
    v = np.array(classes)
    meets = v @ np.diag(FORM) @ v.T == 1
    adjacency = [frozenset(np.flatnonzero(row).tolist()) for row in meets]
    edges = tuple(zip(*(t.tolist() for t in np.nonzero(np.triu(meets)))))
    if any(len(a) != 3 for a in adjacency) or len(edges) != 15:
        raise DomainError("classes do not form the expected 3-regular graph")
    labels = _labels(classes)
    disjoint = np.array([[not (a & b) for b in labels] for a in labels])
    if (meets != disjoint).any():
        raise DomainError("adjacency is not the disjointness of the labels")

    autos = _graph_automorphisms(adjacency)
    images = v[np.array(autos)]
    extensions_ok = bool(_lattice_map(classes, images)[1].all())
    return PetersenReport(tuple(classes), edges, len(autos), dict(enumerate(labels)), extensions_ok)


def _graph_automorphisms(adjacency):
    """Every automorphism of the graph, as the tuple of vertex images, in
    lexicographic order: the partial maps of vertices 0..v-1 are extended by
    every image of v at once, and an extension is kept when the image is
    unused, of the same degree, and adjacent to the earlier images exactly
    where v is adjacent to the earlier vertices."""
    n = len(adjacency)
    adjacent = np.array([[j in adjacency[i] for j in range(n)] for i in range(n)])
    degree = adjacent.sum(axis=1)
    maps = np.zeros((1, 0), dtype=np.int64)
    for v in range(n):
        # keep[m, w]: may partial map m send v to w
        keep = (degree == degree[v]) & (adjacent[maps] == adjacent[:v, v, None]).all(axis=1)
        keep[np.arange(len(maps))[:, None], maps] = False
        rows, images = np.nonzero(keep)
        maps = np.column_stack([maps[rows], images])
    return [tuple(m) for m in maps.tolist()]


def _lattice_map(classes, images):
    """(matrices, ok) for a stack ``images`` (m, n, 5), each row the images of
    the (-1)-classes ``classes`` in order: matrices[s] is the only 5x5
    integer matrix M that can send every class v to its image, and ok[s]
    says that it does, preserving the pairing and K.

    The e-classes L1..L4 are the unit vectors e1..e4, so their images are
    columns 1..4; one class e0 - Li - Lj then determines column 0.
    The columns and the three checks M v = image, M^T G M = G and M K = K
    are one integer array step over the whole stack.
    """
    v, w = np.array(classes), np.array(images)
    units = [classes.index(tuple(int(t == k) for t in range(RANK))) for k in range(1, RANK)]
    l0_class = next(i for i, c in enumerate(classes) if c[0] == 1)
    cols = w[:, units]
    col0 = w[:, l0_class] - np.einsum("k,mkt->mt", v[l0_class, 1:], cols)
    m = np.concatenate([col0[:, None], cols], axis=1).transpose(0, 2, 1)
    gram, canonical = np.diag(FORM), np.array(CANONICAL_CLASS)
    ok = (m @ v.T == w.transpose(0, 2, 1)).all(axis=(1, 2))
    ok &= (m.transpose(0, 2, 1) @ gram @ m == gram).all(axis=(1, 2))
    ok &= (m @ canonical == canonical).all(axis=1)
    return m, ok


def preserves_pairing(matrix):
    """M^T G M == G: entry (i, j) of M^T G M is the pairing of M e_i with M e_j."""
    return matrix.transpose() @ GRAM @ matrix == GRAM


class GaloisAction(NamedTuple):
    matrix: IntMatrix
    order: int


# the conic classes by their numbers, in the order of the conjugate points
# g_0..g_4 of ``model.find_line_products``
_WALK = (1, 3, 5, 4, 2)


def interesting_sigma():
    """The order-5 Galois action: the walk g_k -> g_{k+1} on the conic
    classes, carried to the ten (-1)-classes through their labels.

    sigma keeps the pairing and K, so it permutes the conic classes, the
    classes with D.D = 0 and D.K = -2.  A (-1)-class is fixed by its label,
    the two conic classes it meets, so a permutation of the conic classes
    fixes the image of every class, and by ``_lattice_map`` the matrix.
    Here it is the 5-cycle along ``_WALK``: the class labelled {a, b} goes
    to the one labelled {next(a), next(b)}.  ``model.find_line_products``
    proves that the Galois generator s maps L(g_i, g_j) to
    L(g_{i+1}, g_{j+1}): the same rule, once each conic class stands for
    the point of its place in the walk.  Of the 24 cyclic orders of the
    five conic classes, only this one gives the matrix that the claim rows
    and the ``cohomology`` document pin: the order 1..5 sends L0 to
    (2, 0, -1, -1, -1), and the order 5..1 keeps the image of L0 and the
    image lattice of 1 - sigma but not the matrix.  The result is verified
    to preserve the pairing, fix K, and have exact order 5.
    """
    classes = minus_one_classes()
    labels = _labels(classes)
    step = dict(zip(_WALK, _WALK[1:] + _WALK[:1]))
    by_label = dict(zip(labels, classes))
    images = [by_label[frozenset(step[a] for a in label)] for label in labels]
    (m,), (ok,) = _lattice_map(classes, [images])
    if not ok:
        raise DomainError("the walk is not a lattice map preserving the pairing and K")
    m = IntMatrix(m.tolist())
    if matrix_order(m) != 5:
        raise DomainError("symmetry must have order 5")
    return GaloisAction(m, 5)


def matrix_order(matrix, cap=60):
    identity = IntMatrix.identity(matrix.rows)
    power = matrix
    for k in range(1, cap + 1):
        if power == identity:
            return k
        power = power @ matrix
    raise DomainError(f"matrix has no order up to {cap}")


def pic_u_action(action):
    """Induced 4x4 action on Pic modulo ZK, basis L0..L3.

    L4 is eliminated through K = 0, i.e. L4 = 3 L0 - L1 - L2 - L3.
    """
    m = action.matrix if isinstance(action, GaloisAction) else action
    if m.apply(CANONICAL_CLASS) != CANONICAL_CLASS:
        raise DomainError("action must fix K to act on Pic/ZK")

    def reduce(vec):
        v4 = vec[4]
        return (vec[0] + 3 * v4, vec[1] - v4, vec[2] - v4, vec[3] - v4)

    cols = []
    for j in range(4):
        e = tuple(1 if k == j else 0 for k in range(RANK))
        cols.append(reduce(m.apply(e)))
    return IntMatrix([[cols[j][i] for j in range(4)] for i in range(4)])


def _one_minus(matrix):
    n = matrix.rows
    return IntMatrix(
        [[(1 if i == j else 0) - matrix[i, j] for j in range(n)] for i in range(n)]
    )


def image_lattice_hnf(matrix):
    """Hermite basis of the column span of (I - M)."""
    h, _ = hnf(_one_minus(matrix).transpose())
    rows = [h.row(i) for i in range(h.rows) if any(h.row(i))]
    return IntMatrix(rows) if rows else None


def h1_cyclic(matrix, order=None):
    """Elementary divisors (> 1) of ker(norm) / im(1 - M) for a finite-order
    integer matrix M.

    For a cyclic group acting through M this is the first cohomology of the
    lattice.  Returns a tuple such as (5,), empty when the group vanishes.
    """
    n = matrix.rows
    if order is None:
        order = matrix_order(matrix)
    else:
        power = matrix
        for _ in range(order - 1):
            power = power @ matrix
        if power != IntMatrix.identity(n):
            raise DomainError("declared order is wrong")
    norm_rows = [[0] * n for _ in range(n)]
    power = IntMatrix.identity(n)
    for _ in range(order):
        for i in range(n):
            for j in range(n):
                norm_rows[i][j] += power[i, j]
        power = power @ matrix
    norm = IntMatrix(norm_rows)
    kernel = saturated_kernel(norm)
    if kernel is None:
        return ()
    one_minus = _one_minus(matrix)
    coeff_rows = []
    for j in range(n):
        col = one_minus.column(j)
        coords = solve_in_lattice(kernel, col)
        if coords is None:
            raise DomainError("image does not land in the norm kernel")
        coeff_rows.append(list(coords))
    divisors = elementary_divisors(IntMatrix(coeff_rows))
    if len(divisors) < kernel.rows:
        raise DomainError("cohomology is not finite")
    return tuple(x for x in divisors if x > 1)
