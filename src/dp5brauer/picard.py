"""Degree-5 del Pezzo Picard lattice: (-1)-classes, their graph, and the
cohomology of a cyclic action.

The lattice is Z^5 with pairing diag(1, -1, -1, -1, -1) and canonical class
K = (-3, 1, 1, 1, 1).  Everything downstream (the ten classes, the Petersen
graph, the distinguished order-5 action and its H^1) is computed from that
data, not written down by hand.
"""

from __future__ import annotations

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


def minus_one_classes(bound=3):
    """All classes D with D.D = D.K = -1 and coordinates in [-bound, bound].

    The default window is known to be exhaustive; widening it is a test,
    not a runtime need.  D.K is affine in the last coordinate e, with slope
    FORM[-1] * K[-1], so D.K = -1 fixes e from the first four coordinates
    and only those are searched, as one integer array in lexicographic
    order, so the list comes out sorted.
    """
    form, canonical = np.array(FORM), np.array(CANONICAL_CLASS)
    side = 2 * bound + 1
    head = np.indices((side,) * (RANK - 1)).reshape(RANK - 1, -1).T - bound
    e, rest = np.divmod(-1 - head @ (form * canonical)[:-1], form[-1] * canonical[-1])
    vectors = np.column_stack([head, e])
    keep = (rest == 0) & (abs(e) <= bound) & ((vectors * vectors) @ form == -1)
    return [tuple(v) for v in vectors[keep].tolist()]


def class_label(vector):
    """Human name: e-classes are L1..L4, conic classes are L0-Li-Lj."""
    if vector[0] == 0:
        idx = [i for i in range(1, RANK) if vector[i]]
        if len(idx) == 1 and vector[idx[0]] == 1:
            return f"L{idx[0]}"
    if vector[0] == 1:
        idx = [i for i in range(1, RANK) if vector[i] == -1]
        if len(idx) == 2 and sum(map(abs, vector)) == 3:
            return f"L0-L{idx[0]}-L{idx[1]}"
    raise DomainError(f"not a recognized (-1)-class: {vector}")


class PetersenReport(NamedTuple):
    vertices: tuple
    edges: tuple
    automorphism_count: int
    pair_labels: dict
    lattice_extensions_ok: bool


def petersen_graph(classes=None):
    """Incidence graph of the ten (-1)-classes, with its symmetries.

    Two classes are adjacent when they meet (pairing 1).  The report
    carries a 2-subset labeling exhibiting the Kneser structure (adjacent
    iff labels disjoint), the automorphism count, and the result of
    extending every graph automorphism to a pairing-preserving lattice map
    fixing K.
    """
    if classes is None:
        classes = minus_one_classes()
    n = len(classes)
    adjacency = [
        frozenset(j for j in range(n) if j != i and pairing(classes[i], classes[j]) == 1)
        for i in range(n)
    ]
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if j in adjacency[i]
    )
    if any(len(a) != 3 for a in adjacency) or len(edges) != 15:
        raise DomainError("classes do not form the expected 3-regular graph")

    labels = {}
    for i, v in enumerate(classes):
        name = class_label(v)
        if name.startswith("L0"):
            parts = {int(name[4]), int(name[7])}
            labels[i] = frozenset({1, 2, 3, 4} - parts)
        else:
            labels[i] = frozenset({int(name[1]), 5})
    for i, j in edges:
        if labels[i] & labels[j]:
            raise DomainError("labeling fails disjointness on an edge")
    for i in range(n):
        for j in range(i + 1, n):
            if (j not in adjacency[i]) and not (labels[i] & labels[j]):
                raise DomainError("labeling fails disjointness off an edge")

    autos = _graph_automorphisms(adjacency)
    images = np.array(classes)[np.array(autos)]
    extensions_ok = bool(_lattice_map(classes, images)[1].all())
    return PetersenReport(tuple(classes), edges, len(autos), labels, extensions_ok)


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
    columns 1..4; one conic class e0 - Li - Lj then determines column 0.
    The columns and the three checks M v = image, M^T G M = G and M K = K
    are one integer array step over the whole stack.
    """
    v, w = np.array(classes), np.array(images)
    units = [classes.index(tuple(int(t == k) for t in range(RANK))) for k in range(1, RANK)]
    conic = next(i for i, c in enumerate(classes) if c[0] == 1)
    cols = w[:, units]
    col0 = w[:, conic] - np.einsum("k,mkt->mt", v[conic, 1:], cols)
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


# orbit of the distinguished fixed-point-free symmetry on labeled classes:
# two 5-cycles, one through L1 and one through L3
_SIGMA_ORBITS = (
    ("L1", "L0-L1-L2", "L2", "L0-L2-L3", "L0-L1-L4"),
    ("L3", "L4", "L0-L1-L3", "L0-L3-L4", "L0-L2-L4"),
)


def interesting_sigma():
    """The order-5 symmetry acting on the ten classes in two 5-cycles.

    Built from its class orbits and verified to preserve the pairing, fix
    K, and have exact order 5.
    """
    classes = minus_one_classes()
    by_label = {class_label(v): v for v in classes}
    perm = {}
    for orbit in _SIGMA_ORBITS:
        for a, b in zip(orbit, orbit[1:] + orbit[:1]):
            perm[by_label[a]] = by_label[b]
    (m,), (ok,) = _lattice_map(classes, [[perm[v] for v in classes]])
    if not ok:
        raise DomainError("orbit data is not a lattice map preserving the pairing and K")
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
