"""Exact linear algebra over the integers.

Everything here works with arbitrary-precision Python ints, which the
eliminations hold in numpy object arrays so that one row operation is one
array step; there is no floating point, and no computation modulo a prime
stands in for an exact one.  One elimination, the echelon form of
``_echelon``, serves the Hermite form, the kernels and the Smith form;
``det`` keeps its own Bareiss loop, as it needs the sign of the row
swaps.  The normal form conventions are fixed once and used by every
caller:

  * Hermite form is row-style: ``H = U A`` with ``U`` unimodular, pivots
    positive, entries above each pivot reduced into ``[0, pivot)``, zero
    rows last.
  * Smith form is ``D = U A V`` with nonnegative diagonal entries forming
    a divisibility chain ``d1 | d2 | ...``.

Kernels are returned as saturated row lattices in Hermite form, so equal
lattices always produce identical bases.
"""

from __future__ import annotations

from math import gcd, prod

import numpy as np


class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        data = tuple(tuple(int(x) for x in row) for row in entries)
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(r[j] for r in self.entries)

    def transpose(self):
        return IntMatrix([self.column(j) for j in range(self.cols)])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = [other.column(j) for j in range(other.cols)]
        return IntMatrix(
            [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in self.entries]
        )

    def apply(self, vector):
        """Matrix times column vector, returned as a tuple."""
        if len(vector) != self.cols:
            raise ValueError("length mismatch")
        return tuple(sum(a * b for a, b in zip(r, vector)) for r in self.entries)

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def to_lists(self):
        return [list(r) for r in self.entries]


def det(matrix):
    """Determinant by fraction-free (Bareiss) elimination."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant needs a square matrix")
    n = matrix.rows
    a = [list(r) for r in matrix.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _echelon(a):
    """Row echelon form of an (m, n) object array of Python ints by gcd
    elimination.

    Returns ``(t, pivots)``: ``t`` is ``[H | U]`` with ``H = U A`` and ``U``
    unimodular, and row k of ``H`` leads at column ``pivots[k]``; the rows
    below ``len(pivots)`` are zero.  Pivots may be negative and the entries
    above them are not reduced; ``hnf`` does both.
    """
    m, n = a.shape
    t = np.concatenate([a, np.identity(m, dtype=object)], axis=1)
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        # gcd elimination below row r in column c
        while True:
            col = t[r:, c]
            nz = np.flatnonzero(col)
            if not nz.size:
                break
            k = r + min(nz, key=lambda i: abs(col[i]))
            if k != r:
                t[[r, k]] = t[[k, r]]
            if nz.size == 1:
                break
            t[r + 1 :] -= (t[r + 1 :, c] // t[r, c])[:, None] * t[r]
        if t[r, c]:
            pivots.append(c)
    return t, pivots


def hnf(matrix):
    """Row Hermite normal form.

    Returns ``(H, U)`` with ``H = U A``, ``U`` unimodular, pivots positive,
    entries above each pivot in ``[0, pivot)``, and zero rows collected at
    the bottom.
    """
    n = matrix.cols
    t, pivots = _echelon(np.array(matrix.entries, dtype=object))
    for r, c in enumerate(pivots):
        if t[r, c] < 0:
            t[r] = -t[r]
        t[:r] -= (t[:r, c] // t[r, c])[:, None] * t[r]
    return IntMatrix(t[:, :n]), IntMatrix(t[:, n:])


def snf(matrix):
    """Smith normal form.

    Returns ``(D, U, V)`` with ``D = U A V``, both transforms unimodular,
    diagonal nonnegative and forming a divisibility chain.

    D starts as A.  A row step replaces D by its echelon form U1 D
    (``_echelon``), a column step by D V1, the transpose of the echelon form
    of D^T; U and V take up U1 and V1, so D = U A V with both unimodular.
    The steps alternate until D is diagonal.

    The alternation terminates.  Unless D = 0, the first pair leaves d11 != 0:
    the row step leaves row 1 nonzero, and the column step moves its gcd to
    d11.  After that a row step makes |d11| the gcd of column 1 and a column
    step the gcd of row 1, so |d11| never grows.  If d11 divides column 1,
    it is its first smallest entry, which ``_echelon`` keeps in place: the
    row step keeps row 1 and clears column 1.  Likewise a column step keeps
    column 1 and clears row 1 if d11 divides row 1.  So each pair lowers
    |d11| unless row 1 and column 1 are already clear.  Once clear they stay
    clear, as row 1 is the pivot row of column 1 in every later row step
    and is never touched again, and likewise column 1.  The later steps act
    on the rest as on a smaller matrix, and induction on its size ends the
    alternation.

    The chain.  The last step is a column step, which moves the zero columns
    last, so the nonzero d_i come first, and where d_i does not divide
    d_i+1 both are nonzero.  At the first such i, column i+1 is added to
    column i and D diagonalised again.  The row step leaves ((g, x), (0, l))
    on rows and columns i, i+1, with |g| = gcd(d_i, d_i+1), g | x (row i is
    (a d_i + b d_i+1, b d_i+1)) and |g l| = |d_i d_i+1|; the column step
    clears x by a multiple of column i.  So each repair terminates after one
    pair, with (|g|, lcm) in place of (d_i, d_i+1), and |g| < |d_i|.  It
    keeps d_1, ..., d_i-1, so (|d_1|, |d_2|, ...) falls lexicographically,
    the repairs end, and when none is left the chain holds.  Last, the rows
    of D and U with d_ii < 0 are negated.
    """
    m, n = matrix.rows, matrix.cols
    d = np.array(matrix.entries, dtype=object)
    u, v = np.identity(m, dtype=object), np.identity(n, dtype=object)
    off_diagonal = ~np.eye(m, n, dtype=bool)
    while True:
        t, _ = _echelon(d)
        d, u = t[:, :n], t[:, n:] @ u
        t, _ = _echelon(d.T)
        d, v = t[:, :m].T, v @ t[:, m:].T
        if d[off_diagonal].any():
            continue
        diagonal = d.diagonal()
        fails = [i for i, (a, b) in enumerate(zip(diagonal, diagonal[1:])) if gcd(a, b) != abs(a)]
        if not fails:
            break
        d[:, fails[0]] += d[:, fails[0] + 1]
        v[:, fails[0]] += v[:, fails[0] + 1]
    for i in np.flatnonzero(d.diagonal() < 0):
        d[i], u[i] = -d[i], -u[i]
    return IntMatrix(d), IntMatrix(u), IntMatrix(v)


def elementary_divisors(matrix):
    """Nonzero diagonal of the Smith form."""
    d, _, _ = snf(matrix)
    return tuple(d[i, i] for i in range(min(d.rows, d.cols)) if d[i, i] != 0)


def saturated_kernel(matrix):
    """Basis of the right kernel lattice {v : A v = 0}, in Hermite form.

    ``matrix`` is an IntMatrix or a 2-D array of Python ints.  The lattice
    returned is saturated in Z^cols: any integer vector with a rational
    multiple in the kernel already lies in the row span of the basis.  Rows
    of the result are primitive.  Returns None when the kernel is trivial.

    The kernel is read off any echelon form ``H = U A^T`` (``_echelon``),
    without reducing above its pivots.  Say H has r nonzero rows, which are
    independent, and the rest zero.  Rows r.. of U lie in the kernel, as
    their rows of H are zero.  Conversely, let v be an integer vector with
    a rational multiple in the kernel, so v A^T = 0.  U is unimodular, so
    w = v U^-1 is integral, and 0 = v A^T = w H forces w_i = 0 for i < r.
    So v is an integer combination of rows r.. of U, and these rows are a
    basis of the saturated kernel for every such U.  ``hnf`` of that basis
    is the unique Hermite basis of the lattice, so the result does not
    depend on which echelon form was taken.
    """
    a = np.array(matrix.entries if isinstance(matrix, IntMatrix) else matrix, dtype=object)
    t, pivots = _echelon(a.T)
    if len(pivots) == a.shape[1]:
        return None
    canonical, _ = hnf(IntMatrix(t[len(pivots) :, a.shape[0] :]))
    return canonical


def lattice_index(vectors):
    """Index in Z^n of the lattice spanned by the given vectors.

    Returns the integer index when the span has full rank n, and the string
    "infinite" otherwise.
    """
    mat = vectors if isinstance(vectors, IntMatrix) else IntMatrix(vectors)
    divisors = elementary_divisors(mat)
    if len(divisors) < mat.cols:
        return "infinite"
    return prod(divisors)


def solve_in_lattice(basis, target):
    """Integer coordinates of ``target`` in a Hermite-form row basis.

    ``basis`` must be in row Hermite form with no zero rows.  Returns a
    tuple of coefficients, or None when the vector is outside the lattice.
    """
    residual = [int(x) for x in target]
    if len(residual) != basis.cols:
        raise ValueError("length mismatch")
    coeffs = []
    for i in range(basis.rows):
        row = basis.row(i)
        pivot_col = next((j for j, x in enumerate(row) if x), None)
        if pivot_col is None:
            raise ValueError("zero row in basis")
        value = residual[pivot_col]
        q, rem = divmod(value, row[pivot_col])
        if rem != 0:
            return None
        if q:
            for j in range(basis.cols):
                residual[j] -= q * row[j]
        coeffs.append(q)
    if any(residual):
        return None
    return tuple(coeffs)


def content(vector):
    """Gcd of the entries, 0 for the zero vector."""
    g = 0
    for x in vector:
        g = gcd(g, abs(int(x)))
    return g


def primitive_part(vector):
    """Divide out the content and make the first nonzero entry positive."""
    g = content(vector)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    scaled = [int(x) // g for x in vector]
    lead = next(x for x in scaled if x)
    if lead < 0:
        scaled = [-x for x in scaled]
    return tuple(scaled)
