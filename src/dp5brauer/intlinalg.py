"""Exact linear algebra over the integers.

Everything here works with arbitrary-precision Python ints, which the
eliminations hold as lists of rows; there is no floating point, and no
computation modulo a prime stands in for an exact one.  One elimination,
the echelon form of ``_echelon``, serves the Hermite form, the kernels and
the Smith form, each transform carried along as extra columns of the rows
it eliminates; ``det`` keeps its own Bareiss loop, as it needs the sign of
the row swaps.  The normal form conventions are fixed once and used by every
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


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _echelon(t, n):
    """Row echelon form of the first n columns of the rows ``t``, a list of
    lists of Python ints, by gcd elimination in place; the columns after n
    are carried along.

    In each column c the pivot is the first row of smallest nonzero |entry|,
    swapped up, and every row below with a nonzero entry there subtracts its
    floor quotient times the pivot row, until the pivot is the column's only
    nonzero entry below the rows already done.  Every step is a row
    operation, so ``[A | C]`` becomes ``[W A | W C]`` for one unimodular W,
    and ``[A | I]`` carries W itself.  A step changes a row only where the
    pivot row is nonzero, which is at column c or right of it, and only
    those entries are computed.  Returns the pivot columns: row k leads at
    column ``pivots[k]``, and the rows below ``len(pivots)`` are zero on the
    first n columns.  Pivots may be negative and the entries above them are
    not reduced; ``hnf`` does both.
    """
    pivots = []
    for c in range(n):
        r = len(pivots)
        nz = [i for i in range(r, len(t)) if t[i][c]]
        if nz:
            pivots.append(c)
        while nz:
            k = min(nz, key=lambda i: abs(t[i][c]))
            t[r], t[k] = t[k], t[r]
            pivot = t[r]
            support = [j for j in range(c, len(pivot)) if pivot[j]]
            for row in t[r + 1 :]:
                if row[c]:
                    q = row[c] // pivot[c]
                    for j in support:
                        row[j] -= q * pivot[j]
            # each remainder below is smaller than the pivot, so the first
            # smallest entry from row r on lies below it while one is nonzero
            nz = [i for i in range(r + 1, len(t)) if t[i][c]]
    return pivots


def hnf(matrix):
    """Row Hermite normal form.

    Returns ``(H, U)`` with ``H = U A``, ``U`` unimodular, pivots positive,
    entries above each pivot in ``[0, pivot)``, and zero rows collected at
    the bottom.  ``_echelon`` of ``[A | I]`` gives ``[H | U]`` up to the
    signs of the pivots and the entries above them.
    """
    n = matrix.cols
    t = [list(row) + e for row, e in zip(matrix.entries, _identity(matrix.rows))]
    for r, c in enumerate(_echelon(t, n)):
        if t[r][c] < 0:
            t[r] = [-x for x in t[r]]
        for row in t[:r]:
            q = row[c] // t[r][c]
            row[:] = [x - q * y for x, y in zip(row, t[r])]
    return IntMatrix([row[:n] for row in t]), IntMatrix([row[n:] for row in t])


def snf(matrix):
    """Smith normal form.

    Returns ``(D, U, V)`` with ``D = U A V``, both transforms unimodular,
    diagonal nonnegative and forming a divisibility chain.

    D starts as A, U and V as identities.  A row step replaces D by its
    echelon form U1 D, a column step by D V1, the transpose of the echelon
    form of D^T.  The transforms ride along as carried columns: the row step
    is ``_echelon`` of the rows ``[D | U]``, which gives ``[U1 D | U1 U]``,
    and the column step that of ``[D^T | V^T]``, which gives
    ``[V1^T D^T | V1^T V^T]``.  So D = U A V with both unimodular, and no
    transform is ever multiplied out.  The steps alternate until D is
    diagonal.

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
    t = [list(row) + e for row, e in zip(matrix.entries, _identity(m))]
    s = [[0] * m + e for e in _identity(n)]
    while True:
        _echelon(t, n)
        s = [[row[j] for row in t] + old[m:] for j, old in enumerate(s)]
        _echelon(s, m)
        t = [[row[i] for row in s] + old[n:] for i, old in enumerate(t)]
        if any(x for i, row in enumerate(t) for j, x in enumerate(row[:n]) if i != j):
            continue
        diagonal = [t[i][i] for i in range(min(m, n))]
        pairs = enumerate(zip(diagonal, diagonal[1:]))
        i = next((k for k, (a, b) in pairs if gcd(a, b) != abs(a)), None)
        if i is None:
            break
        for row in t:
            row[i] += row[i + 1]
        s[i] = [x + y for x, y in zip(s[i], s[i + 1])]
    for i in range(min(m, n)):
        if t[i][i] < 0:
            t[i] = [-x for x in t[i]]
    d, u, vt = [row[:n] for row in t], [row[n:] for row in t], [row[m:] for row in s]
    return IntMatrix(d), IntMatrix(u), IntMatrix(vt).transpose()


def elementary_divisors(matrix):
    """Nonzero diagonal of the Smith form."""
    d, _, _ = snf(matrix)
    return tuple(d[i, i] for i in range(min(d.rows, d.cols)) if d[i, i] != 0)


def saturated_kernel(matrix):
    """Basis of the right kernel lattice {v : A v = 0}, in Hermite form.

    ``matrix`` is an IntMatrix or rows of Python ints, as lists or as an
    object array.  The lattice returned is saturated in Z^cols: any integer
    vector with a rational multiple in the kernel already lies in the row
    span of the basis.  Rows of the result are primitive.  Returns None when
    the kernel is trivial.

    The kernel is read off any echelon form ``H = U A^T``, here ``_echelon``
    of ``[A^T | I]``, without reducing above its pivots.  Say H has r
    nonzero rows, which are independent, and the rest zero.  Rows r.. of U
    lie in the kernel, as their rows of H are zero.  Conversely, let v be
    an integer vector with a rational multiple in the kernel, so v A^T = 0.
    U is unimodular, so w = v U^-1 is integral, and 0 = v A^T = w H forces
    w_i = 0 for i < r.  So v is an integer combination of rows r.. of U,
    and these rows are a basis of the saturated kernel for every such U.
    ``hnf`` of that basis is the unique Hermite basis of the lattice, so the
    result does not depend on which echelon form was taken.
    """
    rows = matrix.entries if isinstance(matrix, IntMatrix) else matrix
    m, n = len(rows), len(rows[0])
    t = [[int(x) for x in col] + e for col, e in zip(zip(*rows), _identity(n))]
    rank = len(_echelon(t, m))
    return hnf(IntMatrix([row[m:] for row in t[rank:]]))[0] if rank < n else None


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
    return gcd(*(int(x) for x in vector))


def primitive_part(vector):
    """Divide out the content and make the first nonzero entry positive."""
    g = content(vector)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    if next(x for x in vector if x) < 0:
        g = -g
    return tuple(int(x) // g for x in vector)
