"""Mod-p fibers of a model: point enumeration, singular locus, lines, and
the splitting-type classification.

Everything mod p starts from one (5, 6, 6) array per (model, p), built by
``model._quadric_gram`` and shared by every step (``_gram_mod_p``): the
upper-triangular Gram matrices G_k with q_k(x) = x^T G_k x.  The polar
matrices B_k = G_k + G_k^T give the polar form x^T B_k y = q_k(x + y) -
q_k(x) - q_k(y) and the Jacobian rows B_k x in every characteristic, 2
included.

One coordinate system per fiber.  ``_solver_coordinates`` gives each
(quadrics, p) invertible E (5 x 5) and g (6 x 6) mod p such that the
quadrics (E q)(g v) have the solver shape (``model._solver_shaped``):
quadrics 4-5 are linear in (u1, u2) for fixed t = (u3, u4, u5), and
quadrics 1-3 are linear in u0.  E = g = I where the Gram array mod p has
it, as on both fixtures and every ``build_model`` output; other models are
moved (below).  Enumeration and the minor certificate both work there.  A
fiber is admitted only if its quadrics are independent mod p
(``model._quadric_rank``, kept by any change of coordinates), else
DomainError names p: dependent ones cut out more than a surface.

The solver.  Each point x is listed once, under its plane t(x) = (u3, u4,
u5), by one rule for every plane.  For each t in P^2 with first nonzero
entry 1 it lists every solution (u1, u2) of the 2x2 system a(t) (u1, u2) +
c(t) = 0 of quadrics 4-5.  Where det a(t) != 0 (u3 u5 - u4^2 on the
fixtures) Cramer's rule gives the one solution.  The planes with det a(t)
= 0 are solved in array steps: each contributes the p points of the line
of its first equation with a nonzero coefficient, or all p^2 pairs if
both equations are constant, and a candidate is kept when both equations
vanish on it.  Every solution satisfies the first equation, so it lies on
that line, or anywhere when both rows of a(t) are 0; so the kept
candidates are all the solutions.  The plane t = 0 takes the same step
with (u1, u2) scaled instead of t: every term of quadrics 4-5 has a
factor u3, u4 or u5, so a(0) = c(0) = 0 and every (u1, u2) solves it.
Its rows are the p + 1 points (u1, u2) of P^1 with first nonzero entry
1, which join the first block, and (u1, u2) = 0 leaves the one point e0 =
(1, 0, 0, 0, 0, 0).  Then u0 comes from the first quadric among 1-3 with
a nonzero u0 coefficient there; if there is none, quadrics 1-3 do not
depend on u0, and all p values are taken where they vanish and none
elsewhere.  Every candidate, e0 among them, is kept only when all five
quadrics vanish on it.  Candidates go through these steps in blocks of
whole planes, a new block every _CANDIDATE_BLOCK candidates, so the
memory stays bounded where every plane is degenerate: quadrics 4-5 that
are 0 on every plane list p^2 pairs there, p^4 candidates in all.

Completeness: scale a fiber point x so that t(x), or (x1, x2) where t(x)
= 0, has first nonzero entry 1; where both are 0, x is e0, a candidate.
Else quadrics 4-5 vanish at x, so (x1, x2) is a listed solution for t(x),
a listed row of P^1 where t(x) = 0; quadrics 1-3 vanish at x, so x0 is
the root of the chosen one or a taken value.  So x is a candidate, and
it passes the final check.  Distinct candidates are distinct projective
points (their t differ, or on t = 0 their (u1, u2), or one is e0), so
the result is exactly the fiber, from O(p^2) candidates instead of O(p^5)
cells when few planes are degenerate, as on every del Pezzo fiber
(below).  Nothing here divides by 2, so p = 2 is no exception.  The proof
uses nothing but the shape of the Gram array mod p it is given.  (e0 lies
on every fiber of the shape, as no quadric has a u0^2 term; the final
check keeps it like any other candidate.)

The move into the solver shape:

1. A smooth point P0, where the Jacobian J has rank exactly 3, is searched
   on P^3 slices of P^5, at most SLICE_BOUND of them, spanned by four
   vectors drawn from a generator seeded with p, so the search is the same
   on every run.  A general P^3 meets the quintic surface in five geometric
   points, about one F_p-point per slice on average.  On a slice, the first
   quadric that does not vanish there is evaluated, as a 4x4 Gram matrix,
   on all p^3 + p^2 + p + 1 slice points, and the other four only on its
   zeros.  A slice on which all five vanish is skipped: it lies in the
   fiber, so every point of it has a tangent space of dimension at least 4
   and J of rank at most 2.  Dependent slice vectors only repeat points or
   give x = 0, whose Jacobian is 0.
2. One row reduction of [J(P0) | I_5] gives both changes of basis.  Its
   first six columns are the reduced J(P0), with pivot columns C and free
   columns F; ``_free_kernels`` gives the kernel vector k_f of each free
   column f, with 1 at f and 0 at the other free columns.  P0 lies in
   ker J(P0), because P0^T B_k P0 = 2 q_k(P0) = 0, so P0 = sum_f P0[f] k_f
   with some P0[f*] != 0.  The k_f and the unit vectors at C form a basis
   of F_p^6 (with the rows in the order (F, C) their matrix is block
   unitriangular), and putting P0 in place of k_f* keeps a basis.  So g =
   (P0, the other two k_f, the unit vectors at C), as columns e0..e5, is
   invertible, and e0, e1, e2 span ker J(P0).  The row operations act on
   whole rows, so the last five columns end as an invertible E with E J(P0)
   the first six.  Rows 4-5 of E J(P0) are 0 (pivots found in the last
   five columns lie in rows 4-5 and leave the first six columns as they
   are), so the quadrics E_4 q and E_5 q have sum_k c_k B_k P0 = 0: they
   are singular at P0.
3. The moved quadrics are (E q)(g v), with Gram matrices g^T (E G)_k g
   folded to upper-triangular form; their zero set is g^{-1} of the fiber.
   The first rank-3 point of each slice is tried, and its move is accepted
   when it has the solver shape; if no slice gives one, DomainError names
   the prime.

Soundness rests only on the shape, since the completeness proof above needs
nothing else.  Why a move of a del Pezzo fiber has it: quadrics 1-3 vanish
at P0 = g e0, so they have no v0^2 term.  A quadric q with B P0 = 0 and
q(P0) = 0 has q(x + s P0) = q(x) + s x^T B P0 + s^2 q(P0) = q(x), a cone with
vertex P0 in every characteristic, 2 included (there B P0 = 0 alone would
not give q(P0) = 0, but P0 is on the fiber); so quadrics 4-5 have no v0
term.  Projection from a smooth point P0 sends a quintic del Pezzo surface
X birationally onto a quartic del Pezzo surface Y in P^4, the intersection
of two quadrics, and the cones over those two are the quadrics through X
singular at P0.  The tangent plane T = P(ker J(P0)), spanned by e0, e1,
e2, projects to the line of Y that the blow-up of P0 puts there, so both
cones contain T, and quadrics 4-5 have no v1^2, v1 v2 or v2^2 term.  On
the plane spanned by that line and a point t they read lambda a(t) (v1,
v2) + lambda^2 c(t); a general such plane meets Y in the line and one
more point, so det a(t) is not 0 at every t, and the candidates stay
O(p^2).  Nothing in this divides by 2.

Smooth points, certified by minors.  The Jacobian row of q_k at x is
B_k x, whose entry j is the partial derivative of q_k by u_j (the diagonal
2 G_k[j, j] vanishes at p = 2, as the derivative of u_j^2 does).  On the
solver shape, quadrics 4-5 have no u0, u1^2, u1 u2 or u2^2 term, so their
rows read (0, a(t)) on the columns (u0, u1, u2), and quadrics 1-3 have no
u0^2 term, so their u0 entry is lin_k(x), the coefficient of u0 in q_k, a
linear form in u1..u5.  The minor on rows (k, 4, 5) and columns (u0, u1,
u2) is then lin_k * det a(t), in every characteristic.  Where both factors
are nonzero the Jacobian has rank at least 3 and the point is smooth.  The
points this leaves are tried next on the ten minors of rows 1-3 on three
of the columns u1..u5, and a nonzero one again gives rank at least 3.
These decide e0, which the first minor never does, as det a(0) = 0: at e0
rows 4-5 vanish, as quadrics 4-5 have no u0 term, and rows 1-3 read (0,
lin_k) with lin_k the coefficient vector of u0 in q_k, so J(e0) has rank
3 exactly when one of the ten minors is nonzero.  ``singular_points``
row-reduces only the points that both tests leave, and nothing when none
are left.  It reads the minors in solver coordinates, where the Jacobian
at v = g^{-1} x is E J(x) g, of the rank of J(x), with rows F_k x for F_k
= g^T (E B)_k (each B_l is symmetric); E and g are folded into F once per
(quadrics, p).

Lines.  ``_fiber_array`` holds a fiber as one (n, 6) array of normalized
points sorted by the base-p code c(x) = sum x_i p^(5 - i), and
``enumerate_fiber`` is its tuple view.  Code order is tuple order: the
coordinates are the base-p digits of c(x), most significant first, so if
x and y first differ at i, with x_i < y_i, then c(y) - c(x) >= p^(5 - i) -
sum_{j > i} (p - 1) p^(5 - j) = 1.  The codes are exact in int64: c(x) <
p^6 <= 97^6 < 2^40.  ``find_lines`` then looks points up by
``np.searchsorted`` among the codes.

Two distinct fiber points P, Q span a line of the surface iff the polar
values P^T B_k Q vanish for all five quadrics, since q(aP + bQ) = a^2 q(P)
+ b^2 q(Q) + ab P^T B Q, in every characteristic.  A line meets the
hyperplane u0 = 0 in one point or lies in it, so every line holds such a
pair with Q on u0 = 0, and only those pairs are tested.  The value of
quadric 1 is taken on every pair, in blocks of at most _LINE_BLOCK_CELLS,
and that of quadric k + 1 only on the pairs where quadrics 1..k vanished:
a pair survives all five steps iff all five values vanish, which is the
conjunction of the five tests; a step only leaves out pairs that an
earlier one already refused.

A surviving pair names its line by the line's reduced echelon basis (a,
b), read off P and Q alone (``_first_points``).  A plane of F_p^6 has
exactly one reduced echelon basis, so every pair on a line gives the same
(a, b), and different lines give different ones.  The points of the line
are b and a + t b, t in F_p, and in tuple order they read b, a, a + b,
..., a + (p - 1) b: b is 0 at lead(a) where the others are 1, and the
others differ first at lead(b), where a + t b is t.  So each line named is
checked once, on all its p + 1 points, and every polar pair lies on a
line checked: checking one pair per line checks every pair.  The lines
come out in the order of (b, a), which is the order of their point tuples.

Integer safety at p <= ENUMERATION_BOUND = 100: entries are reduced mod p
before any product, so the largest unreduced sum, a quadric value over 36
Gram entries or an entry of g^T G g, stays below 36 * 100^3 < 2^26.

The request cache.  ``_FIBER_CACHE`` is the one store of per-request
results, a ``_BoundedCache`` of CACHE_SIZE entries that drops the oldest
stored first.  ``_fiber_array`` keeps each solved fiber there under
("fiber", p, quadrics), the only data the fiber depends on, and
``verify_chart`` each chart certificate under ("chart", p, quadrics);
``obstruction`` keeps its smooth routes at 11 and its chart lifts at 25 in
the same object, under (11, quadrics, l1) and (25, quadrics, l1), so one
``clear()`` empties all four, and a caller that must start cold calls it.
One claim table of ``verify.run_claims`` stores 21 entries, 14 fibers, 2
chart certificates, 4 smooth routes and 1 lift table, so at 24 entries it
solves each (quadrics, p) once; the fiber benchmark's pass stores 45
fibers, so no pass finds one an earlier pass solved.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .errors import (
    ChartError,
    DomainError,
    EnumerationBoundError,
    FiberInconsistencyError,
)
from .model import (
    _CHART_TERMS,
    _chart_tables,
    _quadric_gram,
    _quadric_rank,
    _solver_shaped,
)
from .numberfield import _is_prime, minpoly_splitting_mod_p

ENUMERATION_BOUND = 100
# P^3 slices searched for a smooth point that moves a model into the solver
# shape; on 510 coordinate changes of the two fixtures at primes <= 97 the
# search took 1.6 slices on average and 9 at most
SLICE_BOUND = 64
_LINE_BLOCK_CELLS = 1 << 18
# candidates (u1, u2, t) taken through the u0 step and the final check at
# once, a few hundred bytes of int64 temporaries each
_CANDIDATE_BLOCK = 1 << 16


class _BoundedCache(OrderedDict):
    """Mapping that keeps only the ``size`` most recently stored entries."""

    def __init__(self, size):
        super().__init__()
        self.size = size

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        if len(self) > self.size:
            self.popitem(last=False)


CACHE_SIZE = 24
# solved fibers, and the smooth routes and chart lifts of ``obstruction``,
# per request: a caller that must start cold empties it (module docstring,
# request cache)
_FIBER_CACHE = _BoundedCache(CACHE_SIZE)


@lru_cache(maxsize=16)
def _gram_mod_p(vectors, p):
    """(5, 6, 6) int64 array of the Gram matrices G_k mod p, built once per
    (quadrics, p) and shared, so it is read-only."""
    gram = np.array(
        [[[c % p for c in row] for row in g] for g in _quadric_gram(vectors)], dtype=np.int64
    )
    gram.flags.writeable = False
    return gram


def _polar_mod_p(model, p):
    """(5, 6, 6) int64 array of polar matrices B_k = G_k + G_k^T mod p."""
    gram = _gram_mod_p(model.quadrics, p)
    return (gram + gram.transpose(0, 2, 1)) % p


def _upper(s, p):
    """The upper-triangular Gram array mod p of the forms x^T s_k x."""
    n = s.shape[-1]
    return (np.triu(s + s.transpose(0, 2, 1), 1) + s * np.eye(n, dtype=np.int64)) % p


# one entry per prime up to ENUMERATION_BOUND, for the per-p tables below
_PRIMES_IN_BOUND = sum(map(_is_prime, range(ENUMERATION_BOUND + 1)))


@lru_cache(maxsize=_PRIMES_IN_BOUND)
def _inverses(p):
    """Inverse of every residue mod p, with 0 at 0."""
    return np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.int64)


def _on_fiber(gram, x, p):
    """Mask of the rows of x (n, d) on which all forms x^T G_k x vanish mod p;
    the rows x^T G_k of all k come from one (n, d) @ (d, k d) product."""
    k, d = gram.shape[:2]
    xg = (x @ gram.transpose(1, 0, 2).reshape(d, k * d)).reshape(-1, k, d)
    return ~(np.einsum("nkj,nj->nk", xg, x) % p).any(axis=1)


@lru_cache(maxsize=_PRIMES_IN_BOUND)
def _projective_plane(p):
    """The p^2 + p + 1 points of P^2(F_p) with first nonzero entry 1, as rows
    (read-only, shared)."""
    rows = [(1, a, b) for a in range(p) for b in range(p)] + [(0, 1, b) for b in range(p)]
    plane = np.array(rows + [(0, 0, 1)], dtype=np.int64)
    plane.flags.writeable = False
    return plane


def enumerate_fiber(model, p):
    """All points of the mod-p fiber, as sorted normalized coordinate tuples:
    the tuple view of ``_fiber_array``.

    Normalization: the first nonzero coordinate is 1.  The fiber is solved
    in the coordinates of ``_solver_coordinates`` and mapped back; quadrics
    dependent mod p, and a fiber without a smooth point that gives the
    solver shape, raise DomainError (module docstring).
    """
    return list(map(tuple, _fiber_array(model, p).tolist()))


def _fiber_array(model, p):
    """The normalized fiber as one read-only (n, 6) int64 array, its rows in
    increasing base-p code, which is tuple order (module docstring, Lines);
    solved once per (quadrics, p) while ``_FIBER_CACHE`` holds it.  The
    cache holds the residues, all below ENUMERATION_BOUND < 2^8, as uint8,
    an eighth of the int64 array."""
    key = ("fiber", p, model.quadrics)
    stored = _FIBER_CACHE.get(key)
    if stored is None:
        stored = _FIBER_CACHE[key] = _solved_fiber(model.quadrics, p).astype(np.uint8)
    x = stored.astype(np.int64)
    x.flags.writeable = False
    return x


def _solved_fiber(vectors, p):
    """``_fiber_array`` of the quadrics ``vectors``, solved afresh."""
    _require_prime(p)
    _, g, moved = _solver_coordinates(vectors, p)
    x = _solve_fiber(moved, p)
    if g is not _IDENTITY_6:
        x = x @ g.T % p
    lead = x[np.arange(len(x)), (x != 0).argmax(axis=1)]
    x = x * _inverses(p)[lead][:, None] % p
    return x[np.argsort(_codes(x, p))]


def _codes(x, p):
    """Base-p codes c(x) = sum x_i p^(5 - i) of the rows of x (..., 6)."""
    return x @ p ** np.arange(5, -1, -1, dtype=np.int64)


def _require_prime(p):
    """Refuse p unless it is a prime in [2, ENUMERATION_BOUND]."""
    if p > ENUMERATION_BOUND:
        raise EnumerationBoundError(f"prime {p} exceeds enumeration bound {ENUMERATION_BOUND}")
    if not _is_prime(p):
        raise DomainError(f"{p} is not prime")


# g where the quadrics have the solver shape as given: no map back is needed
_IDENTITY_6 = np.eye(6, dtype=np.int64)
_IDENTITY_6.flags.writeable = False


@lru_cache(maxsize=16)
def _solver_coordinates(vectors, p):
    """Read-only (F, g, moved): the Gram array of (E q)(g v), which has the
    solver shape, and F_k = g^T (E B)_k, whose rows F_k x are its Jacobian
    at g^-1 x (module docstring).  Where the quadrics have the shape as
    given, E = I, g is ``_IDENTITY_6`` itself and F the polar array.
    Dependent quadrics raise DomainError."""
    rank = _quadric_rank(vectors, p)
    if rank < 5:
        raise DomainError(f"model quadrics have rank {rank} mod {p}, expected 5 independent quadrics")
    gram = _gram_mod_p(vectors, p)
    polar = (gram + gram.transpose(0, 2, 1)) % p
    if _solver_shaped(gram):
        folded, g, moved = polar, _IDENTITY_6, gram
    else:
        e, g, moved = _shaped_coordinates(gram, polar, p)
        folded = g.T @ (np.einsum("kl,lab->kab", e, polar) % p) % p
    for array in (folded, g, moved):
        array.flags.writeable = False
    return folded, g, moved


def _shaped_coordinates(gram, polar, p):
    """(E, g, moved) by the slice search (module docstring, steps 1-3)."""
    rng = random.Random(p)
    for _ in range(SLICE_BOUND):
        s = np.array([[rng.randrange(p) for _ in range(6)] for _ in range(4)], dtype=np.int64)
        x = _slice_points(gram, s, p)
        if not len(x):
            continue
        jacobians = (polar @ x.T % p).transpose(2, 0, 1)
        eye = np.broadcast_to(np.eye(5, dtype=np.int64), (len(x), 5, 5))
        reduced, pivots = _row_reduce_mod_p(np.concatenate([jacobians, eye], axis=2), p)
        smooth = np.flatnonzero(pivots[:, :6].sum(axis=1) == 3)
        if not len(smooth):
            continue
        r, pivot = reduced[smooth[0]], pivots[smooth[0], :6]
        g = _tangent_basis(x[smooth[0]], _free_kernels(r[:, :6], pivot, p)[~pivot], pivot)
        moved = _upper(g.T @ (np.einsum("kl,lab->kab", r[:, 6:], gram) % p) @ g, p)
        if _solver_shaped(moved):
            return r[:, 6:], g, moved
    raise DomainError(
        f"no smooth point of the fiber mod {p} moves the model into the solver shape "
        f"(searched {SLICE_BOUND} slices of P^3)"
    )


def _slice_points(gram, s, p):
    """Fiber points on the P^3 spanned by the rows of s (4, 6), in P^5."""
    h = _upper(s @ gram @ s.T, p)
    nonzero = np.flatnonzero(h.reshape(5, -1).any(axis=1))
    if not len(nonzero):
        return np.zeros((0, 6), dtype=np.int64)
    y = _slice_zeros(h[nonzero[0]], p)
    return y[_on_fiber(h, y, p)] @ s % p


def _slice_zeros(h, p):
    """The p^3 + p^2 + p + 1 points y of P^3(F_p), first nonzero entry 1, with
    y^T h y = 0 mod p, for an upper-triangular h (4, 4).  On y = (1, a, b, c)
    the value is f(a, b) + c (h33 c + l(a, b)), with f and l on the (a, b)
    grid, so one (p, p, p) grid holds it; the plane y0 = 0 is a P^2."""
    r = np.arange(p)
    a, b = r[:, None], r[None, :]
    f = h[0, 0] + (h[0, 1] + h[1, 1] * a + h[1, 2] * b) * a + (h[0, 2] + h[2, 2] * b) * b
    line = h[0, 3] + h[1, 3] * a + h[2, 3] * b
    affine = np.argwhere((f[..., None] % p + r * (h[3, 3] * r + line[..., None])) % p == 0)
    plane = _projective_plane(p)
    plane = plane[_on_fiber(h[None, 1:, 1:], plane, p)]
    return np.concatenate([
        np.column_stack([np.ones(len(affine), dtype=np.int64), affine]),
        np.column_stack([np.zeros(len(plane), dtype=np.int64), plane]),
    ])


def _tangent_basis(point, kernel, pivot):
    """Columns P0, the two rows of ``kernel`` (3, 6), the kernel basis of
    the reduced Jacobian (``_free_kernels``), that complete P0 to a basis of
    its kernel, and the unit vectors at its pivot columns (module docstring,
    step 2)."""
    keep = np.arange(3) != (point[~pivot] != 0).argmax()
    return np.concatenate([point[None], kernel[keep], np.eye(6, dtype=np.int64)[pivot]]).T


def _solve_fiber(gram, p):
    """Fiber points, unnormalized, by back-solving (module docstring), the
    planes t in blocks that start every _CANDIDATE_BLOCK candidates: one
    on a plane with det a(t) != 0, p or p^2 on the others.  The plane t = 0
    takes the u0 step like the others, its p + 1 rows (u1, u2, 0) over P^1
    in the first block, and e0 passes the final check with that block."""
    t = _projective_plane(p)
    a = np.einsum("kvj,nj->nkv", gram[3:, 1:3, 3:], t) % p
    det = (a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]) % p
    c = ((t @ gram[3:, 3:, 3:]) * t).sum(axis=-1).T % p
    size = np.where(det != 0, 1, np.where(a.any(axis=(1, 2)), p, p * p))
    block = (np.cumsum(size) - size) // _CANDIDATE_BLOCK
    edges = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(t)]
    # the plane t = 0, where quadrics 4-5 vanish: its rows (u1, u2, 0) over
    # P^1 join the first block before the u0 step and e0 after it; the
    # later blocks take neither
    e0, y0 = np.eye(1, 6, dtype=np.int64), np.column_stack([t[-p - 1:, 1:], np.zeros_like(t[-p - 1:])])
    fiber = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        y = np.concatenate([y0, _plane_solutions(a[lo:hi], c[lo:hi], t[lo:hi], det[lo:hi], p)])
        x = np.concatenate([e0, _lift_u0(gram, y, p)])
        fiber.append(x[_on_fiber(gram, x, p)])
        e0, y0 = e0[:0], y0[:0]
    return np.concatenate(fiber)


def _lift_u0(gram, y, p):
    """Candidates (u0, y) above the rows y = (u1, u2, t): u0 from the first
    of quadrics 1-3 with a nonzero u0 coefficient, or every u0 where there
    is none and quadrics 1-3 vanish (module docstring)."""
    # quadrics 1-3 read lin[k] * u0 + rest[k] = 0
    lin = y @ gram[:3, 0, 1:].T % p
    rest = ((y @ gram[:3, 1:, 1:]) * y).sum(axis=-1).T % p
    has = lin != 0
    some = has.any(axis=1)
    k = has.argmax(axis=1)[some]
    u0 = -rest[some, k] * _inverses(p)[lin[some, k]] % p
    stuck = y[~some & ~rest.any(axis=1)]
    x = np.empty((len(u0) + p * len(stuck), 6), dtype=np.int64)
    x[: len(u0), 0], x[: len(u0), 1:] = u0, y[some]
    # each stuck row once with every u0, in u0 order
    spread = x[len(u0) :].reshape(len(stuck), p, 6)
    spread[..., 0], spread[..., 1:] = np.arange(p), stuck[:, None]
    return x


def _plane_solutions(a, c, t, det, p):
    """Rows (u1, u2, t) on which quadrics 4-5 vanish, over the planes t
    (module docstring): Cramer's rule where det a(t) != 0; elsewhere the p
    points of the line of the first equation with a nonzero coefficient,
    or all p^2 pairs when both equations are constant, filtered by both
    equations."""
    inv = _inverses(p)
    ok = det != 0
    an, cn, d = a[ok], c[ok], inv[det[ok]]
    u1 = (an[:, 0, 1] * cn[:, 1] - an[:, 1, 1] * cn[:, 0]) % p * d % p
    u2 = (an[:, 1, 0] * cn[:, 0] - an[:, 0, 0] * cn[:, 1]) % p * d % p
    solved = np.column_stack([u1, u2, t[ok]])
    a, c, t = a[~ok], c[~ok], t[~ok]
    nonzero = a.any(axis=2)
    lined = nonzero.any(axis=1)
    planes = np.nonzero(lined)[0]
    first = nonzero.argmax(axis=1)[planes]
    coef, const = a[planes, first], c[planes, first]
    # the line b1 u1 + b2 u2 = -const, (b1, b2) = coef: the point with
    # -const / b_j at the first j where b_j != 0, plus multiples of (-b2, b1)
    rows = np.arange(len(planes))
    j = (coef != 0).argmax(axis=1)
    point = np.zeros_like(coef)
    point[rows, j] = -const * inv[coef[rows, j]] % p
    direction = np.column_stack([-coef[:, 1], coef[:, 0]])
    lines = (point[:, None] + np.arange(p)[:, None] * direction[:, None]) % p
    flat = np.nonzero(~lined)[0]
    grid = np.indices((p, p)).reshape(2, -1).T
    u = np.concatenate([lines.reshape(-1, 2), np.tile(grid, (len(flat), 1))])
    plane = np.concatenate([np.repeat(planes, p), np.repeat(flat, p * p)])
    keep = ~((np.einsum("nkv,nv->nk", a[plane], u) + c[plane]) % p).any(axis=1)
    return np.concatenate([solved, np.column_stack([u[keep], t[plane[keep]]])])


def _row_reduce_mod_p(mats, p):
    """Gauss-Jordan elimination mod p of a stack of matrices, shape (n, r, c).

    Returns the reduced stack and an (n, c) boolean array of pivot columns;
    the pivot rows come first, in column order.
    """
    m = np.array(mats, dtype=np.int64) % p
    n, r, c = m.shape
    inv = _inverses(p)
    rank = np.zeros(n, dtype=np.int64)
    pivots = np.zeros((n, c), dtype=bool)
    for col in range(c):
        open_rows = (m[:, :, col] != 0) & (np.arange(r) >= rank[:, None])
        sel = np.nonzero(open_rows.any(axis=1))[0]
        if not len(sel):
            continue
        src, dst = open_rows[sel].argmax(axis=1), rank[sel]
        row = m[sel, src] * inv[m[sel, src, col]][:, None] % p
        m[sel, src] = m[sel, dst]
        m[sel] = (m[sel] - m[sel, :, col, None] * row[:, None, :]) % p
        m[sel, dst] = row
        pivots[sel, col] = True
        rank[sel] += 1
    return m, pivots


def _free_kernels(reduced, pivots, p):
    """Kernel vectors of ``_row_reduce_mod_p`` results: ``reduced`` (..., r, c)
    and ``pivots`` (..., c) give (..., c, c).

    Row f is the kernel vector of the free column f: 1 at f, 0 at the other
    free columns, and minus the reduced entries of column f at the pivot
    columns, the i-th reduced row belonging to the i-th pivot column.  Rows
    at pivot columns are no kernel vectors; callers take the free ones.
    Cut to the first c' columns, the free rows among them are a kernel
    basis of those columns alone, which are reduced as if on their own.
    """
    # rows[..., j, :]: the reduced row of pivot column j
    rows = np.take_along_axis(reduced, (np.cumsum(pivots, axis=-1) - 1).clip(0)[..., None], axis=-2)
    eye = np.eye(pivots.shape[-1], dtype=np.int64)
    return np.where(pivots[..., None, :], -rows.swapaxes(-1, -2) % p, eye)


def solve_mod_p(rows, p, rhs=None):
    """(rank, particular, kernel) for rows . w = rhs over F_p; rhs defaults to 0.

    The particular solution sets every free variable to 0 and is None when
    the system is inconsistent; the kernel basis has one vector per free
    column, in column order, with a 1 in that column.  Both are read off
    ``_free_kernels`` of [rows | rhs]: the particular solution is minus the
    kernel vector of the right-hand column, whose entry -1 there says
    rows . w - rhs = 0.
    """
    cols = len(rows[0])
    rhs = [0] * len(rows) if rhs is None else rhs
    reduced, pivots = _row_reduce_mod_p([[[*r, b] for r, b in zip(rows, rhs)]], p)
    kernels, pivots = _free_kernels(reduced[0], pivots[0], p)[:, :cols], pivots[0]
    particular = None if pivots[cols] else tuple((-kernels[cols] % p).tolist())
    kernel = tuple(map(tuple, kernels[:cols][~pivots[:cols]].tolist()))
    return int(pivots[:cols].sum()), particular, kernel


def rank_mod_p(rows, p):
    return solve_mod_p(rows, p)[0]


def singular_points(model, p, fiber=None):
    """Fiber points where the Jacobian drops below rank 3, in fiber order."""
    x = _fiber_array(model, p) if fiber is None else np.asarray(fiber, dtype=np.int64).reshape(-1, 6)
    return list(map(tuple, x[_singular_mask(model, p, x)].tolist()))


# the column triples (i, j, k) of the ten 3x3 minors of Jacobian rows 1-3 on
# three of the columns u1..u5, shifted cyclically: entry [a, n] is position a
# of the n-th shift, (a + n) mod 3, so the shift table is symmetric and [0],
# [1] and [2] read (i, j, k), (j, k, i) and (k, i, j) over the three shifts
_MINOR_COLUMNS = np.array(list(combinations(range(1, 6), 3)))[:, [[0, 1, 2], [1, 2, 0], [2, 0, 1]]].T


def _row_1_3_minors(jacobians):
    """(n, 10) minors of rows 1-3 of the Jacobians (n, 5, 6) on the column
    triples of ``_MINOR_COLUMNS``, unreduced: the cofactor expansion along
    row 1, r_i (s_j t_k - s_k t_j) summed over the three cyclic shifts of
    (i, j, k).  With entries below p <= 100 every sum stays below 3 * 100^3."""
    # r, s, t: rows 1, 2, 3 at each (position, shift, triple) of the table
    r, s, t = jacobians[:, :3, _MINOR_COLUMNS].swapaxes(0, 1)
    return (r[:, 0] * (s[:, 1] * t[:, 2] - s[:, 2] * t[:, 1])).sum(axis=1)


def _singular_mask(model, p, x):
    """Mask of the rows of x (n, 6), fiber points, where the Jacobian has
    rank below 3.

    The Jacobians of all points in solver coordinates are one product F x.
    A point with det a(t) != 0 and some lin_k != 0, or with a nonzero minor
    of rows 1-3 on three of the columns u1..u5, has a nonzero 3x3 minor
    there and is smooth (module docstring); the others, if any, are
    row-reduced in one stack.
    """
    if not len(x):
        return np.zeros(0, dtype=bool)
    jacobians = (_solver_coordinates(model.quadrics, p)[0] @ x.T % p).transpose(2, 0, 1)
    a = jacobians[:, 3:, 1:3]
    det = (a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]) % p
    todo = np.flatnonzero((det == 0) | ~jacobians[:, :3, 0].any(axis=1))
    todo = todo[~(_row_1_3_minors(jacobians[todo]) % p).any(axis=1)]
    ranks = np.full(len(x), 3)
    if len(todo):
        ranks[todo] = _row_reduce_mod_p(jacobians[todo], p)[1].sum(axis=1)
    return ranks < 3


@dataclass(frozen=True)
class LineOnFiber:
    span: tuple
    points: tuple

    def to_json_dict(self):
        return {"span": [list(p) for p in self.span], "points": [list(p) for p in self.points]}


def find_lines(model, p, fiber=None):
    """Lines contained in the mod-p fiber (``fiber``, tuples or an array, must
    be all of it), each with its points in tuple order, the lines in the
    order of their points.

    Pairs (P, Q) with Q on u0 = 0 are tested on the polar form of quadric 1
    in blocks of at most _LINE_BLOCK_CELLS pairs, then on quadrics 2-5 one
    after another; each pair that passes names its line by the line's first
    two points (``_first_points``), and the p + 1 points of each line named
    are looked up among the fiber's codes.  A point missing there raises:
    the enumeration missed a point of the line (module docstring, Lines).
    """
    x = np.asarray(_fiber_array(model, p) if fiber is None else fiber, dtype=np.int64).reshape(-1, 6)
    if not len(x):
        return []
    x = x[np.argsort(_codes(x, p), kind="stable")]
    codes = _codes(x, p)
    polar = _polar_mod_p(model, p)
    section = np.flatnonzero(x[:, 0] == 0)
    w, xs = x @ polar[0] % p, x[section].T
    block = max(1, _LINE_BLOCK_CELLS // max(1, len(section)))
    named = []
    for lo in range(0, len(x), block):
        i, j = np.nonzero(w[lo : lo + block] @ xs % p == 0)
        i, j = i + lo, section[j]
        for form in polar[1:]:
            on = (x[i] @ form * x[j]).sum(axis=1) % p == 0
            i, j = i[on], j[on]
        distinct = i != j
        named.append(_first_points(x[i[distinct]], x[j[distinct]], p))
    named = np.concatenate(named)
    if not len(named):
        return []
    # each line once, in the order of its first two points (b, a)
    first = _codes(named, p)
    order = np.lexsort(first.T[::-1])
    new = np.r_[True, (np.diff(first[order], axis=0) != 0).any(axis=1)]
    b, a = named[order[new]].transpose(1, 0, 2)[:, :, None]
    # the points b, a, a + b, ..., a + (p - 1) b of each line, in tuple order
    line_codes = _codes(np.concatenate([b, (a + np.arange(p)[:, None] * b) % p], axis=1), p)
    at = np.searchsorted(codes, line_codes).clip(max=len(codes) - 1)
    if (codes[at] != line_codes).any():
        raise FiberInconsistencyError("line through two fiber points leaves the fiber")
    return [LineOnFiber(tuple(map(tuple, pts[:2])), tuple(map(tuple, pts))) for pts in x[at].tolist()]


def _first_points(u, q, p):
    """(m, 2, 6): the first two points b, a, in tuple order, of the line
    through the distinct normalized points u and q of each row.

    (a, b) is the reduced echelon basis of the line: both normalized,
    lead(a) < lead(b) and a[lead(b)] = 0.  With k the index of q's leading
    1, r = u - u[k] q is not 0 and has r[k] = 0; normalized, its lead is
    not k.  If it is below k, (a, b) = (r, q); else (a, b) = (q - q[l] r, r)
    with l = lead(r), where a[k] = 1, a is 0 before k, and a[l] = 0.
    """
    rows = np.arange(len(q))
    k = (q != 0).argmax(axis=1)
    r = (u - u[rows, k][:, None] * q) % p
    lead = (r != 0).argmax(axis=1)
    r = r * _inverses(p)[r[rows, lead]][:, None] % p
    swap = (lead > k)[:, None]
    return np.stack([np.where(swap, r, q), np.where(swap, (q - q[rows, lead][:, None] * r) % p, r)], axis=1)


@dataclass(frozen=True)
class FiberReport:
    prime: int
    classification: str
    point_count: int
    points: tuple
    singular: tuple
    lines: tuple = field(default_factory=tuple)


# the smooth fiber each splitting label of the minimal polynomial predicts:
# (prediction, classification, a, lines) for p^2 + a p + 1 points, that many
# lines and no singular point
_PREDICTIONS = {
    "separable-irreducible": ("inert", "interesting", 0, 0),
    "separable-split": ("split", "split", 5, 10),
}


def classify_fiber(model, p):
    """Splitting-type prediction checked against enumerated evidence.

    How the quintic splits mod p (``numberfield.minpoly_splitting_mod_p``)
    predicts the fiber (``_PREDICTIONS``): inert means a smooth fiber with
    p^2 + 1 points and no lines, totally split means p^2 + 5p + 1 points
    and ten lines.  A mismatch raises instead of classifying, so a wrong
    model cannot slip through as an interesting one.
    """
    _require_prime(p)
    splitting = minpoly_splitting_mod_p(model.spec, p)
    x = _fiber_array(model, p)
    lines = find_lines(model, p, fiber=x)
    singular = singular_points(model, p, fiber=x)
    count = len(x)
    if splitting in _PREDICTIONS:
        prediction, label, a, line_count = _PREDICTIONS[splitting]
        expected = p * p + a * p + 1
        if count != expected or len(lines) != line_count or singular:
            raise FiberInconsistencyError(
                f"{prediction} prediction violated at {p}: {count} points "
                f"(expected {expected}), {len(lines)} lines, "
                f"{len(singular)} singular"
            )
    elif splitting == "separable-partial":
        raise FiberInconsistencyError(
            f"quintic splits partially at {p}; impossible for a cyclic field"
        )
    else:
        label = "singular" if singular else "other"
    return FiberReport(p, label, count, tuple(map(tuple, x.tolist())), tuple(singular), tuple(lines))


@dataclass(frozen=True)
class ChartCertificate:
    prime: int
    identity_ok: bool
    injective: bool
    chart_size: int
    off_chart_points: tuple
    line_points: tuple


def _on_chart(gram):
    """The quadrics q_k = x^T G_k x restricted to the chart of
    ``_CHART_TERMS``, as (5, 7, 5) arrays of (y, z) coefficients: each term
    y^b z^c of x_i and y^d z^e of x_j adds G_k[i, j] at (b + d, c + e), the
    exponents of their product (exact for integer Gram arrays)."""
    out = np.zeros((len(gram), 7, 5), dtype=gram.dtype)
    for (i, left), (j, right) in product(enumerate(_CHART_TERMS), repeat=2):
        for (b, c), (d, e) in product(left, right):
            out[:, b + d, c + e] += gram[:, i, j]
    return out


def _monomial_text(residue):
    """A (y, z) coefficient array as a sum of terms, highest degree first."""
    terms = sorted(zip(*np.nonzero(residue)), key=lambda e: (-e[0] - e[1], -e[0]))
    parts = []
    for b, c in terms:
        mono = "*".join(f"{v}^{e}" if e > 1 else v for v, e in (("y", b), ("z", c)) if e)
        parts.append(f"({residue[b, c]})" + (f"*{mono}" if mono else ""))
    return " + ".join(parts)


def verify_chart(model):
    """Certify the affine chart of a model at the prime p of its modulus,
    the one prime that ramifies in its field (``model.modulus``).

    Three checks: every quadric vanishes identically on the substitution
    (as polynomials in y, z mod p; at p = 5 the restriction has degree 6 >= p,
    so vanishing at the p^2 points of the chart would not prove it), the
    chart map is injective on affine space, and together with the points of
    the unique line it covers the fiber exactly.  The chart points are the
    rows of ``_chart_tables(p)``, the table the invariant images read, so
    the certificate covers the points they evaluate.  Any failure raises
    ChartError.  The certificate is kept in ``_FIBER_CACHE`` under
    ("chart", p, quadrics), the data it depends on, so it is computed once
    per request for every route that reads it.
    """
    modulus = model.modulus
    p = 5 if modulus == 25 else modulus
    key = ("chart", p, model.quadrics)
    if key not in _FIBER_CACHE:
        _FIBER_CACHE[key] = _certified_chart(model, p)
    return _FIBER_CACHE[key]


def _certified_chart(model, p):
    """The ``verify_chart`` certificate at p, computed afresh."""
    for residue in _on_chart(_gram_mod_p(model.quadrics, p)) % p:
        if residue.any():
            raise ChartError(
                f"chart identity fails mod {p}: residue {_monomial_text(residue)}"
            )
    chart_points = set(map(tuple, _chart_tables(p)[0].tolist()))
    if len(chart_points) != p * p:
        raise ChartError("chart map collides")
    points = enumerate_fiber(model, p)
    fiber = set(points)
    if not chart_points <= fiber:
        raise ChartError("chart image leaves the fiber")
    lines = find_lines(model, p, fiber=points)
    if len(lines) != 1:
        raise ChartError(f"expected a unique line mod {p}, found {len(lines)}")
    off = fiber - chart_points
    if off != set(lines[0].points):
        raise ChartError("chart image plus the line does not cover the fiber")
    return ChartCertificate(
        p,
        True,
        True,
        len(chart_points),
        tuple(sorted(off)),
        lines[0].points,
    )
