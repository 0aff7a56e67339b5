"""Order-5 invariant images, local solubility, verdicts, and the censuses.

The affine surfaces of interest are complements U_h = X minus {h = 0} for a
primitive integral linear form h.  The order-5 class on U_h evaluates at a
local point through the fifth-power residue class of the unit l1/h, so at
every prime where the splitting field is unramified the invariant vanishes
and the whole computation concentrates at the single ramified prime of the
model's field (``numberfield.ramified_primes``).  There the residue of a
local point determines the invariant, and the image of the invariant map
becomes a finite, exact computation over the chart of the singular fiber.

Two independent routes are kept at each modulus (``two_route_images``).
At 11 the chart route evaluates the reduced form as a polynomial on the
affine plane, while the smooth-point route works directly from the
enumerated fiber; ``path_agreement_check`` verifies wholesale that they
agree.  At 25 the residue formula of ``inv_image_25`` is checked against
the values at the chart lifts mod 25.

Both censuses are theorems on the shape of a form on the chart:
``census_11`` reads the z-free forms at 11 table rows and checks its u5
rule on 121 depressed cubics, and ``census_25`` reads 3,125 kappa forms.
The sweeps of the mask kernel over every form mod 11
(``census_11_smoothpath``, ``path_agreement_check``) are the oracles of
the count at 11.

An image is a 5-bit mask over the cosets of the fifth powers: bit i is the
coset ``fifth_power_classes(q).classes[i]``, so the identity coset is bit
0.  That group is the one coset table of a modulus, the coset index and
the bits of every residue and of its inverse, and the per-form images
(``InvariantImage.mask``) and the mask kernel read the same bits; the
coset tuples of a document are read off the mask.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FiberInconsistencyError
from .fibers import (
    _FIBER_CACHE,
    CACHE_SIZE,
    _BoundedCache,
    _fiber_array,
    _free_kernels,
    _gram_mod_p,
    _inverses,
    _polar_mod_p,
    _row_reduce_mod_p,
    _singular_mask,
    enumerate_fiber,
    rank_mod_p,
    solve_mod_p,
    verify_chart,
)
from .model import DelPezzoModel, _chart_tables, _form_vectors, _quadric_gram, fixture
from .numberfield import _is_prime, minpoly_splitting_mod_p, ramified_primes

U0_FORM = (1, 0, 0, 0, 0, 0)


@dataclass(frozen=True)
class ResidueClassGroup:
    """Units modulo q, the subgroup of fifth powers, and its cosets: the one
    coset table of a modulus.

    The cosets are listed with the identity class first, the rest ordered by
    their least element; every class is an ascending tuple of residues.
    ``index`` (q,) holds the position in ``classes`` of the coset of every
    residue, -1 at a non-unit, and the uint8 tables ``bits`` and
    ``inverse_bits`` (q,) hold 1 << index[u] and 1 << index[1/u] at a unit
    u, 0 at a non-unit: bit i of a coset mask is ``classes[i]``, the bit
    layout of ``InvariantImage.mask`` and of the census kernels.  The three
    arrays are read-only and follow from the other fields, so equality,
    hashing and the repr read only those.
    """

    modulus: int
    units: tuple
    fifth_powers: tuple
    classes: tuple
    index: np.ndarray = field(compare=False, repr=False)
    bits: np.ndarray = field(compare=False, repr=False)
    inverse_bits: np.ndarray = field(compare=False, repr=False)

    def class_index(self, value):
        i = int(self.index[value % self.modulus])
        if i < 0:
            raise DomainError(f"{value} is not a unit modulo {self.modulus}")
        return i

    def class_of(self, value):
        return self.classes[self.class_index(value)]


def fifth_power_classes(q):
    """Coset decomposition of the units mod q by fifth powers, q prime or 25.

    The group is immutable, so one is built per modulus and shared by every
    caller; an unsupported modulus is never stored and raises on every call.
    """
    if q in _GROUP_CACHE:
        return _GROUP_CACHE[q]
    if q != 25 and not _is_prime(q):
        raise DomainError(f"unsupported modulus {q}: need a prime or 25")
    units = tuple(a for a in range(1, q) if math.gcd(a, q) == 1)
    fifth = tuple(sorted({pow(a, 5, q) for a in units}))
    # the identity coset comes first, as its least element is 1
    classes = sorted({tuple(sorted(u * f % q for f in fifth)) for u in units})
    index = np.full(q, -1, dtype=np.int64)
    index[np.array(classes)] = np.arange(len(classes))[:, None]
    # row 0: 1 << index[u]; row 1: 1 << index[1/u]
    bits = np.zeros((2, q), dtype=np.uint8)
    bits[:, units] = 1 << index[np.array([units, [pow(u, -1, q) for u in units]])]
    index.flags.writeable = bits.flags.writeable = False
    _GROUP_CACHE[q] = ResidueClassGroup(q, units, fifth, tuple(classes), index, *bits)
    return _GROUP_CACHE[q]


# the mask of a full image: all five cosets
_FULL_MASK = 0b11111


@dataclass(frozen=True, init=False)
class InvariantImage:
    """Subset of the fifth-power cosets attained by the invariant map.

    ``mask`` sets bit i when the image holds the coset
    ``fifth_power_classes(modulus).classes[i]``, 31 when the image is full;
    ``classes`` lists those cosets in the group's canonical order, and the
    identity coset is bit 0.  ``classes`` is also accepted in place of
    ``mask`` (as ``dataclasses.replace(image, classes=...)`` passes it).
    ``values`` records the attained unit values of h/l1 when the image was
    computed by evaluation; a full image certified without evaluation keeps
    ``values = None``.  ``certificate`` optionally carries the witness for a
    fullness claim.
    """

    prime: int
    modulus: int
    mask: int
    values: tuple = None
    reason: str = ""
    certificate: dict = None

    def __init__(self, prime, modulus, mask=0, values=None, reason="", certificate=None, classes=None):
        if classes is not None:
            mask = sum(1 << fifth_power_classes(modulus).class_index(cls[0]) for cls in classes)
        # frozen: the fields go straight into the instance dictionary
        vars(self).update(prime=prime, modulus=modulus, mask=int(mask), values=values)
        vars(self).update(reason=reason, certificate=certificate)

    @property
    def classes(self):
        group = fifth_power_classes(self.modulus)
        return tuple(cls for i, cls in enumerate(group.classes) if self.mask >> i & 1)

    @property
    def size(self):
        return self.mask.bit_count()

    @property
    def full(self):
        return self.mask == _FULL_MASK

    @property
    def contains_zero(self):
        return bool(self.mask & 1)

    def to_json_dict(self):
        doc = {
            "prime": self.prime,
            "modulus": self.modulus,
            "classes": [list(cls) for cls in self.classes],
            "contains_zero": self.contains_zero,
            "size": self.size,
            "full": self.full,
            "reason": self.reason,
        }
        if self.values is not None:
            doc["values"] = list(self.values)
        if self.certificate is not None:
            doc["certificate"] = self.certificate
        return doc


def _six_coefficients(h):
    coeffs = tuple(int(c) for c in h)
    if len(coeffs) != 6:
        raise DomainError("a hyperplane form needs six coefficients")
    return coeffs


def _reduce_form(h, modulus):
    reduced = tuple(c % modulus for c in _six_coefficients(h))
    if not any(reduced):
        raise DomainError(f"form vanishes identically modulo {modulus}")
    return reduced


def _require_fixture_chart(model, modulus):
    """Refuse a model that the chart routes at ``modulus`` cannot read: one
    of another modulus, one with l1 != u0 mod ``modulus``, and one whose
    fiber is not the chart plus one line (``fibers.verify_chart``, whose
    ChartError names the failed check; the certificate is cached per
    request)."""
    if model.modulus != modulus:
        raise DomainError(
            f"this invariant computation needs the conductor model with modulus {modulus}"
        )
    if tuple(c % modulus for c in model.l1) != U0_FORM:
        raise DomainError(f"chart evaluation needs l1 = u0 modulo {modulus}")
    verify_chart(model)


def _values_image(prime, q, hv, reason):
    """The partial image read off an integer array hv of values of h/l1 mod
    q: the cosets of 1/v over its units v (the OR of their ``inverse_bits``,
    0 at a non-unit), with the sorted units as ``values``."""
    mask = np.bitwise_or.reduce(fifth_power_classes(q).inverse_bits[hv])
    units = tuple(sorted(set(hv[hv % prime != 0].tolist())))
    return InvariantImage(prime, q, mask, units, reason)


# one entry per modulus; the smooth routes at 11 and the chart lifts at 25
# are stored in ``fibers._FIBER_CACHE``, beside the fibers
_GROUP_CACHE = _BoundedCache(CACHE_SIZE)


def _model_cache_key(model, p):
    return (p, model.quadrics, model.l1)


# ---------------------------------------------------------------------------
# conductor-11 model: the two routes modulo 11


def _read_only(rows):
    points = np.array(rows, dtype=np.int32).reshape(-1, 6)
    points.setflags(write=False)
    return points


# the trigger of the chart route: e5, whose h-value is the u5 coefficient
_CHART_TRIGGERS_11 = _read_only([(0, 0, 0, 0, 0, 1)])


class _Route11(NamedTuple):
    """One checked route of the mask kernel ``_orbit_masks_11``, its points
    split by l1; ``_route_11`` looks it up."""

    l1: np.ndarray  # the six coefficients of l1 mod 11
    values: np.ndarray  # value points, each with l1(P) = 1
    fixed: np.ndarray  # trigger points, each with l1(T) = 0, so fixed by translation
    value_tables: np.ndarray  # ``_pair_tables`` of the value points
    bases: np.ndarray  # ``_unfired_bases_11``


def _build_route_11(l1, values, triggers, route):
    """The ``_Route11`` of these points, checked against the translation law.

    A value point P with l1(P) != 1 mod 11, or a trigger point T with
    l1(T) != 0, raises, naming the point: the masks of the translates would
    be shifted, or the trigger would fire on some translates of a form and
    not on others.
    """
    for points, kind, want in ((values, "value", 1), (triggers, "trigger", 0)):
        off = np.flatnonzero(points @ l1 % 11 != want)
        if len(off):
            point = points[off[0]]
            raise FiberInconsistencyError(
                f"{kind} point {point.tolist()} of the {route} route has l1 = "
                f"{int(point @ l1 % 11)}, not {want}, modulo 11"
            )
    return _Route11(l1, values, triggers, _pair_tables(values), _unfired_bases_11(l1, triggers))


# a constant, so cached for the process rather than in ``_FIBER_CACHE``,
# which a caller may empty between requests
@lru_cache(maxsize=1)
def _chart_route_11():
    l1 = np.array(U0_FORM, dtype=np.int32)
    return _build_route_11(l1, _read_only(_chart_tables(11)[0]), _CHART_TRIGGERS_11, "chart")


def _route_11(model, route):
    """The checked ``_Route11`` of one route of a modulus-11 model, built once.

    The chart route is the 121 points of ``_chart_tables(11)`` and
    ``_CHART_TRIGGERS_11``, a constant, and needs the conductor model with
    l1 = u0 mod 11.  The smooth-point route holds the smooth points of the
    fiber, in the tuple order of ``fibers._fiber_array``, the rows its
    singular mask leaves out: those off {l1 = 0}, each scaled by 1/l1 from
    ``fibers._inverses``, are its value points, and those on {l1 = 0} its
    triggers; it is cached per model in ``_FIBER_CACHE``.  Every model
    refusal of a mod-11 entry point is raised here: a model of another
    modulus by the first test of ``_require_fixture_chart``, whichever the
    route, and l1 != u0 mod 11 or a failed chart certificate on the chart
    route only.
    """
    if route == "chart" or model.modulus != 11:
        _require_fixture_chart(model, 11)
    if route == "chart":
        return _chart_route_11()
    key = _model_cache_key(model, 11)
    if key not in _FIBER_CACHE:
        x = _fiber_array(model, 11)
        smooth = _read_only(x[~_singular_mask(model, 11, x)])
        l1 = np.array([c % 11 for c in model.l1], dtype=np.int32)
        l1v = smooth @ l1 % 11
        values = _read_only(smooth[l1v != 0] * _inverses(11)[l1v[l1v != 0], None] % 11)
        _FIBER_CACHE[key] = _build_route_11(l1, values, _read_only(smooth[l1v == 0]), "smooth")
    return _FIBER_CACHE[key]


# the reason of a per-form image: (some trigger fired, the values decided it)
_REASONS_11 = {
    "chart": ("u5 coefficient nonzero: chart values cover every coset", "chart values"),
    "smooth": ("smooth point with l1 = 0 and h a unit", "smooth point values"),
}


def _route_image_11(model, hbar, route):
    """The image of the form hbar mod 11 along one ``_route_11``, the model
    refused before the form, read as the mask kernel ``_orbit_masks_11``
    reads it: full when h is a unit at a trigger point, else the coset set
    of 1/v over the unit values v = h(P) at the value points.  On the
    smooth route the first fired trigger, in fiber order, is the
    certificate; the chart route's one trigger is e5, which its reason
    names, so it carries none."""
    r = _route_11(model, route)
    column = np.array(_reduce_form(hbar, 11), dtype=np.int32)
    fired = np.flatnonzero(r.fixed @ column % 11)
    full_reason, values_reason = _REASONS_11[route]
    if len(fired):
        certificate = {"point": r.fixed[fired[0]].tolist()} if route == "smooth" else None
        return InvariantImage(11, 11, _FULL_MASK, None, full_reason, certificate)
    return _values_image(11, 11, r.values @ column % 11, values_reason)


def inv_image_11(model, hbar):
    """Invariant image at 11 computed through the affine chart.

    A form with nonzero u5 coefficient restricts to a genuinely cubic chart
    polynomial whose values cover every coset, so the image is full without
    evaluation.  Otherwise the values of the reduced form on the chart are
    exactly the unit values of h/l1, and the image is the coset set of their
    inverses.
    """
    return _route_image_11(model, hbar, "chart")


def inv_image_11_smoothpath(model, hbar):
    """Invariant image at 11 from unit values of l1/h at smooth fiber points.

    Independent of the chart: the fiber is enumerated projectively and the
    values are taken pointwise, so any modulus-11 model will do, in any
    coordinates.  The image is full as soon as h is a unit at a smooth point
    of {l1 = 0}, the first such point being the certificate.  That trigger
    rule defines the route; it is not derived from lifting, and a proof
    that it gives the invariant image is open.  The route agrees with the
    chart route on every form (``path_agreement_check``).
    """
    return _route_image_11(model, hbar, "smooth")


# ---------------------------------------------------------------------------
# conductor-25 model: invariants modulo 25


def _fullness_witnesses_25(forms):
    """(pairings, witnesses) of the columns h of ``forms`` (6, n), residues
    below 25: the premise of the fullness theorem of ``inv_image_25``.

    ``pairings`` (25, 2, n) holds h paired mod 5 with the two chart tangents
    d/dy, d/dz at each chart point x of ``_chart_tables(5)``.
    ``witnesses`` (5, 25, n) is True at (c, i, n) when the i-th point
    witnesses the fullness of h + c*u0: h(x) + c is a unit mod 5, that is
    h(x) mod 5 is not -c, and some pairing is nonzero.  The tangents have
    no u0 entry, so the shift by c moves h(x) and changes no pairing, and
    the values are reduced once for all five c.  Only h mod 5 enters, so
    the forms are reduced first, and both products have six terms of at
    most 4 * 4 = 16: uint8 is exact.  ``pairings`` is returned as int16.
    """
    points, tangents = (table.astype(np.uint8) for table in _chart_tables(5))
    forms = (forms % 5).astype(np.uint8)
    pairings = np.einsum("xtj,jn->xtn", tangents, forms) % 5
    values = np.einsum("xj,jn->xn", points, forms) % 5
    minus_c = (5 - np.arange(5, dtype=np.uint8))[:, None, None] % 5
    witnesses = values != minus_c
    witnesses &= pairings.any(axis=1)
    return pairings.astype(np.int16), witnesses


def _tangent_certificate(h25):
    """The first chart point in (y, z) order that witnesses the fullness of
    h25 (``_fullness_witnesses_25``), with its two tangent pairings."""
    pairings, witnesses = _fullness_witnesses_25(np.array(h25)[:, None])
    found = np.flatnonzero(witnesses[0, :, 0])
    if not len(found):
        raise FiberInconsistencyError("no chart point witnesses the fullness of the image")
    i = found[0]
    point = _chart_tables(5)[0][i].tolist()
    return {"point": point, "tangent_pairing": pairings[i, :, 0].tolist()}


def _reduce_form_25(model, h):
    """The residues mod 25 of a six-coefficient form h primitive mod 5, on
    the conductor-25 model with l1 = u0 mod 25; the model is refused first."""
    _require_fixture_chart(model, 25)
    h25 = tuple(c % 25 for c in _six_coefficients(h))
    if all(c % 5 == 0 for c in h25):
        raise DomainError("form must be primitive modulo 5")
    return h25


def inv_image_25(model, h):
    """Invariant image of the conductor-25 model, computed modulo 25.

    When h mod 5 is not proportional to u0 the image is full, and the
    certificate names a witness: the first chart point x where h(x) is a
    unit mod 5 and h pairs non-trivially with one of the chart tangents t1,
    t2 (``_fullness_witnesses_25``; ``tangent_surjectivity_check`` finds
    one for every such h).  ``_chart_lift_points`` checks that t1 and t2
    span the lift plane at x, so the lifts of x to the fiber mod 25 with
    u0 = 1 are x + 5(w0 + a*t1 + b*t2), a, b in F5, and h takes the values
    h(x) + 5(h.w0 + a*g1 + b*g2) mod 25 on them, g1, g2 the pairings.  As
    one g is nonzero, these are the five units congruent to h(x) mod 5.
    That residue class meets each coset of the fifth powers once, since
    reduction mod 5 maps the fifth powers {1, 7, 18, 24} onto the units mod
    5; so do the inverses, and the image is full.  Otherwise h = lam*u0 + 5*k
    with k linear over F5, the value of h/l1 at a local point depends only
    on its residue, and the image is the coset set of the inverses of
    lam + 5*kappa for kappa in the chart image of k.
    """
    h25 = _reduce_form_25(model, h)
    if any(h25[i] % 5 for i in range(1, 6)):
        reason, cert = "tangent pairing nonzero at a chart point", _tangent_certificate(h25)
        return InvariantImage(5, 25, _FULL_MASK, None, reason, cert)
    lam = h25[0]
    coeffs = tuple(h25[i] // 5 for i in range(1, 6))
    values = np.array([(lam + 5 * k) % 25 for k in _kappa_image(coeffs)])
    return _values_image(5, 25, values, "values determined by the residue")


def _quadric_values_25(gram, x):
    """(n, 5) values mod 25 of the quadrics at the rows of x (n, 6), entries
    of both below 25: each sum has six terms of at most 24^2 before its
    reduction."""
    return ((x @ gram % 25) * x).sum(axis=-1).T % 25


def _chart_lift_points(model):
    """All points of the model over Z/25 lying above the mod-5 chart, u0 = 1.

    A read-only (625, 6) int64 array: the 25 lifts of each chart point of
    ``_chart_tables(5)`` in turn, the lift along a*w1 + b*w2 for the kernel
    basis (w1, w2) with (a, b) in ``product`` order.

    All 25 chart points x go through each step at once.  The lift x + 5w
    (w0 = 0, keeping u0 = 1) lies on the fiber mod 25 exactly when
    J(x) w = -q(x)/5 mod 5, so the quadric values q(x) mod 25 come from the
    Gram array mod 25, the Jacobians from the polar matrices mod 5, and the
    25 systems [J(x)[:, 1:] | -q(x)/5] from one stacked
    ``_row_reduce_mod_p``.  Each point's kernel basis and its particular
    solution, minus the kernel vector of the right-hand column, come from
    ``_free_kernels``, as in ``solve_mod_p``.  A point off the fiber mod
    5, a system without a solution, a lift space that is not a plane, a
    chart tangent of ``_chart_tables(5)`` outside it, or a lift that leaves
    the fiber mod 25 raises, the first point in order deciding.  The two
    tangents are independent (their entries at u1, u2 are (1, 0) and
    (0, 1)), so the tangent check makes them span the plane: the premise of
    the fullness theorem of ``inv_image_25``.  Every entry is a residue
    below 25 and is reduced before the next product, so no sum exceeds
    6 * 24^2: int64 is exact.
    """
    key = _model_cache_key(model, 25)
    cached = _FIBER_CACHE.get(key)
    if cached is not None:
        return cached
    x, tangents = _chart_tables(5)
    gram = _gram_mod_p(model.quadrics, 25)
    values = _quadric_values_25(gram, x)
    jac = (_polar_mod_p(model, 5) @ x.T % 5).transpose(2, 0, 1)
    reduced, pivots = _row_reduce_mod_p(
        np.concatenate([jac[:, :, 1:], (-(values // 5) % 5)[:, :, None]], axis=2), 5
    )
    free = ~pivots[:, :5]
    checks = (
        ((values % 5).any(axis=1), "chart point leaves the fiber mod 5"),
        (pivots[:, 5], "chart point admits no lift mod 25"),
        (free.sum(axis=1) != 2, "lift space at a smooth chart point must be a plane"),
        (
            (np.einsum("nqj,ntj->nqt", jac[:, :, 1:], tangents[:, :, 1:]) % 5).any(axis=(1, 2)),
            "chart tangent leaves the lift plane mod 5",
        ),
    )
    bad = np.flatnonzero(np.any([failed for failed, _ in checks], axis=0))
    if len(bad):
        raise FiberInconsistencyError(next(msg for failed, msg in checks if failed[bad[0]]))
    kernels = _free_kernels(reduced, pivots, 5)[:, :, :5]
    part, basis = -kernels[:, 5] % 5, kernels[:, :5][free].reshape(25, 2, 5)
    steps = np.array(list(product(range(5), repeat=2)), dtype=np.int64)
    # w[n, s]: the solution part + a*w1 + b*w2 of point n for the s-th (a, b)
    w = part[:, None] + np.einsum("sa,naj->nsj", steps, basis)
    lifts = np.ones((25, 25, 6), dtype=np.int64)
    lifts[:, :, 1:] = (x[:, None, 1:] + 5 * w) % 25
    lifts = lifts.reshape(625, 6)
    if _quadric_values_25(gram, lifts).any():
        raise FiberInconsistencyError("constructed lift leaves the fiber mod 25")
    lifts.setflags(write=False)
    _FIBER_CACHE[key] = lifts
    return lifts


def inv_image_25_liftpath(model, h):
    """Brute-force cross-check: values of h/l1 over all chart lifts mod 25.

    Enumerates the 625 points of the model over Z/25 sitting above the
    mod-5 chart and collects the unit values of h there (l1 = u0 = 1 on the
    chart), with their cosets (``_values_image``).  For forms proportional
    to u0 modulo 5 every unit point lives above the chart, so this
    reproduces the image exactly.  Otherwise it is full too: the 25 lifts
    above the witness point of ``inv_image_25`` already give one value in
    each coset, by the theorem stated there.  Both factors hold residues
    below 25, so no sum exceeds 6 * 24^2 and int64 is exact.
    """
    h25 = _reduce_form_25(model, h)
    hv = _chart_lift_points(model) @ np.array(h25, dtype=np.int64) % 25
    return _values_image(5, 25, hv, "chart lift values")


def tangent_surjectivity_check(model):
    """Verify the premise of the fullness theorem for every non-u0 direction mod 5.

    Each of the 5^6 - 5 directions h mod 5 not proportional to u0 must
    have a chart point x where h(x) is a unit mod 5 and a tangent pairing
    is nonzero (``_fullness_witnesses_25``, whose first witness is the
    certificate of ``inv_image_25``).  The other premise, that the chart
    tangents span the lift plane at every chart point, is checked by
    ``_chart_lift_points`` whenever it builds the lifts.  Returns the
    counts and any failures.

    The 3,124 nonzero tails (h1, ..., h5) are paired once each: adding
    h0*u0 shifts h(x) by h0 and changes no pairing, and the witnesses are
    read for the five h0 at once.  The failures are listed in the base-5
    order of h with h0 the lowest digit.
    """
    _require_fixture_chart(model, 25)
    tails = _digit_columns(np.arange(1, 5 ** 5), 5, 5)
    witnessed = _fullness_witnesses_25(np.vstack([np.zeros_like(tails[:1]), tails]))[1]
    missed = ~witnessed.any(axis=1).T
    return {
        "directions": 5 * tails.shape[1],
        "surjective": int(missed.size - missed.sum()),
        "failures": tuple((h0, *map(int, tails[:, j])) for j, h0 in zip(*np.nonzero(missed))),
    }


# ---------------------------------------------------------------------------
# local solubility and the verdict


@dataclass(frozen=True)
class SolubilityCertificate:
    soluble: bool
    failing_place: int = None
    forbidden_class: tuple = None
    mod2_point: tuple = None
    odd_gcd: int = None
    point_values: tuple = None
    real_point: tuple = None

    def to_json_dict(self):
        doc = {"soluble": self.soluble}
        for slot in fields(self)[1:]:
            value = getattr(self, slot.name)
            if value is not None:
                doc[slot.name] = value if isinstance(value, int) else list(value)
        return doc


def _require_primitive(h):
    coeffs = _six_coefficients(h)
    if math.gcd(*coeffs) != 1:
        raise DomainError("form must be primitive")
    return coeffs


def locally_soluble(model, h):
    """Everywhere-local solubility of U_h, the complement of {h = 0}, worked
    out from the model one place at a time.

    - At 2: a Z_2-point of U_h reduces to a point of the fiber mod 2 where
      h is nonzero.  When every row of ``fibers._fiber_array(model, 2)``
      lies on {h = 0 mod 2}, U_h is insoluble at 2, and h mod 2 is the
      forbidden class.  Otherwise the witness is the first of those rows
      off {h = 0} that ``fibers._singular_mask`` calls smooth: Hensel's
      lemma lifts it to a Z_2-point of X, where h stays odd.  When all of
      them are singular, the place is undecided and refused.
    - At an odd prime q: a primitive integral point P of X with h(P) prime
      to q is a Z_q-point of U_h.  The points are the searched
      ``model.integral_points``, and when the gcd of their h-values has odd
      part 1, every odd q misses some h(P).  Any other odd part is refused.
    - At the real place: the first searched point with h(P) != 0.

    On both fixtures, on ``build_model(zeta11_plus_field())`` and on the ten
    models of Lehmer's quintics for n = -4..5 (measured), the searched
    points span a lattice L with elementary divisors (1, 1, 1, 1, 1, 2).
    Its index 2 is a power of 2, so L contains 2Z^6 and h(L) contains 2Z
    for every primitive h: the odd part is 1 for every primitive h.  The
    fiber mod 2 of these models is five smooth points on one hyperplane,
    so U_h is insoluble exactly when h is ``model.insolubility_class`` mod 2.
    """
    coeffs = _require_primitive(h)
    mod2 = tuple(c % 2 for c in coeffs)
    x = _fiber_array(model, 2)
    on_h = x @ mod2 % 2 == 0
    if on_h.all():
        return SolubilityCertificate(False, failing_place=2, forbidden_class=mod2)
    off = x[~on_h]
    smooth = off[~_singular_mask(model, 2, off)]
    if not len(smooth):
        raise DomainError("solubility at 2 is undecided: every mod-2 point off {h = 0} is singular")
    points = model.integral_points
    values = tuple(model.hyperplane_value(coeffs, pt) for pt in points)
    g = math.gcd(*values)
    odd = g // (g & -g) if g else 0
    if odd != 1:
        raise DomainError(
            "solubility at the odd places is undecided: the h-values of the searched "
            f"integral points have gcd with odd part {odd}"
        )
    real_point = next(pt for pt, v in zip(points, values) if v != 0)
    return SolubilityCertificate(
        True,
        mod2_point=tuple(smooth[0].tolist()),
        odd_gcd=odd,
        point_values=values,
        real_point=real_point,
    )


def _proportional_over_q(a, b):
    return all(a[i] * b[j] == a[j] * b[i] for i in range(6) for j in range(i + 1, 6))


def geometrically_irreducible(model, h):
    """False exactly when h is a rational multiple of l1 or l2.

    D = {h = 0} is a hyperplane section, of class H = -K and degree 5.  The
    Galois group permutes the components of D over Q-bar, and acts on
    Pic X-bar through sigma (``picard.interesting_sigma``), which fixes no
    class but the multiples of K: it fixes K and has order 5, so on the
    rank-4 complement of K its eigenvalues are the primitive fifth roots of
    unity.  A component C whose class is fixed is then -mK, of degree 5m,
    so m = 1 and C = D: D is irreducible.  A component whose class is not
    fixed has five conjugates with five distinct classes, of equal degree
    and summing to at most 5, so each has degree 1: D is five lines, one
    sigma-orbit.  There are two orbits, the pentagon and the pentagram of
    ``model.find_line_products``, whose sections are {l1 = 0} and
    {l2 = 0}, and a section fixes its form up to a scalar.  So D is
    geometrically reducible exactly when h is a multiple of l1 or l2.
    """
    coeffs = tuple(int(c) for c in h)
    if len(coeffs) != 6 or not any(coeffs):
        raise DomainError("need a nonzero six-coefficient form")
    return not (
        _proportional_over_q(coeffs, model.l1) or _proportional_over_q(coeffs, model.l2)
    )


# the verdicts the paper states, by fixture and form
_PUBLISHED_VERDICTS = {
    ("zeta11plus", (0, 1, 0, -6, 0, 0)): "obstruction_order_5",
}


@lru_cache(maxsize=None)
def _fixture_data(name):
    """The quadrics, l1, l2 and minimal polynomial of a fixture, built once
    per process: a fixture is a constant."""
    m = fixture(name)
    return m.quadrics, m.l1, m.l2, m.spec


def _published_verdict(model, coeffs):
    """The paper's verdict on the form when the model's data are those of
    the fixture it names (``_fixture_data``), so that a fixture written to
    a file is compared as the fixture is."""
    data = (model.quadrics, model.l1, model.l2, model.spec)
    for (name, h), published in _PUBLISHED_VERDICTS.items():
        if h == coeffs and data == _fixture_data(name):
            return published
    return None


@dataclass(frozen=True)
class ObstructionReport:
    model: str
    h: tuple
    solubility: SolubilityCertificate
    geometrically_irreducible: bool
    images: dict
    verdict: str
    claim_comparison: dict = None

    def to_json_dict(self):
        doc = {
            "model": self.model,
            "h": list(self.h),
            "locally_soluble": self.solubility.soluble,
            "geometrically_irreducible": self.geometrically_irreducible,
            "images": {str(p): img.to_json_dict() for p, img in self.images.items()},
            "verdict": self.verdict,
        }
        if self.solubility.failing_place is not None:
            doc["failing_place"] = self.solubility.failing_place
        doc["solubility_certificate"] = self.solubility.to_json_dict()
        if self.claim_comparison is not None:
            doc["paper_claim_comparison"] = self.claim_comparison
        return doc


def _routes(model):
    """The two route functions of the model's modulus: (chart, smooth
    point) at 11 and (residue formula, chart lifts) at 25, read from the
    module at each call, so a rebinding of one of them is seen.  The model
    is refused first: a field ramified at another prime, or at several
    (``model.modulus``), by name, and a model off its chart by
    ``_require_fixture_chart``, whose premise both routes share."""
    modulus = model.modulus
    if modulus not in (11, 25):
        raise DomainError(
            f"invariant images and verdicts need a ramified prime of 11 or 5, and the field "
            f"ramifies at {modulus}; fibers, solubility and unramified checks serve any model"
        )
    _require_fixture_chart(model, modulus)
    if modulus == 11:
        return inv_image_11, inv_image_11_smoothpath
    return inv_image_25, inv_image_25_liftpath


def two_route_images(model, h):
    """The invariant images of h at the model's modulus along its two
    routes (``_routes``)."""
    first, second = _routes(model)
    return first(model, h), second(model, h)


def verdict(model, h):
    """Full obstruction verdict for a primitive integral form on a model
    ramified at 11 or 5.

    Precedence: a form insoluble somewhere has no adelic points to obstruct;
    a form cutting one of the two split divisors carries a trivial class;
    otherwise the order-5 class obstructs exactly when the invariant image
    at the ramified prime omits the identity coset.  The image is computed
    along both routes of the model (chart and smooth point at 11, residue
    formula and chart lifts at 25, ``two_route_images``), and routes that
    disagree raise.  The model is refused before its solubility is worked
    out (``_routes``): a field with another ramified prime, and a model off
    its chart, get no verdict on any form.
    """
    coeffs = _require_primitive(h)
    _routes(model)
    sol = locally_soluble(model, coeffs)
    irreducible = geometrically_irreducible(model, coeffs)
    comparison = None
    image, other = two_route_images(model, coeffs)
    if image.mask != other.mask:
        names = "chart and smooth-point" if model.modulus == 11 else "residue and chart-lift"
        raise FiberInconsistencyError(f"{names} routes disagree")
    images = {image.prime: image}
    if not sol.soluble:
        result = "no_adelic_points"
    elif not irreducible:
        result = "trivial_brauer_class"
    elif image.contains_zero:
        result = "no_obstruction"
    else:
        result = "obstruction_order_5"
    published = _published_verdict(model, coeffs)
    if published is not None:
        comparison = {
            "published_verdict": published,
            "computed_verdict": result,
            "chart_route_contains_zero": image.contains_zero,
            "status": "ok" if published == result else "flagged",
        }
        if model.modulus == 11:
            comparison["smooth_route_contains_zero"] = other.contains_zero
    return ObstructionReport(
        model.name or model.source,
        coeffs,
        sol,
        irreducible,
        images,
        result,
        comparison,
    )


# ---------------------------------------------------------------------------
# census modulo 11

CENSUS_11_TOTAL = 11 ** 6 - 1


def _digit_columns(indices, base, length):
    # every caller numbers at most 11^6 forms, so the indices fit in int32
    cols = np.empty((length, indices.size), dtype=np.int32)
    tmp = indices.astype(np.int32)
    for i in range(length):
        np.divmod(tmp, base, out=(tmp, cols[i]))
    return cols


_POWERS_11 = 11 ** np.arange(6, dtype=np.int64)
# forms per block of the mask kernel; a block holds two (block, points) uint32
# arrays at once, 128 x 133 x 4 bytes at most, below glibc's 128 KiB mmap
# threshold, so the blocks reuse heap memory instead of mapping fresh pages
_CENSUS_CHUNK = 128
# the digits (f, g) of row f + 11*g of a digit-pair table
_PAIR_DIGITS_11 = np.stack([np.arange(121) % 11, np.arange(121) // 11], axis=1)
# entry [f + 11*g, a + 11*b]: the one-hot value 1 << (f*a + g*b mod 11)
_PAIR_ONE_HOT_11 = np.uint32(1) << (_PAIR_DIGITS_11 @ _PAIR_DIGITS_11.T % 11).astype(np.uint32)
_PAIR_ONE_HOT_11.setflags(write=False)


def _translated_coset_masks_11():
    """Read-only (11, 2048) uint8 table: entry [c, s] is the coset mask of
    the 11-bit value set s rotated left by c, the set {v + c : v in s}, that
    is the OR of the coset bits of 1/u over its units u."""
    sets = np.arange(1 << 11)
    members = sets[:, None] >> np.arange(11) & 1
    masks = np.bitwise_or.reduce(np.where(members, fifth_power_classes(11).inverse_bits, 0), axis=1)
    shifts = np.arange(11)[:, None]
    table = masks[(sets << shifts | sets >> (11 - shifts)) & 0x7FF]
    table.setflags(write=False)
    return table


_TRANSLATED_MASKS_11 = _translated_coset_masks_11()


def _pair_tables(points):
    """Read-only (3, 121, m) uint32 one-hot tables of the three digit pairs.

    Entry [i, f + 11*g, k] is 1 << (f*P_2i + g*P_2i+1 mod 11) at the k-th
    row P of ``points``: row f + 11*g of table i is read by the forms whose
    coefficients 2i and 2i + 1 are f and g.  That is column P_2i + 11*P_2i+1
    of ``_PAIR_ONE_HOT_11``, which is symmetric, as f*a + g*b is under
    (f, g) <-> (a, b), so the tables are one gather of its rows.
    """
    pairs = points[:, 0::2] + 11 * points[:, 1::2]
    tables = _PAIR_ONE_HOT_11[pairs.T].transpose(0, 2, 1).copy()
    tables.setflags(write=False)
    return tables


def _value_sets(tables, forms):
    """Bit v is set when h(P) = v mod 11 at some point P of the
    ``_pair_tables``, for each column h of ``forms``; one block of
    ``_CENSUS_CHUNK`` forms at a time, multiplied in place."""
    rows = forms[0::2] + 11 * forms[1::2]
    sets = np.empty(rows.shape[1], dtype=np.uint16)
    for start in range(0, rows.shape[1], _CENSUS_CHUNK):
        block = rows[:, start : start + _CENSUS_CHUNK]
        spread = tables[0][block[0]]
        spread *= tables[1][block[1]]
        spread *= tables[2][block[2]]
        s = np.bitwise_or.reduce(spread, axis=1)
        sets[start : start + _CENSUS_CHUNK] = (s | s >> 11 | s >> 22) & 0x7FF
    return sets


def _orbit_masks_11(route, bases):
    """(11, n) invariant-image bit masks along a ``_route_11``: entry [c, j]
    is the mask of bases[:, j] + c*l1, read off the value set of the base
    rotated by c, so row 0 holds the masks of the columns of ``bases``.

    ``bases`` is a (6, n) array of residues mod 11.  Bit i of a uint8 mask
    is set when the image holds the coset
    ``fifth_power_classes(11).classes[i]``; a full image is 31.

    A route (``_route_11``) is a list of value points P, each scaled
    so that l1(P) = 1, and a list of trigger points.  The mask is the set
    of cosets of 1/h(P) over the value points where h(P) is a unit, and it
    is full as soon as h is a unit at a trigger point.  ``inv_image_11``
    and ``inv_image_11_smoothpath`` read the same points form by form
    (``_route_image_11``).

    Evaluation.  Write h(P) = a + b + c with a = h0*P0 + h1*P1,
    b = h2*P2 + h3*P3 and c = h4*P4 + h5*P5, each reduced mod 11 on its
    own.  Each part of a form is one of 11^2 = 121 digit pairs, so three
    (121, m) tables, built with the route, hold the one-hot values 1 << a,
    1 << b and 1 << c at every point (``_pair_tables``).  For a block of
    forms the kernel gathers one row of each table per form and multiplies:
    (1 << a) * (1 << b) * (1 << c) = 2^(a + b + c), and a + b + c <= 30,
    so the product is exact in uint32 and has the single bit a + b + c.
    OR-ing over the points gives the set of sums s, and the fold
    (s | s >> 11 | s >> 22) & 0x7FF moves bit s to bit s mod 11, so bit v
    of the folded set says that h(P) = v at some point (``_value_sets``).
    Every step is an integer gather, product, OR or shift: a float product,
    as a BLAS matrix product would use, could round a value and so a
    verdict, and no (points, forms) array of values h(P) is ever formed.

    Translation law.  Let c be a residue mod 11.  At a value point l1(P) =
    1, so (h + c*l1)(P) = h(P) + c: the value set of h + c*l1 is that of h
    with every value moved up by c, the 11-bit set rotated left by c.  At a
    trigger point with l1(T) = 0, (h + c*l1)(T) = h(T), so h + c*l1 fires
    such a trigger exactly when h does.  On both routes every trigger has
    l1(T) = 0: the chart trigger e5 because l1 = u0 there, and the smooth
    route's triggers because they are the points of {l1 = 0}; so l1 lies in
    the kernel of their trigger matrices.  Hence the masks of all eleven
    translates h + c*l1 come from the value sets of h alone: entry [c, s]
    of ``_TRANSLATED_MASKS_11`` is the coset mask of s rotated by c.
    The law needs l1(P) = 1 at every value
    point and l1(T) = 0 at every trigger point; building a route
    (``_build_route_11``) raises, naming the point, where one breaks it.
    So the value set of a form h, gathered once, gives the masks of its
    whole orbit h + c*l1, the mask of h in row 0.
    The exhaustive sweeps split every form as b + c*l1 with b_i = 0 at the
    first index i where l1_i != 0, and gather one value set per base b
    (``_unfired_bases_11``).

    Triggers first.  A form h fires a fixed trigger T when h(T) != 0 mod
    11, read off the integer product ``route.fixed @ bases % 11``, the one
    ``_route_image_11`` reads form by form; no sum exceeds 6 * 10 * 10, so
    int32 is exact.  A form with a fired fixed trigger gets the full mask
    31, and so does its whole orbit, so no value set of it is ever
    gathered.  Every mask is therefore the one that evaluating all forms
    and then overwriting the fired ones gives.  The forms that fire no
    fixed trigger are the kernel of the fixed trigger matrix mod 11, so the
    exhaustive sweeps (``census_11_smoothpath``, ``path_agreement_check``)
    enumerate them as orbits of ``_unfired_bases_11`` and skip the fixed
    trigger pass: 1,465 bases on the chart route of zeta11plus and 134 on
    its smooth route.  ``census_11`` reads none of this: on the chart every
    image is the value set of an explicit polynomial, and the sweeps are
    the oracles of its count.

    Scaling law, for both routes at once.  Let lam be a unit mod 11.  Then
    (lam*h)(P) = lam*h(P) at every point, so lam*h is a unit at the same
    trigger points as h, and its unit values are lam times those of h.
    Hence mask(lam*h) = pi_lam(mask(h)), where pi_lam sends the coset C
    to lam^-1 * C; in particular a full mask stays full.  The image of
    lam*h holds the identity coset exactly when 1 lies in lam^-1 * C for
    some coset C of the image of h, that is, when the coset of lam lies in
    mask(h).  The fifth powers mod 11 are {1, 10}, so every coset has two
    elements, and exactly 2 * (5 - |image(h)|) = 10 - 2 * |image(h)| of
    the ten multiples of h omit the identity; none does when the image is
    full.
    """
    masks = np.full((11, bases.shape[1]), _FULL_MASK, dtype=np.uint8)
    # a fixed trigger sees one value on a whole orbit
    todo = np.flatnonzero(~(route.fixed @ bases % 11).any(axis=0))
    masks[:, todo] = _TRANSLATED_MASKS_11[:, _value_sets(route.value_tables, bases[:, todo])]
    return masks


def _representatives_11(tops=range(6)):
    """Projective representatives of the nonzero forms mod 11, as columns.

    A representative is a form whose last nonzero coefficient is 1.  In
    the base-11 numbering with u0 as the lowest digit, those whose 1 sits
    at index k are the forms numbered 11^k + j for 0 <= j < 11^k.  Every
    nonzero form is lam*r for exactly one representative r and one unit
    lam (lam is its last nonzero coefficient), so the 177,156
    representatives times the ten units cover the 11^6 - 1 forms once
    each.  ``tops`` restricts the index of the final 1.
    """
    idx = [np.arange(11 ** k, 2 * 11 ** k, dtype=np.int64) for k in tops]
    return _digit_columns(np.concatenate(idx), 11, 6)


def _unfired_representatives_11(triggers):
    """The representatives of the forms that fire no trigger, as columns.

    A form h fires no trigger exactly when h(P) = 0 mod 11 at every row P
    of ``triggers``, so the unfired forms are the kernel of the trigger
    matrix, of some dimension d.  Its projective lines are the combinations
    of the ``solve_mod_p`` kernel basis whose last nonzero coordinate is 1,
    the columns of ``_representatives_11`` restricted to d digits; the basis
    is independent, so distinct lines give distinct forms.  No rescaling is
    needed: the basis vector of the free column f has its 1 at f and its
    other nonzero entries at pivot columns left of f (a reduced row is zero
    left of its pivot), and the free columns increase, so the last nonzero
    coefficient of each form is 1.  The result is, in no particular order,
    the (11^d - 1) / 10 columns r of ``_representatives_11()`` with
    r . P = 0 at every trigger point.  Without triggers d = 6; triggers
    spanning F_11^6 leave a (6, 0) array.
    """
    if len(triggers):
        kernel = np.array(solve_mod_p(triggers.tolist(), 11)[2], dtype=np.int32)
    else:
        kernel = np.eye(6, dtype=np.int32)
    d = len(kernel)
    if d == 0:
        return np.zeros((6, 0), dtype=np.int32)
    return kernel.T @ _representatives_11(range(d))[:d] % 11


def _orbit_classes_11(n):
    """(shifts, columns) of the classes over n bases with the zero base
    first: the eleven translates b + c*l1 of every other base b, and l1
    itself (c = 1) for the zero base."""
    return np.nonzero((np.arange(11)[:, None] == 1) | (np.arange(n) > 0))


def _unfired_bases_11(l1, fixed):
    """The bases of the classes that fire no fixed trigger of a route.

    The forms that fire no fixed trigger are the kernel K of the fixed
    trigger matrix, of dimension d, and l1 lies in K.  With i the first
    index where l1_i != 0, every nonzero h in K is b + c*l1 for exactly one b in K with
    b_i = 0 and one residue c, and b = 0 only on the multiples of l1.
    Scaling by a unit scales both b and c, so the projective classes of K
    are those of b + c*l1 for the representatives b of the lines of K with
    b_i = 0, which are ``_unfired_representatives_11`` of the fixed
    triggers with the row e_i appended, and the eleven c, and the class of
    l1 itself: 11 * (11^(d-1) - 1) / 10 + 1 = (11^d - 1) / 10 classes, each
    once (``_orbit_classes_11``).  The zero base comes first.
    """
    pivot_row = np.eye(6, dtype=np.int32)[np.argmax(l1 != 0)]
    reps = _unfired_representatives_11(np.vstack([fixed, pivot_row]))
    bases = np.hstack([np.zeros((6, 1), dtype=np.int32), reps])
    bases.setflags(write=False)
    return bases


def _scalings_11(forms):
    """(6, 10, n) array whose entry [:, lam - 1, j] is lam times column j, mod 11."""
    return forms[:, None, :] * np.arange(1, 11, dtype=np.int32)[:, None] % 11


def _obstructing_scalings(masks):
    """(10, n) flags: row lam - 1 marks the columns h where lam*h omits the
    identity, i.e. where the coset of lam is missing from the mask of h."""
    return (masks & fifth_power_classes(11).bits[1:, None]) == 0


def _census_11_formula():
    """Count the obstructing classes from their shape, independently.

    Constant chart values: c not a fifth power, 8 choices.  Separable
    quadratics in y: complete the square to a*s^2 + e with a, e units; the
    value set is a*S + e for S the six squares, translation in y is free.
    """
    squares = sorted({(y * y) % 11 for y in range(11)})
    constant = sum(1 for c in range(1, 11) if c not in (1, 10))
    pairs = 0
    for a in range(1, 11):
        for e in range(1, 11):
            vals = {(a * s + e) % 11 for s in squares}
            if not vals & {1, 10}:
                pairs += 1
    return {"constant": constant, "separable_quadratic": pairs * 11}


def census_11(model, jobs=1, validate_surjectivity=False):
    """Count the residues h mod 11 whose invariant image omits the identity.

    On the chart (``_chart_tables(11)``, where l1 = u0) the value of h/l1 at
    the point over (y, z) is

        h0 + h1*y + h2*z + h3*y^2 + h4*y*z + h5*(y^3 + z^2),

    and the image holds the identity coset, the fifth powers {1, 10}, when
    h takes the value 1 or 10 (the coset is closed under inverses).  Three
    cases cover every form:

    - h5 != 0: the image is full (the chart route's u5 rule, which
      ``validate_surjectivity`` checks), so h never obstructs.
    - h5 = 0 and h2 or h4 != 0: at a y with h2 + h4*y != 0 the value is
      affine in z with a nonzero slope, so it takes the value 1, and the
      identity coset is attained.  h never obstructs.
    - The 1,330 z-free forms h0 + h1*y + h3*y^2: their values are those at
      the 11 table rows with z = 0, and they obstruct when none is 1 or 10.

    Each obstructing form must be a constant (h1 = h3 = 0) or a separable
    quadratic (h3 != 0 and h1^2 - 4*h0*h3 != 0), the two counts of the
    breakdown; a form of another shape raises, as ``census_25`` does.
    ``formula_breakdown`` derives both counts again from the shapes alone
    (``_census_11_formula``), and the sweeps of the mask kernel over every
    form (``census_11_smoothpath``, ``path_agreement_check``) are the
    oracles of the count.  ``jobs`` is accepted and echoed as ``workers``;
    the count runs in-process, since it takes less time than starting a
    worker.

    ``validate_surjectivity`` first checks the u5 rule: the 121 depressed
    cubics (d, b, 0, 0, 0, 1), of value y^3 + b*y + d + z^2, must have full
    images at the 121 table rows, and the first partial one, d the lowest
    digit, is named.  These cover all 11^6 - 11^5 = 1,610,510 forms with
    h5 != 0, as three moves keep the image of such a form h:

    - scaling by the unit 1/h5 permutes the cosets of the image (the scaling
      law of ``_orbit_masks_11``), so a full image stays full, and h5 = 1;
    - 2 is a unit mod 11, so for each y the shift z -> z - (h2 + h4*y)/2
      permutes the chart points over y and completes the square: it turns
      z^2 + (h2 + h4*y)*z into z^2 - (h2 + h4*y)^2/4, leaving a value
      y^3 + a*y^2 + b'*y + d' + z^2;
    - 3 is a unit, so the shift y -> y - a/3 permutes the chart points too,
      and it removes the y^2 term, leaving y^3 + b*y + d + z^2.

    The value set, so the image, is that of the cubic (d, b).  For each
    (h2, h3, h4) the map (h0, h1) -> (d, b) is a translation, so each cubic
    stands for 11^3 forms with h5 = 1, and each of those for its ten
    multiples.
    """
    start = time.monotonic()
    _require_fixture_chart(model, 11)
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, int(jobs))
    points = _chart_tables(11)[0]
    group = fifth_power_classes(11)

    if validate_surjectivity:
        cubics = np.zeros((6, 11 ** 2), dtype=np.int64)
        cubics[[0, 1]] = _digit_columns(np.arange(11 ** 2), 11, 2)
        cubics[5] = 1
        masks = np.bitwise_or.reduce(group.inverse_bits[points @ cubics % 11], axis=0)
        partial = np.flatnonzero(masks != _FULL_MASK)
        if len(partial):
            form = tuple(cubics[:, partial[0]].tolist())
            raise FiberInconsistencyError(
                f"the u5-dependent form {form} failed the fullness claim; the "
                "census's u5 rule would be unsound"
            )

    # the z-free forms, h0 the lowest digit, read at the rows with z = 0
    forms = np.zeros((6, 11 ** 3 - 1), dtype=np.int64)
    forms[[0, 1, 3]] = _digit_columns(np.arange(1, 11 ** 3), 11, 3)
    hits = group.index[points[points[:, 2] == 0] @ forms % 11] == 0
    obstructing = forms[:, ~hits.any(axis=0)]
    h0, h1, _, h3, _, _ = obstructing
    constant = (h1 == 0) & (h3 == 0)
    separable = (h3 != 0) & ((h1 * h1 - 4 * h0 * h3) % 11 != 0)
    other = np.flatnonzero(~(constant | separable))
    if len(other):
        form = tuple(obstructing[:, other[0]].tolist())
        raise FiberInconsistencyError(
            f"the obstructing form {form} is neither a constant nor a separable quadratic"
        )
    classes = sorted(map(tuple, obstructing.T.tolist()))

    result = {
        "model": model.name,
        "modulus": 11,
        "total": CENSUS_11_TOTAL,
        "obstructing": len(classes),
        "breakdown": {"constant": int(constant.sum()), "separable_quadratic": int(separable.sum())},
        "formula_breakdown": _census_11_formula(),
        "obstructing_classes": tuple(classes),
        "wall_time_ms": int((time.monotonic() - start) * 1000),
        "workers": jobs,
    }
    if validate_surjectivity:
        result["surjectivity_checked"] = 10 * 11 ** 3 * cubics.shape[1]
    return result


# ---------------------------------------------------------------------------
# census modulo 25

CENSUS_25_TOTAL = 25 ** 6 - 5 ** 6


# the 3,125 linear forms k = (k1, ..., k5) over F5 in u1..u5 as rows, in
# ``product`` order (k5 the lowest base-5 digit)
_KAPPA_COEFFS_5 = _digit_columns(np.arange(5 ** 5), 5, 5)[::-1].T.astype(np.uint8)
# entry k: the kappa image of k, the values mod 5 of k1*u1 + ... + k5*u5 at
# the 25 chart points, as a 5-bit mask with bit v set when v is a value; a
# value is a sum of five products of residues mod 5, at most 80, so uint8
_KAPPA_MASKS_5 = np.bitwise_or.reduce(
    np.uint8(1) << _KAPPA_COEFFS_5 @ _chart_tables(5)[0][:, 1:].T.astype(np.uint8) % 5,
    axis=1,
)
_KAPPA_MASKS_5.setflags(write=False)
# entry m: the number of bits set in the 5-bit mask m
_POPCOUNT_5 = np.array([bin(m).count("1") for m in range(32)], dtype=np.int64)


def _kappa_image(coeffs):
    """The set of values mod 5 of coeffs . (u1, ..., u5) on the chart."""
    row = 0
    for c in coeffs:
        row = 5 * row + c % 5
    mask = int(_KAPPA_MASKS_5[row])
    return {v for v in range(5) if mask >> v & 1}


def _kappa_misses_25():
    """(sizes, misses) over every k of ``_KAPPA_MASKS_5`` at once.

    ``sizes`` (3,125,) holds the kappa image sizes, read off a popcount
    table.  ``misses`` (3,125, 20) is True at (k, j) when the pair (lam, k)
    obstructs, lam the j-th unit mod 25 in ascending order: no value
    lam + 5*kappa is a fifth power.  The fifth powers are the identity
    coset, index 0 in the group's ``index``; ``fifth`` (20,) sets bit v
    when lam + 5v is one, and a pair obstructs when the mask of k shares no
    bit with it.
    """
    group = fifth_power_classes(25)
    identity = group.index[(np.array(group.units)[:, None] + 5 * np.arange(5)) % 25] == 0
    fifth = (identity << np.arange(5, dtype=np.uint8)).sum(axis=1, dtype=np.uint8)
    return _POPCOUNT_5[_KAPPA_MASKS_5], (_KAPPA_MASKS_5[:, None] & fifth) == 0


def census_25(model):
    """Count the residues h mod 25, primitive mod 5, whose image omits the identity.

    Only forms proportional to u0 modulo 5 can fail fullness (the theorem
    of ``inv_image_25``, whose premises ``tangent_surjectivity_check``
    checks for every direction and ``_chart_lift_points`` wherever lifts
    are built), and those correspond bijectively to pairs (lam, k) with lam
    a unit mod 25 and k a linear form over F5 in u1..u5; each pair is one
    residue class mod 25.  A pair obstructs exactly when the unique fifth
    power in lam's mod-5 residue class is missed by the attained values
    lam + 5*kappa.

    All 3,125 k are counted at once from their kappa images as 5-bit masks
    (``_kappa_misses_25``).  Two self-checks run as array predicates, and
    the first failing k in ``product`` order raises: every image has 1, 3
    or 5 values, and only forms constant in z (k2 = k4 = k5 = 0, image not
    full) obstruct, mirroring the breakdown.
    """
    start = time.monotonic()
    _require_fixture_chart(model, 25)
    sizes, misses = _kappa_misses_25()
    shape_broken = misses.any(axis=1) & ((sizes == 5) | _KAPPA_COEFFS_5[:, [1, 3, 4]].any(axis=1))
    size_broken = ~np.isin(sizes, (1, 3, 5))
    broken = np.flatnonzero(size_broken | shape_broken)
    if len(broken):
        coeffs = tuple(_KAPPA_COEFFS_5[broken[0]].tolist())
        if size_broken[broken[0]]:
            raise FiberInconsistencyError(
                f"kappa image size not in {{1, 3, 5}}: {coeffs} -> {sorted(_kappa_image(coeffs))}"
            )
        raise FiberInconsistencyError(f"obstructing k not constant in z: {coeffs}")
    per_k = misses.sum(axis=1)
    return {
        "model": model.name,
        "modulus": 25,
        "total": CENSUS_25_TOTAL,
        "obstructing": int(per_k.sum()),
        "breakdown": {
            "constant": int(per_k[sizes == 1].sum()),
            "image_size_3": int(per_k[sizes == 3].sum()),
        },
        "kappa_image_sizes": {size: int((sizes == size).sum()) for size in (1, 3, 5)},
        "wall_time_ms": int((time.monotonic() - start) * 1000),
        "workers": 1,
    }


# ---------------------------------------------------------------------------
# wholesale path agreement and census invariance


def path_agreement_check(model):
    """Compare the chart route and the smooth-point route wholesale.

    Recomputes both invariant images for every nonzero form mod 11 with the
    same data the two public functions use: chart polynomial values on one
    side, values over the enumerated fiber on the other.  ``checked`` counts
    the forms covered and ``disagreements`` lists the indices of the forms
    where the routes differ, which must be none.

    It compares one form of each projective class only, and reports all
    ten multiples of a disagreeing one.  By the scaling law in
    ``_orbit_masks_11`` both routes map the masks of h to those of lam*h by
    the same permutation pi_lam, so the routes agree on lam*h exactly when
    they agree on h.  A class that fires a fixed trigger on both
    routes has the full mask 31 on both and cannot disagree, so only the
    classes over the union of the two routes' unfired bases are compared
    (``_unfired_bases_11``; the routes share l1, so a base means the same
    orbit on both).  This is equivalent to comparing all 11^6 - 1 forms:
    the disagreeing forms are exactly the multiples of the disagreeing
    classes.
    """
    chart, smooth = (_route_11(model, route) for route in ("chart", "smooth"))
    numbers = [_POWERS_11 @ r.bases for r in (chart, smooth)]
    # both start with the zero base, number 0, and so does their union
    bases = _digit_columns(np.union1d(*numbers), 11, 6)
    shifts, columns = _orbit_classes_11(bases.shape[1])
    differ = (_orbit_masks_11(chart, bases) != _orbit_masks_11(smooth, bases))[shifts, columns]
    forms = bases[:, columns[differ]] + shifts[differ] * chart.l1[:, None]
    bad = np.sort(_POWERS_11 @ _scalings_11(forms).reshape(6, -1))
    return {
        "checked": CENSUS_11_TOTAL,
        "disagreements": tuple(int(i) for i in bad),
    }


def census_11_smoothpath(model):
    """Obstruction count over all h mod 11 using only the smooth-point route.

    Works for any modulus-11 model, including coordinate-changed ones, since
    it never assumes the chart shape of l1.  By the scaling law in
    ``_orbit_masks_11`` exactly 10 - 2 * |image(r)| of the ten multiples of
    a projective representative r omit the identity, and none does when
    its image is full or a point of {l1 = 0} triggers; every nonzero form
    is one multiple of one representative, so these weights sum to the
    count over all 11^6 - 1 forms.  The classes that fire no fixed trigger
    are the kernel of the fixed trigger matrix mod 11, and only they are
    scanned, as the eleven translates of each of 134 bases on zeta11plus
    (``_unfired_bases_11``), with no fixed trigger pass, as none fires;
    every other class has weight 0.
    """
    route = _route_11(model, "smooth")
    shifts, columns = _orbit_classes_11(route.bases.shape[1])
    masks = _TRANSLATED_MASKS_11[shifts, _value_sets(route.value_tables, route.bases)[columns]]
    flags = _obstructing_scalings(masks)
    return {"model": model.name, "total": CENSUS_11_TOTAL, "obstructing": int(flags.sum())}


def _random_invertible_mod11(rng):
    while True:
        rows = [[rng.randrange(11) for _ in range(6)] for _ in range(6)]
        if rank_mod_p(rows, 11) == 6:
            return rows


def transformed_model_mod11(model, matrix):
    """The model in new coordinates u = g v, everything reduced mod 11.

    With q_k(u) = u^T G_k u for the upper-triangular Gram matrix G_k, the new
    quadric is v^T S v with S = g^T G_k g.
    """
    g = np.array(matrix, dtype=np.int64) % 11
    gram = np.array(_quadric_gram(model.quadrics), dtype=np.int64) % 11
    s = np.einsum("ai,kab,bj->kij", g, gram, g).tolist()
    quadrics = [[c % 11 for c in vec] for vec in _form_vectors(s)]
    l1, l2 = (
        tuple(sum(matrix[i][j] * form[i] for i in range(6)) % 11 for j in range(6))
        for form in (model.l1, model.l2)
    )
    return DelPezzoModel("transformed", model.spec, quadrics, l1, l2, name=f"{model.name}+gl6")


def census_invariance_check(model, transforms=3, seed=11):
    """The obstruction count must survive random changes of coordinates.

    Applies invertible mod-11 substitutions to the quadrics and both split
    forms simultaneously and recounts with the smooth-point census, which
    never looks at the chart.  All counts must agree with the base count.
    """
    base = census_11_smoothpath(model)["obstructing"]
    rng = random.Random(seed)
    counts = []
    for _ in range(transforms):
        matrix = _random_invertible_mod11(rng)
        moved = transformed_model_mod11(model, matrix)
        counts.append(census_11_smoothpath(moved)["obstructing"])
    return {
        "base_count": base,
        "transform_counts": tuple(counts),
        "all_match": all(c == base for c in counts),
    }


# ---------------------------------------------------------------------------
# unramified places


def unramified_invariant_check(model, ell):
    """Certify that the invariant vanishes at an unramified prime.

    At an inert prime the value of l1 at any local point is a norm from the
    unramified degree-5 extension once it is a unit, and it is always a
    unit because the fiber meets {l1 = 0} in no rational point; the check
    verifies that emptiness by enumeration.  At a split prime the class
    itself dies locally, so nothing needs enumerating.  Where the minimal
    polynomial m is inseparable mod ell, ell divides disc(m) = [O_K :
    Z[a]]^2 disc(K), and the check is refused, naming the case that
    ``numberfield.ramified_primes`` decides: ell ramifies in K, or it is
    unramified and divides the index (as 7 does for zeta25, where 7
    splits; how it splits is not read off m).
    """
    if model.spec is None:
        raise DomainError("unramified checks need the field data on the model")
    splitting = minpoly_splitting_mod_p(model.spec, ell)
    if splitting == "inseparable":
        if ell in dict(ramified_primes(model.spec)):
            raise DomainError(f"{ell} ramifies in K, so its invariant is not checked here")
        raise DomainError(f"{ell} is unramified in K but divides the index [O_K : Z[a]]")
    if splitting == "separable-split":
        return {
            "prime": ell,
            "splitting": "split",
            "invariant_trivial": True,
            "note": "the splitting field has a degree-1 completion, so the class dies locally",
        }
    if splitting != "separable-irreducible":
        raise DomainError(
            f"splitting pattern {splitting!r} at {ell} should not occur for a cyclic quintic"
        )
    fiber = enumerate_fiber(model, ell)
    zeros = [pt for pt in fiber if model.hyperplane_value(model.l1, pt) % ell == 0]
    return {
        "prime": ell,
        "splitting": "inert",
        "fiber_points": len(fiber),
        "line_vanishing_points": len(zeros),
        "invariant_trivial": not zeros,
    }
