"""Obstruction engine: residue classes, invariant images, verdicts, censuses.

Every image computation has two internally independent routes (chart
values vs smooth-point values mod 11, residue formula vs Hensel chart
lifts mod 25); the agreement tests here are the package's strongest
correctness evidence.
"""

import dataclasses
import hashlib
import json
import math
import random
import re
import signal
from itertools import product

import numpy as np
import pytest

from dp5brauer import fibers, obstruction
from dp5brauer.errors import ChartError, DomainError, FiberInconsistencyError
from dp5brauer.fibers import (
    enumerate_fiber,
    singular_points,
    solve_mod_p,
    verify_chart,
)
from dp5brauer.model import U_QUADRIC_PAIRS, DelPezzoModel, chart_point
from dp5brauer.numberfield import discriminant, minpoly_splitting_mod_p
from dp5brauer.obstruction import (
    _POWERS_11,
    CENSUS_11_TOTAL,
    CENSUS_25_TOTAL,
    InvariantImage,
    census_11,
    census_25,
    census_11_smoothpath,
    fifth_power_classes,
    geometrically_irreducible,
    inv_image_11,
    inv_image_11_smoothpath,
    inv_image_25,
    inv_image_25_liftpath,
    locally_soluble,
    path_agreement_check,
    tangent_surjectivity_check,
    transformed_model_mod11,
    two_route_images,
    unramified_invariant_check,
    verdict,
)
from dp5brauer.obstruction import (
    _orbit_masks_11,
    _random_invertible_mod11,
    _representatives_11,
    _scalings_11,
    _unfired_representatives_11,
)

from quintics import evaluate_quadrics, jacobian_matrix_mod_p, lehmer_model

HEADLINE_H = (0, 1, 0, -6, 0, 0)
# SHA-256 of the uint8 masks of the 177,156 projective representatives on
# zeta11plus, recorded from the kernel that formed every value h(P) as an
# int32 product; the two routes agree, so both hashes are this one
REPRESENTATIVE_MASKS_SHA256 = "dd0e55f3e8df662473ff90bde0f53e250ecba02b700d43e3689fe29a95fca569"
# SHA-256 of the 228 obstructing classes of ``census_11`` on zeta11plus,
# sorted, as a (228, 6) uint8 array; recorded from the orbit sweep of the
# chart route that counted them before the census read the chart table
CENSUS_11_CLASSES_SHA256 = "f047d61e4f36ba243a3784f1add37a294404346dac38c2625f618101f75ac08b"
OBSTRUCTED_25_H = (2, -15, 0, 10, 0, 0)
# the 25 chart points mod 5 in (y, z) order, from the scalar formula
CHART_5 = [chart_point(y, z, 5) for y, z in product(range(5), repeat=2)]


def test_fifth_power_classes_mod_11():
    group = fifth_power_classes(11)
    assert group.modulus == 11
    assert group.fifth_powers == (1, 10)
    assert len(group.classes) == 5
    assert group.class_of(1) == (1, 10)
    union = sorted(v for cls in group.classes for v in cls)
    assert union == list(range(1, 11))


def test_fifth_power_classes_mod_25():
    group = fifth_power_classes(25)
    assert group.fifth_powers == (1, 7, 18, 24)
    assert len(group.classes) == 5
    assert all(len(cls) == 4 for cls in group.classes)
    assert sorted(group.units) == [v for v in range(1, 25) if v % 5]


def test_fifth_power_classes_degenerate_modulus():
    group = fifth_power_classes(7)
    assert len(group.classes) == 1
    with pytest.raises(DomainError):
        fifth_power_classes(10)
    with pytest.raises(DomainError):
        fifth_power_classes(4)


def test_fifth_power_classes_are_built_once_per_modulus():
    for q in (11, 25):
        assert fifth_power_classes(q) is fifth_power_classes(q)
    # a refused modulus is not cached: it raises on every call
    for _ in range(2):
        with pytest.raises(DomainError, match="unsupported modulus 10"):
            fifth_power_classes(10)


def _brute_force_cosets(q):
    """The cosets u*F of the fifth powers F among the units mod q, the
    identity coset first and the others by least element."""
    units = [u for u in range(1, q) if math.gcd(u, q) == 1]
    fifth = {pow(u, 5, q) for u in units}
    cosets = []
    for u in units:
        coset = sorted(u * f % q for f in fifth)
        if coset not in cosets:
            cosets.append(coset)
    return [cosets[0], *sorted(cosets[1:])]


@pytest.mark.parametrize("q", [2, 3, 7, 11, 25, 31, 41])
def test_the_coset_tables_equal_a_brute_force_assignment(q):
    group = fifth_power_classes(q)
    cosets = _brute_force_cosets(q)
    assert group.classes == tuple(map(tuple, cosets))
    index = [-1] * q
    for i, coset in enumerate(cosets):
        for u in coset:
            index[u] = i
    assert group.index.tolist() == index
    assert group.bits.tolist() == [0 if i < 0 else 1 << i for i in index]
    inverse = [0 if i < 0 else 1 << index[pow(u, -1, q)] for u, i in enumerate(index)]
    assert group.inverse_bits.tolist() == inverse
    for table in (group.index, group.bits, group.inverse_bits):
        assert not table.flags.writeable
    # equality and hashing read the tuples, which determine the tables
    assert dataclasses.replace(group) == group and hash(dataclasses.replace(group)) == hash(group)
    for u in range(q):
        if index[u] >= 0:
            assert group.class_index(u + q) == index[u]
            assert group.class_of(u) == tuple(cosets[index[u]])


def test_class_of_refuses_a_non_unit():
    for q, value in ((11, 0), (11, 22), (25, 5), (25, -10), (2, 4)):
        group = fifth_power_classes(q)
        with pytest.raises(DomainError, match=f"{value} is not a unit modulo {q}"):
            group.class_of(value)
        with pytest.raises(DomainError, match="is not a unit"):
            group.class_index(value)


@pytest.mark.parametrize("prime, q", [(11, 11), (5, 25)])
def test_an_image_reads_its_mask_as_the_coset_tuples(prime, q):
    # the coset tuples an image stored before its mask, and the document
    # they gave, for every one of the 32 masks
    cosets = _brute_force_cosets(q)
    for mask in range(32):
        stored = tuple(tuple(c) for i, c in enumerate(cosets) if mask >> i & 1)
        for values, certificate in ((None, None), ((1, 3), {"point": [1, 0, 0, 0, 0, 0]})):
            image = InvariantImage(prime, q, mask, values, "reason", certificate)
            assert image.classes == stored
            assert image.contains_zero == any(1 in cls for cls in stored)
            assert image.size == len(stored)
            assert image.full == (len(stored) == 5)
            doc = {
                "prime": prime,
                "modulus": q,
                "classes": [list(cls) for cls in stored],
                "contains_zero": any(1 in cls for cls in stored),
                "size": len(stored),
                "full": len(stored) == 5,
                "reason": "reason",
            }
            if values is not None:
                doc["values"] = list(values)
                doc["certificate"] = certificate
            assert json.dumps(image.to_json_dict()) == json.dumps(doc)
            # the tuples are still accepted in place of the mask
            assert InvariantImage(prime, q, classes=stored, reason="reason") == dataclasses.replace(
                image, values=None, certificate=None
            )
            assert dataclasses.replace(image, classes=stored[1:]).mask == mask & (mask - 1)


def test_constant_images_mod_11(m11):
    for lam in range(2, 10):
        image = inv_image_11(m11, (lam, 0, 0, 0, 0, 0))
        assert image.size == 1
        assert not image.contains_zero
    identity = inv_image_11(m11, (1, 0, 0, 0, 0, 0))
    assert identity.size == 1
    assert identity.contains_zero
    assert inv_image_11(m11, (10, 0, 0, 0, 0, 0)).contains_zero


def test_u5_dependence_forces_a_full_image(m11):
    image = inv_image_11(m11, (0, 0, 0, 0, 0, 1))
    assert image.full
    assert image.size == 5
    assert inv_image_11(m11, (3, 1, 4, 1, 5, 9)).full


def test_separable_quadratic_image_has_four_classes(m11):
    image = inv_image_11(m11, (2, 1, 0, 3, 0, 0))
    assert image.size == 4
    assert image.values == (1, 2, 4, 5, 6, 10)


def test_zero_form_is_rejected(m11):
    with pytest.raises(DomainError):
        inv_image_11(m11, (0, 0, 0, 0, 0, 0))
    with pytest.raises(DomainError):
        inv_image_11(m11, (11, 22, 0, 0, 0, 0))


def test_smoothpath_matches_chart_on_named_forms(m11):
    for hbar in ((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), HEADLINE_H):
        chart = inv_image_11(m11, hbar)
        smooth = inv_image_11_smoothpath(m11, hbar)
        assert chart.classes == smooth.classes


def test_smoothpath_matches_chart_on_seeded_forms(m11):
    rng = random.Random(1105)
    for _ in range(300):
        hbar = tuple(rng.randrange(11) for _ in range(6))
        if not any(hbar):
            continue
        chart = inv_image_11(m11, hbar)
        smooth = inv_image_11_smoothpath(m11, hbar)
        assert chart.classes == smooth.classes, hbar


def test_path_agreement_exhaustive(m11):
    result = path_agreement_check(m11)
    assert result == {"checked": CENSUS_11_TOTAL, "disagreements": ()}


def test_obstructed_image_mod_25(m25):
    image = inv_image_25(m25, OBSTRUCTED_25_H)
    assert image.values == (2, 12, 22)
    assert image.size == 3
    assert not image.contains_zero


def test_fifth_power_scalar_is_invisible_mod_25(m25):
    image = inv_image_25(m25, (7, 0, 0, 0, 0, 0))
    assert image.size == 1
    assert image.contains_zero


def test_non_proportional_form_is_full_mod_25(m25):
    image = inv_image_25(m25, (0, 1, 0, 0, 0, 0))
    assert image.full
    assert image.certificate is not None
    assert "tangent_pairing" in image.certificate


def test_imprimitive_form_is_rejected_mod_25(m25):
    with pytest.raises(DomainError):
        inv_image_25(m25, (5, 0, 0, 10, 0, 0))
    with pytest.raises(DomainError):
        inv_image_25_liftpath(m25, (5, 0, 0, 10, 0, 0))


@pytest.mark.parametrize("length", [0, 1, 5, 7, 12])
def test_every_image_refuses_a_form_without_six_coefficients(m11, m25, length):
    # one message for every image, before any array product can misread
    # the form or, on a form proportional to u0, drop a seventh coefficient
    images = (
        (m11, inv_image_11),
        (m11, inv_image_11_smoothpath),
        (m25, inv_image_25),
        (m25, inv_image_25_liftpath),
    )
    for model, image in images:
        for h in ((1,) * length, (OBSTRUCTED_25_H + (0,) * 6)[:length]):
            with pytest.raises(DomainError, match="^a hyperplane form needs six coefficients$"):
                image(model, h)


def test_liftpath_agrees_on_proportional_forms(m25):
    # every other form has k constant in z (k2 = k4 = k5 = 0), where the
    # image can be partial; a random k almost always gives a full image
    rng = random.Random(2505)
    sizes = set()
    for i in range(40):
        lam = rng.choice([v for v in range(1, 25) if v % 5])
        k = [rng.randrange(5) for _ in range(5)]
        if i % 2:
            k[1] = k[3] = k[4] = 0
        h = (lam,) + tuple(5 * c for c in k)
        formula = inv_image_25(m25, h)
        lifted = inv_image_25_liftpath(m25, h)
        assert formula.classes == lifted.classes, h
        assert formula.values == lifted.values, h
        sizes.add(formula.size)
    assert {1, 3} <= sizes


def test_liftpath_agrees_on_full_images(m25):
    rng = random.Random(2506)
    checked = 0
    while checked < 25:
        h = tuple(rng.randrange(25) for _ in range(6))
        reduced = tuple(c % 5 for c in h)
        if not any(reduced) or not any(reduced[1:]):
            continue
        checked += 1
        formula = inv_image_25(m25, h)
        lifted = inv_image_25_liftpath(m25, h)
        assert formula.full and lifted.full, h


def _python_lift_values(points, h):
    # the pre-array definition: one Python sum per lift
    values = set()
    for pt in points:
        hv = sum(c * x for c, x in zip(h, pt)) % 25
        if hv % 5:
            values.add(hv)
    return values


def test_lift_array_values_match_a_python_sum(m25):
    lifts = obstruction._chart_lift_points(m25)
    assert lifts.shape == (625, 6) and lifts.dtype == np.int64
    assert not lifts.flags.writeable
    points = [tuple(int(c) for c in pt) for pt in lifts]
    assert len(set(points)) == 625
    for k, pt in enumerate(points):
        assert tuple(c % 5 for c in pt) == CHART_5[k // 25]
        assert not any(v % 25 for v in evaluate_quadrics(m25, pt))
    group = fifth_power_classes(25)
    rng = random.Random(300)
    checked = 0
    while checked < 300:
        h = tuple(rng.randrange(-40, 40) for _ in range(6))
        if checked % 2:
            h = (h[0],) + tuple(5 * c for c in h[1:])  # proportional to u0 mod 5
        if not any(c % 5 for c in h):
            continue
        checked += 1
        values = _python_lift_values(points, tuple(c % 25 for c in h))
        image = inv_image_25_liftpath(m25, h)
        assert image.values == tuple(sorted(values)), h
        assert set(image.classes) == {group.class_of(pow(v, -1, 25)) for v in values}, h


def test_kappa_image_matches_a_python_sum():
    for coeffs in product(range(5), repeat=5):
        expected = {sum(c * x for c, x in zip(coeffs, pt[1:])) % 5 for pt in CHART_5}
        assert obstruction._kappa_image(coeffs) == expected, coeffs


def _direct_witnesses(h, points=None):
    """The chart points x, in (y, z) order, where h(x) is a unit mod 5 and h
    pairs non-trivially with d/dy or d/dz of (1, y, z, y^2, y z, y^3 + z^2),
    each with its two pairings."""
    found = []
    for y, z in points or product(range(5), repeat=2):
        pairing = (
            (h[1] + 2 * y * h[3] + z * h[4] + 3 * y * y * h[5]) % 5,
            (h[2] + y * h[4] + 2 * z * h[5]) % 5,
        )
        x = chart_point(y, z, 5)
        if sum(c * v for c, v in zip(h, x)) % 5 and any(pairing):
            found.append((list(x), list(pairing)))
    return found


def test_tangent_pairings_are_the_chart_derivatives(m25):
    # the helper's pairings are the chart derivatives of h at every chart
    # point mod 5, its witnesses the points where h(x) + c is also a unit;
    # the certificate names the first witness
    rng = random.Random(14)
    forms = [tuple(rng.randrange(25) for _ in range(6)) for _ in range(40)]
    pairings, witnesses = obstruction._fullness_witnesses_25(np.array(forms).T)
    assert pairings.shape == (25, 2, 40) and witnesses.shape == (5, 25, 40)
    for n, h in enumerate(forms):
        expected = [
            ((h[1] + 2 * y * h[3] + z * h[4] + 3 * y * y * h[5]) % 5, (h[2] + y * h[4] + 2 * z * h[5]) % 5)
            for y, z in product(range(5), repeat=2)
        ]
        assert pairings[:, :, n].tolist() == [list(pair) for pair in expected], h
        for c in range(5):
            shifted = (h[0] + c,) + h[1:]
            points = [x for x, _ in _direct_witnesses(shifted)]
            assert [list(x) for x, w in zip(CHART_5, witnesses[c, :, n]) if w] == points
        if any(c % 5 for c in h[1:]):
            point, pairing = _direct_witnesses(h)[0]
            certificate = inv_image_25(m25, h).certificate
            assert certificate == {"point": point, "tangent_pairing": pairing}, h


def test_every_certificate_mod_25_is_a_witness(m25):
    # for every direction h mod 5 not proportional to u0, the certificate
    # point x has h(x) a unit mod 5 and a nonzero tangent pairing, and the
    # 25 lifts above x take exactly the five units congruent to h(x) mod 5
    lifts = obstruction._chart_lift_points(m25)
    checked = 0
    for h in product(range(5), repeat=6):
        if not any(h[1:]):
            continue
        certificate = inv_image_25(m25, h).certificate
        x = tuple(certificate["point"])
        value = sum(c * v for c, v in zip(h, x)) % 5
        assert value and any(certificate["tangent_pairing"]), h
        i = CHART_5.index(x)
        lifted = {int(v) for v in lifts[25 * i : 25 * i + 25] @ np.array(h) % 25}
        assert lifted == {value + 5 * k for k in range(5)}, h
        checked += 1
    assert checked == 15620


def test_a_tangent_off_the_lift_plane_is_refused(m25, monkeypatch):
    # the fullness theorem needs the chart tangents to span the lift plane;
    # a tangent row bent out of it must stop the lifts from being built
    points, tangents = obstruction._chart_tables(5)
    bent = tangents.copy()
    bent[7, 0, 3] = (bent[7, 0, 3] + 1) % 5
    monkeypatch.setattr(obstruction, "_chart_tables", lambda p: (points, bent))
    obstruction._FIBER_CACHE.clear()
    with pytest.raises(FiberInconsistencyError, match="chart tangent leaves the lift plane"):
        obstruction._chart_lift_points(m25)
    assert obstruction._model_cache_key(m25, 25) not in obstruction._FIBER_CACHE


def _kappa_census_oracle():
    """The per-k loop on Python sets: the kappa image sizes, the misses of
    every (k, lam) for the units lam mod 25 in ascending order (no value
    lam + 5*kappa is a fifth power), and the breakdown by image size."""
    points = [chart_point(y, z, 5)[1:] for y, z in product(range(5), repeat=2)]
    units = [lam for lam in range(1, 25) if lam % 5]
    fifth = {pow(a, 5, 25) for a in units}
    sizes, misses, breakdown = [], [], {"constant": 0, "image_size_3": 0}
    for k in product(range(5), repeat=5):
        image = {sum(c * x for c, x in zip(k, pt)) % 5 for pt in points}
        row = [not any((lam + 5 * v) % 25 in fifth for v in image) for lam in units]
        sizes.append(len(image))
        misses.append(row)
        if len(image) == 1:
            breakdown["constant"] += sum(row)
        elif len(image) == 3:
            breakdown["image_size_3"] += sum(row)
    return sizes, misses, breakdown


def test_kappa_census_equals_the_per_k_set_loop(m25):
    sizes, misses, breakdown = _kappa_census_oracle()
    got_sizes, got_misses = obstruction._kappa_misses_25()
    assert got_sizes.tolist() == sizes
    assert got_misses.tolist() == misses
    result = census_25(m25)
    assert result["kappa_image_sizes"] == {size: sizes.count(size) for size in (1, 3, 5)}
    assert result["breakdown"] == breakdown
    assert result["obstructing"] == sum(map(sum, misses)) == 176


def _solved_lift_points(model):
    """The per-point lift construction: one ``solve_mod_p`` per chart point,
    its 25 lifts along a*w1 + b*w2 in ``product`` order."""
    lifts = []
    for y, z in product(range(5), repeat=2):
        x = chart_point(y, z, 5)
        qv = evaluate_quadrics(model, x)
        assert not any(q % 5 for q in qv)
        rhs = [(-(q % 25) // 5) % 5 for q in qv]
        jac = [row[1:] for row in jacobian_matrix_mod_p(model, 5, x)]
        _, part, (w1, w2) = solve_mod_p(jac, 5, rhs)
        for a, b in product(range(5), repeat=2):
            lift = [(c + 5 * (d + a * e + b * f)) % 25 for c, d, e, f in zip(x[1:], part, w1, w2)]
            lifts.append([1] + lift)
    return lifts


def test_chart_lifts_equal_the_per_point_solves(m25):
    obstruction._FIBER_CACHE.clear()
    assert obstruction._chart_lift_points(m25).tolist() == _solved_lift_points(m25)


def test_chart_lifts_equal_a_brute_force_search(m25):
    # every step x + 5w (w0 = 0) of every chart point x, kept when all five
    # quadrics vanish mod 25 on it: the lifts above x, as a set
    coeffs = np.array(m25.quadrics, dtype=np.int64).T % 25
    i, j = np.array(U_QUADRIC_PAIRS).T
    steps = 5 * np.array(list(product(range(5), repeat=5)))
    lifts = obstruction._chart_lift_points(m25).reshape(25, 25, 6)
    for x, above in zip(CHART_5, lifts):
        candidates = np.hstack([np.ones((len(steps), 1), dtype=np.int64), x[1:] + steps])
        on_fiber = ~((candidates[:, i] * candidates[:, j]) @ coeffs % 25).any(axis=1)
        found = set(map(tuple, candidates[on_fiber].tolist()))
        assert set(map(tuple, above.tolist())) == found, x


def test_image_size_law_mod_25(m25):
    # sizes are 1, 3, or 5; full exactly off the u0-proportional locus
    rng = random.Random(2507)
    for _ in range(120):
        h = tuple(rng.randrange(25) for _ in range(6))
        reduced = tuple(c % 5 for c in h)
        if not any(reduced):
            continue
        image = inv_image_25(m25, h)
        assert image.size in (1, 3, 5)
        proportional = not any(reduced[1:])
        assert image.full == (not proportional)


def test_scaling_equivariance_mod_11(m11):
    group = fifth_power_classes(11)
    rng = random.Random(411)
    for _ in range(100):
        hbar = tuple(rng.randrange(11) for _ in range(6))
        if not any(hbar):
            continue
        lam = rng.randrange(1, 11)
        scaled = tuple(lam * c % 11 for c in hbar)
        base = inv_image_11(m11, hbar)
        image = inv_image_11(m11, scaled)
        expected = {
            group.class_of(pow(lam, -1, 11) * v % 11)
            for cls in base.classes
            for v in cls[:1]
        }
        assert set(image.classes) == expected
        assert image.contains_zero == (group.class_of(lam) in base.classes)


def test_scaling_equivariance_mod_25(m25):
    group = fifth_power_classes(25)
    rng = random.Random(425)
    for _ in range(100):
        h = tuple(rng.randrange(25) for _ in range(6))
        if not any(c % 5 for c in h):
            continue
        lam = rng.choice([v for v in range(1, 25) if v % 5])
        scaled = tuple(lam * c % 25 for c in h)
        base = inv_image_25(m25, h)
        image = inv_image_25(m25, scaled)
        expected = {
            group.class_of(pow(lam, -1, 25) * cls[0] % 25) for cls in base.classes
        }
        assert set(image.classes) == expected
        assert image.contains_zero == (group.class_of(lam) in base.classes)


def test_local_solubility(m11, m25):
    cert = locally_soluble(m11, HEADLINE_H)
    assert cert.soluble
    assert cert.failing_place is None
    bad = locally_soluble(m11, (0, 0, 1, 0, 0, 1))
    assert not bad.soluble
    assert bad.failing_place == 2
    assert locally_soluble(m25, OBSTRUCTED_25_H).soluble
    assert not locally_soluble(m25, (0, 0, 1, 1, 0, 0)).soluble


def test_solubility_rejects_imprimitive_forms(m11):
    with pytest.raises(DomainError):
        locally_soluble(m11, (2, 2, 2, 2, 2, 2))


def _scaled_points(monkeypatch, m, factor):
    # the searched points times ``factor``: the same projective points, and
    # every h-value times ``factor``
    scaled = tuple(tuple(factor * c for c in pt) for pt in m.integral_points)
    monkeypatch.setattr(DelPezzoModel, "integral_points", property(lambda self: scaled))


def test_the_odd_gcd_drops_the_two_part(m11, monkeypatch):
    # the certificate reads the odd part of the gcd alone
    values = locally_soluble(m11, HEADLINE_H).point_values
    _scaled_points(monkeypatch, m11, 2)
    cert = locally_soluble(m11, HEADLINE_H)
    assert cert.soluble and cert.odd_gcd == 1
    assert cert.point_values == tuple(2 * v for v in values)


def test_undecided_places_are_domain_errors(m11, monkeypatch):
    # an undecided place is a refusal (exit 3), not a contradiction (exit 4)
    with monkeypatch.context() as patch:
        patch.setattr(obstruction, "_singular_mask", lambda model, p, x: np.ones(len(x), bool))
        with pytest.raises(DomainError, match="undecided") as info:
            locally_soluble(m11, HEADLINE_H)
        assert type(info.value) is DomainError
        # a form that every point of the fiber mod 2 lies on is decided
        assert not locally_soluble(m11, m11.insolubility_class).soluble
    _scaled_points(monkeypatch, m11, 3)
    with pytest.raises(DomainError, match="odd part 3") as info:
        locally_soluble(m11, HEADLINE_H)
    assert type(info.value) is DomainError


@pytest.mark.parametrize("n", [*range(-4, 6), None], ids=[*map(str, range(-4, 6)), "built11"])
def test_solubility_for_every_built_model(built11, n):
    # exactly one of the 63 nonzero 0/1 forms is insoluble, at 2, and it is
    # the model's insolubility class; the others are soluble with odd gcd 1
    m = built11 if n is None else lehmer_model(n)
    forms = [tuple(k >> (5 - i) & 1 for i in range(6)) for k in range(1, 64)]
    certs = {h: locally_soluble(m, h) for h in forms}
    insoluble = [h for h, cert in certs.items() if not cert.soluble]
    assert insoluble == [m.insolubility_class]
    assert certs[m.insolubility_class].failing_place == 2
    assert all(cert.odd_gcd == 1 for cert in certs.values() if cert.soluble)


def test_geometric_irreducibility(m11, m25):
    assert not geometrically_irreducible(m11, m11.l1)
    assert not geometrically_irreducible(m11, tuple(-4 * c for c in m11.l2))
    assert not geometrically_irreducible(m25, tuple(3 * c for c in m25.l2))
    assert geometrically_irreducible(m11, HEADLINE_H)


def test_verdict_obstruction_mod_25(m25):
    report = verdict(m25, OBSTRUCTED_25_H)
    assert report.verdict == "obstruction_order_5"
    assert report.solubility.soluble
    assert report.geometrically_irreducible
    assert report.images[5].values == (2, 12, 22)
    doc = report.to_json_dict()
    assert doc["verdict"] == "obstruction_order_5"
    assert doc["images"]["5"]["contains_zero"] is False
    assert "paper_claim_comparison" not in doc


def _disagreeing_lift_route(monkeypatch):
    # the lift route with its first coset dropped
    lift = obstruction.inv_image_25_liftpath

    def disagreeing(model, h):
        image = lift(model, h)
        return dataclasses.replace(image, classes=image.classes[1:])

    monkeypatch.setattr(obstruction, "inv_image_25_liftpath", disagreeing)


def test_verdict_cross_checks_the_lift_route_at_25(m25, monkeypatch):
    # at 25 as at 11 the verdict reads both routes; a disagreement is an
    # internal contradiction, also on a full image
    for h in (OBSTRUCTED_25_H, (0, 1, 0, 0, 0, 0)):
        assert verdict(m25, h).images[5].classes == inv_image_25_liftpath(m25, h).classes
    _disagreeing_lift_route(monkeypatch)
    for h in (OBSTRUCTED_25_H, (0, 1, 0, 0, 0, 0)):
        with pytest.raises(FiberInconsistencyError, match="routes disagree"):
            verdict(m25, h)


def test_verdict_trivial_class(m11):
    assert verdict(m11, m11.l1).verdict == "trivial_brauer_class"


def test_verdict_insoluble(m25):
    report = verdict(m25, (0, 0, 1, 1, 0, 0))
    assert report.verdict == "no_adelic_points"
    assert report.to_json_dict()["failing_place"] == 2


def test_verdict_simple_obstruction_mod_11(m11):
    report = verdict(m11, (2, 11, 0, 0, 0, 0))
    assert report.verdict == "obstruction_order_5"


def test_headline_verdict_is_computed_not_copied(m11):
    report = verdict(m11, HEADLINE_H)
    assert report.verdict == "no_obstruction"
    cmp = report.claim_comparison
    assert cmp is not None
    assert cmp["published_verdict"] == "obstruction_order_5"
    assert cmp["computed_verdict"] == "no_obstruction"
    assert cmp["status"] == "flagged"
    assert cmp["chart_route_contains_zero"] is True
    assert cmp["smooth_route_contains_zero"] is True
    doc = report.to_json_dict()
    assert doc["paper_claim_comparison"]["status"] == "flagged"


def test_the_published_verdict_is_matched_by_the_model_data(m11):
    # the name alone carries no comparison: a model named zeta11plus with
    # another l2 is another model, though its verdict on the form is the same
    l2 = [2 * c for c in m11.l2]
    renamed = DelPezzoModel("renamed", m11.spec, m11.quadrics, m11.l1, l2, name="zeta11plus")
    report = verdict(renamed, HEADLINE_H)
    assert report.verdict == verdict(m11, HEADLINE_H).verdict
    assert report.claim_comparison is None


def _without(doc, *keys):
    return {k: v for k, v in doc.items() if k not in keys}


@pytest.mark.parametrize("name", ["zeta11plus", "zeta25"])
def test_a_stripped_fixture_answers_as_the_fixture(m11, m25, name):
    # a fixture written to JSON keeps its field, so its ramified prime: the
    # images, verdicts and census are the fixture's, apart from the model
    # name; the published verdict is matched by the model's data, so the
    # file of zeta11plus carries the headline comparison too
    fixture, census, forms = {
        "zeta11plus": (m11, census_11, (HEADLINE_H, (0, 1, 0, -7, 0, 0), (0, 0, 0, 0, 1, 0))),
        "zeta25": (m25, census_25, (OBSTRUCTED_25_H, HEADLINE_H, (0, 0, 0, 0, 0, 1))),
    }[name]
    stripped = DelPezzoModel.from_json_dict(fixture.to_json_dict())
    assert stripped.name is None and stripped.modulus == fixture.modulus
    for h in forms:
        assert two_route_images(stripped, h) == two_route_images(fixture, h)
        want = verdict(fixture, h).to_json_dict()
        got = verdict(stripped, h).to_json_dict()
        assert ("paper_claim_comparison" in got) == (name == "zeta11plus" and h == HEADLINE_H)
        assert _without(got, "model") == _without(want, "model")
    assert _without(census(stripped), "model", "wall_time_ms") == _without(census(fixture), "model", "wall_time_ms")


def _perturbed_zeta11plus(m11):
    """zeta11plus with quadric 1's u0*u5 coefficient raised by 1: off its
    chart mod 11, though l1 = u0 mod 11 still holds."""
    quadrics = [list(q) for q in m11.quadrics]
    quadrics[0][U_QUADRIC_PAIRS.index((0, 5))] += 1
    return DelPezzoModel("perturbed", m11.spec, quadrics, m11.l1, m11.l2)


_CHART_FAILS_11 = r"^chart identity fails mod 11: residue \(1\)\*y\^3 \+ \(1\)\*z\^2$"


def test_a_model_off_its_chart_is_refused_by_every_chart_route(m11):
    # read off the chart, this form would obstruct on the perturbed quadrics;
    # every chart route now holds the model's own chart certificate first
    perturbed = _perturbed_zeta11plus(m11)
    assert perturbed.modulus == 11
    with pytest.raises(ChartError, match=_CHART_FAILS_11):
        verify_chart(perturbed)
    for call, args in (
        (inv_image_11, (perturbed, (-13, -11, 0, 0, 0, 22))),
        (verdict, (perturbed, (-13, -11, 0, 0, 0, 22))),
        (census_11, (perturbed,)),
        (path_agreement_check, (perturbed,)),
    ):
        with pytest.raises(ChartError, match=_CHART_FAILS_11):
            call(*args)
    # the verdict checks the premise before solubility, so no form answers
    rng = random.Random(41)
    for _ in range(20):
        h = tuple(rng.randint(-30, 30) for _ in range(6))
        if math.gcd(*h) == 1:
            with pytest.raises(ChartError, match=_CHART_FAILS_11):
                verdict(perturbed, h)
    # the smooth route never reads the chart, so it still answers
    assert inv_image_11_smoothpath(perturbed, HEADLINE_H).modulus == 11


def test_the_chart_certificate_is_cached_per_request(m11, monkeypatch):
    certified = []
    certify = fibers._certified_chart

    def counting(model, p):
        certified.append(p)
        return certify(model, p)

    monkeypatch.setattr(fibers, "_certified_chart", counting)
    obstruction._FIBER_CACHE.clear()
    try:
        for _ in range(2):
            inv_image_11(m11, HEADLINE_H)
            verdict(m11, HEADLINE_H)
        assert verify_chart(m11) is verify_chart(m11)
        assert certified == [11]
        obstruction._FIBER_CACHE.clear()
        inv_image_11(m11, HEADLINE_H)
        assert certified == [11, 11]
    finally:
        obstruction._FIBER_CACHE.clear()


# (entry point, input) -> (exception type, message), None where the call
# answers; recorded before the mod-11 routes were read as values, when the
# two mod-25 images met a form of five or seven coefficients with numpy's
# ValueError, an IndexError or (seven, proportional to u0) no refusal
_CONDUCTOR_11 = ("DomainError", "this invariant computation needs the conductor model with modulus 11")
_CONDUCTOR_25 = ("DomainError", "this invariant computation needs the conductor model with modulus 25")
_CHART_L1 = ("DomainError", "chart evaluation needs l1 = u0 modulo 11")
_SIX = ("DomainError", "a hyperplane form needs six coefficients")
_PRIMITIVE_5 = ("DomainError", "form must be primitive modulo 5")
_PRIMITIVE = ("DomainError", "form must be primitive")
REFUSALS = {
    # a fixture written to JSON keeps its field, so the "stripped" rows
    # answer as the fixture does
    ("inv_image_11", "stripped"): None,
    ("inv_image_11", "moved"): _CHART_L1,
    ("inv_image_11", "other-fixture"): _CONDUCTOR_11,
    ("inv_image_11", "zero"): ("DomainError", "form vanishes identically modulo 11"),
    ("inv_image_11", "imprimitive-mod-5"): None,
    ("inv_image_11", "stripped-zero"): ("DomainError", "form vanishes identically modulo 11"),
    ("inv_image_11", "five-coefficients"): _SIX,
    ("inv_image_11", "seven-coefficients"): _SIX,
    ("inv_image_11", "five-proportional"): _SIX,
    ("inv_image_11", "seven-proportional"): _SIX,
    ("inv_image_11_smoothpath", "stripped"): None,
    ("inv_image_11_smoothpath", "moved"): None,
    ("inv_image_11_smoothpath", "other-fixture"): _CONDUCTOR_11,
    ("inv_image_11_smoothpath", "zero"): ("DomainError", "form vanishes identically modulo 11"),
    ("inv_image_11_smoothpath", "imprimitive-mod-5"): None,
    ("inv_image_11_smoothpath", "stripped-zero"): ("DomainError", "form vanishes identically modulo 11"),
    ("inv_image_11_smoothpath", "five-coefficients"): _SIX,
    ("inv_image_11_smoothpath", "seven-coefficients"): _SIX,
    ("inv_image_11_smoothpath", "five-proportional"): _SIX,
    ("inv_image_11_smoothpath", "seven-proportional"): _SIX,
    ("inv_image_25", "stripped"): None,
    ("inv_image_25", "moved"): _CONDUCTOR_25,
    ("inv_image_25", "other-fixture"): _CONDUCTOR_25,
    ("inv_image_25", "zero"): _PRIMITIVE_5,
    ("inv_image_25", "imprimitive-mod-5"): _PRIMITIVE_5,
    ("inv_image_25", "stripped-zero"): _PRIMITIVE_5,
    ("inv_image_25", "five-coefficients"): _SIX,
    ("inv_image_25", "seven-coefficients"): _SIX,
    ("inv_image_25", "five-proportional"): _SIX,
    ("inv_image_25", "seven-proportional"): _SIX,
    ("inv_image_25_liftpath", "stripped"): None,
    ("inv_image_25_liftpath", "moved"): _CONDUCTOR_25,
    ("inv_image_25_liftpath", "other-fixture"): _CONDUCTOR_25,
    ("inv_image_25_liftpath", "zero"): _PRIMITIVE_5,
    ("inv_image_25_liftpath", "imprimitive-mod-5"): _PRIMITIVE_5,
    ("inv_image_25_liftpath", "stripped-zero"): _PRIMITIVE_5,
    ("inv_image_25_liftpath", "five-coefficients"): _SIX,
    ("inv_image_25_liftpath", "seven-coefficients"): _SIX,
    ("inv_image_25_liftpath", "five-proportional"): _SIX,
    ("inv_image_25_liftpath", "seven-proportional"): _SIX,
    ("verdict", "stripped"): None,
    # the chart premise of both routes is checked before solubility, which
    # would refuse the moved model: its fiber mod 2 has no smooth point
    # that gives the solver shape
    ("verdict", "moved"): _CHART_L1,
    # verdict reads the routes off the model's own modulus
    ("verdict", "other-fixture"): None,
    ("verdict", "zero"): _PRIMITIVE,
    ("verdict", "imprimitive-mod-5"): _PRIMITIVE,
    # verdict reads the form before the model
    ("verdict", "stripped-zero"): _PRIMITIVE,
    ("verdict", "five-coefficients"): _SIX,
    ("verdict", "seven-coefficients"): _SIX,
    ("verdict", "five-proportional"): _SIX,
    ("verdict", "seven-proportional"): _SIX,
    ("census_11", "stripped"): None,
    ("census_11", "moved"): _CHART_L1,
    ("census_11", "other-fixture"): _CONDUCTOR_11,
    ("census_11_smoothpath", "stripped"): None,
    ("census_11_smoothpath", "moved"): None,
    ("census_11_smoothpath", "other-fixture"): _CONDUCTOR_11,
    ("path_agreement_check", "stripped"): None,
    ("path_agreement_check", "moved"): _CHART_L1,
    ("path_agreement_check", "other-fixture"): _CONDUCTOR_11,
    ("census_25", "stripped"): None,
    ("census_25", "moved"): _CONDUCTOR_25,
    ("census_25", "other-fixture"): _CONDUCTOR_25,
    ("tangent_surjectivity_check", "stripped"): None,
    ("tangent_surjectivity_check", "moved"): _CONDUCTOR_25,
    ("tangent_surjectivity_check", "other-fixture"): _CONDUCTOR_25,
}
# the entry points of the table, each with the modulus of its fixture;
# the first five take a form, the others a model only
_REFUSAL_MODULI = {
    "inv_image_11": 11,
    "inv_image_11_smoothpath": 11,
    "inv_image_25": 25,
    "inv_image_25_liftpath": 25,
    "verdict": 11,
    "census_11": 11,
    "census_11_smoothpath": 11,
    "path_agreement_check": 11,
    "census_25": 25,
    "tangent_surjectivity_check": 25,
}
_FORM_ENTRIES = tuple(_REFUSAL_MODULI)[:5]


def _refusal_arguments(m11, m25, entry, label):
    q = _REFUSAL_MODULI[entry]
    fixture, other = (m11, m25) if q == 11 else (m25, m11)
    stripped = DelPezzoModel.from_json_dict(fixture.to_json_dict())
    moved = transformed_model_mod11(m11, _random_invertible_mod11(random.Random(79)))
    if entry not in _FORM_ENTRIES:
        return ({"stripped": stripped, "moved": moved, "other-fixture": other}[label],)
    form = HEADLINE_H if q == 11 else OBSTRUCTED_25_H
    zero = (0,) * 6
    return {
        "stripped": (stripped, form),
        "moved": (moved, form),
        "other-fixture": (other, form),
        "zero": (fixture, zero),
        "imprimitive-mod-5": (fixture, (5, 0, 0, 10, 0, 0)),
        "stripped-zero": (stripped, zero),
        "five-coefficients": (fixture, (0, 1, 0, 0, 0)),
        "seven-coefficients": (fixture, (0, 1, 0, 0, 0, 0, 0)),
        "five-proportional": (fixture, form[:5]),
        "seven-proportional": (fixture, form + (0,)),
    }[label]


@pytest.mark.parametrize("entry, label", list(REFUSALS), ids=[f"{e}-{i}" for e, i in REFUSALS])
def test_refusals_are_pinned(m11, m25, entry, label):
    # every model refusal of an image comes before its form refusal, and
    # the route lookup refuses what the census entry points refuse
    args = _refusal_arguments(m11, m25, entry, label)
    try:
        getattr(obstruction, entry)(*args)
    except Exception as exc:  # noqa: BLE001 - the type is part of the pin
        got = (type(exc).__name__, str(exc))
    else:
        got = None
    assert got == REFUSALS[entry, label]


def test_census_11_counts(m11):
    result = census_11(m11, jobs=1)
    assert result["total"] == CENSUS_11_TOTAL == 1771560
    assert result["obstructing"] == 228
    assert result["breakdown"] == {"constant": 8, "separable_quadratic": 220}
    assert result["formula_breakdown"] == result["breakdown"]
    assert len(result["obstructing_classes"]) == 228
    assert all(h[5] == 0 for h in result["obstructing_classes"])


def test_census_classes_are_the_forms_the_chart_kernel_says_obstruct(m11):
    # the oracle: the multiples lam*r of the 177,156 representatives that
    # omit the identity on the chart route's mask kernel
    reps = _representatives_11()
    lam, j = np.nonzero(obstruction._obstructing_scalings(_image_masks_11(m11, reps, "chart")))
    swept = sorted(map(tuple, (reps[:, j] * (lam + 1) % 11).T.tolist()))
    classes = census_11(m11)["obstructing_classes"]
    assert list(classes) == swept
    digest = hashlib.sha256(np.array(classes, dtype=np.uint8).tobytes()).hexdigest()
    assert digest == CENSUS_11_CLASSES_SHA256


def test_census_11_is_worker_independent(m11):
    serial = census_11(m11, jobs=1)
    parallel = census_11(m11, jobs=2)
    assert parallel["workers"] == 2
    assert parallel["obstructing"] == serial["obstructing"] == 228
    assert parallel["obstructing_classes"] == serial["obstructing_classes"]


def test_census_25_counts(m25):
    result = census_25(m25)
    assert result["total"] == CENSUS_25_TOTAL == 244125000
    assert result["obstructing"] == 176
    assert result["breakdown"] == {"constant": 16, "image_size_3": 160}
    assert result["kappa_image_sizes"] == {1: 1, 3: 20, 5: 3104}


def test_census_25_sampled_brute_force_agrees(m25):
    # the one census document, also the claim table's; the fullness it
    # relies on is checked for every direction, not sampled
    result = census_25(m25)
    del result["wall_time_ms"]
    assert result == {
        "model": "zeta25",
        "modulus": 25,
        "total": 244125000,
        "obstructing": 176,
        "breakdown": {"constant": 16, "image_size_3": 160},
        "kappa_image_sizes": {1: 1, 3: 20, 5: 3104},
        "workers": 1,
    }


def test_tangent_surjectivity(m25):
    result = tangent_surjectivity_check(m25)
    assert result["directions"] == 15620
    assert result["surjective"]
    assert result["failures"] == ()


def test_census_is_coordinate_free(m11):
    rng = random.Random(77)
    matrix = _random_invertible_mod11(rng)
    moved = transformed_model_mod11(m11, matrix)
    assert moved.name == "zeta11plus+gl6"
    assert census_11_smoothpath(moved)["obstructing"] == 228


def test_smoothpath_reads_the_fiber_of_a_moved_model(m11):
    # the chart route refuses a moved model, so its image comes from the
    # smooth route alone; h/l1 does not depend on the coordinates, so the
    # classes and values are the fixture's for the pulled-back form
    rng = random.Random(79)
    matrix = _random_invertible_mod11(rng)
    moved = transformed_model_mod11(m11, matrix)
    with pytest.raises(DomainError, match="chart evaluation needs l1 = u0"):
        inv_image_11(moved, HEADLINE_H)
    fiber = enumerate_fiber(moved, 11)
    smooth = set(fiber) - set(singular_points(moved, 11, fiber))
    fired = partial = 0
    for _ in range(200):
        h = [rng.randrange(11) for _ in range(6)]
        if rng.random() < 0.5:
            h[2] = h[4] = h[5] = 0  # z-free forms have partial images
        if not any(h):
            continue
        # the form h reads h * matrix in the moved coordinates
        pulled = tuple((np.array(h) @ np.array(matrix) % 11).tolist())
        image = inv_image_11_smoothpath(moved, pulled)
        expected = inv_image_11_smoothpath(m11, h)
        assert (image.classes, image.values) == (expected.classes, expected.values), h
        partial += not image.full
        if image.certificate is not None:
            fired += 1
            point = tuple(image.certificate["point"])
            assert point in smooth, h
            assert moved.hyperplane_value(moved.l1, point) % 11 == 0, h
            assert moved.hyperplane_value(pulled, point) % 11 != 0, h
    assert fired > 20 and partial > 20


def _permuted_mask(group, mask, lam):
    # the coset C goes to lam^-1 * C
    out = 0
    for i, cls in enumerate(group.classes):
        if mask >> i & 1:
            out |= 1 << group.class_index(pow(lam, -1, 11) * cls[0] % 11)
    return out


def test_mask_kernel_is_scaling_equivariant(m11):
    group = fifth_power_classes(11)
    rng = random.Random(511)
    matrix = _random_invertible_mod11(rng)
    moved = transformed_model_mod11(m11, matrix)
    pairs = []
    while len(pairs) < 300:
        h = [rng.randrange(11) for _ in range(6)]
        if rng.random() < 0.5:
            h[2] = h[4] = h[5] = 0  # z-free forms have partial images
        if any(h):
            pairs.append((h, rng.randrange(1, 11)))
    forms = np.array([h for h, _ in pairs], dtype=np.int32).T
    lams = np.array([lam for _, lam in pairs], dtype=np.int32)
    # the form h reads h * matrix in the moved coordinates
    moved_forms = np.array(matrix, dtype=np.int32).T @ forms % 11
    for model, route, cols in (
        (m11, "chart", forms),
        (m11, "smooth", forms),
        (moved, "smooth", moved_forms),
    ):
        base = _image_masks_11(model, cols, route)
        scaled = _image_masks_11(model, cols * lams % 11, route)
        assert 0 < (base != 31).sum() < len(pairs)
        for (h, lam), b, s in zip(pairs, base, scaled):
            assert s == _permuted_mask(group, int(b), lam), (route, h, lam)


def _direct_mask(points, triggers, h):
    """The image mask of one form, point by point: full when h is a unit at
    a trigger point, else the coset bits of 1/h(P) over the unit values."""
    group = fifth_power_classes(11)
    if any(sum(c * x for c, x in zip(h, t)) % 11 for t in triggers):
        return 31
    mask = 0
    for pt in points:
        v = sum(c * x for c, x in zip(h, pt)) % 11
        if v:
            mask |= 1 << group.class_index(pow(v, -1, 11))
    return mask


def _folds_high(points, h):
    """The folds k in {1, 2} that h needs: some unit value v of h is reached
    only through digit-pair sums a + b + c = v + 11k, so the kernel loses
    it without the shift by 11k."""
    folds = {}
    for pt in points:
        s = sum(sum(c * x for c, x in zip(h[i : i + 2], pt[i : i + 2])) % 11 for i in (0, 2, 4))
        folds.setdefault(s % 11, set()).add(s // 11)
    return {k for v, ks in folds.items() if v and len(ks) == 1 for k in ks} - {0}


def _without_triggers(r):
    # the route with its value points only, so every form is evaluated
    return obstruction._build_route_11(r.l1, r.values, r.fixed[:0], "test")


def _image_masks_11(model, forms, route):
    # the masks of the columns of ``forms``, row 0 of their orbit masks; the
    # route is looked up at call time, so an injected route is the one read
    return _orbit_masks_11(obstruction._route_11(model, route), forms)[0]


def _inject_route(monkeypatch, edit):
    """Make ``obstruction._route_11`` return the real route with its points
    replaced by ``edit(route, values, triggers)``, rebuilt through
    ``_build_route_11`` on every call, so its l1 checks guard every cut,
    doubled or extra-trigger route."""
    real = obstruction._route_11

    def injected(model, route):
        r = real(model, route)
        values, triggers = edit(route, r.values, r.fixed)
        return obstruction._build_route_11(r.l1, values, triggers, route)

    monkeypatch.setattr(obstruction, "_route_11", injected)


def _cut_chart(route, values, triggers):
    # with 12 value points the trigger decides masks that evaluation leaves partial
    return values[:12], triggers


def test_mask_kernel_matches_a_direct_evaluation(m11, monkeypatch):
    rng = random.Random(513)
    matrix = _random_invertible_mod11(rng)
    moved = transformed_model_mod11(m11, matrix)
    forms = []
    while len(forms) < 320:
        h = [rng.randrange(11) for _ in range(6)]
        if len(forms) % 2:
            h[2] = h[4] = h[5] = 0  # z-free forms have partial images
        if any(h):
            forms.append(h)
    assert sum(h[5] != 0 for h in forms) > 100
    # the form h reads h * matrix in the moved coordinates
    moved_forms = (np.array(forms) @ np.array(matrix) % 11).tolist()
    high_folds = 0
    for model, route, forms in (
        (m11, "chart", forms),
        (m11, "smooth", forms),
        (moved, "smooth", moved_forms),
        (m11, "cut chart", forms),
    ):
        if route == "cut chart":
            route = "chart"
            _inject_route(monkeypatch, _cut_chart)
        cols = np.array(forms, dtype=np.int32).T
        r = obstruction._route_11(model, route)
        values, triggers = r.values.tolist(), r.fixed.tolist()
        needed = [_folds_high(values, h) for h in forms]
        assert sum(1 in folds for folds in needed) > 20
        high_folds += sum(2 in folds for folds in needed)
        masks = {
            True: _image_masks_11(model, cols, route).tolist(),
            False: _orbit_masks_11(_without_triggers(r), cols)[0].tolist(),
        }
        for with_triggers, got in masks.items():
            expected = [_direct_mask(values, triggers if with_triggers else [], h) for h in forms]
            assert got == expected, (route, with_triggers)
            assert 0 < expected.count(31) < len(forms)
        assert (masks[True] != masks[False]) == (len(values) == 12)
        # the per-form image reads the same route: its classes are the mask,
        # its values the unit values h(P) unless a trigger fired
        per_form = inv_image_11 if route == "chart" else inv_image_11_smoothpath
        group = fifth_power_classes(11)
        for h, mask in zip(forms, masks[True]):
            image = per_form(model, h)
            assert sum(1 << group.classes.index(c) for c in image.classes) == mask, (route, h)
            if image.values is not None:
                units = {sum(c * x for c, x in zip(h, pt)) % 11 for pt in values} - {0}
                assert image.values == tuple(sorted(units)), (route, h)
    # a sum a + b + c >= 22 decides some value, most of them on the cut chart
    assert high_folds > 20


def test_orbit_masks_equal_a_direct_evaluation_of_every_translate(m11, monkeypatch):
    # row c of the orbit masks of a base b is the mask of b + c*l1, read
    # through one value set of b; the oracle evaluates every translate alone
    rng = random.Random(514)
    matrix = _random_invertible_mod11(rng)
    moved = transformed_model_mod11(m11, matrix)
    forms = []
    while len(forms) < 40:
        h = [rng.randrange(11) for _ in range(6)]
        if len(forms) % 2:
            h[2] = h[4] = h[5] = 0  # z-free forms have partial images
        if any(h):
            forms.append(h)
    cases = (
        (m11, "chart", None),
        (m11, "smooth", None),
        (moved, "smooth", None),
        (m11, "chart", _cut_chart),
    )
    for model, route, patch in cases:
        if patch is not None:
            _inject_route(monkeypatch, patch)
        r = obstruction._route_11(model, route)
        values, triggers = r.values.tolist(), r.fixed.tolist()
        l1 = np.array([c % 11 for c in model.l1])
        pivot = int(np.flatnonzero(l1)[0])
        cols = np.array(forms).T
        if model is moved:
            # the form h reads h * matrix in the moved coordinates
            cols = np.array(matrix).T @ cols % 11
        bases = (cols - cols[pivot] * pow(int(l1[pivot]), -1, 11) * l1[:, None]) % 11
        assert not bases[pivot].any()
        masks = obstruction._orbit_masks_11(r, bases)
        translates = [(bases + c * l1[:, None]) % 11 for c in range(11)]
        expected = [
            [_direct_mask(values, triggers, h) for h in t.T.tolist()] for t in translates
        ]
        assert masks.tolist() == expected, (route, patch)
        # the per-form masks read the same rows
        per_form = _image_masks_11(model, np.hstack(translates), route).reshape(11, -1)
        assert per_form.tolist() == expected, (route, patch)
        assert 0 < (masks == 31).sum() < masks.size
        # the rows of an orbit differ, so the shift is read, not ignored
        assert any(len(set(masks[:, j].tolist())) > 1 for j in range(masks.shape[1]))
        monkeypatch.undo()


def test_a_value_point_off_l1_equal_one_is_refused(m11, monkeypatch):
    # the translation law needs l1(P) = 1 at every value point: doubled
    # points would shift every translate, so the route raises instead
    firsts = {route: obstruction._route_11(m11, route).values[0] for route in ("chart", "smooth")}
    _inject_route(monkeypatch, lambda route, values, triggers: (values * 2 % 11, triggers))
    for route in ("chart", "smooth"):
        first = firsts[route] * 2 % 11
        message = rf"value point {re.escape(str(first.tolist()))} of the {route} route has l1 = 2"
        with pytest.raises(FiberInconsistencyError, match=message):
            _image_masks_11(m11, _representatives_11((1,)), route)
    # the census reads the chart table, not a route
    assert census_11(m11)["obstructing"] == 228
    with pytest.raises(FiberInconsistencyError, match="value point"):
        census_11_smoothpath(m11)
    with pytest.raises(FiberInconsistencyError, match="value point"):
        path_agreement_check(m11)


def test_a_trigger_point_off_l1_equal_zero_is_refused(m11, monkeypatch):
    # a trigger off {l1 = 0} would fire on some translates h + c*l1 of a
    # form and not on others, so the route raises, naming the point
    off_line = np.array([[3, 1, 4, 1, 5, 9], [2, 7, 1, 8, 2, 8]], dtype=np.int32)
    _inject_route(monkeypatch, lambda route, values, triggers: (values, np.vstack([triggers, off_line])))
    for route in ("chart", "smooth"):
        message = rf"trigger point \[3, 1, 4, 1, 5, 9\] of the {route} route has l1 = 3, not 0"
        with pytest.raises(FiberInconsistencyError, match=message):
            _image_masks_11(m11, _representatives_11((1,)), route)
    with pytest.raises(FiberInconsistencyError, match="trigger point"):
        inv_image_11(m11, HEADLINE_H)
    with pytest.raises(FiberInconsistencyError, match="trigger point"):
        inv_image_11_smoothpath(m11, HEADLINE_H)
    with pytest.raises(FiberInconsistencyError, match="trigger point"):
        census_11_smoothpath(m11)


def test_the_chart_route_is_checked_when_it_is_built(m11, monkeypatch):
    # the law check runs once per route, when it is built: the chart route
    # built from doubled chart points is refused, and nothing is cached
    points, tangents = obstruction._chart_tables(11)
    monkeypatch.setattr(obstruction, "_chart_tables", lambda p: (points * 2 % 11, tangents))
    obstruction._chart_route_11.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(FiberInconsistencyError, match="value point .* chart route has l1 = 2"):
                inv_image_11(m11, HEADLINE_H)
    finally:
        monkeypatch.undo()
        obstruction._chart_route_11.cache_clear()
    assert obstruction._route_11(m11, "chart") is obstruction._route_11(m11, "chart")


def test_the_smooth_route_cache_tells_l1_apart(m11):
    # the same quadrics with l1 doubled have the same fiber but another
    # smooth route: its value points are scaled by 1/(2 l1)
    doubled_l1 = [2 * c for c in m11.l1]
    doubled = DelPezzoModel("doubled", m11.spec, m11.quadrics, doubled_l1, m11.l2)
    for first, second in ((m11, doubled), (doubled, m11)):
        obstruction._FIBER_CACHE.clear()
        obstruction._route_11(first, "smooth")
        r = obstruction._route_11(second, "smooth")
        assert r is obstruction._route_11(second, "smooth")
        l1 = np.array(second.l1) % 11
        assert (r.l1 == l1).all()
        assert (r.values @ l1 % 11 == 1).all() and not (r.fixed @ l1 % 11).any()
        assert len(r.values) and len(r.fixed)
    obstruction._FIBER_CACHE.clear()


@pytest.mark.parametrize("moved", [False, True], ids=["zeta11plus", "moved"])
def test_the_smooth_route_is_the_fiber_tuples_in_order(m11, moved):
    # the route read off the fiber array and its singular mask is, byte for
    # byte, the route of the sorted fiber tuples less the singular ones
    model = transformed_model_mod11(m11, _random_invertible_mod11(random.Random(79))) if moved else m11
    points = enumerate_fiber(model, 11)
    singular = set(singular_points(model, 11, points))
    smooth = np.array([pt for pt in points if pt not in singular], dtype=np.int32)
    l1 = np.array(model.l1, dtype=np.int32) % 11
    l1v = smooth @ l1 % 11
    scale = np.array([pow(int(v), -1, 11) for v in l1v[l1v != 0]], dtype=np.int32)
    expected = obstruction._build_route_11(l1, smooth[l1v != 0] * scale[:, None] % 11, smooth[l1v == 0], "smooth")
    obstruction._FIBER_CACHE.clear()
    route = obstruction._route_11(model, "smooth")
    for name in ("values", "fixed", "bases"):
        got, want = getattr(route, name), getattr(expected, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
    assert len(route.values) and len(route.fixed)
    obstruction._FIBER_CACHE.clear()


def _cut_chart_table(monkeypatch, cut):
    """Make ``census_11`` read the rows ``cut(points)`` of the chart table;
    the chart certificate of ``fibers.verify_chart`` reads its own table.
    Returns the rows and the first depressed cubic (d, b, 0, 0, 0, 1), in
    the order d + 11b, whose image on them is partial."""
    points, tangents = obstruction._chart_tables(11)
    rows = cut(points)
    monkeypatch.setattr(obstruction, "_chart_tables", lambda p: (rows, tangents))
    cubics = [(d, b, 0, 0, 0, 1) for b in range(11) for d in range(11)]
    return rows, next(h for h in cubics if _direct_mask(rows.tolist(), [], h) != 31)


def test_a_partial_u5_form_fails_the_fullness_check(m11, monkeypatch):
    # on the first 12 rows of the table some depressed cubic has a partial
    # image; the check, which runs before the count, names the first one
    rows, first = _cut_chart_table(monkeypatch, lambda points: points[:12])
    with pytest.raises(FiberInconsistencyError, match=rf"form {re.escape(str(first))} failed the fullness claim"):
        census_11(m11, validate_surjectivity=True)
    # on the two rows with z = 0 a linear form can miss 1 and 10: the shape
    # check refuses it, naming the first such form
    with pytest.raises(FiberInconsistencyError, match="is neither a constant nor") as err:
        census_11(m11)
    form = tuple(int(c) for c in re.search(r"form \(([^)]*)\)", str(err.value)).group(1).split(","))
    h0, h1, h2, h3, h4, h5 = form
    assert h2 == h4 == h5 == 0 and (h1, h3) != (0, 0)
    assert h3 == 0 or (h1 * h1 - 4 * h0 * h3) % 11 == 0
    assert not {sum(c * x for c, x in zip(form, pt)) % 11 for pt in rows.tolist() if pt[2] == 0} & {1, 10}


def test_the_census_reads_the_z_free_forms_at_the_rows_with_z_zero(m11, monkeypatch):
    # the count reads only the 11 rows with z = 0, so it is unchanged on
    # them; the u5 check reads every row, and there some cubic is partial
    classes = census_11(m11)["obstructing_classes"]
    _, first = _cut_chart_table(monkeypatch, lambda points: points[points[:, 2] == 0])
    assert census_11(m11)["obstructing_classes"] == classes
    with pytest.raises(FiberInconsistencyError, match=rf"form {re.escape(str(first))} failed the fullness claim"):
        census_11(m11, validate_surjectivity=True)


def _y_translate(h, s):
    """T_s^T h mod 11, the form whose value at P(y, z) is h(P(y + s, z)),
    from the binomial expansion of the chart terms (1, y, z, y^2, yz,
    y^3 + z^2)."""
    h0, h1, h2, h3, h4, h5 = h
    return (
        (h0 + s * h1 + s * s * h3 + s ** 3 * h5) % 11,
        (h1 + 2 * s * h3 + 3 * s * s * h5) % 11,
        (h2 + s * h4) % 11,
        (h3 + 3 * s * h5) % 11,
        h4 % 11,
        h5 % 11,
    )


def _depressed_cubics(forms):
    """(d, b) of the depressed cubic y^3 + b*y + d + z^2 of each column of
    ``forms`` with u5 = 1, as ``census_11`` reduces it: z -> z - (h2 +
    h4*y)/2 leaves y^3 + a*y^2 + b'*y + d' + z^2, and y -> y - a/3 with
    t = a/3 leaves b = b' - 3t^2 and d = d' - b't + 2t^3."""
    h0, h1, h2, h3, h4, _ = forms.astype(np.int64)
    quarter, third = pow(4, -1, 11), pow(3, -1, 11)
    a = (h3 - h4 * h4 * quarter) % 11
    b1 = (h1 - 2 * h2 * h4 * quarter) % 11
    d1 = (h0 - h2 * h2 * quarter) % 11
    t = a * third % 11
    return (d1 - b1 * t + 2 * t ** 3) % 11, (b1 - 3 * t * t) % 11


def test_u5_forms_have_the_image_of_their_depressed_cubic(m11):
    # the oracle of the reduction that lets census_11 check its u5 rule on
    # 121 cubics: each of the 161,051 forms with u5 = 1 has the mask of its
    # depressed cubic on the mask kernel of the chart route, read without
    # the trigger so that every form is evaluated (on the chart all are
    # full); the two moves permute the chart points, so the 121 values of
    # the form are those of its cubic, counted with multiplicity
    # six products of residues below 11 per value: int16 is exact
    points = obstruction._chart_tables(11)[0].astype(np.int16)
    r = _without_triggers(obstruction._route_11(m11, "chart"))
    cubics = np.zeros((6, 121), dtype=np.int32)
    cubics[[0, 1]] = obstruction._digit_columns(np.arange(121), 11, 2)
    cubics[5] = 1
    cubic_values = np.sort(points @ cubics.astype(np.int16) % 11, axis=0)
    cubic_masks = _orbit_masks_11(r, cubics)[0]
    assert (cubic_masks == 31).all()
    forms = obstruction._digit_columns(11 ** 5 + np.arange(11 ** 5), 11, 6)
    d, b = _depressed_cubics(forms)
    assert np.array_equal(_orbit_masks_11(r, forms)[0], cubic_masks[d + 11 * b])
    for chunk in np.array_split(np.arange(forms.shape[1]), 11):
        values = np.sort(points @ forms[:, chunk].astype(np.int16) % 11, axis=0)
        assert np.array_equal(values, cubic_values[:, d[chunk] + 11 * b[chunk]])
    # the y-translation law holds for every form, partial images included:
    # h and T_s^T h have the same value set on the chart route
    route = obstruction._route_11(m11, "chart")
    rng = random.Random(31)
    forms = [[rng.randrange(11) for _ in range(6)] for _ in range(300)]
    for h in forms[1::2]:
        h[2] = h[4] = h[5] = 0  # z-free forms have partial images
    sets = obstruction._value_sets(route.value_tables, np.array(forms, dtype=np.int32).T)
    assert (obstruction._TRANSLATED_MASKS_11[0, sets] != 31).sum() > 50
    for s in range(1, 11):
        moved = np.array([_y_translate(h, s) for h in forms], dtype=np.int32).T
        assert (obstruction._value_sets(route.value_tables, moved) == sets).all()


def test_pair_tables_are_the_direct_formula(m11):
    # entry [i, f + 11g, k] is 1 << (f P_2i + g P_2i+1 mod 11) at the k-th
    # point, on both routes and on random points
    rng = random.Random(121)
    point_sets = [obstruction._route_11(m11, route).values for route in ("chart", "smooth")]
    point_sets.append(np.array([[rng.randrange(11) for _ in range(6)] for _ in range(40)], dtype=np.int32))
    digits = list(product(range(11), repeat=2))  # (g, f) of row f + 11g
    for points in point_sets:
        tables = obstruction._pair_tables(points)
        expected = [
            [[1 << (f * pt[2 * i] + g * pt[2 * i + 1]) % 11 for pt in points.tolist()] for g, f in digits]
            for i in range(3)
        ]
        assert tables.dtype == np.uint32 and not tables.flags.writeable
        assert tables.tolist() == expected


def test_fullness_witnesses_are_the_shifted_values(m25):
    # h(x) + c is a unit mod 5 where h(x) mod 5 is not -c: byte for byte
    # the test on the shifted values, over random forms mod 25
    rng = random.Random(25)
    forms = np.array([[rng.randrange(25) for _ in range(400)] for _ in range(6)])
    pairings, witnesses = obstruction._fullness_witnesses_25(forms)
    values = np.array(CHART_5) @ forms
    expected = np.array([(values + c) % 5 != 0 for c in range(5)]) & pairings.any(axis=1)
    assert witnesses.shape == expected.shape == (5, 25, 400)
    assert witnesses.tobytes() == expected.tobytes()
    assert 0 < witnesses.sum() < witnesses.size


def test_two_verdicts_solve_the_mod_2_fiber_once(m11, fiber_solves):
    # the mod-2 witness of locally_soluble reads the cached fiber
    for h in (HEADLINE_H, (0, 1, 0, -7, 0, 0)):
        assert verdict(m11, h).solubility.soluble
    assert fiber_solves[m11.quadrics, 2] == 1 and set(fiber_solves.values()) == {1}


@pytest.mark.parametrize("rows", [2, 6])
def test_tangent_check_pairs_each_tail_once(m25, monkeypatch, rows):
    # with a chart cut down to its first one or three points some directions
    # have no witness; the check over the 3,124 tails, shifted by h0, must
    # give the counts and the failures, in index order, of a direct witness
    # search over all 15,625 forms
    points, tangents = (table[: rows // 2] for table in obstruction._chart_tables(5))
    monkeypatch.setattr(obstruction, "_chart_tables", lambda p: (points, tangents))
    directions = surjective = 0
    failures = []
    for j in range(5 ** 6):
        h = tuple(j // 5 ** i % 5 for i in range(6))
        if not any(h[1:]):
            continue
        directions += 1
        if _direct_witnesses(h, points[:, 1:3].tolist()):
            surjective += 1
        else:
            failures.append(h)
    assert failures and any(h[0] for h in failures)
    assert tangent_surjectivity_check(m25) == {
        "directions": directions,
        "surjective": surjective,
        "failures": tuple(failures),
    }


def test_triggers_decide_before_values(m11):
    # a fired trigger gives the full mask whatever the values, so evaluating
    # only the unfired forms must change no mask
    reps = _representatives_11()
    moved = transformed_model_mod11(m11, _random_invertible_mod11(random.Random(8)))
    for model, route in ((m11, "chart"), (m11, "smooth"), (moved, "smooth")):
        r = obstruction._route_11(model, route)
        fired = (reps.T @ r.fixed.T % 11 != 0).any(axis=1)
        assert 0 < fired.sum() < reps.shape[1]
        evaluated = _orbit_masks_11(_without_triggers(r), reps)[0]
        masks = _image_masks_11(model, reps, route)
        assert np.array_equal(masks, np.where(fired, 31, evaluated)), route


def test_representative_masks_are_pinned(m11):
    reps = _representatives_11()
    for route in ("chart", "smooth"):
        masks = _image_masks_11(m11, reps, route).astype(np.uint8)
        assert hashlib.sha256(masks.tobytes()).hexdigest() == REPRESENTATIVE_MASKS_SHA256, route


def test_representatives_times_units_cover_every_form_once():
    reps = _representatives_11()
    assert reps.shape == (6, 177156)
    last_nonzero = 5 - np.argmax(reps[::-1] != 0, axis=0)
    assert (reps[last_nonzero, np.arange(reps.shape[1])] == 1).all()
    covered = np.sort(_POWERS_11 @ _scalings_11(reps).reshape(6, -1))
    assert np.array_equal(covered, np.arange(1, 11 ** 6))


def test_representative_weights_count_obstructing_scalings(m11):
    rng = random.Random(512)
    reps = _representatives_11()
    picks = [rng.randrange(reps.shape[1]) for _ in range(20)]
    # the u5-free, z-free representatives include every partial image
    picks += list(np.flatnonzero(~reps[[2, 4, 5]].any(axis=0))[::15])
    masks = _image_masks_11(m11, reps[:, picks], "smooth")
    weights = set()
    for j, mask in zip(picks, masks):
        r = tuple(int(c) for c in reps[:, j])
        size = bin(int(mask)).count("1")
        assert size == inv_image_11_smoothpath(m11, r).size
        omitted = sum(
            not inv_image_11_smoothpath(m11, tuple(lam * c for c in r)).contains_zero
            for lam in range(1, 11)
        )
        assert omitted == 10 - 2 * size, r
        weights.add(omitted)
    assert {0, 2, 8} <= weights


def _cut_smooth_route(monkeypatch, values=None, triggers=None):
    """Keep only the first ``values`` value points and ``triggers`` trigger
    points of the smooth route (None keeps them all)."""

    def cut(route, points, fixed):
        if route == "smooth":
            return points[:values], fixed[:triggers]
        return points, fixed

    _inject_route(monkeypatch, cut)


def _assert_exhaustive_matches_sampled(m11):
    # the oracle: both routes' masks of 20,000 seeded forms, form by form
    exhaustive = path_agreement_check(m11)
    bad = set(exhaustive["disagreements"])
    assert exhaustive["checked"] == CENSUS_11_TOTAL
    assert 0 < len(bad) < CENSUS_11_TOTAL and len(bad) % 10 == 0
    assert list(exhaustive["disagreements"]) == sorted(bad)
    indices = np.random.default_rng(3).integers(1, 11 ** 6, size=20000, dtype=np.int64)
    forms = indices // 11 ** np.arange(6)[:, None] % 11
    differ = _image_masks_11(m11, forms, "chart") != _image_masks_11(m11, forms, "smooth")
    sampled = indices[differ].tolist()
    assert [int(i) for i in indices if int(i) in bad] == sampled
    assert sampled
    return bad


def test_exhaustive_agreement_reports_every_scaling(m11, monkeypatch):
    # a smooth route cut down to 40 value points disagrees with the chart on
    # some forms; both routes' masks of single forms are the oracle
    _cut_smooth_route(monkeypatch, values=40)
    _assert_exhaustive_matches_sampled(m11)


def test_exhaustive_agreement_covers_both_unfired_sets(m11, monkeypatch):
    # with one trigger point the smooth route leaves 16,105 representatives
    # unfired, not the chart's u5-free ones, so the union of the two sets
    # holds forms that fire on one route only; 40 value points make some of
    # those disagree
    _cut_smooth_route(monkeypatch, values=40, triggers=1)
    chart, smooth = (
        set(_POWERS_11 @ _unfired_representatives_11(obstruction._route_11(m11, r).fixed))
        for r in ("chart", "smooth")
    )
    assert len(chart) == len(smooth) == 16105 and chart != smooth
    bad = _assert_exhaustive_matches_sampled(m11)
    # forms with a u5 term fire on the chart route only
    assert any(i >= 11 ** 5 for i in bad)


def _kernel_oracle(triggers):
    """Base-11 numbers of the representatives vanishing at every trigger."""
    reps = _representatives_11()
    return _POWERS_11 @ reps[:, ~(reps.T @ triggers.T % 11).any(axis=1)]


def test_unfired_representatives_are_the_trigger_kernel(m11):
    rng = random.Random(10)
    moved = [transformed_model_mod11(m11, _random_invertible_mod11(rng)) for _ in range(2)]
    cases = [(m11, "chart"), (m11, "smooth")] + [(m, "smooth") for m in moved]
    for model, route in cases:
        triggers = obstruction._route_11(model, route).fixed
        reps = _unfired_representatives_11(triggers)
        last_nonzero = 5 - np.argmax(reps[::-1] != 0, axis=0)
        assert (reps[last_nonzero, np.arange(reps.shape[1])] == 1).all(), route
        numbers = _POWERS_11 @ reps
        assert len(set(numbers.tolist())) == reps.shape[1]
        assert np.array_equal(np.sort(numbers), np.sort(_kernel_oracle(triggers))), route
    assert _unfired_representatives_11(obstruction._route_11(m11, "smooth").fixed).shape == (6, 1464)


@pytest.mark.parametrize("triggers", ["none", "spanning"])
def test_smooth_census_scans_the_kernel_at_its_extremes(m11, monkeypatch, triggers):
    # no trigger points leave every representative unfired (the values
    # alone still give 228); triggers that span {l1 = 0} = {u0 = 0} fire on
    # every form but the multiples of l1, whose mask is the identity coset,
    # so eight of the ten multiples obstruct
    assert [c % 11 for c in m11.l1] == [1, 0, 0, 0, 0, 0]
    rows = np.eye(6, dtype=np.int32)[6 if triggers == "none" else 1 :]
    _inject_route(monkeypatch, lambda route, values, fixed: (values, rows))
    unfired = _unfired_representatives_11(rows)
    assert unfired.shape == ((6, 177156) if triggers == "none" else (6, 1))
    masks = _image_masks_11(m11, _representatives_11(), "smooth")
    full_scan = int(obstruction._obstructing_scalings(masks).sum())
    assert census_11_smoothpath(m11)["obstructing"] == full_scan
    assert full_scan == (228 if triggers == "none" else 8)


def test_unramified_invariants(m11, m25):
    inert = unramified_invariant_check(m11, 7)
    assert inert["splitting"] == "inert"
    assert inert["line_vanishing_points"] == 0
    assert inert["invariant_trivial"]
    split = unramified_invariant_check(m11, 23)
    assert split["splitting"] == "split"
    assert split["invariant_trivial"]
    with pytest.raises(DomainError, match="^11 ramifies in K, so its invariant is not checked here$"):
        unramified_invariant_check(m11, 11)
    # 7 splits completely in the zeta25 field (7^2 = -1 mod 25) but divides
    # the index of Z[a]: disc m = 5^8 7^6, so m is inseparable mod 7, and 7
    # is not among the ramified primes
    assert discriminant(m25.spec.coefficients) == 5 ** 8 * 7 ** 6
    with pytest.raises(DomainError, match=r"^7 is unramified in K but divides the index \[O_K : Z\[a\]\]$"):
        unramified_invariant_check(m25, 7)


def _within(seconds, call, *args):
    """call(*args), or TimeoutError when it has not returned after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return call(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("p", [-7, -1, 0, 1, 4, 9, 25])
def test_a_non_prime_is_refused_before_the_reduction(m11, p):
    # the alarm bounds the call: unchecked, -7 makes ``_fpq_pow`` loop forever
    for call, arg in ((minpoly_splitting_mod_p, m11.spec), (unramified_invariant_check, m11)):
        with pytest.raises(DomainError, match=f"^{p} is not prime$"):
            _within(5, call, arg, p)


def test_split_primes_above_the_enumeration_bound_are_answered(m11):
    # the prime check applies no enumeration bound: a split prime above it
    # needs no fiber
    assert unramified_invariant_check(m11, 199)["splitting"] == "split"


def test_caches_stay_bounded_across_invariance_checks(m11):
    # fill the fiber cache with coordinate-changed models first, so the two
    # checks below push it past its cap
    rng = random.Random(1234)
    for _ in range(obstruction.CACHE_SIZE):
        moved = transformed_model_mod11(m11, _random_invertible_mod11(rng))
        obstruction._route_11(moved, "smooth")
        assert len(obstruction._FIBER_CACHE) <= obstruction.CACHE_SIZE
    for seed in (5, 6):
        report = obstruction.census_invariance_check(m11, transforms=1, seed=seed)
        assert report["base_count"] == 228
        assert report["transform_counts"] == (228,)
        assert len(obstruction._FIBER_CACHE) == obstruction.CACHE_SIZE
    obstruction._FIBER_CACHE.clear()
    assert len(obstruction._FIBER_CACHE) == 0
