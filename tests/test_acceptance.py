"""Acceptance gate: the eleven published-result criteria.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line directly to the
terminal (outside pytest's capture) and then asserts, so the scoreboard is
visible in any run and a failure still pinpoints its criterion.  Budgets
are wall-clock seconds and generous compared to observed times.
"""

import random
import time

from dp5brauer import fibers, model, numberfield, obstruction, picard, verify
from dp5brauer.cli import main as cli_main
from dp5brauer.intlinalg import (
    IntMatrix,
    det,
    elementary_divisors,
    hnf,
    saturated_kernel,
    snf,
)

QUOTIENT_MATRIX = [[2, 1, 1, 3], [-1, -1, 0, -1], [-1, -1, -1, -1], [-1, 0, -1, -1]]


def _report(capsys, number, checks, elapsed, budget):
    checks = list(checks) + [(f"within {budget}s (took {elapsed:.1f}s)", elapsed < budget)]
    ok = all(flag for _, flag in checks)
    with capsys.disabled():
        print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}")
    failed = [label for label, flag in checks if not flag]
    assert not failed, f"criterion {number} failed: {failed}"


def test_acceptance_1_cohomology(capsys):
    start = time.monotonic()
    quotient = IntMatrix(QUOTIENT_MATRIX)
    divisors = picard.h1_cyclic(quotient)
    basis = picard.image_lattice_hnf(quotient)
    derived = picard.pic_u_action(picard.interesting_sigma())
    checks = [
        ("h1 is Z/5Z", divisors == (5,)),
        (
            "image lattice basis",
            basis.to_lists()
            == [[1, 0, 0, 2], [0, 1, 0, 4], [0, 0, 1, 4], [0, 0, 0, 5]],
        ),
        ("derived quotient action matches", derived.to_lists() == QUOTIENT_MATRIX),
        ("h1 of derived action", picard.h1_cyclic(derived, order=5) == (5,)),
    ]
    _report(capsys, 1, checks, time.monotonic() - start, 1.0)


def test_acceptance_2_lattice(capsys):
    start = time.monotonic()
    classes = picard.minus_one_classes()
    graph = picard.petersen_graph(classes)
    action = picard.interesting_sigma()
    checks = [
        ("ten classes", len(classes) == 10),
        ("automorphism count 120", graph.automorphism_count == 120),
        ("form preserved", picard.preserves_pairing(action.matrix)),
        (
            "canonical class fixed",
            action.matrix.apply(picard.CANONICAL_CLASS) == picard.CANONICAL_CLASS,
        ),
    ]
    _report(capsys, 2, checks, time.monotonic() - start, 5.0)


def test_acceptance_3_zeta11plus_geometry(capsys, m11):
    start = time.monotonic()
    f2 = fibers.enumerate_fiber(m11, 2)
    on_class = all(
        m11.hyperplane_value((0, 0, 1, 0, 0, 1), p) % 2 == 0 for p in f2
    )
    ramified = fibers.classify_fiber(m11, 11)
    line_points = set(ramified.lines[0].points) if ramified.lines else set()
    chart = fibers.verify_chart(m11)
    f23 = fibers.classify_fiber(m11, 23)
    f7 = fibers.classify_fiber(m11, 7)
    checks = [
        ("five F2-points", len(f2) == 5),
        ("F2-points on u2+u5", on_class),
        ("one singular point at 11", len(ramified.singular) == 1),
        ("one line at 11", len(ramified.lines) == 1),
        (
            "singular point on the line",
            bool(ramified.singular) and ramified.singular[0] in line_points,
        ),
        ("chart certificate", chart.identity_ok and chart.injective),
        ("645 points at 23", f23.point_count == 645),
        ("ten lines at 23", len(f23.lines) == 10),
        ("50 points at 7", f7.point_count == 50),
        ("no lines at 7", len(f7.lines) == 0),
    ]
    _report(capsys, 3, checks, time.monotonic() - start, 120.0)


def test_acceptance_4_zeta25_geometry(capsys, m25):
    start = time.monotonic()
    f2 = fibers.enumerate_fiber(m25, 2)
    on_class = all(
        m25.hyperplane_value((0, 0, 1, 1, 0, 0), p) % 2 == 0 for p in f2
    )
    ramified = fibers.classify_fiber(m25, 5)
    line_points = set(ramified.lines[0].points) if ramified.lines else set()
    chart = fibers.verify_chart(m25)
    checks = [
        ("five F2-points", len(f2) == 5),
        ("F2-points on u2+u3", on_class),
        ("one singular point at 5", len(ramified.singular) == 1),
        ("one line at 5", len(ramified.lines) == 1),
        (
            "singular point on the line",
            bool(ramified.singular) and ramified.singular[0] in line_points,
        ),
        ("chart certificate", chart.identity_ok and chart.injective),
    ]
    _report(capsys, 4, checks, time.monotonic() - start, 30.0)


def test_acceptance_5_census_11(capsys, m11):
    start = time.monotonic()
    single_start = time.monotonic()
    single = obstruction.census_11(m11, jobs=1)
    single_elapsed = time.monotonic() - single_start
    eight_start = time.monotonic()
    eight = obstruction.census_11(m11, jobs=8)
    eight_elapsed = time.monotonic() - eight_start
    expected_breakdown = {"constant": 8, "separable_quadratic": 220}
    checks = [
        ("total 1771560", single["total"] == 1771560),
        ("228 obstructing", single["obstructing"] == 228),
        ("breakdown 8+220", single["breakdown"] == expected_breakdown),
        (
            "classification formula agrees",
            single["formula_breakdown"] == expected_breakdown,
        ),
        ("worker count independent", eight["obstructing_classes"] == single["obstructing_classes"]),
        (f"single-threaded < 300s ({single_elapsed:.1f}s)", single_elapsed < 300.0),
        (f"8 workers < 60s ({eight_elapsed:.1f}s)", eight_elapsed < 60.0),
    ]
    _report(capsys, 5, checks, time.monotonic() - start, 360.0)


def test_acceptance_6_census_25(capsys, m25):
    start = time.monotonic()
    census = obstruction.census_25(m25)
    tangent = obstruction.tangent_surjectivity_check(m25)
    checks = [
        ("176 obstructing", census["obstructing"] == 176),
        (
            "breakdown 16+160",
            census["breakdown"] == {"constant": 16, "image_size_3": 160},
        ),
        ("total 244125000", census["total"] == 244125000),
        ("15620 directions checked", tangent["directions"] == 15620),
        (
            "tangent surjectivity",
            tangent["surjective"] == tangent["directions"] and not tangent["failures"],
        ),
    ]
    _report(capsys, 6, checks, time.monotonic() - start, 120.0)


def test_acceptance_7_verdicts(capsys, m11, m25):
    start = time.monotonic()
    obstructed = obstruction.verdict(m25, (2, -15, 0, 10, 0, 0))
    trivial = obstruction.verdict(m11, m11.l1)
    insoluble = obstruction.verdict(m25, (0, 0, 1, 1, 0, 0))
    checks = [
        ("obstruction verdict", obstructed.verdict == "obstruction_order_5"),
        ("image values {2,12,22}", obstructed.images[5].values == (2, 12, 22)),
        ("l1 gives the trivial class", trivial.verdict == "trivial_brauer_class"),
        ("forbidden residue is insoluble", insoluble.verdict == "no_adelic_points"),
        ("failing place 2", insoluble.solubility.failing_place == 2),
    ]
    _report(capsys, 7, checks, time.monotonic() - start, 10.0)


def test_acceptance_8_construction(capsys, m11, built11):
    start = time.monotonic()
    quintic = saturated_kernel(model.double_vanishing_matrix(m11.spec))
    counts_match = True
    for p in (2, 3, 7, 23):
        if len(fibers.enumerate_fiber(built11, p)) != len(
            fibers.enumerate_fiber(m11, p)
        ):
            counts_match = False
    checks = [
        ("quintic system rank 6", quintic is not None and quintic.rows == 6),
        ("five quadrics", len(built11.quadrics) == 5),
        (
            "two rational line products",
            len({built11.l1, built11.l2}) == 2,
        ),
        ("fiber counts match at 2,3,7,23", counts_match),
    ]
    _report(capsys, 8, checks, time.monotonic() - start, 60.0)


def test_acceptance_9_galois(capsys, m11, m25):
    start = time.monotonic()
    alpha = m11.spec.generator()
    conj11 = numberfield.galois_conjugates(m11.spec)
    conj25 = numberfield.galois_conjugates(m25.spec)
    asc25 = m25.spec.ascending()
    checks = [
        ("sigma(alpha) = alpha^2 - 2", alpha * alpha - 2 in conj11),
        ("four conjugates for the second field", len(set(conj25)) == 4),
        (
            "conjugates satisfy the minimal polynomial",
            all(numberfield.evaluate_poly(asc25, c) == 0 for c in conj25),
        ),
    ]
    _report(capsys, 9, checks, time.monotonic() - start, 30.0)


def test_acceptance_10_property_suites(capsys, m11, m25):
    start = time.monotonic()
    rng = random.Random(1010)
    group11 = obstruction.fifth_power_classes(11)
    group25 = obstruction.fifth_power_classes(25)

    scaling_ok = True
    for _ in range(500):
        hbar = tuple(rng.randrange(11) for _ in range(6))
        if not any(hbar):
            continue
        lam = rng.randrange(1, 11)
        base = obstruction.inv_image_11(m11, hbar)
        scaled = obstruction.inv_image_11(m11, tuple(lam * c % 11 for c in hbar))
        want = {
            group11.class_of(pow(lam, -1, 11) * cls[0] % 11) for cls in base.classes
        }
        if set(scaled.classes) != want or scaled.contains_zero != (
            group11.class_of(lam) in base.classes
        ):
            scaling_ok = False
    for _ in range(500):
        h = tuple(rng.randrange(25) for _ in range(6))
        if not any(c % 5 for c in h):
            continue
        lam = rng.choice([v for v in range(1, 25) if v % 5])
        base = obstruction.inv_image_25(m25, h)
        scaled = obstruction.inv_image_25(m25, tuple(lam * c % 25 for c in h))
        want = {
            group25.class_of(pow(lam, -1, 25) * cls[0] % 25) for cls in base.classes
        }
        if set(scaled.classes) != want or scaled.contains_zero != (
            group25.class_of(lam) in base.classes
        ):
            scaling_ok = False

    agreement = obstruction.path_agreement_check(m11)
    invariance = obstruction.census_invariance_check(m11, transforms=3, seed=11)

    algebra_ok = True
    law_rng = random.Random(1011)
    for _ in range(1000):
        rows = law_rng.randint(1, 4)
        cols = law_rng.randint(1, 4)
        a = IntMatrix(
            [
                [law_rng.randint(-9, 9) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        h, u = hnf(a)
        if (u @ a) != h or abs(det(u)) != 1:
            algebra_ok = False
        s, left, right = snf(a)
        if (left @ a @ right) != s:
            algebra_ok = False
        if elementary_divisors(a) != elementary_divisors(a.transpose()):
            algebra_ok = False
        kernel = saturated_kernel(a)
        if kernel is not None:
            if any(
                any(x != 0 for x in a.apply(kernel.row(i)))
                for i in range(kernel.rows)
            ):
                algebra_ok = False
            if set(elementary_divisors(kernel)) != {1}:
                algebra_ok = False

    checks = [
        ("scaling equivariance, 500 pairs per modulus", scaling_ok),
        (
            "path agreement on all 1771560 forms",
            agreement["checked"] == 1771560 and agreement["disagreements"] == (),
        ),
        (
            "census invariant under 3 coordinate changes",
            invariance["all_match"]
            and invariance["transform_counts"] == (228, 228, 228),
        ),
        ("normal-form laws on 1000 matrices", algebra_ok),
    ]
    _report(capsys, 10, checks, time.monotonic() - start, 300.0)


def test_acceptance_11_flagged_claims(capsys, tmp_path):
    start = time.monotonic()
    report = verify.run_claims(fast=True)
    rows = {row["id"]: row for row in report["claims"]}
    headline = rows.get("headline-verdict-u1-minus-6u3", {})
    condition = rows.get("mod25-image-size-condition", {})
    headline_ok = (
        headline.get("status") == "flagged"
        and headline.get("expected") == "obstruction_order_5"
        and isinstance(headline.get("computed"), dict)
        and "chart_route_contains_zero" in headline["computed"]
        and "smooth_route_contains_zero" in headline["computed"]
        and headline["computed"]["routes_agree"] is True
    )
    condition_ok = (
        condition.get("status") == "flagged"
        and isinstance(condition.get("computed"), dict)
        and condition["computed"].get("census_obstructing") == 176
    )
    consistent = all(
        row["status"] in ("ok", "flagged")
        and (row["status"] != "ok" or row["expected"] == row["computed"])
        for row in report["claims"]
    )
    out_path = tmp_path / "verify.json"
    exit_code = cli_main(["verify-paper", "--fast", "--output", str(out_path)])
    checks = [
        ("headline claim flagged with both routes", headline_ok),
        ("image-size condition flagged, anchored by 176", condition_ok),
        ("no failures, table internally consistent", consistent and report["counts"]["fail"] == 0),
        ("command exits cleanly", exit_code == 0 and out_path.exists()),
    ]
    _report(capsys, 11, checks, time.monotonic() - start, 10.0)
