"""Replays every published quantity the package can recompute.

Each claim row records the published value, the freshly computed value, and
a status: "ok" when they agree, "fail" when they do not (or when the
computation raised), and "flagged" for the two claims whose published
statements disagree with the computations backing them.  Flagged rows never
fail the run; they document the discrepancy with both internal routes
spelled out.

`run_claims(fast=True)` trims the heavy cross-checks (census invariance,
the surjectivity sweep mod 11, the prime-23 fibers) while still touching
every public operation of every module; the full run replays everything.
"""

from __future__ import annotations

import time

from . import fibers, model, numberfield, obstruction, picard
from .intlinalg import IntMatrix

HEADLINE_H = (0, 1, 0, -6, 0, 0)
OBSTRUCTED_25_H = (2, -15, 0, 10, 0, 0)

# printed size condition for the proportional-to-u0 images mod 25, kept
# verbatim as the published side of the flagged claim
PRINTED_CONDITION_25 = (
    "image constant when 5 | c1, c3; otherwise of size 3"
)
RESOLVED_CONDITION_25 = (
    "with h = lam*u0 + 5*(c1 u1 + ... + c5 u5): size 1 iff c1..c5 all "
    "vanish; size 3 iff c2 = c4 = c5 = 0 and c3 != 0; size 5 otherwise"
)


class _Recorder:
    def __init__(self):
        self.rows = []

    def add(self, claim_id, expected, compute, status=None):
        """Run one claim; exceptions become failed rows, not crashes.

        ``status`` maps the computed value to the row status; by default the
        row is "ok" when the computed value equals the expected one.
        """
        try:
            computed = result = compute()
            if status is None:
                row_status = "ok" if computed == expected else "fail"
            else:
                row_status = status(computed)
        except Exception as exc:
            computed, result, row_status = f"{type(exc).__name__}: {exc}", None, "fail"
        self.rows.append(
            {"id": claim_id, "expected": expected, "computed": computed, "status": row_status}
        )
        return result


def _lattice_claims(rec):
    classes = picard.minus_one_classes()
    rec.add("minus-one-class-count", 10, lambda: len(classes))
    rec.add(
        "petersen-graph",
        {"edges": 15, "automorphisms": 120, "lattice_extensions": True},
        lambda: (lambda rep: {
            "edges": len(rep.edges),
            "automorphisms": rep.automorphism_count,
            "lattice_extensions": rep.lattice_extensions_ok,
        })(picard.petersen_graph(classes)),
    )
    action = picard.interesting_sigma()
    rec.add(
        "sigma-action",
        {
            "order": 5,
            "preserves_pairing": True,
            "fixes_canonical_class": True,
            "l0_image": [2, -1, -1, -1, 0],
        },
        lambda: {
            "order": picard.matrix_order(action.matrix),
            "preserves_pairing": picard.preserves_pairing(action.matrix),
            "fixes_canonical_class": action.matrix.apply(picard.CANONICAL_CLASS)
            == picard.CANONICAL_CLASS,
            "l0_image": list(action.matrix.apply((1, 0, 0, 0, 0))),
        },
    )
    quotient = picard.pic_u_action(action)
    rec.add("pic-u-action-order", 5, lambda: picard.matrix_order(quotient))
    rec.add("pic-u-h1", [5], lambda: list(picard.h1_cyclic(quotient, order=5)))
    rec.add(
        "one-minus-sigma-image-hnf",
        [[1, 0, 0, 2], [0, 1, 0, 4], [0, 0, 1, 4], [0, 0, 0, 5]],
        lambda: picard.image_lattice_hnf(quotient).to_lists(),
    )


def _galois_claims(rec, m11, m25):
    def sigma_is_alpha_squared_minus_2():
        spec = m11.spec
        alpha = spec.generator()
        return alpha * alpha - 2 in numberfield.galois_conjugates(spec)

    rec.add(
        "zeta11plus-conjugate-alpha-squared-minus-2",
        True,
        sigma_is_alpha_squared_minus_2,
    )
    rec.add(
        "zeta25-conjugate-count",
        4,
        lambda: len(numberfield.galois_conjugates(m25.spec)),
    )


def _construction_claims(rec, m11, fast):
    spec = m11.spec
    rec.add(
        "construct-minpoly",
        [1, 1, -4, -3, 3, 1],
        lambda: list(numberfield.zeta11_plus_field().coefficients),
    )
    built = {}

    def ranks():
        built["model"] = model.build_model(spec)
        return {
            "quintic": built["model"].system.basis.rows,
            "quadric": len(built["model"].quadrics),
        }

    rec.add("construct-kernel-ranks", {"quintic": 6, "quadric": 5}, ranks)
    if "model" not in built:
        return
    fresh = built["model"]
    rec.add(
        "construct-rational-products",
        {"count": 2, "proportional_mod_11": True},
        lambda: {
            "count": len({fresh.l1, fresh.l2}),
            "proportional_mod_11": tuple(c % 11 for c in fresh.l1)
            == tuple(c % 11 for c in fresh.l2),
        },
    )
    primes = (2, 3, 7) if fast else (2, 3, 7, 23)

    def fiber_match():
        out = {}
        for p in primes:
            out[str(p)] = [
                len(fibers.enumerate_fiber(m11, p)),
                len(fibers.enumerate_fiber(fresh, p)),
            ]
        return out

    expected_counts = {"2": [5, 5], "3": [10, 10], "7": [50, 50], "23": [645, 645]}
    rec.add(
        "construct-fiber-point-match",
        {str(p): expected_counts[str(p)] for p in primes},
        fiber_match,
    )


def _fixture_geometry_claims(rec, m11, m25, fast):
    def f2_report(m):
        fiber, forbidden = fibers.enumerate_fiber(m, 2), m.insolubility_class
        on_class = forbidden is not None and all(
            m.hyperplane_value(forbidden, pt) % 2 == 0 for pt in fiber
        )
        return {"points": len(fiber), "all_on_insolubility_class": on_class}

    rec.add(
        "zeta11plus-f2",
        {"points": 5, "all_on_insolubility_class": True},
        lambda: f2_report(m11),
    )
    rec.add(
        "zeta25-f2",
        {"points": 5, "all_on_insolubility_class": True},
        lambda: f2_report(m25),
    )

    def ramified_report(m, p):
        report = fibers.classify_fiber(m, p)
        line_points = set(report.lines[0].points) if report.lines else set()
        return {
            "classification": report.classification,
            "singular": len(report.singular),
            "lines": len(report.lines),
            "singular_on_line": bool(report.singular)
            and report.singular[0] in line_points,
        }

    ramified_expect = {
        "classification": "singular",
        "singular": 1,
        "lines": 1,
        "singular_on_line": True,
    }
    rec.add("zeta11plus-f11", ramified_expect, lambda: ramified_report(m11, 11))
    rec.add("zeta25-f5", ramified_expect, lambda: ramified_report(m25, 5))

    def chart_report(m):
        cert = fibers.verify_chart(m)
        return {
            "identity_ok": cert.identity_ok,
            "injective": cert.injective,
            "chart_size": cert.chart_size,
            "line_points": len(cert.line_points),
        }

    rec.add(
        "zeta11plus-chart",
        {"identity_ok": True, "injective": True, "chart_size": 121, "line_points": 12},
        lambda: chart_report(m11),
    )
    rec.add(
        "zeta25-chart",
        {"identity_ok": True, "injective": True, "chart_size": 25, "line_points": 6},
        lambda: chart_report(m25),
    )
    rec.add(
        "zeta11plus-f7",
        {"points": 50, "classification": "interesting"},
        lambda: (lambda r: {
            "points": r.point_count,
            "classification": r.classification,
        })(fibers.classify_fiber(m11, 7)),
    )
    if not fast:
        rec.add(
            "zeta11plus-f23",
            {"points": 645, "lines": 10, "classification": "split"},
            lambda: (lambda r: {
                "points": r.point_count,
                "lines": len(r.lines),
                "classification": r.classification,
            })(fibers.classify_fiber(m11, 23)),
        )
    rec.add(
        "zeta25-l1-reduction",
        [1, 0, 0, 0, 0, 0],
        lambda: [c % 25 for c in m25.l1],
    )


def _verdict_claims(rec, m11, m25):
    rec.add(
        "fifth-powers-mod-11",
        [1, 10],
        lambda: list(obstruction.fifth_power_classes(11).fifth_powers),
    )
    rec.add(
        "fifth-powers-mod-25",
        [1, 7, 18, 24],
        lambda: list(obstruction.fifth_power_classes(25).fifth_powers),
    )

    def obstructed_25():
        report = obstruction.verdict(m25, OBSTRUCTED_25_H)
        image = report.images[5]
        return {
            "verdict": report.verdict,
            "values": list(image.values),
            "contains_zero": image.contains_zero,
        }

    rec.add(
        "verdict-zeta25-obstructed",
        {
            "verdict": "obstruction_order_5",
            "values": [2, 12, 22],
            "contains_zero": False,
        },
        obstructed_25,
    )
    rec.add(
        "verdict-l1-trivial",
        "trivial_brauer_class",
        lambda: obstruction.verdict(m11, m11.l1).verdict,
    )
    rec.add(
        "verdict-forbidden-class",
        {"verdict": "no_adelic_points", "failing_place": 2},
        lambda: (lambda r: {
            "verdict": r.verdict,
            "failing_place": r.solubility.failing_place,
        })(obstruction.verdict(m25, m25.insolubility_class)),
    )
    rec.add(
        "unramified-places-zeta11plus",
        {
            "2": {"splitting": "inert", "line_vanishing_points": 0},
            "7": {"splitting": "inert", "line_vanishing_points": 0},
            "23": {"splitting": "split"},
        },
        lambda: {
            str(ell): (
                lambda c: {
                    "splitting": c["splitting"],
                    **(
                        {"line_vanishing_points": c["line_vanishing_points"]}
                        if c["splitting"] == "inert"
                        else {}
                    ),
                }
            )(obstruction.unramified_invariant_check(m11, ell))
            for ell in (2, 7, 23)
        },
    )


def _census_claims(rec, m11, m25, fast):
    def census11():
        result = obstruction.census_11(
            m11, jobs=1, validate_surjectivity=not fast
        )
        return {
            "total": result["total"],
            "obstructing": result["obstructing"],
            "breakdown": result["breakdown"],
            "formula_breakdown": result["formula_breakdown"],
        }

    breakdown11 = {"constant": 8, "separable_quadratic": 220}
    rec.add(
        "census-11",
        {
            "total": 1771560,
            "obstructing": 228,
            "breakdown": breakdown11,
            "formula_breakdown": breakdown11,
        },
        census11,
    )

    census25_result = {}

    def census25():
        result = obstruction.census_25(m25)
        census25_result.update(result)
        return {
            "total": result["total"],
            "obstructing": result["obstructing"],
            "breakdown": result["breakdown"],
        }

    rec.add(
        "census-25",
        {
            "total": 244125000,
            "obstructing": 176,
            "breakdown": {"constant": 16, "image_size_3": 160},
        },
        census25,
    )
    rec.add(
        "tangent-surjectivity",
        {"directions": 15620, "failures": 0},
        lambda: (lambda r: {
            "directions": r["directions"],
            "failures": len(r["failures"]),
        })(obstruction.tangent_surjectivity_check(m25)),
    )

    rec.add(
        "invariant-path-agreement",
        {"checked": obstruction.CENSUS_11_TOTAL, "disagreements": 0},
        lambda: (lambda r: {
            "checked": r["checked"],
            "disagreements": len(r["disagreements"]),
        })(obstruction.path_agreement_check(m11)),
    )
    if not fast:
        rec.add(
            "census-invariance-mod-11",
            {"base": 228, "transforms": [228, 228, 228], "all_match": True},
            lambda: (lambda r: {
                "base": r["base_count"],
                "transforms": list(r["transform_counts"]),
                "all_match": r["all_match"],
            })(obstruction.census_invariance_check(m11, transforms=3, seed=11)),
        )
    return census25_result


def _flagged_claims(rec, m11, census25_result):
    published = "obstruction_order_5"

    def headline():
        report = obstruction.verdict(m11, HEADLINE_H)
        cmp = report.claim_comparison
        if cmp is None:
            raise obstruction.FiberInconsistencyError(
                "headline form lost its published-verdict registration"
            )
        return {
            "computed_verdict": report.verdict,
            "chart_route_contains_zero": cmp["chart_route_contains_zero"],
            "smooth_route_contains_zero": cmp["smooth_route_contains_zero"],
            "routes_agree": cmp["chart_route_contains_zero"]
            == cmp["smooth_route_contains_zero"],
        }

    rec.add(
        "headline-verdict-u1-minus-6u3",
        published,
        headline,
        status=lambda c: "ok" if c["computed_verdict"] == published else "flagged",
    )

    def condition25():
        sizes = census25_result.get("kappa_image_sizes")
        if sizes is None:
            raise RuntimeError("census mod 25 did not run")
        return {
            "resolved_condition": RESOLVED_CONDITION_25,
            "kappa_image_sizes": {str(k): v for k, v in sorted(sizes.items())},
            "census_obstructing": census25_result.get("obstructing"),
        }

    rec.add(
        "mod25-image-size-condition",
        PRINTED_CONDITION_25,
        condition25,
        status=lambda c: "flagged" if c["census_obstructing"] == 176 else "fail",
    )


def run_claims(fast=False):
    """Recompute all published quantities; returns the claim table.

    The result carries mode, per-claim rows, status counts, and wall time.
    Flagged rows document the two published statements that disagree with
    the calculations behind them; they are expected and do not fail.
    """
    start = time.monotonic()
    rec = _Recorder()
    m11 = model.fixture("zeta11plus")
    m25 = model.fixture("zeta25")
    _lattice_claims(rec)
    _galois_claims(rec, m11, m25)
    _construction_claims(rec, m11, fast)
    _fixture_geometry_claims(rec, m11, m25, fast)
    _verdict_claims(rec, m11, m25)
    census25_result = _census_claims(rec, m11, m25, fast)
    _flagged_claims(rec, m11, census25_result)
    counts = {"ok": 0, "flagged": 0, "fail": 0}
    for row in rec.rows:
        counts[row["status"]] += 1
    return {
        "mode": "fast" if fast else "full",
        "claims": rec.rows,
        "counts": counts,
        "wall_time_ms": int((time.monotonic() - start) * 1000),
    }


def has_failures(report):
    return report["counts"]["fail"] > 0
