"""Output oracles: every workload's outputs are checked here.

Each check returns a list of problems; an empty list means the output is
correct.  A request whose output has any problem counts as failed, exactly
like a request that raised.  The oracles use recorded tables, closed
formulas and routes other than the one under test, never the output's own
claim about itself.  `selftest.py` feeds each oracle one wrong output.
"""

from __future__ import annotations

import math

import numpy as np

AUDIT_COUNTS = {"ok": 32, "flagged": 2, "fail": 0}
AUDIT_FAST_COUNTS = {"ok": 30, "flagged": 2, "fail": 0}
FLAGGED_IDS = frozenset(
    {"headline-verdict-u1-minus-6u3", "mod25-image-size-condition"}
)
CENSUS_11_FORMS = 11 ** 6 - 1
HEADLINE_H = (0, 1, 0, -6, 0, 0)
OBSTRUCTED_25_H = (2, -15, 0, 10, 0, 0)

# (model, h) -> verdict, for the forms whose verdicts the paper discusses
ANCHOR_VERDICTS = {
    ("zeta11plus", HEADLINE_H): "no_obstruction",
    ("zeta25", OBSTRUCTED_25_H): "obstruction_order_5",
    ("zeta11plus", (1, 22, -363, 165, -1859, 484)): "trivial_brauer_class",
    ("zeta25", (1, 25, -700, 200, -3425, 575)): "trivial_brauer_class",
    ("zeta11plus", (0, 0, 1, 0, 0, 1)): "no_adelic_points",
    ("zeta25", (0, 0, 1, 1, 0, 0)): "no_adelic_points",
}


def lehmer_quintic(n):
    """E. Lehmer's simplest quintic for parameter n, leading coefficient first.

    n = -1 gives x^5 + x^4 - 4x^3 - 3x^2 + 3x + 1, the zeta11plus minpoly.
    """
    return (
        1,
        n * n,
        -(2 * n ** 3 + 6 * n * n + 10 * n + 10),
        n ** 4 + 5 * n ** 3 + 11 * n * n + 15 * n + 5,
        n ** 3 + 4 * n * n + 10 * n + 10,
        1,
    )


LEHMER_PARAMETERS = tuple(range(-4, 6))
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

# Fibers at primes where the quintic is inseparable, so classify_fiber has
# no Weil count to check them against: model -> p -> (classification,
# points, lines, singular points).  Recorded from this library's first
# import; every other prime <= 31 is inert or totally split.
SPECIAL_FIBERS = {
    "zeta11plus": {11: ("singular", 133, 1, 1)},
    "zeta25": {5: ("singular", 31, 1, 1), 7: ("singular", 71, 4, 1)},
    "lehmer-4": {17: ("singular", 358, 7, 1)},
    "lehmer-3": {5: ("singular", 46, 7, 1), 31: ("singular", 993, 1, 1)},
    "lehmer-2": {11: ("singular", 133, 1, 1)},
    "lehmer-1": {11: ("singular", 133, 1, 1)},
    "lehmer0": {5: ("singular", 31, 1, 1), 7: ("singular", 78, 7, 1)},
    "lehmer1": {23: ("singular", 622, 7, 1)},
    "lehmer2": {5: ("singular", 46, 7, 1), 11: ("singular", 166, 7, 1)},
    "lehmer3": {11: ("singular", 133, 1, 1)},
    "lehmer4": {},
    "lehmer5": {5: ("singular", 31, 1, 1)},
}

# Totally split primes <= 31 (p^2 + 5p + 1 points and ten lines); the rest
# not listed above are inert (p^2 + 1 points, smooth, no lines).
SPLIT_PRIMES = {
    "zeta11plus": (23,),
    "zeta25": (),
    "lehmer-4": (),
    "lehmer-3": (),
    "lehmer-2": (23,),
    "lehmer-1": (23,),
    "lehmer0": (),
    "lehmer1": (),
    "lehmer2": (31,),
    "lehmer3": (),
    "lehmer4": (),
    "lehmer5": (19, 31),
}

CHART = {"zeta11plus": (11, 121, 12), "zeta25": (5, 25, 6)}


def expected_fiber(model_id, p):
    """(classification, points, lines, singular) for a model's fiber at p."""
    special = SPECIAL_FIBERS[model_id].get(p)
    if special is not None:
        return special
    if p in SPLIT_PRIMES[model_id]:
        return ("split", p * p + 5 * p + 1, 10, 0)
    return ("interesting", p * p + 1, 0, 0)


def _quadric_residues(quadric_vectors, points, p):
    """Values of every quadric at every point, mod p, as an array."""
    pts = np.array(points, dtype=np.int64).reshape(-1, 6)
    pairs = [(i, j) for i in range(6) for j in range(i, 6)]
    monomials = np.stack([pts[:, i] * pts[:, j] % p for i, j in pairs], axis=1)
    coeffs = np.array(
        [[int(c) % p for c in row] for row in quadric_vectors], dtype=np.int64
    )
    return monomials @ coeffs.T % p


def check_fiber(model_id, quadric_vectors, p, report):
    """Problems with one `classify_fiber` report for the model at p."""
    problems = []
    label, count, lines, singular = expected_fiber(model_id, p)
    points = list(report.points)
    if report.classification != label:
        problems.append(f"{model_id} p={p}: {report.classification} != {label}")
    if len(points) != count or report.point_count != count:
        problems.append(
            f"{model_id} p={p}: {len(points)} points (reported "
            f"{report.point_count}), expected {count}"
        )
    if len(report.lines) != lines or len(report.singular) != singular:
        problems.append(
            f"{model_id} p={p}: {len(report.lines)} lines, "
            f"{len(report.singular)} singular; expected {lines}, {singular}"
        )
    if len(set(points)) != len(points):
        problems.append(f"{model_id} p={p}: repeated points")
    for pt in points:
        lead = next((c for c in pt if c), None)
        if lead != 1 or any(not 0 <= c < p for c in pt):
            problems.append(f"{model_id} p={p}: point {pt} not normalized")
            break
    if points and _quadric_residues(quadric_vectors, points, p).any():
        problems.append(f"{model_id} p={p}: a point misses a quadric")
    on_fiber = set(points)
    if not set(report.singular) <= on_fiber:
        problems.append(f"{model_id} p={p}: singular point off the fiber")
    if any(not set(line.points) <= on_fiber for line in report.lines):
        problems.append(f"{model_id} p={p}: line leaves the fiber")
    return problems


def check_chart(model_id, cert):
    p, size, line_points = CHART[model_id]
    got = (cert.prime, cert.chart_size, len(cert.line_points))
    if not (cert.identity_ok and cert.injective) or got != (p, size, line_points):
        return [f"{model_id} chart certificate {got}, expected {(p, size, line_points)}"]
    return []


def check_claims(table, counts=AUDIT_COUNTS, exhaustive=True):
    """Problems with a `verify.run_claims` table; a full run (`exhaustive`)
    must also have compared both routes on every form mod 11."""
    problems = []
    if table["counts"] != counts:
        problems.append(f"claim counts {table['counts']} != {counts}")
    flagged = {row["id"] for row in table["claims"] if row["status"] == "flagged"}
    if flagged != FLAGGED_IDS:
        problems.append(f"flagged rows {sorted(flagged)}")
    failed = [row["id"] for row in table["claims"] if row["status"] == "fail"]
    if failed:
        problems.append(f"failed rows {failed}")
    if exhaustive:
        agreement = next(
            (r for r in table["claims"] if r["id"] == "invariant-path-agreement"),
            None,
        )
        if agreement is None or agreement["computed"] != {
            "checked": CENSUS_11_FORMS,
            "disagreements": 0,
        }:
            problems.append("exhaustive path agreement did not cover every form")
    return problems


def proportional(a, b):
    return all(a[i] * b[j] == a[j] * b[i] for i in range(6) for j in range(i + 1, 6))


def expected_verdict(fixture_data, h, obstructs):
    """The verdict a form must get, given whether its image omits 1."""
    if tuple(c % 2 for c in h) == tuple(c % 2 for c in fixture_data["insoluble"]):
        return "no_adelic_points"
    if proportional(h, fixture_data["l1"]) or proportional(h, fixture_data["l2"]):
        return "trivial_brauer_class"
    return "obstruction_order_5" if obstructs else "no_obstruction"


def check_verdict(name, fixture_data, h, obstructs, got):
    """Problems with one verdict string for form h on a fixture."""
    want = ANCHOR_VERDICTS.get((name, tuple(h)))
    if want is None:
        want = expected_verdict(fixture_data, h, obstructs)
    if got != want:
        return [f"{name} h={tuple(h)}: verdict {got}, expected {want}"]
    return []


def check_routes(name, h, first, second, obstructs):
    """Problems with a two-route invariant pair: the routes must agree,
    and the image must omit the identity exactly when the form obstructs."""
    problems = []
    if first.classes != second.classes:
        problems.append(f"{name} h={tuple(h)}: routes disagree")
    if obstructs is not None and first.contains_zero == obstructs:
        problems.append(f"{name} h={tuple(h)}: image contradicts the census")
    return problems


def is_primitive(h):
    return math.gcd(*h) == 1


CENSUS_EXPECT = {
    11: {"total": CENSUS_11_FORMS, "obstructing": 228,
         "breakdown": {"constant": 8, "separable_quadratic": 220}},
    25: {"total": 25 ** 6 - 5 ** 6, "obstructing": 176,
         "breakdown": {"constant": 16, "image_size_3": 160}},
}


def check_cli(kind, code, doc, expect):
    """Problems with one CLI process: exit code and key output fields.

    `expect` carries what the request generator knows about the answer
    (fixture, prime, form, workers) for the fields that depend on it.
    """
    if code != 0:
        return [f"{kind}: exit code {code}"]
    if doc is None:
        return [f"{kind}: stdout is not one JSON document"]
    problems = []

    def want(field, value):
        if doc.get(field) != value:
            problems.append(f"{kind}: {field}={doc.get(field)!r}, expected {value!r}")

    if kind == "construct":
        want("minpoly", list(expect["minpoly"]))
        if len(doc.get("quadrics", ())) != 5:
            problems.append("construct: model needs five quadrics")
    elif kind == "fiber":
        label, count, lines, singular = expected_fiber(expect["model"], expect["p"])
        want("classification", label)
        want("point_count", count)
        want("line_count", lines)
        want("singular_count", singular)
    elif kind == "solubility":
        want("soluble", expect["soluble"])
    elif kind == "invariants":
        want("routes_agree", True)
    elif kind == "verdict":
        want("verdict", expect["verdict"])
    elif kind.startswith("census"):
        modulus = 11 if kind.startswith("census_11") else 25
        for field, value in CENSUS_EXPECT[modulus].items():
            want(field, value)
        want("workers", expect["workers"])
    elif kind == "cohomology":
        want("h1", {"divisors": [5]})
        petersen = doc.get("petersen", {})
        if petersen.get("aut_order") != 120 or len(petersen.get("edges", ())) != 15:
            problems.append("cohomology: Petersen graph is not 15 edges / 120")
        if len(doc.get("minus_one_classes", ())) != 10:
            problems.append("cohomology: expected ten minus-one classes")
    elif kind == "verify_fast":
        problems.extend(check_claims(doc, AUDIT_FAST_COUNTS, exhaustive=False))
    else:
        problems.append(f"unknown command kind {kind}")
    return problems
