"""Command line front end.

Every subcommand emits one JSON document, sorted keys, either to standard
output or to --output.  Exit codes: 0 success, 1 verify-paper found a real
mismatch, 2 usage error (argparse), 3 domain error (bad model, bad prime,
degenerate construction, a model file whose fibers contradict its minimal
polynomial, an unwritable --output), 4 internal contradiction (the
package's own results disagree: FiberInconsistencyError or ChartError).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fibers, model, obstruction, picard, verify
from .errors import ChartError, DomainError, FiberInconsistencyError, UnknownModelError
from .numberfield import QuinticFieldSpec

FIXTURE_PREFIX = "fixture:"


def _parse_int_list(text, expected_len, what):
    parts = [p.strip() for p in text.split(",")]
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        raise DomainError(f"{what} must be comma-separated integers: {text!r}")
    if len(values) != expected_len:
        raise DomainError(
            f"{what} needs exactly {expected_len} entries, got {len(values)}"
        )
    return values


def _load_model(selector):
    if selector.startswith(FIXTURE_PREFIX):
        return model.fixture(selector[len(FIXTURE_PREFIX):])
    try:
        with open(selector, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read model file {selector!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise DomainError(f"model file {selector!r} is not JSON: {exc}")
    return model.DelPezzoModel.from_json_dict(doc)


def _emit(doc, output):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except (OSError, ValueError) as exc:
            # ValueError: a path with a NUL byte, possible only in process
            raise DomainError(f"cannot write {output!r}: {exc}")
    else:
        sys.stdout.write(text)


def _cmd_construct(args):
    coeffs = _parse_int_list(args.minpoly, 6, "--minpoly")
    spec = QuinticFieldSpec(coeffs)
    built = model.build_model(spec)
    return built.to_json_dict()


def _cmd_fiber(args):
    m = _load_model(args.model)
    try:
        report = fibers.classify_fiber(m, args.prime)
    except FiberInconsistencyError as exc:
        if args.model.startswith(FIXTURE_PREFIX):
            raise
        # a file's minimal polynomial and quadrics are both input, so a
        # fiber contradicting the prediction is bad input, not a package fault
        raise UnknownModelError(
            f"model file {args.model!r} contradicts its minimal polynomial: {exc}"
        ) from exc
    doc = {
        "prime": report.prime,
        "classification": report.classification,
        "point_count": report.point_count,
        "singular_count": len(report.singular),
        "line_count": len(report.lines),
    }
    if args.singular:
        doc["singular_points"] = [list(p) for p in report.singular]
    if args.lines:
        doc["lines"] = [line.to_json_dict() for line in report.lines]
    return doc


def _cmd_solubility(args):
    m = _load_model(args.model)
    h = _parse_int_list(args.h, 6, "--h")
    return obstruction.locally_soluble(m, h).to_json_dict()


def _cmd_invariants(args):
    m = _load_model(args.model)
    h = _parse_int_list(args.h, 6, "--h")
    first, second = obstruction.two_route_images(m, h)
    keys = ("chart_image", "smooth_image") if m.modulus == 11 else ("image", "lift_image")
    return {
        "model": m.name or args.model,
        "h": list(h),
        "modulus": m.modulus,
        keys[0]: first.to_json_dict(),
        keys[1]: second.to_json_dict(),
        "routes_agree": first.classes == second.classes,
    }


def _cmd_verdict(args):
    m = _load_model(args.model)
    h = _parse_int_list(args.h, 6, "--h")
    return obstruction.verdict(m, h).to_json_dict()


def _cmd_census(args):
    if args.model is None:
        args.model = FIXTURE_PREFIX + ("zeta11plus" if args.modulus == 11 else "zeta25")
    m = _load_model(args.model)
    if args.modulus == 11:
        result = obstruction.census_11(m, jobs=args.jobs)
    else:
        result = obstruction.census_25(m)
    return {
        key: result[key]
        for key in (
            "model",
            "modulus",
            "total",
            "obstructing",
            "breakdown",
            "wall_time_ms",
            "workers",
        )
    }


def _cmd_cohomology(args):
    classes = picard.minus_one_classes()
    report = picard.petersen_graph(classes)
    action = picard.interesting_sigma()
    quotient = picard.pic_u_action(action)
    divisors = picard.h1_cyclic(quotient, order=5)
    return {
        "minus_one_classes": [list(v) for v in classes],
        "petersen": {
            "edges": [list(e) for e in report.edges],
            "aut_order": report.automorphism_count,
        },
        "sigma": [list(action.matrix.row(i)) for i in range(action.matrix.rows)],
        "h1": {"divisors": list(divisors)},
    }


def _cmd_verify_paper(args):
    return verify.run_claims(fast=args.fast)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dp5brauer",
        description=(
            "Integral models of quintic del Pezzo surfaces over cyclic "
            "quintic fields and their order-5 obstructions"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", metavar="PATH", help="write the JSON document to PATH"
    )
    model_arg = argparse.ArgumentParser(add_help=False)
    model_arg.add_argument(
        "--model",
        required=True,
        help="fixture:zeta11plus, fixture:zeta25, or a model JSON file",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "construct", parents=[common], help="build a model from a minimal polynomial"
    )
    p.add_argument(
        "--minpoly",
        required=True,
        help="six comma-separated integers, leading coefficient first",
    )
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser(
        "fiber", parents=[common, model_arg], help="classify a prime fiber"
    )
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--lines", action="store_true", help="include the line list")
    p.add_argument(
        "--singular", action="store_true", help="include the singular points"
    )
    p.set_defaults(func=_cmd_fiber)

    p = sub.add_parser(
        "solubility",
        parents=[common, model_arg],
        help="everywhere-local solubility of the hyperplane complement",
    )
    p.add_argument("--h", required=True, help="six comma-separated integers")
    p.set_defaults(func=_cmd_solubility)

    p = sub.add_parser(
        "invariants",
        parents=[common, model_arg],
        help="invariant-map image at the ramified prime, both routes",
    )
    p.add_argument("--h", required=True, help="six comma-separated integers")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser(
        "verdict", parents=[common, model_arg], help="full obstruction verdict"
    )
    p.add_argument("--h", required=True, help="six comma-separated integers")
    p.set_defaults(func=_cmd_verdict)

    p = sub.add_parser(
        "census", parents=[common], help="count obstructing residues"
    )
    p.add_argument(
        "--model",
        default=None,
        help="defaults to the stored fixture for the chosen modulus",
    )
    p.add_argument("--modulus", type=int, choices=(11, 25), required=True)
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="accepted and echoed as workers; the mod-11 census runs in-process",
    )
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser(
        "cohomology",
        parents=[common],
        help="Picard lattice, Petersen graph, sigma, and H^1",
    )
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser(
        "verify-paper",
        parents=[common],
        help="recompute every published quantity and report the claim table",
    )
    p.add_argument(
        "--fast",
        action="store_true",
        help="trim the heavy cross-checks; still touches every module",
    )
    p.set_defaults(func=_cmd_verify_paper)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.func(args)
        _emit(doc, args.output)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, (FiberInconsistencyError, ChartError)) else 3
    if args.command == "verify-paper" and verify.has_failures(doc):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
