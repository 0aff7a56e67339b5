"""Command line behavior, exercised in process through main()."""

import contextlib
import dataclasses
import io
import json
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp5brauer import fibers, model, obstruction, verify
from dp5brauer.cli import build_parser, main
from dp5brauer.errors import ChartError, FiberInconsistencyError

from quintics import lehmer_quintic
from test_fibers import (
    _no_smooth_point_models,
    _rank_deficient_models,
    _substituted,
    _unimodular,
)
from test_obstruction import _disagreeing_lift_route

# the zeta11plus model file
FUZZ_BASE = model.fixture("zeta11plus").to_json_dict()


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohomology_document(capsys):
    code, out, _ = run_cli(capsys, ["cohomology"])
    assert code == 0
    doc = json.loads(out)
    assert doc["h1"] == {"divisors": [5]}
    assert len(doc["minus_one_classes"]) == 10
    assert doc["petersen"]["aut_order"] == 120
    assert len(doc["petersen"]["edges"]) == 15
    assert len(doc["sigma"]) == 5


def test_verdict_document(capsys):
    code, out, _ = run_cli(
        capsys, ["verdict", "--model", "fixture:zeta25", "--h", "2,-15,0,10,0,0"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "obstruction_order_5"
    assert doc["images"]["5"]["values"] == [2, 12, 22]
    assert doc["locally_soluble"] is True
    assert doc["geometrically_irreducible"] is True


def test_census_document_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        ["census", "--model", "fixture:zeta11plus", "--modulus", "11", "--jobs", "1"],
    )
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == [
        "breakdown",
        "model",
        "modulus",
        "obstructing",
        "total",
        "wall_time_ms",
        "workers",
    ]
    assert doc["obstructing"] == 228
    assert doc["breakdown"] == {"constant": 8, "separable_quadratic": 220}


def test_census_model_defaults_to_the_fixture_for_the_modulus(capsys):
    code, out, _ = run_cli(capsys, ["census", "--modulus", "25"])
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "zeta25"
    assert doc["obstructing"] == 176
    assert doc["workers"] == 1

    code, out, _ = run_cli(capsys, ["census", "--modulus", "11", "--jobs", "1"])
    assert code == 0
    assert json.loads(out)["model"] == "zeta11plus"


def test_invariants_reports_both_routes(capsys):
    code, out, _ = run_cli(
        capsys,
        ["invariants", "--model", "fixture:zeta11plus", "--h", "0,1,0,-6,0,0"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["routes_agree"] is True
    assert doc["chart_image"]["contains_zero"] is True
    assert doc["smooth_image"]["contains_zero"] is True


def test_invariants_mod_25(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "invariants",
            "--model",
            "fixture:zeta25",
            "--h",
            "2,-15,0,10,0,0",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["image"]["values"] == [2, 12, 22]
    assert doc["routes_agree"] is True


def test_solubility_failure_certificate(capsys):
    code, out, _ = run_cli(
        capsys, ["solubility", "--model", "fixture:zeta11plus", "--h", "0,0,1,0,0,1"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["soluble"] is False
    assert doc["failing_place"] == 2


def test_fiber_document(capsys):
    code, out, _ = run_cli(
        capsys,
        ["fiber", "--model", "fixture:zeta11plus", "--prime", "11", "--singular", "--lines"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "singular"
    assert doc["point_count"] == 133
    assert doc["singular_points"] == [[0, 0, 0, 0, 0, 1]]
    assert len(doc["lines"]) == 1
    assert len(doc["lines"][0]["points"]) == 12


def test_fiber_document_omits_details_by_default(capsys):
    code, out, _ = run_cli(
        capsys, ["fiber", "--model", "fixture:zeta11plus", "--prime", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["point_count"] == 5
    assert "singular_points" not in doc
    assert "lines" not in doc


def test_construct_roundtrips_through_a_file(capsys, tmp_path):
    path = tmp_path / "model.json"
    code, out, _ = run_cli(
        capsys,
        ["construct", "--minpoly", "1,1,-4,-3,3,1", "--output", str(path)],
    )
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["source"] == "constructed"
    assert len(doc["quadrics"]) == 5

    code, out, _ = run_cli(
        capsys, ["fiber", "--model", str(path), "--prime", "7"]
    )
    assert code == 0
    assert json.loads(out)["point_count"] == 50

    # nothing is stored: the fiber mod 2 and the searched points decide
    code, out, err = run_cli(capsys, ["solubility", "--model", str(path), "--h", "0,1,0,-6,0,0"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["soluble"] is True
    assert doc["odd_gcd"] == 1


def test_construct_rejects_non_cyclic_input(capsys):
    code, _, err = run_cli(capsys, ["construct", "--minpoly", "1,0,0,0,0,-2"])
    assert code == 3
    assert "error:" in err


def test_bad_h_shape_is_a_domain_error(capsys):
    code, _, err = run_cli(
        capsys, ["solubility", "--model", "fixture:zeta11plus", "--h", "1,2,3"]
    )
    assert code == 3
    assert "exactly 6" in err


def test_unknown_fixture_is_a_domain_error(capsys):
    code, _, err = run_cli(
        capsys, ["fiber", "--model", "fixture:zeta99", "--prime", "7"]
    )
    assert code == 3
    assert "zeta99" in err


def test_malformed_model_file_is_a_domain_error(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["construct", "--minpoly", "1,1,-4,-3,3,1"])
    doc = json.loads(out)
    del doc["minpoly"]
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps(doc), encoding="utf-8")
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
    for path, key in ((missing, "minpoly"), (listed, "source")):
        code, out, err = run_cli(
            capsys, ["verdict", "--model", str(path), "--h", "0,1,0,-6,0,0"]
        )
        assert code == 3
        assert out == ""
        assert key in err
        assert "Traceback" not in err


def test_usage_errors_exit_with_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fiber", "--model", "fixture:zeta11plus"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["census", "--model", "fixture:zeta11plus", "--modulus", "13"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_verify_paper_fast_mode(capsys):
    code, out, _ = run_cli(capsys, ["verify-paper", "--fast"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "fast"
    assert doc["counts"]["fail"] == 0
    assert doc["counts"]["flagged"] == 2
    statuses = {row["id"]: row["status"] for row in doc["claims"]}
    assert statuses["headline-verdict-u1-minus-6u3"] == "flagged"
    assert statuses["mod25-image-size-condition"] == "flagged"
    assert statuses["census-11"] == "ok"
    assert statuses["census-25"] == "ok"


@pytest.mark.parametrize(
    "target, failed_rows",
    [
        ("verdict", ["headline-verdict-u1-minus-6u3"]),
        ("census_25", ["census-25", "mod25-image-size-condition"]),
    ],
    ids=["verdict", "census_25"],
)
def test_verify_paper_records_a_raising_claim_as_failed(monkeypatch, target, failed_rows):
    def broken(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(obstruction, target, broken)
    report = verify.run_claims(fast=True)
    statuses = {row["id"]: row["status"] for row in report["claims"]}
    for claim_id in failed_rows:
        assert statuses[claim_id] == "fail"
    assert verify.has_failures(report)


def test_verify_paper_exits_one_on_a_claim_that_computes_another_value(capsys, monkeypatch):
    # a claim that returns a value other than the published one is a failed
    # row, not an ok one, and the run exits 1
    def one_failure(model):
        return {"directions": 15620, "surjective": 15619, "failures": ((0, 1, 0, 0, 0, 0),)}

    monkeypatch.setattr(obstruction, "tangent_surjectivity_check", one_failure)
    code, out, _ = run_cli(capsys, ["verify-paper", "--fast"])
    assert code == 1
    doc = json.loads(out)
    row = next(row for row in doc["claims"] if row["id"] == "tangent-surjectivity")
    assert row["computed"] == {"directions": 15620, "failures": 1}
    assert row["status"] == "fail"
    assert doc["counts"]["fail"] == 1


def test_json_output_is_sorted_and_stable(capsys):
    _, first, _ = run_cli(
        capsys, ["invariants", "--model", "fixture:zeta11plus", "--h", "0,0,1,0,0,0"]
    )
    _, second, _ = run_cli(
        capsys, ["invariants", "--model", "fixture:zeta11plus", "--h", "0,0,1,0,0,0"]
    )
    assert first == second
    doc = json.loads(first)
    assert list(doc) == sorted(doc)


@pytest.mark.parametrize("error", [FiberInconsistencyError, ChartError])
def test_internal_contradictions_exit_with_four(capsys, monkeypatch, error):
    def contradiction(*args, **kwargs):
        raise error("forced contradiction")

    monkeypatch.setattr(fibers, "classify_fiber", contradiction)
    code, out, err = run_cli(capsys, ["fiber", "--model", "fixture:zeta11plus", "--prime", "7"])
    assert code == 4
    assert out == ""
    assert "forced contradiction" in err
    assert "Traceback" not in err


def test_a_verdict_whose_routes_disagree_at_25_exits_with_four(capsys, monkeypatch):
    _disagreeing_lift_route(monkeypatch)
    argv = ["verdict", "--model", "fixture:zeta25", "--h", "2,-15,0,10,0,0"]
    code, out, err = run_cli(capsys, argv)
    assert code == 4
    assert out == ""
    assert "routes disagree" in err
    assert "Traceback" not in err


def test_both_commands_read_the_routes_at_call_time(capsys, monkeypatch):
    # a route rebound in the module, as a test or a trace rebinds it, is the
    # one that verdict and invariants read: with a coset dropped from the
    # smooth route, verdict at 11 is a contradiction and invariants reports it
    smooth = obstruction.inv_image_11_smoothpath

    def disagreeing(model, h):
        image = smooth(model, h)
        return dataclasses.replace(image, classes=image.classes[1:])

    monkeypatch.setattr(obstruction, "inv_image_11_smoothpath", disagreeing)
    zeta11 = ["--model", "fixture:zeta11plus", "--h", "0,1,0,-6,0,0"]
    code, out, err = run_cli(capsys, ["verdict", *zeta11])
    assert (code, out) == (4, "")
    assert "chart and smooth-point routes disagree" in err
    code, out, _ = run_cli(capsys, ["invariants", *zeta11])
    assert code == 0 and json.loads(out)["routes_agree"] is False
    _disagreeing_lift_route(monkeypatch)
    argv = ["invariants", "--model", "fixture:zeta25", "--h", "2,-15,0,10,0,0"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and json.loads(out)["routes_agree"] is False


def test_census_self_check_is_a_contradiction_not_an_assert(capsys, monkeypatch, m25):
    # kappa images have 1, 3 or 5 values; a two-value image must not pass
    # silently (the seam is the mask table, bit v for the value v)
    monkeypatch.setattr(obstruction, "_KAPPA_MASKS_5", np.full(5 ** 5, 0b11, dtype=np.uint8))
    first = r"kappa image size not in \{1, 3, 5\}: \(0, 0, 0, 0, 0\) -> \[0, 1\]$"
    with pytest.raises(FiberInconsistencyError, match=first):
        obstruction.census_25(m25)
    code, out, err = run_cli(capsys, ["census", "--modulus", "25"])
    assert code == 4
    assert out == ""
    assert err.startswith("error: kappa image size not in {1, 3, 5}")
    assert "Traceback" not in err
    # only forms constant in z obstruct; a three-value image for every form
    # makes forms with a z term obstruct too
    monkeypatch.setattr(obstruction, "_KAPPA_MASKS_5", np.full(5 ** 5, 0b111, dtype=np.uint8))
    # the first such k in product order is named
    with pytest.raises(FiberInconsistencyError, match=r"not constant in z: \(0, 0, 0, 0, 1\)$"):
        obstruction.census_25(m25)


def _dependent_quadrics(base, kind):
    """The JSON of ``base`` with all five quadrics zero, or with its first
    quadric in place of its second: quadrics of rank below 5."""
    doc = json.loads(json.dumps(base))
    if kind == "zero":
        doc["quadrics"] = [[0] * 21 for _ in range(5)]
    else:
        doc["quadrics"][1] = list(doc["quadrics"][0])
    return doc


def _mutated_model(base, data):
    """The JSON of ``base`` with one key dropped, one entry replaced by a
    bool, float, string or huge integer, dependent quadrics, or a Lehmer
    minimal polynomial in place of its own."""
    doc = json.loads(json.dumps(base))
    kind = data.draw(st.sampled_from(["drop", "replace", "keep", "zero", "repeat", "minpoly"]))
    if kind == "keep":
        return doc
    if kind == "minpoly":
        doc["minpoly"] = list(lehmer_quintic(data.draw(st.integers(-6, 6))))
        return doc
    if kind in ("zero", "repeat"):
        return _dependent_quadrics(base, kind)
    key = data.draw(st.sampled_from(sorted(doc)))
    if kind == "drop":
        del doc[key]
        return doc
    bad = data.draw(
        st.sampled_from([True, 2.5, "1", 10 ** 30, -(10 ** 30), None, [], {}])
    )
    if isinstance(doc[key], list):
        holder, index = doc[key], data.draw(st.integers(0, len(doc[key]) - 1))
        if isinstance(holder[index], list):
            holder, index = holder[index], data.draw(st.integers(0, len(holder[index]) - 1))
        holder[index] = bad
    else:
        doc[key] = bad
    return doc


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    prime=st.one_of(st.integers(-(10 ** 40), 10 ** 40), st.sampled_from((2, 3, 5, 7, 11, 13))),
    data=st.data(),
)
def test_fiber_keeps_the_exit_code_contract(tmp_path_factory, prime, data):
    selector = _fuzzed_model(tmp_path_factory, data)
    code = _assert_exit_code_contract(["fiber", "--model", selector, f"--prime={prime}"])
    # a model file that contradicts itself is bad input, never a package fault
    assert code != 4 or selector.startswith("fixture:")


def test_fiber_refuses_a_model_file_whose_minpoly_disagrees(capsys, tmp_path):
    # zeta11plus's quadrics over Lehmer's n = 0 field: 11 is inert there,
    # but the fiber has the 133 points of the ramified one
    doc = dict(FUZZ_BASE, minpoly=list(lehmer_quintic(0)))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, ["fiber", "--model", str(path), "--prime=11"])
    assert (code, out) == (3, "")
    assert "inert prediction violated at 11: 133 points (expected 122)" in err
    assert "Traceback" not in err


def _model_file(tmp_path, m):
    path = tmp_path / f"{m.source}.json"
    path.write_text(json.dumps(m.to_json_dict()), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", ["zeta11plus", "zeta25"])
def test_a_fixture_written_to_json_answers_as_the_fixture(capsys, tmp_path, name):
    # nothing of a fixture is lost in its file: the documents differ only in
    # the model field (and census's wall time)
    path = _model_file(tmp_path, model.fixture(name))
    h, modulus = {"zeta11plus": ("0,1,0,-7,0,0", "11"), "zeta25": ("2,-15,0,10,0,0", "25")}[name]
    for command, *rest in (
        ("invariants", "--h", h),
        ("verdict", "--h", h),
        ("census", "--modulus", modulus, "--jobs", "1"),
    ):
        docs = []
        for selector in (f"fixture:{name}", path):
            code, out, err = run_cli(capsys, [command, "--model", selector, *rest])
            assert (code, err) == (0, "")
            docs.append({k: v for k, v in json.loads(out).items() if k not in ("model", "wall_time_ms")})
        assert docs[0] == docs[1]


def _perturbed_file(tmp_path, m, k, pair, step):
    doc = m.to_json_dict()
    doc["quadrics"][k][model.U_QUADRIC_PAIRS.index(pair)] += step
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_a_model_file_off_its_chart_or_its_lifts_exits_with_three(capsys, tmp_path, m11, m25):
    # a file whose chart fails mod 11, or whose chart holds mod 5 but whose
    # chart points do not lift mod 25, contradicts itself: bad input, exit 3
    # (the transcript pins verdict and invariants on the first)
    off_chart = _perturbed_file(tmp_path, m11, 0, (0, 5), 1)
    code, out, err = run_cli(capsys, ["census", "--model", off_chart, "--modulus", "11"])
    assert (code, out) == (3, "")
    assert err.startswith(f"error: model file {off_chart!r} contradicts itself: chart identity fails mod 11")
    off_lifts = _perturbed_file(tmp_path, m25, 0, (0, 5), 5)
    code, out, err = run_cli(capsys, ["verdict", "--model", off_lifts, "--h", "2,-15,0,10,0,0"])
    assert (code, out) == (3, "")
    assert err == f"error: model file {off_lifts!r} contradicts itself: chart point admits no lift mod 25\n"


def test_fiber_of_a_model_file_in_other_coordinates_at_37(capsys, tmp_path, m11):
    # once refused above the chart scan's bound, now solved after a change
    # of coordinates: the document is the fixture's
    moved = _substituted(m11, _unimodular(random.Random(0)))
    argv = ["fiber", "--model", _model_file(tmp_path, moved), "--prime=37"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    _, expected, _ = run_cli(capsys, ["fiber", "--model", "fixture:zeta11plus", "--prime=37"])
    assert json.loads(out) == json.loads(expected)


def _refusal(capsys, tmp_path, m, p):
    """The stderr of ``fiber`` on the model file of m at p, which must exit 3
    without output or traceback."""
    code, out, err = run_cli(capsys, ["fiber", "--model", _model_file(tmp_path, m), f"--prime={p}"])
    assert (code, out) == (3, ""), (m.source, p)
    assert "Traceback" not in err
    return err


def _dependence_error(rank, p):
    return f"error: model quadrics have rank {rank} mod {p}, expected 5 independent quadrics\n"


def test_fiber_refuses_a_model_file_without_a_smooth_point(capsys, tmp_path, m11):
    zero, generic = _no_smooth_point_models(m11)
    assert _refusal(capsys, tmp_path, zero, 7) == _dependence_error(0, 7)
    assert "no smooth point of the fiber mod 7" in _refusal(capsys, tmp_path, generic, 7)


def test_fiber_refusals_are_the_same_in_both_coordinates(capsys, tmp_path, m11):
    # a fiber without a smooth point is refused with the same message after
    # a unimodular change of coordinates
    _, generic = _no_smooth_point_models(m11)
    moved = _substituted(generic, _unimodular(random.Random(1)))
    assert _refusal(capsys, tmp_path, generic, 7) == _refusal(capsys, tmp_path, moved, 7)


def test_fiber_refuses_a_model_file_cut_by_fewer_than_five_quadrics(capsys, tmp_path, m11):
    # the same refusal moved or as given, with the solver shape
    for p in (23, 37):
        for moved in (True, False):
            for m, rank in zip(_rank_deficient_models(m11, p, moved), (3, 4)):
                assert _refusal(capsys, tmp_path, m, p) == _dependence_error(rank, p)


def test_fiber_answers_a_solver_shaped_model_file_cut_by_fewer_than_five_quadrics(
    capsys, tmp_path, m11
):
    # every plane is degenerate and the model has the solver shape as given;
    # the answer is the rank refusal, exit 3, no traceback
    m = _rank_deficient_models(m11, 23, moved=False)[0]
    assert _refusal(capsys, tmp_path, m, 23) == _dependence_error(3, 23)


@pytest.mark.parametrize("p", (7, 97))
def test_fiber_refuses_a_model_file_whose_quadrics_all_vanish_mod_p(capsys, tmp_path, m11, p):
    # zeta11plus with every quadric times p loads (rank 5 over Q), but mod p
    # its fiber would be all of P^5(F_p), too large for the line search
    for m in (m11, _substituted(m11, _unimodular(random.Random(0)))):
        vanishing = model.DelPezzoModel("vanishing", m.spec, [[p * c for c in q] for q in m.quadrics], m.l1, m.l2)
        assert _refusal(capsys, tmp_path, vanishing, p) == _dependence_error(0, p)


def test_an_unwritable_output_exits_with_three(capsys, tmp_path):
    target = tmp_path / "missing" / "cohomology.json"
    code, out, err = run_cli(capsys, ["cohomology", f"--output={target}"])
    assert (code, out) == (3, "")
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err


def _fuzzed_model(tmp_path_factory, data):
    """A fixture selector or the path of a mutated zeta11plus model file."""
    selector = data.draw(st.sampled_from(["fixture:zeta11plus", "fixture:zeta25", "file"]))
    if selector == "file":
        path = tmp_path_factory.mktemp("fuzz") / "model.json"
        path.write_text(json.dumps(_mutated_model(FUZZ_BASE, data)), encoding="utf-8")
        selector = str(path)
    return selector


def _assert_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 1:
        # only a verify-paper claim table with a failing row exits 1
        args = build_parser().parse_args(argv)
        if args.output:
            with open(args.output, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = out.getvalue()
        assert args.command == "verify-paper" and verify.has_failures(json.loads(text))
    return code


# --h values: six small or huge integers most of the time, else a list of
# any length or any text
H_TEXTS = st.one_of(
    st.lists(st.integers(-12, 12), min_size=6, max_size=6),
    st.lists(st.integers(-(10 ** 30), 10 ** 30), min_size=6, max_size=6),
    st.lists(st.integers(-12, 12), max_size=9),
).map(lambda cs: ",".join(map(str, cs))) | st.text(max_size=24)


@settings(max_examples=90, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["verdict", "invariants", "solubility"]),
    h=H_TEXTS,
    modulus=st.one_of(st.none(), st.sampled_from((11, 25)), st.integers(-(10 ** 6), 10 ** 6)),
    data=st.data(),
)
def test_verdict_and_invariants_keep_the_exit_code_contract(
    tmp_path_factory, command, h, modulus, data
):
    selector = _fuzzed_model(tmp_path_factory, data)
    argv = [command, "--model", selector, f"--h={h}"]
    if command == "invariants" and modulus is not None:
        argv.append(f"--modulus={modulus}")
    code = _assert_exit_code_contract(argv)
    # a model file that contradicts itself is bad input, never a package fault
    assert code != 4 or selector.startswith("fixture:")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    modulus=st.sampled_from((11, 25)),
    jobs=st.one_of(st.none(), st.integers(-3, 3)),
    data=st.data(),
)
def test_census_keeps_the_exit_code_contract(tmp_path_factory, modulus, jobs, data):
    selector = _fuzzed_model(tmp_path_factory, data)
    argv = ["census", "--model", selector, f"--modulus={modulus}"]
    if jobs is not None:
        argv.append(f"--jobs={jobs}")
    code = _assert_exit_code_contract(argv)
    assert code != 4 or selector.startswith("fixture:")


@pytest.mark.parametrize("kind", ["zero", "repeat"])
def test_dependent_quadrics_are_refused(capsys, tmp_path, kind):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_dependent_quadrics(FUZZ_BASE, kind)), encoding="utf-8")
    for prime in (3, 5):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["fiber", "--model", str(path), "--prime", str(prime)])
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: model quadrics have rank {0 if kind == 'zero' else 4} over Q")
        assert "Traceback" not in err


@pytest.mark.parametrize("prime", [0, 1, 4, -3, -11, 10 ** 40])
def test_fiber_refuses_a_prime_outside_the_enumeration_range(capsys, prime):
    code, out, err = run_cli(
        capsys, ["fiber", "--model", "fixture:zeta11plus", f"--prime={prime}"]
    )
    assert code == 3
    assert out == ""
    assert "prime" in err


def test_construct_certifies_irreducibility_quickly(capsys):
    start = time.perf_counter()
    code, _, _ = run_cli(capsys, ["construct", "--minpoly", "1,0,0,0,3,100000"])
    assert code in (0, 3)
    assert time.perf_counter() - start < 2


# D_5 and A_5 quintics whose discriminants are squares
SQUARE_DISCRIMINANT_NON_CYCLIC = ["1,0,0,0,-5,12", "1,0,0,0,20,16"]


@pytest.mark.parametrize("minpoly", SQUARE_DISCRIMINANT_NON_CYCLIC)
def test_construct_refutes_a_square_discriminant_non_cyclic_input_quickly(capsys, minpoly):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["construct", f"--minpoly={minpoly}"])
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "")
    assert "not cyclic: Frobenius at p = " in err


# --minpoly values: six coefficients, monic or not, Lehmer's cyclic quintics,
# the two square-discriminant non-cyclic ones, or a list of the wrong length
def _csv(coefficients):
    return ",".join(map(str, coefficients))


MINPOLY_TEXTS = st.one_of(
    st.lists(st.integers(-40, 40), min_size=6, max_size=6).map(_csv),
    st.lists(st.integers(-40, 40), min_size=5, max_size=5).map(lambda cs: _csv([1] + cs)),
    st.integers(-6, 6).map(lambda n: _csv(lehmer_quintic(n))),
    st.sampled_from(SQUARE_DISCRIMINANT_NON_CYCLIC),
    st.lists(st.integers(-40, 40), max_size=9).filter(lambda cs: len(cs) != 6).map(_csv),
    st.text(max_size=24),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(minpoly=MINPOLY_TEXTS)
def test_construct_keeps_the_exit_code_contract(minpoly):
    assert _assert_exit_code_contract(["construct", f"--minpoly={minpoly}"]) != 4


def _broken(*args, **kwargs):
    raise RuntimeError("forced failure")


# extra verify-paper arguments: its own flags, flags and values of other
# subcommands, and any text
VERIFY_EXTRAS = st.lists(
    st.sampled_from(
        [
            ["--fast"],
            ["--output"],
            ["--fast=1"],
            ["--model", "fixture:zeta11plus"],
            ["--h", "0,1,0,-6,0,0"],
            ["--modulus", "11"],
            ["--jobs=2"],
            ["--help"],
            ["--"],
        ]
    )
    | st.text(max_size=12).map(lambda text: [text]),
    max_size=2,
).map(lambda groups: [arg for group in groups for arg in group])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    fast=st.booleans(),
    output=st.sampled_from([None, "table.json", "missing/table.json"]),
    extras=VERIFY_EXTRAS,
    broken=st.booleans(),
)
def test_verify_paper_keeps_the_exit_code_contract(
    tmp_path_factory, fast, output, extras, broken
):
    argv = ["verify-paper"] + ["--fast"] * fast + ["--output", output] * bool(output) + extras
    with pytest.MonkeyPatch.context() as patch:
        # relative output paths land in a fresh directory
        patch.chdir(tmp_path_factory.mktemp("verify"))
        if broken:
            patch.setattr(obstruction, "census_25", _broken)
        code = _assert_exit_code_contract(argv)
    # 3 only for an --output that cannot be written
    assert code != 3 or build_parser().parse_args(argv).output
    assert code != 4
