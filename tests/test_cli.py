"""Command line behavior, exercised in process through main()."""

import json

import pytest

from dp5brauer import fibers, obstruction, verify
from dp5brauer.cli import main
from dp5brauer.errors import ChartError, FiberInconsistencyError


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
            "--modulus",
            "25",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["image"]["values"] == [2, 12, 22]
    assert doc["routes_agree"] is True


def test_invariants_modulus_must_match_model(capsys):
    code, _, err = run_cli(
        capsys,
        ["invariants", "--model", "fixture:zeta25", "--h", "1,0,0,0,0,0", "--modulus", "11"],
    )
    assert code == 3
    assert "modulus" in err


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


def test_census_self_check_is_a_contradiction_not_an_assert(capsys, monkeypatch, m25):
    # kappa images have 1, 3 or 5 values; a two-value image must not pass silently
    monkeypatch.setattr(obstruction, "_kappa_image", lambda coeffs: {0, 1})
    with pytest.raises(FiberInconsistencyError):
        obstruction.census_25(m25)
    code, out, err = run_cli(capsys, ["census", "--modulus", "25"])
    assert code == 4
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
