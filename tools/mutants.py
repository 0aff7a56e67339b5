"""Mutation runner: each mutant of the table below must make its tests fail.

A mutant replaces one exact snippet of one source file.  The runner copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory, runs
the named tests once on the unchanged copy (they must pass), then applies
one mutant at a time, runs only its tests, restores the file, and reports
the mutant as killed (its tests failed) or survived (they passed).  A
snippet that does not occur exactly once is an error, so a mutant cannot go
stale without notice.  Each test run gets an address-space limit, so a
mutant that sends a solver out of bounds fails with MemoryError instead of
exhausting the machine.

Run from anywhere, with the interpreter that runs the test suite:

    python tools/mutants.py              # every mutant
    python tools/mutants.py NAME [...]   # the named mutants

The exit code is 0 when every mutant selected is killed and 1 otherwise.
Standard library only; pytest does not collect this directory (its
``testpaths`` is ``tests``).  A survivor is a gap in the tests: add a test
that kills it, never drop the row.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEMORY_LIMIT = 3 << 30
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple


CLI = "src/dp5brauer/cli.py"
FIBERS = "src/dp5brauer/fibers.py"
INTLINALG = "src/dp5brauer/intlinalg.py"
MODEL = "src/dp5brauer/model.py"
NUMBERFIELD = "src/dp5brauer/numberfield.py"
OBSTRUCTION = "src/dp5brauer/obstruction.py"
PICARD = "src/dp5brauer/picard.py"
VERIFY = "src/dp5brauer/verify.py"

MUTANTS = (
    # one coordinate system per fiber
    Mutant(
        "no-independence-check",
        FIBERS,
        "    if rank < 5:\n        raise DomainError(f\"model quadrics have rank {rank} mod {p}",
        "    if False:\n        raise DomainError(f\"model quadrics have rank {rank} mod {p}",
        (
            "tests/test_fibers.py::test_a_fiber_without_a_smooth_point_is_refused",
            "tests/test_fibers.py::test_a_fiber_cut_by_fewer_than_five_quadrics_is_refused",
        ),
    ),
    Mutant(
        "minor-in-model-coordinates",
        FIBERS,
        "jacobians = (_solver_coordinates(model.quadrics, p)[0] @ x.T % p)",
        "jacobians = (_polar_mod_p(model, p) @ x.T % p)",
        ("tests/test_fibers.py::test_moved_model_keeps_lines_singular_points_and_classification",),
    ),
    Mutant(
        "move-without-shape-gate",
        FIBERS,
        "        if _solver_shaped(moved):\n            return r[:, 6:], g, moved",
        "        if True:\n            return r[:, 6:], g, moved",
        ("tests/test_fibers.py::test_a_move_without_the_solver_shape_is_never_solved",),
    ),
    # the fiber solver: every plane by one rule, the candidates in blocks
    Mutant(
        "plane-t0-rows-dropped",
        FIBERS,
        "y = np.concatenate([y0, _plane_solutions(",
        "y = np.concatenate([y0[:0], _plane_solutions(",
        ("tests/test_fibers.py::test_moved_model_fibers_are_the_coordinate_image_up_to_97",),
    ),
    Mutant(
        "e0-dropped",
        FIBERS,
        "x = np.concatenate([e0, _lift_u0(gram, y, p)])",
        "x = np.concatenate([e0[:0], _lift_u0(gram, y, p)])",
        ("tests/test_fibers.py::test_solver_equals_scan_up_to_31",),
    ),
    Mutant(
        "plane-t0-one-row-dropped",
        FIBERS,
        "np.column_stack([t[-p - 1:, 1:], np.zeros_like(t[-p - 1:])])",
        "np.column_stack([t[-p:, 1:], np.zeros_like(t[-p:])])",
        ("tests/test_fibers.py::test_moves_that_put_the_line_m_on_the_plane_t0_are_solved",),
    ),
    Mutant(
        "flat-planes-dropped",
        FIBERS,
        "    flat = np.nonzero(~lined)[0]\n",
        "    flat = np.nonzero(~lined)[0][:0]\n",
        ("tests/test_fibers.py::test_solver_equals_scan_when_every_plane_is_degenerate",),
    ),
    Mutant(
        "last-block-dropped",
        FIBERS,
        "    for lo, hi in zip(edges[:-1], edges[1:]):\n        y = ",
        "    for lo, hi in zip(edges[:-2], edges[1:-1]):\n        y = ",
        ("tests/test_fibers.py::test_degenerate_candidates_come_in_blocks_of_whole_planes",),
    ),
    Mutant(
        "u0-free-filter-inverted",
        FIBERS,
        "stuck = y[~some & ~rest.any(axis=1)]",
        "stuck = y[~some & rest.any(axis=1)]",
        ("tests/test_fibers.py::test_solver_equals_scan_on_random_shaped_quadrics",),
    ),
    # one sorted code array per fiber, one checked pair per line
    Mutant(
        "lines-first-quadric-only",
        FIBERS,
        "        for form in polar[1:]:",
        "        for form in polar[:0]:",
        ("tests/test_fibers.py::test_find_lines_equals_a_brute_force_line_search",),
    ),
    Mutant(
        "line-membership-unchecked",
        FIBERS,
        "    if (codes[at] != line_codes).any():",
        "    if False:",
        ("tests/test_fibers.py::test_find_lines_raises_when_a_line_leaves_the_fiber",),
    ),
    Mutant(
        "fiber-codes-little-endian",
        FIBERS,
        "return x @ p ** np.arange(5, -1, -1, dtype=np.int64)",
        "return x @ p ** np.arange(6, dtype=np.int64)",
        ("tests/test_fibers.py::test_the_fiber_is_in_increasing_tuple_order",),
    ),
    Mutant(
        "line-basis-unswapped",
        FIBERS,
        "    swap = (lead > k)[:, None]",
        "    swap = np.zeros((len(q), 1), dtype=bool)",
        ("tests/test_fibers.py::test_find_lines_equals_a_brute_force_line_search",),
    ),
    Mutant(
        "smooth-route-with-singular",
        OBSTRUCTION,
        "smooth = _read_only(x[~_singular_mask(model, 11, x)])",
        "smooth = _read_only(x)",
        ("tests/test_obstruction.py::test_the_smooth_route_is_the_fiber_tuples_in_order",),
    ),
    # the l1-orbit sweeps mod 11
    Mutant(
        "wrong-rotation",
        OBSTRUCTION,
        "table = masks[(sets << shifts | sets >> (11 - shifts)) & 0x7FF]",
        "table = masks[(sets >> shifts | sets << (11 - shifts)) & 0x7FF]",
        (
            "tests/test_obstruction.py::test_orbit_masks_equal_a_direct_evaluation_of_every_translate",
            "tests/test_obstruction.py::test_census_is_coordinate_free",
        ),
    ),
    Mutant(
        "wrong-pivot",
        OBSTRUCTION,
        "pivot_row = np.eye(6, dtype=np.int32)[np.argmax(l1 != 0)]",
        "pivot_row = np.eye(6, dtype=np.int32)[np.argmax(l1 != 0) + 1]",
        (
            "tests/test_obstruction.py::test_exhaustive_agreement_reports_every_scaling",
            "tests/test_obstruction.py::test_census_is_coordinate_free",
        ),
    ),
    Mutant(
        "dropped-l1-class",
        OBSTRUCTION,
        "return np.nonzero((np.arange(11)[:, None] == 1) | (np.arange(n) > 0))",
        "return np.nonzero((np.arange(11)[:, None] == 11) | (np.arange(n) > 0))",
        ("tests/test_obstruction.py::test_smooth_census_scans_the_kernel_at_its_extremes",),
    ),
    Mutant(
        "trigger-off-l1-accepted",
        OBSTRUCTION,
        'in ((values, "value", 1), (triggers, "trigger", 0)):',
        'in ((values, "value", 1),):',
        ("tests/test_obstruction.py::test_a_trigger_point_off_l1_equal_zero_is_refused",),
    ),
    # one definition per mod-11 route
    Mutant(
        "smooth-image-reads-chart",
        OBSTRUCTION,
        'return _route_image_11(model, hbar, "smooth")',
        'return _route_image_11(model, hbar, "chart")',
        ("tests/test_obstruction.py::test_smoothpath_reads_the_fiber_of_a_moved_model",),
    ),
    # one route lookup, one coset table behind every invariant image
    Mutant(
        "chart-route-unguarded",
        OBSTRUCTION,
        'if route == "chart" or model.modulus != 11:',
        "if model.modulus != 11:",
        ("tests/test_obstruction.py::test_smoothpath_reads_the_fiber_of_a_moved_model",),
    ),
    Mutant(
        "smooth-route-unguarded",
        OBSTRUCTION,
        'if route == "chart" or model.modulus != 11:',
        'if route == "chart":',
        (
            "tests/test_obstruction.py::test_refusals_are_pinned[inv_image_11_smoothpath-other-fixture]",
            "tests/test_obstruction.py::test_refusals_are_pinned[census_11_smoothpath-other-fixture]",
        ),
    ),
    Mutant(
        "route-image-bits-uninverted",
        OBSTRUCTION,
        "fifth_power_classes(q).inverse_bits[hv]",
        "(fifth_power_classes(q).inverse_bits if q == 25 else fifth_power_classes(q).bits)[hv]",
        ("tests/test_obstruction.py::test_mask_kernel_matches_a_direct_evaluation",),
    ),
    Mutant(
        "mask-classes-shifted",
        OBSTRUCTION,
        "if self.mask >> i & 1)",
        "if self.mask >> i + 1 & 1)",
        (
            "tests/test_obstruction.py::test_obstructed_image_mod_25",
            "tests/test_obstruction.py::test_lift_array_values_match_a_python_sum",
            "tests/test_obstruction.py::test_mask_kernel_matches_a_direct_evaluation",
        ),
    ),
    Mutant(
        "identity-coset-read-as-bit-1",
        OBSTRUCTION,
        "return bool(self.mask & 1)",
        "return bool(self.mask & 2)",
        (
            "tests/test_obstruction.py::test_an_image_reads_its_mask_as_the_coset_tuples",
            "tests/test_obstruction.py::test_verdict_obstruction_mod_25",
            "tests/test_obstruction.py::test_verdict_simple_obstruction_mod_11",
        ),
    ),
    Mutant(
        "index-built-from-the-inverse",
        OBSTRUCTION,
        "index[np.array(classes)] =",
        "index[np.array([[pow(u, -1, q) for u in cls] for cls in classes])] =",
        (
            "tests/test_obstruction.py::test_the_coset_tables_equal_a_brute_force_assignment",
            "tests/test_obstruction.py::test_representative_masks_are_pinned",
        ),
    ),
    Mutant(
        "mod-25-prelude-imprimitive",
        OBSTRUCTION,
        "    if all(c % 5 == 0 for c in h25):",
        "    if False:",
        ("tests/test_obstruction.py::test_imprimitive_form_is_rejected_mod_25",),
    ),
    Mutant(
        "splitting-of-a-non-prime",
        NUMBERFIELD,
        "    if not _is_prime(p):\n        raise DomainError(f\"{p} is not prime\")\n    m_asc",
        "    m_asc",
        ("tests/test_obstruction.py::test_a_non_prime_is_refused_before_the_reduction",),
    ),
    # three digit-pair tables, one checked route per (model, route)
    Mutant(
        "fold-without-22",
        OBSTRUCTION,
        "= (s | s >> 11 | s >> 22) & 0x7FF",
        "= (s | s >> 11) & 0x7FF",
        ("tests/test_obstruction.py::test_mask_kernel_matches_a_direct_evaluation",),
    ),
    Mutant(
        "swapped-pair-digits",
        OBSTRUCTION,
        "pairs = points[:, 0::2] + 11 * points[:, 1::2]",
        "pairs = points[:, [0, 1, 3, 2, 4, 5]][:, 0::2] + 11 * points[:, [0, 1, 3, 2, 4, 5]][:, 1::2]",
        (
            "tests/test_obstruction.py::test_representative_masks_are_pinned",
            "tests/test_obstruction.py::test_mask_kernel_matches_a_direct_evaluation",
        ),
    ),
    Mutant(
        "route-key-without-l1",
        OBSTRUCTION,
        "    key = _model_cache_key(model, 11)\n    if key not in _FIBER_CACHE:",
        "    key = (11, model.quadrics)\n    if key not in _FIBER_CACHE:",
        ("tests/test_obstruction.py::test_the_smooth_route_cache_tells_l1_apart",),
    ),
    Mutant(
        "route-built-unchecked",
        OBSTRUCTION,
        'for points, kind, want in ((values, "value", 1), (triggers, "trigger", 0)):',
        "for points, kind, want in ():",
        (
            "tests/test_obstruction.py::test_the_chart_route_is_checked_when_it_is_built",
            "tests/test_obstruction.py::test_a_value_point_off_l1_equal_one_is_refused",
        ),
    ),
    # the mod-25 census in array steps
    Mutant(
        "swapped-kernel-basis",
        OBSTRUCTION,
        "basis = -kernels[:, 5] % 5, kernels[:, :5][free].reshape(25, 2, 5)",
        "basis = -kernels[:, 5] % 5, kernels[:, :5][free].reshape(25, 2, 5)[:, ::-1]",
        ("tests/test_obstruction.py::test_chart_lifts_equal_the_per_point_solves",),
    ),
    Mutant(
        "shifted-kstar",
        OBSTRUCTION,
        "(_KAPPA_MASKS_5[:, None] & fifth) == 0",
        "(_KAPPA_MASKS_5[:, None] & (fifth << 1 | fifth >> 4) & 31) == 0",
        ("tests/test_obstruction.py::test_kappa_census_equals_the_per_k_set_loop",),
    ),
    Mutant(
        "wrong-popcount-entry",
        OBSTRUCTION,
        '_POPCOUNT_5 = np.array([bin(m).count("1") for m in range(32)], dtype=np.int64)',
        '_POPCOUNT_5 = np.array([bin(m).count("1") + (m == 7) for m in range(32)], dtype=np.int64)',
        ("tests/test_obstruction.py::test_kappa_census_equals_the_per_k_set_loop",),
    ),
    Mutant(
        "lift-bits-not-inverted",
        OBSTRUCTION,
        "fifth_power_classes(q).inverse_bits[hv]",
        "(fifth_power_classes(q).inverse_bits if q == 11 else fifth_power_classes(q).bits)[hv]",
        ("tests/test_obstruction.py::test_lift_array_values_match_a_python_sum",),
    ),
    # one fullness witness mod 25
    Mutant(
        "witness-ignores-value",
        OBSTRUCTION,
        "witnesses = values != minus_c\n",
        "witnesses = values != minus_c + 5\n",
        (
            "tests/test_obstruction.py::test_every_certificate_mod_25_is_a_witness",
            "tests/test_obstruction.py::test_tangent_pairings_are_the_chart_derivatives",
        ),
    ),
    Mutant(
        "lift-plane-unchecked",
        OBSTRUCTION,
        '(np.einsum("nqj,ntj->nqt", jac[:, :, 1:], tangents[:, :, 1:]) % 5).any(axis=(1, 2))',
        "np.zeros(25, dtype=bool)",
        ("tests/test_obstruction.py::test_a_tangent_off_the_lift_plane_is_refused",),
    ),
    Mutant(
        "tangent-check-h0-unshifted",
        OBSTRUCTION,
        "missed = ~witnessed.any(axis=1).T",
        "missed = ~witnessed[[0] * 5].any(axis=1).T",
        ("tests/test_obstruction.py::test_tangent_check_pairs_each_tail_once",),
    ),
    # one elimination per ring: the Smith form on the echelon form, one
    # kernel reader of the mod-p row reduction
    Mutant(
        "snf-transform-scaled",
        INTLINALG,
        "    return IntMatrix(d), IntMatrix(u), IntMatrix(vt).transpose()",
        "    u = [[2 * x for x in r] if not any(e) else r for r, e in zip(u, d)]\n"
        "    return IntMatrix(d), IntMatrix(u), IntMatrix(vt).transpose()",
        ("tests/test_intlinalg.py::test_snf_laws_on_seeded_matrices",),
    ),
    Mutant(
        "snf-chain-unmended",
        INTLINALG,
        "        if i is None:\n            break",
        "        if True:\n            break",
        (
            "tests/test_intlinalg.py::test_snf_of_coprime_diagonal",
            "tests/test_intlinalg.py::test_smith_diagonal_products_are_the_gcds_of_the_minors",
        ),
    ),
    # one elimination on rows of Python ints, the transforms carried along
    Mutant(
        "echelon-carry-dropped",
        INTLINALG,
        "support = [j for j in range(c, len(pivot)) if pivot[j]]",
        "support = [j for j in range(c, n) if pivot[j]]",
        (
            "tests/test_intlinalg.py::test_hnf_and_its_transform_equal_the_list_route",
            "tests/test_intlinalg.py::test_build_kernels_equal_the_list_route",
        ),
    ),
    Mutant(
        "hnf-one-pivot-unreduced",
        INTLINALG,
        "        for row in t[:r]:",
        "        for row in t[:r] if r != 1 else ():",
        (
            "tests/test_intlinalg.py::test_hnf_laws_on_seeded_matrices",
            "tests/test_intlinalg.py::test_hnf_and_its_transform_equal_the_list_route",
        ),
    ),
    Mutant(
        "echelon-last-smallest-pivot",
        INTLINALG,
        "k = min(nz, key=lambda i: abs(t[i][c]))",
        "k = min(reversed(nz), key=lambda i: abs(t[i][c]))",
        ("tests/test_intlinalg.py::test_hnf_and_its_transform_equal_the_list_route",),
    ),
    Mutant(
        "horner-without-denominators",
        NUMBERFIELD,
        "[c.numerator * (common // c.denominator) for c in coeffs]",
        "[c.numerator for c in coeffs]",
        ("tests/test_numberfield.py::test_horner_equals_the_sum_of_the_terms",),
    ),
    # one Frobenius per prime: how the minimal polynomial splits mod p
    Mutant(
        "frobenius-gcd-on-f-only",
        NUMBERFIELD,
        "_fp_poly_gcd(m, _poly_sub(frob2, s), p)",
        "_fp_poly_gcd(m, _poly_sub(frob, s), p)",
        (
            "tests/test_numberfield.py::test_spec_rejects_bad_polynomials",
            "tests/test_numberfield.py::test_a_quadratic_times_a_cubic_is_partial_not_irreducible",
        ),
    ),
    Mutant(
        "frobenius-f-times-f",
        NUMBERFIELD,
        "    frob2 = []\n    for c in reversed(frob):\n        frob2 = _poly_add(_fpq_mul(frob2, frob, m, p), [c])\n",
        "    frob2 = _fpq_mul(frob, frob, m, p)\n",
        (
            "tests/test_numberfield.py::test_spec_rejects_bad_polynomials",
            "tests/test_numberfield.py::test_a_quadratic_times_a_cubic_is_partial_not_irreducible",
        ),
    ),
    Mutant(
        "frobenius-split-inverted",
        NUMBERFIELD,
        "    if frob == s:\n        return \"separable-split\", frob",
        "    if frob != s:\n        return \"separable-split\", frob",
        (
            "tests/test_numberfield.py::test_splitting_labels_are_pinned",
            "tests/test_numberfield.py::test_split_and_inert_labels_count_the_roots_mod_p",
        ),
    ),
    Mutant(
        "kernel-sign-dropped",
        FIBERS,
        "-rows.swapaxes(-1, -2) % p",
        "rows.swapaxes(-1, -2) % p",
        ("tests/test_fibers.py::test_the_kernel_reader_solves_every_system_of_a_stack",),
    ),
    # one chart table per prime
    Mutant(
        "tangent-coefficient-dropped",
        MODEL,
        "c * monomial(b, c - 1)",
        "min(c, 1) * monomial(b, c - 1)",
        (
            "tests/test_model.py::test_chart_tables_are_the_chart_and_its_derivatives",
            "tests/test_obstruction.py::test_every_certificate_mod_25_is_a_witness",
        ),
    ),
    # the fixtures built from an Eisenstein generator, with stored labels
    Mutant(
        "fixture-l1-l2-unswapped",
        MODEL,
        "spec, l1, l2 = zeta11_plus_field(), built.l2, built.l1",
        "spec, l1, l2 = zeta11_plus_field(), built.l1, built.l2",
        (
            "tests/test_model.py::test_fixture_tables_are_pinned",
            "tests/test_model.py::test_the_sigma_walk_names_the_zeta11plus_labels",
        ),
    ),
    Mutant(
        "fixture-built-from-alpha",
        MODEL,
        "built = _built(_zeta11plus_generator())",
        "built = _built(zeta11_plus_field().coefficients)",
        (
            "tests/test_model.py::test_fixture_tables_are_pinned",
            "tests/test_model.py::test_zeta11plus_fixture_data",
        ),
    ),
    # the model file, the claim table and the exit-code contract
    Mutant(
        "model-rank-rule-off-by-one",
        MODEL,
        "        if rank < 5:\n            raise UnknownModelError(",
        "        if rank < 4:\n            raise UnknownModelError(",
        ("tests/test_cli.py::test_dependent_quadrics_are_refused",),
    ),
    Mutant(
        "claim-mismatch-ok",
        VERIFY,
        'row_status = "ok" if computed == expected else "fail"',
        'row_status = "ok"',
        ("tests/test_cli.py::test_verify_paper_exits_one_on_a_claim_that_computes_another_value",),
    ),
    Mutant(
        "contradiction-exits-three",
        CLI,
        "return 4 if internal else 3",
        "return 3",
        ("tests/test_cli.py::test_internal_contradictions_exit_with_four",),
    ),
    # the verdict path: one two-route lookup, its precedence, the modulus
    # read off the ramified prime, one smoothness test, one model build
    Mutant(
        "two-routes-first-twice",
        OBSTRUCTION,
        "return first(model, h), second(model, h)",
        "return first(model, h), first(model, h)",
        (
            "tests/test_cli.py::test_both_commands_read_the_routes_at_call_time",
            "tests/test_cli.py::test_a_verdict_whose_routes_disagree_at_25_exits_with_four",
        ),
    ),
    Mutant(
        "verdict-image-before-irreducibility",
        OBSTRUCTION,
        '    elif not irreducible:\n        result = "trivial_brauer_class"\n'
        '    elif image.contains_zero:\n        result = "no_obstruction"\n',
        '    elif image.contains_zero:\n        result = "no_obstruction"\n'
        '    elif not irreducible:\n        result = "trivial_brauer_class"\n',
        (
            "tests/test_obstruction.py::test_verdict_trivial_class",
            "tests/test_transcript.py::test_transcript_is_pinned"
            "[verdict --model fixture:zeta25 --h 1,25,-700,200,-3425,575]",
        ),
    ),
    Mutant(
        "routes-at-11-read-mod-25",
        OBSTRUCTION,
        "        return inv_image_11, inv_image_11_smoothpath\n",
        "        return inv_image_25, inv_image_25_liftpath\n",
        ("tests/test_obstruction.py::test_headline_verdict_is_computed_not_copied",),
    ),
    Mutant(
        "wild-modulus-read-as-five",
        MODEL,
        "return 25 if primes[0] == 5 else primes[0]",
        "return primes[0]",
        ("tests/test_model.py::test_the_modulus_is_read_off_the_ramified_prime",),
    ),
    # the ramified primes read off the field, and the chart premise checked
    # on every chart route
    Mutant(
        "eisenstein-test-read-mod-p",
        NUMBERFIELD,
        "if sum(a * c ** i for i, a in enumerate(f)) % (p * p) == 0:",
        "if sum(a * c ** i for i, a in enumerate(f)) % p == 0:",
        ("tests/test_numberfield.py::test_ramified_primes_are_pinned",),
    ),
    Mutant(
        "wild-prime-test-dropped",
        NUMBERFIELD,
        "    if not (a4 % 5 or a3 % 5 or a2 % 5 or a1 % 5):\n        candidates.append((5, -a0 % 5))\n",
        "",
        (
            "tests/test_numberfield.py::test_ramified_primes_are_pinned",
            "tests/test_model.py::test_zeta25_fixture_data",
        ),
    ),
    Mutant(
        "chart-certificate-skipped",
        OBSTRUCTION,
        "        raise DomainError(f\"chart evaluation needs l1 = u0 modulo {modulus}\")\n    verify_chart(model)\n",
        "        raise DomainError(f\"chart evaluation needs l1 = u0 modulo {modulus}\")\n",
        (
            "tests/test_obstruction.py::test_a_model_off_its_chart_is_refused_by_every_chart_route",
            "tests/test_cli.py::test_a_model_file_off_its_chart_or_its_lifts_exits_with_three",
        ),
    ),
    # local solubility computed from the model
    Mutant(
        "solubility-witness-smoothness-inverted",
        OBSTRUCTION,
        "smooth = off[~_singular_mask(model, 2, off)]",
        "smooth = off[_singular_mask(model, 2, off)]",
        ("tests/test_obstruction.py::test_local_solubility",),
    ),
    Mutant(
        "solubility-gcd-two-part-kept",
        OBSTRUCTION,
        "odd = g // (g & -g) if g else 0",
        "odd = g",
        ("tests/test_obstruction.py::test_the_odd_gcd_drops_the_two_part",),
    ),
    Mutant(
        "insoluble-when-one-point-on-h",
        OBSTRUCTION,
        "    if on_h.all():",
        "    if on_h.any():",
        (
            "tests/test_obstruction.py::test_local_solubility",
            "tests/test_obstruction.py::test_solubility_for_every_built_model",
        ),
    ),
    Mutant(
        "search-keeps-unchecked-origin",
        MODEL,
        "found = {pt for pt in points if pt",
        "found = {points[0]} | {pt for pt in points if pt",
        ("tests/test_model.py::test_every_searched_point_is_checked",),
    ),
    Mutant(
        "undecided-solubility-exits-four",
        OBSTRUCTION,
        'raise DomainError("solubility at 2 is undecided',
        'raise FiberInconsistencyError("solubility at 2 is undecided',
        ("tests/test_obstruction.py::test_undecided_places_are_domain_errors",),
    ),
    Mutant(
        "build-rank-guard-off-by-one",
        MODEL,
        "quad_basis.rows != 5:",
        "quad_basis.rows != 4:",
        ("tests/test_model.py::test_build_model_reproduces_the_quintic_system",),
    ),
    # the Picard automorphism search
    Mutant(
        "unchecked-lattice-map",
        PICARD,
        "ok = (m @ v.T == w.transpose(0, 2, 1)).all(axis=(1, 2))",
        "ok = np.ones(len(m), dtype=bool)",
        ("tests/test_picard.py::test_a_class_permutation_that_is_not_linear_does_not_extend",),
    ),
    # the labels and sigma computed from the conic classes
    Mutant(
        "sigma-walk-reversed",
        PICARD,
        "_WALK = (1, 3, 5, 4, 2)",
        "_WALK = (2, 4, 5, 3, 1)",
        (
            "tests/test_picard.py::test_sigma_is_an_order_five_lattice_symmetry",
            "tests/test_transcript.py::test_transcript_is_pinned[cohomology]",
        ),
    ),
    Mutant(
        "labels-read-at-pairing-zero",
        PICARD,
        "meets = np.array(classes) @ np.diag(FORM) @ np.array(_conic_classes()).T == 1",
        "meets = np.array(classes) @ np.diag(FORM) @ np.array(_conic_classes()).T == 0",
        (
            "tests/test_picard.py::test_petersen_graph_structure",
            "tests/test_picard.py::test_labels_are_the_conic_classes_met",
        ),
    ),
    # one request cache, the census read off the chart table, the cheaper
    # witness and digit-pair kernels
    Mutant(
        "fiber-key-without-p",
        FIBERS,
        'key = ("fiber", p, model.quadrics)',
        'key = ("fiber", model.quadrics)',
        ("tests/test_fibers.py::test_one_claim_table_solves_each_fiber_once",),
    ),
    Mutant(
        "u5-cubics-at-u0-u2",
        OBSTRUCTION,
        "cubics[[0, 1]] = _digit_columns(np.arange(11 ** 2), 11, 2)",
        "cubics[[0, 2]] = _digit_columns(np.arange(11 ** 2), 11, 2)",
        ("tests/test_obstruction.py::test_the_census_reads_the_z_free_forms_at_the_rows_with_z_zero",),
    ),
    Mutant(
        "z-free-forms-read-h2",
        OBSTRUCTION,
        "forms[[0, 1, 3]] = _digit_columns(np.arange(1, 11 ** 3), 11, 3)",
        "forms[[0, 1, 2]] = _digit_columns(np.arange(1, 11 ** 3), 11, 3)",
        (
            "tests/test_obstruction.py::test_census_11_counts",
            "tests/test_obstruction.py::test_census_classes_are_the_forms_the_chart_kernel_says_obstruct",
        ),
    ),
    Mutant(
        "census-shape-check-dropped",
        OBSTRUCTION,
        "    other = np.flatnonzero(~(constant | separable))",
        "    other = np.flatnonzero(constant & separable)",
        ("tests/test_obstruction.py::test_a_partial_u5_form_fails_the_fullness_check",),
    ),
    Mutant(
        "published-verdict-keyed-by-name",
        OBSTRUCTION,
        "if h == coeffs and data == _fixture_data(name):",
        "if h == coeffs and model.name == name:",
        (
            "tests/test_obstruction.py::test_the_published_verdict_is_matched_by_the_model_data",
            "tests/test_obstruction.py::test_a_stripped_fixture_answers_as_the_fixture",
        ),
    ),
    Mutant(
        "witnesses-plus-c",
        OBSTRUCTION,
        "minus_c = (5 - np.arange(5, dtype=np.uint8))[:, None, None] % 5",
        "minus_c = (5 + np.arange(5, dtype=np.uint8))[:, None, None] % 5",
        (
            "tests/test_obstruction.py::test_fullness_witnesses_are_the_shifted_values",
            "tests/test_obstruction.py::test_tangent_pairings_are_the_chart_derivatives",
        ),
    ),
    Mutant(
        "one-hot-digits-swapped",
        OBSTRUCTION,
        "pairs = points[:, 0::2] + 11 * points[:, 1::2]",
        "pairs = 11 * points[:, 0::2] + points[:, 1::2]",
        (
            "tests/test_obstruction.py::test_pair_tables_are_the_direct_formula",
            "tests/test_obstruction.py::test_representative_masks_are_pinned",
        ),
    ),
    # the model's modulus picks its routes, one integer product fires a trigger
    Mutant(
        "trigger-product-reads-values",
        OBSTRUCTION,
        "(route.fixed @ bases % 11)",
        "(route.values @ bases % 11)",
        ("tests/test_obstruction.py::test_mask_kernel_matches_a_direct_evaluation",),
    ),
    Mutant(
        "conjugates-without-root-check",
        NUMBERFIELD,
        "    if evaluate_poly(spec.ascending(), candidates[0]):\n        return None\n",
        "",
        ("tests/test_numberfield.py::test_verify_conjugates_refuses_each_broken_premise",),
    ),
    # exact arithmetic on integer numerators over one denominator
    Mutant(
        "embedding-drops-denominator",
        NUMBERFIELD,
        "return _element(element.spec, total, scale * element.den)",
        "return _element(element.spec, total, scale)",
        ("tests/test_numberfield.py::test_embedding_keeps_the_denominator[zeta11plus]",),
    ),
    Mutant(
        "reconstruct-pair-swapped",
        NUMBERFIELD,
        "    return r1, t1\n",
        "    return t1, r1\n",
        ("tests/test_numberfield.py::test_conjugates_of_the_cyclotomic_quintic",),
    ),
    Mutant(
        "backsolve-without-lin-scale",
        MODEL,
        "*(lin * x for x in u[1:])",
        "*u[1:]",
        (
            "tests/test_model.py::test_stored_points_lie_on_every_quadric",
            "tests/test_model.py::test_searched_points_are_pinned",
        ),
    ),
    # products of plane forms by exponent slots, and the rows-1-3 minors
    Mutant(
        "line-slots-y-z-swapped",
        MODEL,
        "x, y, z = _product_slots(k, 1).T",
        "x, z, y = _product_slots(k, 1).T",
        (
            "tests/test_model.py::test_built_line_products_are_pinned",
            "tests/test_model.py::test_construction_is_pinned",
        ),
    ),
    Mutant(
        "chart-exponents-not-added",
        FIBERS,
        "out[:, b + d, c + e] += gram[:, i, j]",
        "out[:, b, c] += gram[:, i, j]",
        (
            "tests/test_fibers.py::test_chart_restriction_kills_a_quadric_combination",
            "tests/test_fibers.py::test_chart_restriction_commutes_with_evaluation",
        ),
    ),
    Mutant(
        "rows-1-3-minor-sign-flipped",
        FIBERS,
        "t[:, 1])).sum(axis=1)",
        "t[:, 1]) * np.array([1, -1, 1])[:, None]).sum(axis=1)",
        (
            "tests/test_fibers.py::test_cofactor_minors_equal_the_cross_product_minors",
            "tests/test_fibers.py::test_minor_shortcut_equals_the_full_rank_test_up_to_31",
            "tests/test_fibers.py::test_minor_shortcut_equals_the_full_rank_test_on_random_shaped_quadrics",
        ),
    ),
    Mutant(
        "backsolve-det-unscaled",
        MODEL,
        "*(det * x for x in t)",
        "*t",
        (
            "tests/test_model.py::test_stored_points_lie_on_every_quadric",
            "tests/test_model.py::test_searched_points_are_pinned",
        ),
    ),
)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _pytest(tree, tests):
    """(return code, seconds) of pytest on ``tests`` in ``tree``."""
    env = dict(
        os.environ,
        PYTHONPATH=str(tree / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            argv, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S, preexec_fn=_limit_memory
        )
        code = done.returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    return code, time.perf_counter() - start


def _copy_tree(target):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, target / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", target / "pyproject.toml")


def run(mutants):
    """Report every mutant; True when all are killed."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        originals = {m.path: (tree / m.path).read_text(encoding="utf-8") for m in mutants}
        for m in mutants:
            count = originals[m.path].count(m.snippet)
            if count != 1:
                raise SystemExit(f"{m.name}: snippet occurs {count} times in {m.path}")
        tests = sorted({t for m in mutants for t in m.tests})
        code, seconds = _pytest(tree, tests)
        if code != 0:
            raise SystemExit(f"the unmutated tree fails its tests (pytest exit {code})")
        print(f"{'unmutated':28} pass      {seconds:6.1f} s")
        killed = 0
        for m in mutants:
            source = tree / m.path
            source.write_text(originals[m.path].replace(m.snippet, m.replacement), encoding="utf-8")
            try:
                code, seconds = _pytest(tree, m.tests)
            finally:
                source.write_text(originals[m.path], encoding="utf-8")
            # pytest exits 1 when tests fail; any other code is a broken run
            status = "killed" if code == 1 else "survived" if code == 0 else f"error ({code})"
            killed += status == "killed"
            print(f"{m.name:28} {status:9} {seconds:6.1f} s")
    print(f"{killed} of {len(mutants)} mutants killed")
    return killed == len(mutants)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    return 0 if run([by_name[n] for n in args.names] if args.names else list(MUTANTS)) else 1


if __name__ == "__main__":
    sys.exit(main())
