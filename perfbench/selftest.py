"""Prove that the benchmark's correctness gate can fail.

usage: python3 perfbench/selftest.py    (from the root of a checkout)

For each workload, a handful of real requests and outputs go through the
same loop and oracle as a benchmark run, once as computed and once with a
single output made wrong on purpose: a flipped verdict, two routes that
disagree, a dropped fiber point, a point moved off the surface, a failed
claim row, a lost flagged row, a wrong census count and a non-zero exit
code.  The computed outputs must give fail_ratio 0 and every wrong one
must raise it above 0.  Exits 1 if any case does not.  Takes a few seconds.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import oracles
import run
import workloads


class Canned:
    """Replays fixed outputs for fixed requests through a workload's oracle."""

    round_len = 1

    def __init__(self, inner, requests, outputs):
        self.inner = inner
        self.requests = requests
        self.outputs = iter(outputs)

    def request(self, i):
        return self.requests[i]

    def execute(self, request):
        return next(self.outputs)

    def check(self, request, output):
        return self.inner.check(request, output)


def fail_ratio(inner, requests, outputs):
    canned = Canned(inner, requests, outputs)
    _, samples, _ = run.measure(canned, 0, replay=requests)
    return sum(1 for *_, problems in samples if problems) / len(samples)


def verdict_cases(lib):
    w = workloads.Verdicts(7, lib)
    requests = []
    while not {"verdict", "invariants"} <= {r[0] for r in requests} or len(requests) < 6:
        requests.append(w.request(len(requests)))
    outputs = [w.execute(r) for r in requests]
    flips = {"obstruction_order_5": "no_obstruction", "no_obstruction": "obstruction_order_5",
             "no_adelic_points": "no_obstruction", "trivial_brauer_class": "no_obstruction"}
    v = next(i for i, r in enumerate(requests) if r[0] == "verdict")
    k = next(i for i, r in enumerate(requests) if r[0] == "invariants")
    flipped = list(outputs)
    flipped[v] = flips[outputs[v]]
    name, h = requests[k][1], requests[k][2]
    full = lib.obstruction.fifth_power_classes(11 if name == "zeta11plus" else 25).classes
    first, second = outputs[k]
    other = dataclasses.replace(second, classes=full[:1] if second.classes == full else full)
    split = list(outputs)
    split[k] = (first, other)
    return w, requests, outputs, {"flipped verdict": flipped, "routes disagree": split}


def fiber_cases(lib):
    w = workloads.Fibers(7, lib)
    m = w.fixtures["zeta11plus"]
    seven, eleven = (lib.fibers.classify_fiber(m, p) for p in (7, 11))
    cert = lib.fibers.verify_chart(m)

    def one_pass(report):
        return [("zeta11plus", m, [report, eleven], cert)]

    pt = seven.points[-1]
    moved = seven.points[:-1] + (pt[:-1] + ((pt[-1] + 1) % 7,),)
    return w, [("pass",)], [one_pass(seven)], {
        "dropped point": [one_pass(dataclasses.replace(seven, points=seven.points[1:]))],
        "point off the surface": [one_pass(dataclasses.replace(seven, points=moved))],
    }


def audit_cases(lib):
    w = workloads.Audit(7, lib)
    rows = [{"id": f"claim-{i}", "status": "ok", "computed": i} for i in range(31)]
    rows.append({"id": "invariant-path-agreement", "status": "ok",
                 "computed": {"checked": oracles.CENSUS_11_FORMS, "disagreements": 0}})
    rows += [{"id": cid, "status": "flagged", "computed": None}
             for cid in sorted(oracles.FLAGGED_IDS)]
    table = {"counts": dict(oracles.AUDIT_COUNTS), "claims": rows}
    failed = copy.deepcopy(table)
    failed["claims"][0]["status"] = "fail"
    lost = copy.deepcopy(table)
    lost["claims"][-1]["status"] = "ok"
    requests = [("claims",)]
    return w, requests, [table], {"failed claim row": [failed], "flag lost": [lost]}


def cli_cases(lib):
    w = workloads.Cli(7, lib)
    request = ("census_25", ["census", "--modulus=25"], {"workers": 1})
    good = w.execute(request)
    code, stdout, stderr = good
    wrong = stdout.replace('"obstructing": 176', '"obstructing": 175')
    return w, [request], [good], {
        "wrong census count": [(code, wrong, stderr)],
        "exit code 1": [(1, stdout, stderr)],
    }


def main():
    lib = run.load_package()
    ok = True
    for name, cases in (("verdicts", verdict_cases), ("fibers", fiber_cases),
                        ("audit", audit_cases), ("cli", cli_cases)):
        inner, requests, outputs, wrong = cases(lib)
        base = fail_ratio(inner, requests, outputs)
        print(f"{name}: computed outputs, fail_ratio {base:.3f}")
        ok &= base == 0
        for label, bad in wrong.items():
            ratio = fail_ratio(inner, requests, bad)
            print(f"{name}: {label}, fail_ratio {ratio:.3f}")
            ok &= ratio > 0
    print("gate self-test", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
