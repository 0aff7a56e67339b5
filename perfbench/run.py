"""dp5brauer benchmark entry point.

usage: python3 perfbench/run.py --workload {audit,fibers,verdicts,cli,all}
           --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.  One
closed loop with one client runs the workload for at least S seconds and
always ends on a whole round.  Every output goes through the oracles in
oracles.py.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is a
report with the metadata (machine, versions, code identity, percentiles)
and the metrics under the names the workloads were specified with.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same requests
twice, untraced and then with every public layer function wrapped in a
timing span, then probes cold verdicts, `import dp5brauer.cli` and every
CLI subcommand in fresh processes; it prints the per-layer metrics and the
tracing overhead, and writes the spans to
perfbench/out/trace-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types

import numpy

import oracles
import workloads
from spans import Tracer, aggregate, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# fresh set-up processes before and after the timed loop
SETUP_REPEATS = 3
PROBE_REPEATS = 5
CLI_PROBE_ROUNDS = 2

# per-layer functions reported as <name>.self_s and <name>.calls
LAYER_FUNCS = (
    "obstruction.census_11_smoothpath",
    "obstruction.path_agreement_check",
    "obstruction.census_11",
    "obstruction.census_invariance_check",
    "obstruction.census_25",
    "obstruction.tangent_surjectivity_check",
    "obstruction.verdict",
    "obstruction.locally_soluble",
    "obstruction.inv_image_11",
    "obstruction.inv_image_11_smoothpath",
    "obstruction.inv_image_25",
    "obstruction.inv_image_25_liftpath",
    "obstruction.fifth_power_classes",
    "fibers.enumerate_fiber",
    "fibers.classify_fiber",
    "fibers.find_lines",
    "fibers.singular_points",
    "fibers.verify_chart",
    "fibers.minpoly_splitting_mod_p",
    "fibers.jacobian_matrix_mod_p",
    "fibers.rank_mod_p",
    "model.build_model",
    "numberfield.galois_conjugates",
    "intlinalg.saturated_kernel",
    "intlinalg.hnf",
    "intlinalg.snf",
    "verify.run_claims",
    "cli.main",
)


def load_package():
    """Import dp5brauer from ./src of this checkout, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "dp5brauer", "__init__.py")):
        sys.exit(f"error: no dp5brauer package under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import dp5brauer
    from dp5brauer import fibers, model, numberfield, obstruction, verify

    if not os.path.abspath(dp5brauer.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: dp5brauer was imported from {dp5brauer.__file__}")
    return types.SimpleNamespace(
        fibers=fibers,
        model=model,
        numberfield=numberfield,
        obstruction=obstruction,
        verify=verify,
    )


def make_workload(name, seed, lib):
    return workloads.WORKLOADS[name](seed, lib)


def tail(values):
    """(value, percentile, samples) for the tail latency.

    The highest percentile with at least ten samples beyond it, capped at
    the 90th: with thousands of requests the uncapped rule reads the 11th
    slowest request, which swung by 30% between runs of the same code.
    With ten samples or fewer it is the maximum.
    """
    xs = sorted(values)
    n = len(xs)
    k = n - 11 if n >= 11 else n - 1
    k = min(k, max(0, math.ceil(0.9 * n) - 1))
    return xs[k], 100.0 * (k + 1) / n, n


def _timed(workload, request):
    t0 = time.perf_counter()
    try:
        output, problems = workload.execute(request), None
    except Exception as exc:  # a failed request is counted, not fatal
        output, problems = None, [f"{request[0]}: {type(exc).__name__}: {exc}"]
    return output, problems, time.perf_counter() - t0


def measure(workload, seconds, tracer=None, replay=None):
    """Closed loop with one client; each request is timed on its own.

    Without `replay` it draws requests until `seconds` have passed and at
    least `min_rounds` whole rounds are complete; with `replay` it runs
    exactly those requests.
    Returns requests, per-request (kind, seconds, problems) and the span
    index of each request when traced.
    """
    requests, samples, request_spans = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        if replay is not None:
            if i == len(replay):
                break
            request = replay[i]
        else:
            rounds, partial = divmod(i, workload.round_len)
            if (
                not partial
                and rounds >= workload.min_rounds
                and time.perf_counter() - start >= seconds
            ):
                break
            request = workload.request(i)
        requests.append(request)
        if tracer is None:
            output, problems, elapsed = _timed(workload, request)
        else:
            tracer.request = i
            with tracer.span("bench.request") as idx:
                tracer.enabled = True
                output, problems, elapsed = _timed(workload, request)
                tracer.enabled = False
            request_spans.append(idx)
        if problems is None:
            problems = workload.check(request, output)
        samples.append((request[0], elapsed, problems))
        i += 1
    return requests, samples, request_spans


def setup_seconds(name, seed):
    """Wall times of fresh processes that import and set up only."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def src_identity():
    digest = hashlib.sha256()
    lines = 0
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for fname in sorted(files):
            if fname.endswith(".py"):
                path = os.path.join(folder, fname)
                with open(path, "rb") as fh:
                    data = fh.read()
                digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
                lines += data.count(b"\n")
    return digest.hexdigest()[:16], lines


def metadata(seed):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    digest, lines = src_identity()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest,
        "src_lines": lines,
        "seed": seed,
    }


def latency_summary(samples):
    latencies = [s for _, s, _ in samples]
    value, pct, n = tail(latencies)
    return {
        "p50_ms": statistics.median(latencies) * 1e3,
        "tail_ms": value * 1e3,
        "tail_percentile": pct,
        "samples": n,
        "ops_per_s": n / sum(latencies),
    }


NAMED = {
    "audit": lambda s: {"audit_s": (s["p50_ms"] / 1e3, "s")},
    "fibers": lambda s: {"fibers_s": (s["p50_ms"] / 1e3, "s")},
    "verdicts": lambda s: {
        "verdicts_per_s": (s["ops_per_s"], "1/s"),
        "verdict_p50_ms": (s["p50_ms"], "ms"),
        "verdict_tail_ms": (s["tail_ms"], "ms"),
    },
    "cli": lambda s: {
        "cli_p50_ms": (s["p50_ms"], "ms"),
        "cli_tail_ms": (s["tail_ms"], "ms"),
    },
}


def end_to_end(name, seed, seconds, lib):
    # the VM's speed shifts between runs of the timed loop, so set-up is
    # sampled on both sides of it and the median spans the whole run
    setup_samples = setup_seconds(name, seed)
    _, samples, _ = measure(make_workload(name, seed, lib), seconds)
    rss = peak_rss_mb(name)
    setup_samples += setup_seconds(name, seed)
    setup_s = statistics.median(setup_samples)
    summary = latency_summary(samples)
    failed = sum(1 for _, _, problems in samples if problems)
    metrics = {
        "p50_ms": (summary["p50_ms"], "ms"),
        "tail_ms": (summary["tail_ms"], "ms"),
        "ops_per_s": (summary["ops_per_s"], "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    named = dict(NAMED[name](summary))
    named.update(
        setup_s=(setup_s, "s"),
        peak_rss_mb=(rss, "MB"),
        fail_ratio=(failed / len(samples), "ratio"),
    )
    report = {
        "tail_percentile": summary["tail_percentile"],
        "samples": summary["samples"],
        "setup_samples_s": setup_samples,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }
    return samples, metrics, report


def _child_spans(tracer, workload, request_spans):
    """Append the spans recorded inside CLI child processes to the tracer,
    each child's top-level spans under the request that started it."""
    for parent_idx, spans in zip(request_spans, workload.child_spans):
        offset = len(tracer.spans)
        request = tracer.spans[parent_idx][4]
        for name, start, end, parent, _, note in spans:
            tracer.spans.append(
                (name, start, end, parent + offset if parent >= 0 else parent_idx,
                 request, note)
            )


def verdict_probe(lib):
    """Cold and warm in-process verdict latency on the headline form."""
    m = lib.model.fixture("zeta11plus")
    cold, warm = [], []
    for _ in range(PROBE_REPEATS):
        workloads.reset_caches(lib.obstruction)
        t0 = time.perf_counter()
        lib.obstruction.verdict(m, oracles.HEADLINE_H)
        cold.append(time.perf_counter() - t0)
    for _ in range(10 * PROBE_REPEATS):
        t0 = time.perf_counter()
        lib.obstruction.verdict(m, oracles.HEADLINE_H)
        warm.append(time.perf_counter() - t0)
    return statistics.median(cold) * 1e3, statistics.median(warm) * 1e3


def import_probe(lib):
    """`import dp5brauer.cli` in fresh processes, in ms."""
    cli = workloads.Cli(0, lib)
    cli.trace_dir = OUT
    times = []
    for _ in range(PROBE_REPEATS):
        proc, spans = cli.traced(["--import-only"])
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-400:]}")
        times += [(end - start) * 1e3 for name, start, end, *_ in spans if name == "cli.import"]
    return times


def cli_probe(seed, lib, tracer):
    """Cold CLI processes after the timed loop, on every workload.

    CLI_PROBE_ROUNDS seeded rounds of every subcommand run untraced for
    `cli.<kind>.p50_ms`; then `census --modulus 11` at the default `--jobs`
    and at `--jobs 1` run once more under clitrace.py, and their spans join
    the tracer's at top level.  Returns the untraced and the traced
    samples, oracle-checked, and the self times of those two
    `obstruction.census_11` calls by worker count, so that the pool is
    compared with `--jobs 1` in the same setting on every workload.
    """
    cli = workloads.Cli(seed, lib)
    requests = [cli.request(i) for i in range(CLI_PROBE_ROUNDS * cli.round_len)]
    _, untraced, _ = measure(cli, 0, replay=requests)
    cli.trace_dir = OUT
    census = [r for r in requests[: cli.round_len] if r[0].startswith("census_11")]
    _, traced, _ = measure(cli, 0, replay=census)
    census_self = {"jobs1": [], "jobsN": []}
    for spans in cli.child_spans:
        for span, own in zip(spans, self_times(spans)):
            if span[0] == "obstruction.census_11" and span[5] is not None:
                census_self["jobs1" if span[5]["jobs"] == 1 else "jobsN"].append(own)
        offset = len(tracer.spans)
        for name, start, end, parent, _, note in spans:
            tracer.spans.append(
                (name, start, end, parent + offset if parent >= 0 else -1, None, note)
            )
    return untraced, traced, census_self


def per_layer(name, seed, seconds, lib):
    workload = make_workload(name, seed, lib)
    requests, plain, _ = measure(workload, seconds)
    tracer = Tracer()
    tracer.install()
    os.makedirs(OUT, exist_ok=True)
    if name == "cli":
        workload.trace_dir = OUT
    try:
        _, traced, request_spans = measure(workload, seconds, tracer, replay=requests)
    finally:
        tracer.uninstall()
    if name == "cli":
        _child_spans(tracer, workload, request_spans)
    cold_ms, warm_ms = verdict_probe(lib)
    import_ms = import_probe(lib)
    cli_untraced, cli_traced, census = cli_probe(seed, lib, tracer)
    spans = tracer.spans
    tracer.write(os.path.join(OUT, f"trace-{name}-{seed}.jsonl"))

    agg = aggregate(spans)
    metrics = {}
    for fn in LAYER_FUNCS:
        entry = agg.get(fn, {"self_s": 0.0, "calls": 0})
        metrics[f"{fn}.self_s"] = (entry["self_s"], "s")
        metrics[f"{fn}.calls"] = (entry["calls"], "count")
    totals = {"points": 0, "p2": 0.0, "lines": 0, "forms": 0}
    picard = [0.0, 0]
    for span, own in zip(spans, self_times(spans)):
        sname, note = span[0], span[5]
        if sname == "cli.import":
            import_ms.append((span[2] - span[1]) * 1e3)
        if sname.startswith("picard."):
            picard[0] += own
            picard[1] += 1
        if note is None:
            continue
        if sname == "fibers.enumerate_fiber":
            totals["points"] += note["points"]
            if note["p"] == 2:
                totals["p2"] += own
        elif sname == "fibers.find_lines":
            totals["lines"] += note["lines"]
        elif sname == "obstruction.path_agreement_check":
            totals["forms"] += note["forms"]
    metrics.update({
        "fibers.enumerate_fiber.points": (totals["points"], "count"),
        "fibers.enumerate_fiber.p2.self_s": (totals["p2"], "s"),
        "fibers.find_lines.lines": (totals["lines"], "count"),
        "obstruction.path_agreement_check.forms": (totals["forms"], "count"),
        **{
            f"obstruction.census_11.{jobs}.mean_self_ms": (
                statistics.mean(values) * 1e3 if values else 0.0, "ms"
            )
            for jobs, values in census.items()
        },
        "obstruction.verdict.cold_ms": (cold_ms, "ms"),
        "obstruction.verdict.warm_p50_ms": (warm_ms, "ms"),
        "picard.self_s": (picard[0], "s"),
        "picard.calls": (picard[1], "count"),
        "cli.import_ms": (statistics.median(import_ms), "ms"),
        "cli.import.self_s": (agg.get("cli.import", {"self_s": 0.0})["self_s"], "s"),
        "unattributed.self_s": (agg.get("bench.request", {"self_s": 0.0})["self_s"], "s"),
    })
    for kind in workloads.CLI_KINDS:
        lat = [s for k, s, _ in cli_untraced if k == kind]
        metrics[f"cli.{kind}.p50_ms"] = (statistics.median(lat) * 1e3, "ms")
    busy_plain = sum(s for _, s, _ in plain)
    busy_traced = sum(s for _, s, _ in traced)
    metrics["trace.overhead_s"] = (busy_traced - busy_plain, "s")
    metrics["trace.overhead_pct"] = (100.0 * (busy_traced - busy_plain) / busy_plain, "%")

    ranked = sorted(
        ((v["self_s"], k) for k, v in agg.items() if not k.startswith("bench.")),
        reverse=True,
    )
    report = {
        "samples": len(plain),
        "untraced_busy_s": busy_plain,
        "traced_busy_s": busy_traced,
        "spans": len(spans),
        "top_self_s": [[k, v] for v, k in ranked[:6]],
    }
    return plain + traced + cli_untraced + cli_traced, metrics, report


def run_one(name, args, lib):
    runner = per_layer if args.trace else end_to_end
    samples, metrics, report = runner(name, args.seed, args.seconds, lib)
    problems = [p for _, _, ps in samples for p in ps]
    failed = sum(1 for _, _, ps in samples if ps)
    report = {"workload": name, "trace": args.trace, "seconds": args.seconds,
              "meta": metadata(args.seed), **report, "problems": problems[:5]}
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    lib = load_package()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.setup_only:
        for name in names:
            make_workload(name, args.seed, lib)
        return 0
    results = []
    for name in names:
        report, result = run_one(name, args, lib)
        print(json.dumps({"report": report}), flush=True)
        results.append((name, result))
    if len(results) == 1:
        print(json.dumps(results[0][1]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
