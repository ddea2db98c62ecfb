#!/usr/bin/env python3
"""planetbench: the repository's epoch benchmark.

Builds bench/planet/main.cpp (a standalone CMake project over the
planetmarket libraries) into bench/planet/build/, runs its four
workloads, checks their outputs and prints every metric by name with its
unit. See bench/planet/README.md for the workloads and metrics.

Full run (rotations of fresh processes, then one traced process per
workload; writes a planetbench document to FILE):

    python3 bench/planet/run.py --out FILE [--seed S] [--trace]
        [--smoke] [--repeat N] [--trace-out DIR]

One measured run of one workload (the form BENCHMARK.json names; the
last line of stdout is a JSON result):

    python3 bench/planet/run.py --workload NAME --seed S --seconds T \\
        --trace 0|1
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SCHEMA = "planetbench/1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = HERE / "build"
SCRATCH = HERE / "out"
EXE = BUILD / "planetbench"
STAMP = BUILD / "planetbench.stamp"

WORKLOADS = ["market-1k", "big-clusters", "clock-dense", "planet-economy"]
DEFAULT_SEED = 20090425
ROTATIONS = 4
# Ops per process in a full run: whole passes over each workload's worlds
# (main.cpp, WorldsFor), and at least 100 pooled samples over the
# rotations, so ten or more lie beyond the p90.
FULL_OPS = {"market-1k": 40, "big-clusters": 60, "clock-dense": 30,
            "planet-economy": 120}
SMOKE_OPS = {"market-1k": 10, "big-clusters": 10, "clock-dense": 2,
             "planet-economy": 20}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

END_TO_END = [
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_p90", "ms"),
    ("bids_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Layer timings: each is reported as its per-op median (ms) and as its
# share of op time (sum of the layer over sum of op time).
LAYER_MS = [
    "agents.make_bids_ms", "agents.observe_outcome_ms", "bid.validate_ms",
    "cluster.fleet_vectors_ms", "cluster.utilization_percentile_ms",
    "reserve.price_ms", "exchange.endow_ms",
    "exchange.settlement_pipeline_ms", "exchange.refresh_profiles_ms",
    "exchange.snapshot_ms", "auction.compile_ms", "auction.run_ms",
    "auction.collect_ms", "auction.bisect_ms", "auction.system_check_ms",
    "auction.settle_ms", "federation.route_ms", "federation.barrier_ms",
    "federation.shard_critical_ms", "federation.shard_sum_ms",
    "federation.shard_collect_ms", "federation.shard_bisect_ms",
    "federation.shard_settle_ms", "federation.unattributed_ms",
    "replay.unattributed_ms",
]
# Per-op counts (median per op).
LAYER_COUNTS = [
    ("agents.bids", "count"),
    ("cluster.utilization_percentile_calls", "count"),
    ("exchange.jobs_added", "count"),
    ("exchange.moves", "count"),
    ("exchange.placement_failures", "count"),
    ("exchange.snapshot_bytes", "bytes"),
    ("auction.rounds", "count"),
    ("auction.demand_evaluations", "count"),
    ("auction.proxies_reevaluated", "count"),
    ("auction.bisection_probes", "count"),
    ("auction.dot_blocks", "count"),
    ("auction.dirty_bidders", "count"),
    ("auction.full_collections", "count"),
    ("auction.incremental_collections", "count"),
    ("federation.routed_parts", "count"),
    ("federation.rejected_parts", "count"),
    ("federation.work_dot_blocks", "count"),
    ("federation.work_dirty_bidders", "count"),
    ("federation.work_bisection_probes", "count"),
    ("federation.work_full_collections", "count"),
    ("federation.work_incremental_collections", "count"),
    ("federation.work_refund_ops", "count"),
]
PER_LAYER = (
    [(name, "ms") for name in LAYER_MS]
    + [(name[:-3] + "_share", "share") for name in LAYER_MS]
    + LAYER_COUNTS
    + [
        ("exchange.restore_ms", "ms"),
        ("exchange.unplaced_unit_share", "share"),
        ("auction.reevaluated_share", "share"),
        ("trace.op_ms", "ms"),
        ("replay.market_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
)
MARKET_WORKLOADS = ("market-1k", "big-clusters")


def die(message):
    print("planetbench: " + message, file=sys.stderr)
    sys.exit(2)


# ------------------------------------------------------------------ build --

def source_fingerprint():
    """Hash of every source the benchmark binary is built from."""
    files = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt",
             HERE / "main.cpp"]
    files += sorted(p for p in (ROOT / "src").rglob("*")
                    if p.suffix in (".h", ".cpp"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure_built():
    """Configures and builds the benchmark unless the sources it was
    built from are unchanged. Build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die("the planetmarket sources (CMakeLists.txt, src/) must sit two "
            "directories above bench/planet/")
    fingerprint = source_fingerprint()
    if EXE.is_file() and STAMP.is_file() and \
            STAMP.read_text().strip() == fingerprint:
        return
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "--target", "planetbench",
                 "-j", jobs]):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            die("build failed: %s" % err)
        if done.returncode != 0:
            die("build failed: %s exited %d" % (" ".join(cmd),
                                                done.returncode))
    STAMP.write_text(fingerprint + "\n")


def run_process(workload, seed, budget, trace=False, smoke=False,
                trace_out=None):
    """Runs one planetbench process and returns its sample document.
    `budget` is ("--ops", n) or ("--seconds", t)."""
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           budget[0], str(budget[1])]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        die("%s exited %d" % (workload, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- metrics --

def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(docs):
    """End-to-end metrics from untraced process documents of one
    workload, with op samples pooled across processes."""
    ops = [x for d in docs for x in d["op_ms"]]
    return {
        "epoch_ms_p50": median(ops),
        "epoch_ms_p90": p90(ops),
        "bids_per_s": sum(d["bids"] for d in docs) / (sum(ops) / 1000.0),
        "setup_s": median([median(d["setup_s"]) for d in docs]),
        "peak_rss_mb": max(d["peak_rss_kb"] for d in docs) / 1024.0,
    }


def per_layer(doc):
    """Per-layer metrics from one traced process document. Layers a
    workload never calls read 0."""
    per_op = doc["per_op"]

    def samples(name):
        return per_op.get(name, [])

    if doc["workload"] in MARKET_WORKLOADS:
        op, base = samples("replay.op_ms"), samples("market.op_ms")
    else:
        op, base = samples("traced.op_ms"), samples("untraced.op_ms")
    op_total = sum(op) or 1.0
    out = {}
    for name in LAYER_MS:
        out[name] = median(samples(name))
        out[name[:-3] + "_share"] = sum(samples(name)) / op_total
    for name, _ in LAYER_COUNTS:
        out[name] = median(samples(name))
    out["exchange.restore_ms"] = median(
        doc["per_episode"].get("exchange.restore_ms", []))
    awarded = doc["awarded_units"]
    out["exchange.unplaced_unit_share"] = (
        (awarded - doc["placed_units"]) / awarded if awarded > 0 else 0.0)
    evaluations = sum(samples("auction.demand_evaluations"))
    out["auction.reevaluated_share"] = (
        sum(samples("auction.proxies_reevaluated")) / evaluations
        if evaluations > 0 else 0.0)
    out["trace.op_ms"] = median(op)
    ratio = median(op) / median(base) if base and median(base) > 0 else 0.0
    out["replay.market_ratio"] = (
        ratio if doc["workload"] in MARKET_WORKLOADS else 0.0)
    out["trace.overhead_ratio"] = ratio
    return out


def attribution(workload, layers):
    """Whether the traced breakdown closes: (name, ok, detail) rows."""
    rows = []
    if workload in MARKET_WORKLOADS:
        ratio = layers["replay.market_ratio"]
        rows.append(("replay.market_ratio in [0.85, 1.15]",
                     0.85 <= ratio <= 1.15, "%.4f" % ratio))
        share = layers["replay.unattributed_share"]
        rows.append(("layer ms sum to within 5% of the replay op",
                     abs(share) <= 0.05, "unattributed %.2f%%" %
                     (100 * share)))
    if workload == "planet-economy":
        parts = sum(layers[n] for n in (
            "federation.route_share", "federation.barrier_share",
            "federation.shard_critical_share",
            "federation.unattributed_share"))
        rows.append(("route + barrier + shard critical + unattributed "
                     "== epoch", abs(parts - 1.0) <= 1e-9,
                     "sum of shares %.12f" % parts))
    return rows


def failed_checks(docs):
    return [(d["workload"], c) for d in docs for c in d["checks"]
            if not c["ok"]]


# ------------------------------------------------------------ measured run --

def measured_run(args):
    """One process, one workload: prints the JSON result line."""
    if args.workload not in WORKLOADS:
        die("unknown workload %r (one of %s)" % (args.workload,
                                                  ", ".join(WORKLOADS)))
    if args.seconds is None or args.seconds <= 0:
        die("--seconds must be positive")
    traced = str(args.trace or "0") == "1"
    ensure_built()
    doc = run_process(args.workload, args.seed, ("--seconds", args.seconds),
                      trace=traced, smoke=args.smoke)
    failures = failed_checks([doc])
    for workload, check in failures:
        print("FAILED %s: %s (%s)" % (workload, check["name"],
                                      check["detail"]), file=sys.stderr)
    if traced:
        values = per_layer(doc)
        units = dict(PER_LAYER)
    else:
        values = end_to_end([doc])
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": not failures,
        "attempted": doc["ops"],
        "failed": doc["failed_ops"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if not failures else 1


# -------------------------------------------------------------- full mode --

def git_tracked(path):
    """True when `path` (a file, or any file under a directory) is
    tracked by git. Outside a git checkout nothing is tracked."""
    try:
        done = subprocess.run(["git", "-C", str(path.parent), "ls-files",
                               "--", path.name], capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return False
    return done.returncode == 0 and done.stdout.strip() != ""


def check_out_path(path):
    """Refuses to write over a committed file or any file that is not a
    planetbench document."""
    if path.is_dir():
        die("--out %s is a directory" % path)
    if git_tracked(path):
        die("refusing to write --out %s: the path is tracked by git" % path)
    if path.exists():
        try:
            schema = json.loads(path.read_text()).get("schema")
        except (OSError, ValueError, AttributeError):
            schema = None
        if schema != SCHEMA:
            die("refusing to overwrite %s: it is not a %s document" %
                (path, SCHEMA))


def untraced_pass(args):
    """R rotations of fresh processes; the start workload rotates so
    host drift spreads evenly over the workloads."""
    ops = SMOKE_OPS if args.smoke else FULL_OPS
    docs = {w: [] for w in WORKLOADS}
    for rotation in range(ROTATIONS):
        order = WORKLOADS[rotation:] + WORKLOADS[:rotation]
        for workload in order:
            doc = run_process(workload, args.seed, ("--ops", ops[workload]),
                              smoke=args.smoke)
            docs[workload].append(doc)
            print("  rotation %d %-15s %4d ops  digest %s" %
                  (rotation, workload, doc["ops"], doc["digest"]),
                  file=sys.stderr)
    return docs


def merge_outside_traces(trace_out):
    """One chrome://tracing file of the benchmark's outside spans, one
    track per workload."""
    events = []
    for tid, workload in enumerate(WORKLOADS):
        part = trace_out / (workload + ".outside.json")
        if not part.exists():
            continue
        for event in json.loads(part.read_text())["traceEvents"]:
            event["tid"] = tid
            events.append(event)
        part.unlink()
    path = trace_out / "planetbench_outside_trace.json"
    path.write_text(json.dumps({"displayTimeUnit": "ms",
                                "traceEvents": events}) + "\n")
    return path


def spread(values):
    low = min(values)
    return max(values) / low - 1.0 if low > 0 else 0.0


def print_metrics(values, units):
    for name, unit in units:
        print("  %-44s %-6s %.6g" % (name, unit, values[name]))


def workload_entry(workload, runs, traced):
    """The document entry of one workload: end-to-end metrics from the
    last untraced run, spreads over all of them, per-layer metrics from
    the traced process, and every digest seen."""
    entry = {}
    docs = [d for run in runs for d in run] + ([traced] if traced else [])
    entry["digest"] = sorted({d["digest"] for d in docs})
    if runs:
        last = runs[-1]
        values = end_to_end(last)
        attempted = sum(d["ops"] for d in last)
        awarded = sum(d["awarded_units"] for d in last)
        placed = sum(d["placed_units"] for d in last)
        entry["samples"] = sum(len(d["op_ms"]) for d in last)
        entry["end_to_end"] = {n: {"value": values[n], "unit": u}
                               for n, u in END_TO_END}
        entry["failed_op_share"] = (
            sum(d["failed_ops"] for d in last) / attempted)
        entry["unplaced_unit_share"] = (
            (awarded - placed) / awarded if awarded > 0 else 0.0)
    if len(runs) > 1:
        entry["spread"] = {n: spread([end_to_end(run)[n] for run in runs])
                           for n, _ in END_TO_END}
    if traced:
        layers = per_layer(traced)
        entry["per_layer"] = {n: {"value": layers[n], "unit": u}
                              for n, u in PER_LAYER}
        entry["attribution"] = [
            {"check": name, "ok": good, "detail": detail}
            for name, good, detail in attribution(workload, layers)]
    return entry


def print_entry(workload, entry):
    same = len(entry["digest"]) == 1
    print("%s  digest %s%s" % (workload, ", ".join(entry["digest"]),
                               "" if same else "  MISMATCH"))
    if "end_to_end" in entry:
        print("  (%d op samples)" % entry["samples"])
        print_metrics({n: v["value"] for n, v in entry["end_to_end"].items()},
                      END_TO_END)
        print_metrics(entry, [("failed_op_share", "share"),
                              ("unplaced_unit_share", "share")])
    for name, value in entry.get("spread", {}).items():
        print("  spread %-37s %.2f%%" % (name, 100 * value))
    if "per_layer" in entry:
        print_metrics({n: v["value"] for n, v in entry["per_layer"].items()},
                      PER_LAYER)
        for row in entry["attribution"]:
            print("  attribution: %s: %s (%s)" %
                  (row["check"], "ok" if row["ok"] else "NOT MET",
                   row["detail"]))


def full_run(args):
    out_path = Path(args.out).resolve()
    check_out_path(out_path)
    trace_out = Path(args.trace_out).resolve() if args.trace_out else None
    if trace_out is not None and git_tracked(trace_out):
        die("refusing to write traces into %s: it holds tracked files" %
            trace_out)
    ensure_built()

    traced_only = args.trace is not None
    runs = [] if traced_only else [untraced_pass(args)
                                   for _ in range(args.repeat)]
    traced = {}
    if traced_only or args.repeat == 1:
        if trace_out is not None:
            trace_out.mkdir(parents=True, exist_ok=True)
        ops = SMOKE_OPS if args.smoke else FULL_OPS
        for workload in WORKLOADS:
            traced[workload] = run_process(
                workload, args.seed, ("--ops", ops[workload]), trace=True,
                smoke=args.smoke, trace_out=trace_out)

    result = {"schema": SCHEMA, "seed": args.seed, "smoke": args.smoke,
              "rotations": ROTATIONS, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        entry = workload_entry(workload, [run[workload] for run in runs],
                               traced.get(workload))
        ok = ok and len(entry["digest"]) == 1
        result["workloads"][workload] = entry
        print_entry(workload, entry)

    all_docs = [d for run in runs for w in WORKLOADS for d in run[w]]
    all_docs += list(traced.values())
    failures = failed_checks(all_docs)
    for workload, check in failures:
        print("FAILED %s: %s (%s)" % (workload, check["name"],
                                      check["detail"]))
    names = sorted({c["name"] for d in all_docs for c in d["checks"]})
    result["checks"] = {name: all(c["ok"] for d in all_docs
                                  for c in d["checks"] if c["name"] == name)
                        for name in names}
    ok = ok and not failures
    result["correct"] = ok
    if trace_out is not None:
        print("outside spans: %s" % merge_outside_traces(trace_out))
    SCRATCH.mkdir(exist_ok=True)
    (SCRATCH / "last_processes.json").write_text(json.dumps(all_docs) + "\n")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    print("checks: %s; wrote %s" % ("all passed" if ok else "FAILED",
                                    out_path))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--out", help="planetbench document to write "
                        "(full run)")
    parser.add_argument("--workload", help="run one workload (measured run)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measured run length in seconds")
    parser.add_argument("--trace", nargs="?", const="1", default=None,
                        help="measured run: 0 or 1; full run: traced pass "
                        "only")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at ~1/20 size")
    parser.add_argument("--repeat", type=int, default=1,
                        help="full runs to make; N > 1 prints each "
                        "end-to-end metric's spread (max/min - 1)")
    parser.add_argument("--trace-out", help="directory for chrome://tracing "
                        "files of the traced pass")
    args = parser.parse_args()
    if args.workload is not None:
        return measured_run(args)
    if args.out is None:
        parser.error("--out FILE is required (or --workload for one "
                     "measured run)")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
