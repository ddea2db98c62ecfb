#!/usr/bin/env python3
"""Perf-regression gate over the committed BENCH_*.json baselines.

Compares a freshly produced benchmark JSON document against one or more
committed baselines and fails (exit 1) when a deterministic work counter
drifts outside its tolerance band or changes at all where it must be
exact, when a boolean invariant the benchmark guarantees (convergence,
conservation, byte-identity gates) flipped to false, or when a
wall-clock metric regressed beyond its (deliberately loose) band on a
host whose timings are trustworthy.

Four metric classes, three levels of trust:

  signature   Size/shape facts (bidder counts, shard counts, epochs).
              Numeric comparison only makes sense between runs of the
              same size; when the fresh document's signature differs
              from a baseline's (e.g. a --smoke run gated against a
              full-size baseline), numeric checks against that baseline
              are SKIPPED, never failed. Boolean invariants still apply:
              a smoke run must converge too.
  invariant   must-be-true booleans. Checked on the fresh document
              alone — a baseline is not needed to know that
              `all_converged: false` is a failure. An invariant path
              the fresh document does not carry fails too: a bench that
              died before writing a section must not pass.
  work        Deterministic work counters (auction rounds, settled
              drops, realized PnL). Tight bands: these are
              host-noise-immune by construction (the profiler's
              work-accounting channel is built on the same property),
              so real drift means the algorithm changed.
  exact       Values that must equal the baseline's, of any JSON type:
              planetbench's outcome digests, failed-op and unplaced-unit
              shares, and per-layer work counts. A failure names the
              path, e.g. `workloads.big-clusters.per_layer.
              exchange.jobs_added.value: fresh 3 vs baseline 2`.
  wall        Wall-clock timings. Loose one-sided bands (a faster run
              never fails), and skipped entirely
              when either document carries a single-vCPU stamp
              (`invalid_on_single_vcpu` / `single_vcpu` guard paths) —
              a 1-vCPU container cannot produce comparable timings.

When signatures match, every work, exact or wall path the baseline
carries must be in the fresh document too: a bench that stopped
emitting a counter fails instead of passing unchecked.

Usage:
  bench_gate.py --benchmark NAME --fresh FILE --baseline FILE
                [--baseline FILE2 ...] [--trajectory FILE] [--verbose]
  bench_gate.py --self-test

With several baselines, each signature-compatible baseline is gated
against; incompatible ones contribute only a skip note. If no baseline
is signature-compatible, the gate passes on invariants alone (noted in
the output) — the committed full-size baselines stay meaningful even
though CI re-measures at smoke size.

--trajectory appends a one-line record (benchmark, git_sha and
timestamp taken from inside the fresh document, verdict, counter
values) to a JSON-array file, building the perf trajectory CI uploads
as an artifact. It refuses (exit 2, nothing written) a document whose
`metadata.host.git_sha` is missing, "unknown" or `-dirty`: a trajectory
record must name the commit it measured.

--self-test runs the gate against synthetic megascale and planetbench
documents and verifies the gate itself: a >=20% work-counter regression
must fail, a within-band fresh run must pass, a flipped or absent
invariant must fail, a wall speedup of any size must pass, a lost
counter must fail, any change to an exact value must fail and name its
path, and a dirty trajectory record must be refused. Wired as a tier-1 ctest so the gate cannot silently rot.

Exit codes: 0 gate passed, 1 regression or invariant failure,
2 usage / unreadable input / a --trajectory document without a clean
commit.
"""

import argparse
import copy
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path


def planetbench_layer_counts():
    """The per-op work counts planetbench reports per layer: run.py's
    LAYER_COUNTS, read from the benchmark itself so the gate and the
    documents it checks name the same counters."""
    path = Path(__file__).resolve().parent.parent / "bench/planet/run.py"
    spec = importlib.util.spec_from_file_location("planetbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [name for name, _ in module.LAYER_COUNTS]


PLANETBENCH_COUNTS = planetbench_layer_counts()

# --------------------------------------------------------------- specs --

# Per-benchmark comparison plan. A path is a dot-separated string, or a
# tuple of keys where a key itself contains a dot (planetbench's
# per-layer names). A `key[*]` segment fans out over a JSON array and a
# `*` segment over an object's members; fresh and baseline values pair
# by their concrete path (`sweeps[2].shards`, `workloads.market-1k.
# digest`).
SPECS = {
    "megascale": {
        "signature": [
            "metadata.smoke",
            "metadata.bidders",
            "metadata.shards",
            "metadata.epochs",
        ],
        "invariants": [
            "megascale_epoch.all_converged",
            "megascale_epoch.conservation_ok",
            "megascale_epoch.metrics_reproducible",
        ],
        # auction_rounds is bit-deterministic for a fixed (size, seed);
        # any drift at all is an algorithm change. The tiny band only
        # absorbs float printing.
        "work": [("megascale_epoch.auction_rounds", 1e-6)],
        "wall": [("megascale_epoch.epoch_ms", 0.5)],
        "wall_guards": ["metadata.host.single_vcpu"],
    },
    "planetbench": {
        # Everything compared is a deterministic function of (seed,
        # smoke). There is no wall class: a 2-20-op smoke against a
        # baseline from another host cannot support a wall bound, and
        # BENCHMARK.json's bounds already gate full-size walls.
        "signature": ["schema", "seed", "smoke"],
        "invariants": ["correct"],
        "exact": [("workloads", "*", key) for key in
                  ("digest", "failed_op_share", "unplaced_unit_share")]
        + [("workloads", "*", "per_layer", name, "value")
           for name in PLANETBENCH_COUNTS],
    },
    "scenario_suite": {
        "signature": [
            "metadata.seed",
            "metadata.scenarios",
            "metadata.epochs_override",
        ],
        "invariants": ["all_slos_pass"],
        # Scenario outcomes are deterministic per (scenario, seed,
        # epochs); the per-run epoch counts double as a drift tripwire
        # on the registry of scenarios itself.
        "work": [("runs[*].metrics.epochs", 1e-6)],
        "wall": [("runs[*].wall_ms", 1.0)],
        "wall_guards": ["metadata.host.single_vcpu"],
    },
    "arbitrage_spread": {
        "signature": [
            "metadata.teams_per_shard",
            "metadata.epochs",
            "metadata.shards",
        ],
        "invariants": ["arbitrage_ends_tighter_than_baseline"],
        # Fully deterministic market outcomes; a loose-ish band absorbs
        # the 4-decimal rendering, nothing else.
        "work": [
            ("baseline_drop", 1e-3),
            ("arbitrage_drop", 1e-3),
            ("arbitrage_realized_pnl", 1e-3),
            ("arbitrage_non_widening_fraction", 1e-3),
        ],
    },
}

# ---------------------------------------------------------- path walks --


def dotted(path):
    return path if isinstance(path, str) else ".".join(path)


def children(node, segment):
    """[(name, child)] that one path segment selects under `node`."""
    if segment == "*":
        return list(node.items()) if isinstance(node, dict) else []
    fanout = segment.endswith("[*]")
    key = segment[:-3] if fanout else segment
    if not isinstance(node, dict) or key not in node:
        return []
    value = node[key]
    if not fanout:
        return [(key, value)]
    if not isinstance(value, list):
        return []
    return [(f"{key}[{i}]", item) for i, item in enumerate(value)]


def resolve(doc, path):
    """Returns [(concrete_path, value)] for a path, fanning out over
    `[*]` and `*` segments. Missing paths resolve to []."""
    segments = path.split(".") if isinstance(path, str) else path
    results = [("", doc)]
    for segment in segments:
        results = [(f"{prefix}.{name}" if prefix else name, child)
                   for prefix, node in results
                   for name, child in children(node, segment)]
    return results


def resolve_one(doc, path):
    values = resolve(doc, path)
    return values[0][1] if len(values) == 1 else None


# ------------------------------------------------------------ the gate --


class Gate:
    def __init__(self, verbose):
        self.verbose = verbose
        self.failures = []
        self.notes = []
        self.checked = 0
        self.skipped = 0

    def fail(self, message):
        self.failures.append(message)
        print(f"FAIL: {message}")

    def note(self, message):
        self.notes.append(message)
        if self.verbose:
            print(f"note: {message}")

    def ok(self, message):
        self.checked += 1
        if self.verbose:
            print(f"ok:   {message}")

    def skip(self, message):
        self.skipped += 1
        self.note(f"skipped: {message}")


def signatures_match(spec, fresh, baseline):
    """True when every signature path has identical values (and fanout
    cardinality) in both documents."""
    for path in spec["signature"]:
        f = resolve(fresh, path)
        b = resolve(baseline, path)
        if [v for _, v in f] != [v for _, v in b]:
            return False, path
    return True, None


def check_invariants(spec, fresh, gate):
    for path in spec["invariants"]:
        entries = resolve(fresh, path)
        if not entries:
            gate.fail(f"invariant {path} is absent from the fresh document")
            continue
        for label, value in entries:
            if value is True:
                gate.ok(f"invariant {label}")
            else:
                gate.fail(f"invariant {label} is {value!r}, expected true")


def wall_guard_tripped(spec, doc):
    for path in spec.get("wall_guards", []):
        for label, value in resolve(doc, path):
            if value is True:
                return label
    return None


def compare(path, fresh, baseline, gate, kind, rel_tol=None):
    """Compares each value `path` selects in the baseline with the fresh
    value at the same concrete path: equal when `rel_tol` is None,
    within the relative band otherwise. A wall band is one-sided: only a
    fresh run slower than the band fails, never a faster one. A value
    the baseline has and the fresh document lacks fails."""
    b_entries = resolve(baseline, path)
    if not b_entries:
        gate.note(f"{kind} path absent in the baseline: {dotted(path)}")
        return
    fresh_values = dict(resolve(fresh, path))
    for label, b in b_entries:
        if label not in fresh_values:
            gate.fail(f"{kind} {label} is absent from the fresh document")
            continue
        f = fresh_values[label]
        if rel_tol is None:
            if f == b:
                gate.ok(f"{kind} {label}: {f}")
            else:
                gate.fail(f"{kind} {label}: fresh {f} vs baseline {b}")
            continue
        if not isinstance(f, (int, float)) or not isinstance(b, (int, float)):
            gate.skip(f"{kind} {label}: non-numeric value")
            continue
        denom = max(abs(b), 1e-9)
        rel = (f - b if kind == "wall" else abs(f - b)) / denom
        if rel > rel_tol:
            gate.fail(
                f"{kind} {label}: fresh {f} vs baseline {b} "
                f"(rel drift {rel:.3f} > band {rel_tol})"
            )
        else:
            gate.ok(f"{kind} {label}: {f} vs {b} (drift {rel:.4f})")


def run_gate(benchmark, fresh, baselines, verbose):
    spec = SPECS.get(benchmark)
    if spec is None:
        print(f"unknown benchmark '{benchmark}'; known: "
              f"{', '.join(sorted(SPECS))}", file=sys.stderr)
        return None
    gate = Gate(verbose)

    # Invariants hold regardless of baselines or size.
    check_invariants(spec, fresh, gate)

    compatible = 0
    for name, baseline in baselines:
        match, mismatch_path = signatures_match(spec, fresh, baseline)
        if not match:
            gate.skip(
                f"baseline {name}: signature mismatch at "
                f"{mismatch_path} — numeric comparisons not meaningful"
            )
            continue
        compatible += 1
        for path, tol in spec.get("work", []):
            compare(path, fresh, baseline, gate, "work", tol)
        for path in spec.get("exact", []):
            compare(path, fresh, baseline, gate, "exact")
        guard = wall_guard_tripped(spec, fresh) or wall_guard_tripped(
            spec, baseline
        )
        for path, tol in spec.get("wall", []):
            if guard is not None:
                gate.skip(f"wall {path}: guard {guard} stamped")
            else:
                compare(path, fresh, baseline, gate, "wall", tol)
    if baselines and compatible == 0:
        gate.note(
            "no signature-compatible baseline; gated on invariants only"
        )
    return gate


def provenance_problem(fresh):
    """Why a trajectory record of `fresh` would not name a clean commit,
    or None when it would."""
    sha = resolve_one(fresh, "metadata.host.git_sha")
    if not isinstance(sha, str) or sha in ("", "unknown"):
        return f"git_sha {sha!r} names no commit"
    if sha.endswith("-dirty"):
        return f"git_sha {sha} was measured on an uncommitted tree"
    return None


def append_trajectory(path, benchmark, fresh, gate):
    try:
        with open(path) as f:
            trajectory = json.load(f)
        if not isinstance(trajectory, list):
            raise ValueError("trajectory file is not a JSON array")
    except FileNotFoundError:
        trajectory = []
    spec = SPECS[benchmark]
    counters = {}
    for work_path, _ in spec.get("work", []):
        for label, value in resolve(fresh, work_path):
            counters[label] = value
    record = {
        "benchmark": benchmark,
        # Provenance comes from inside the document: the bench binary
        # stamped its own git sha and UTC time at measurement.
        "git_sha": resolve_one(fresh, "metadata.host.git_sha"),
        "timestamp_utc": resolve_one(fresh, "metadata.host.timestamp_utc"),
        "verdict": "pass" if not gate.failures else "fail",
        "checks": gate.checked,
        "skips": gate.skipped,
        "failures": gate.failures,
        "work_counters": counters,
    }
    trajectory.append(record)
    with open(path, "w") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")
    print(f"trajectory: appended to {path} ({len(trajectory)} records)")


# ------------------------------------------------------------ self-test --


def synthetic_megascale(rounds, converged, epoch_ms):
    return {
        "benchmark": "megascale",
        "metadata": {
            "smoke": True,
            "bidders": 1000,
            "shards": 4,
            "epochs": 1,
            "host": {
                "single_vcpu": False,
                "git_sha": "selftest",
                "timestamp_utc": "selftest",
            },
        },
        "megascale_epoch": {
            "epoch_ms": epoch_ms,
            "auction_rounds": rounds,
            "all_converged": converged,
            "conservation_ok": True,
            "metrics_reproducible": True,
        },
    }


def synthetic_planetbench():
    def workload(digest):
        return {
            "digest": [digest],
            "failed_op_share": 0.0,
            "unplaced_unit_share": 0.25,
            "end_to_end": {"epoch_ms_p50": {"value": 10.0, "unit": "ms"}},
            "per_layer": {name: {"value": 2.0, "unit": "count"}
                          for name in PLANETBENCH_COUNTS},
        }
    return {
        "schema": "planetbench/1",
        "seed": 20090425,
        "smoke": True,
        "correct": True,
        "workloads": {"big-clusters": workload("c51a93bd73e6ecde"),
                      "clock-dense": workload("5e1f0d2c3b4a6978")},
    }


def edited(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


def self_test():
    results = []

    def check(description, ok, detail):
        results.append(ok)
        print(f"self-test [{'ok' if ok else 'FAIL'}] {description} "
              f"({detail})")

    def gate_case(description, benchmark, baseline, fresh, expect_pass,
                  names=None):
        gate = run_gate(benchmark, fresh, [("synthetic", baseline)],
                        verbose=False)
        passed = not gate.failures
        ok = passed == expect_pass
        if names is not None:
            ok = ok and any(names in m for m in gate.failures)
        check(description, ok, f"gate {'passed' if passed else 'failed'}")

    mega = synthetic_megascale(rounds=1000, converged=True, epoch_ms=100.0)
    # A single-vCPU stamp must turn a wall blowup into a skip.
    stamped = synthetic_megascale(1000, True, 300.0)
    stamped["metadata"]["host"]["single_vcpu"] = True
    # A smoke-vs-full signature mismatch must skip numerics but still
    # enforce invariants.
    resized = synthetic_megascale(5000, True, 100.0)
    resized["metadata"]["bidders"] = 1000000
    resized_bad = synthetic_megascale(5000, False, 100.0)
    resized_bad["metadata"]["bidders"] = 1000000
    for description, fresh, expect_pass in [
        ("within-band run passes",
         synthetic_megascale(1000, True, 110.0), True),
        ("20% work-counter regression fails",
         synthetic_megascale(1200, True, 100.0), False),
        ("flipped invariant fails",
         synthetic_megascale(1000, False, 100.0), False),
        ("wall blowup beyond the loose band fails",
         synthetic_megascale(1000, True, 300.0), False),
        ("wall speedup beyond the band passes",
         synthetic_megascale(1000, True, 10.0), True),
        ("wall blowup under a single-vCPU stamp passes", stamped, True),
        ("signature mismatch skips numerics", resized, True),
        ("signature mismatch still enforces invariants", resized_bad,
         False),
        # A bench that dies before writing a section must not pass.
        ("absent invariant fails",
         edited(mega, lambda d: d.pop("megascale_epoch")), False),
        # Nor may one that stopped emitting a work counter.
        ("lost work counter fails",
         edited(mega, lambda d: d["megascale_epoch"].pop("auction_rounds")),
         False),
    ]:
        gate_case(description, "megascale", mega, fresh, expect_pass)

    planet = synthetic_planetbench()
    jobs = "workloads.big-clusters.per_layer.exchange.jobs_added.value"
    for description, fresh, expect_pass, names in [
        ("planetbench: identical document passes", planet, True, None),
        ("planetbench: changed digest fails",
         edited(planet, lambda d: d["workloads"]["clock-dense"].update(
             digest=["0000000000000000"])),
         False, "workloads.clock-dense.digest"),
        ("planetbench: a per-layer count off by one fails and is named",
         edited(planet, lambda d: d["workloads"]["big-clusters"]
                ["per_layer"]["exchange.jobs_added"].update(value=3.0)),
         False, jobs),
        ("planetbench: correct false fails",
         edited(planet, lambda d: d.update(correct=False)), False,
         "invariant correct"),
        ("planetbench: a missing workload fails",
         edited(planet, lambda d: d["workloads"].pop("clock-dense")),
         False, "workloads.clock-dense"),
        ("planetbench: changed end-to-end walls alone pass",
         edited(planet, lambda d: [
             w["end_to_end"]["epoch_ms_p50"].update(value=99.0)
             for w in d["workloads"].values()]),
         True, None),
    ]:
        gate_case(description, "planetbench", planet, fresh, expect_pass,
                  names)

    # --trajectory only records documents that name a clean commit.
    with tempfile.TemporaryDirectory() as tmp:
        fresh_path = os.path.join(tmp, "fresh.json")
        trajectory = os.path.join(tmp, "trajectory.json")
        for sha, expect_code in [(None, 2), ("unknown", 2),
                                 ("369d04e7ecf4-dirty", 2),
                                 ("369d04e7ecf4", 0)]:
            doc = synthetic_megascale(1000, True, 100.0)
            if sha is None:
                del doc["metadata"]["host"]["git_sha"]
            else:
                doc["metadata"]["host"]["git_sha"] = sha
            with open(fresh_path, "w") as f:
                json.dump(doc, f)
            code = main(["--benchmark", "megascale", "--fresh", fresh_path,
                         "--baseline", fresh_path,
                         "--trajectory", trajectory])
            written = os.path.exists(trajectory)
            check(f"trajectory with git_sha {sha!r} exits {expect_code}",
                  code == expect_code and written == (expect_code == 0),
                  f"exit {code}, {'wrote' if written else 'wrote nothing'}")

    all_ok = all(results)
    print(f"self-test: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


# ----------------------------------------------------------------- main --


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="perf-regression gate over BENCH_*.json documents"
    )
    parser.add_argument("--benchmark")
    parser.add_argument("--fresh")
    parser.add_argument("--baseline", action="append", default=[])
    parser.add_argument("--trajectory")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.benchmark or not args.fresh or not args.baseline:
        parser.print_usage(sys.stderr)
        return 2

    fresh = load(args.fresh)
    if fresh is None:
        return 2
    if args.trajectory:
        problem = provenance_problem(fresh)
        if problem is not None:
            print(f"refusing to append to {args.trajectory}: {problem}",
                  file=sys.stderr)
            return 2
    baselines = []
    for path in args.baseline:
        doc = load(path)
        if doc is None:
            return 2
        baselines.append((path, doc))

    gate = run_gate(args.benchmark, fresh, baselines, args.verbose)
    if gate is None:
        return 2
    if args.trajectory:
        append_trajectory(args.trajectory, args.benchmark, fresh, gate)

    verdict = "PASS" if not gate.failures else "FAIL"
    print(
        f"bench_gate {args.benchmark}: {verdict} "
        f"({gate.checked} checks, {gate.skipped} skipped, "
        f"{len(gate.failures)} failures)"
    )
    return 0 if not gate.failures else 1


if __name__ == "__main__":
    sys.exit(main())
