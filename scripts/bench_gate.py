#!/usr/bin/env python3
"""Perf-regression gate over the committed BENCH_*.json baselines.

Compares a freshly produced benchmark JSON document against one or more
committed baselines and fails (exit 1) when a deterministic work counter
drifts outside its tolerance band, when a boolean invariant the benchmark
guarantees (convergence, conservation, byte-identity gates) flipped to
false, or when a wall-clock metric regressed beyond its (deliberately
loose) band on a host whose timings are trustworthy.

Three metric classes, three levels of trust:

  signature   Size/shape facts (bidder counts, shard counts, epochs).
              Numeric comparison only makes sense between runs of the
              same size; when the fresh document's signature differs
              from a baseline's (e.g. a --smoke run gated against a
              full-size baseline), numeric checks against that baseline
              are SKIPPED, never failed. Boolean invariants still apply:
              a smoke run must converge too.
  invariant   must-be-true booleans. Checked on the fresh document
              alone — a baseline is not needed to know that
              `all_converged: false` is a failure.
  work        Deterministic work counters (auction rounds, settled
              drops, realized PnL). Tight bands: these are
              host-noise-immune by construction (the profiler's
              work-accounting channel is built on the same property),
              so real drift means the algorithm changed.
  wall        Wall-clock timings. Loose bands, and skipped entirely
              when either document carries a single-vCPU stamp
              (`invalid_on_single_vcpu` / `single_vcpu` guard paths) —
              a 1-vCPU container cannot produce comparable timings.

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
as an artifact.

--self-test runs the gate against synthetic documents and verifies the
gate itself: a >=20% work-counter regression must fail, a within-band
fresh run must pass, and a flipped invariant must fail. Wired as a
tier-1 ctest so the gate cannot silently rot.

Exit codes: 0 gate passed, 1 regression or invariant failure,
2 usage / unreadable input.
"""

import argparse
import json
import sys

# --------------------------------------------------------------- specs --

# Per-benchmark comparison plan. Paths are dot-separated; a `[*]`
# segment fans out over a JSON array (fresh and baseline arrays are
# paired by index; a length mismatch is treated as a signature mismatch
# for that path, i.e. skipped with a note, because it means the two
# documents measured different sweeps).
SPECS = {
    "megascale": {
        "signature": [
            "metadata.smoke",
            "metadata.bidders",
            "metadata.shards",
            "metadata.epochs",
        ],
        "invariants": [
            "kernel_sweep[*].decisions_identical",
            "megascale_epoch.all_converged",
            "megascale_epoch.conservation_ok",
            "megascale_epoch.metrics_reproducible",
        ],
        # auction_rounds is bit-deterministic for a fixed (size, seed,
        # kernel set); any drift at all is an algorithm change. The tiny
        # band only absorbs float printing.
        "work": [("megascale_epoch.auction_rounds", 1e-6)],
        "wall": [
            ("kernel_sweep[*].dot_ms", 0.5),
            ("megascale_epoch.epoch_ms", 0.5),
        ],
        "wall_guards": ["metadata.host.single_vcpu"],
    },
    "federated_exchange": {
        "signature": [
            "metadata.total_bidders",
            "metadata.epochs_per_config",
            "sweeps[*].shards",
            "sweeps[*].bidders_per_shard",
        ],
        "invariants": ["sweeps[*].all_converged"],
        "work": [("sweeps[*].rounds_total", 1e-6)],
        "wall": [
            ("sweeps[*].epoch_ms_serial", 0.5),
            ("sweeps[*].epoch_ms_pooled", 0.5),
        ],
        "wall_guards": ["metadata.host.single_vcpu"],
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
        "wall": [],
        "wall_guards": [],
    },
}

# ---------------------------------------------------------- path walks --


def resolve(doc, path):
    """Returns [(concrete_path, value)] for a dotted path, fanning out
    over `[*]` array segments. Missing paths resolve to []."""
    results = [("", doc)]
    for segment in path.split("."):
        fanout = segment.endswith("[*]")
        key = segment[:-3] if fanout else segment
        next_results = []
        for prefix, node in results:
            if not isinstance(node, dict) or key not in node:
                continue
            value = node[key]
            label = f"{prefix}.{key}" if prefix else key
            if fanout:
                if not isinstance(value, list):
                    continue
                for i, item in enumerate(value):
                    next_results.append((f"{label}[{i}]", item))
            else:
                next_results.append((label, value))
        results = next_results
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
            gate.note(f"invariant path absent: {path}")
            continue
        for label, value in entries:
            if value is True:
                gate.ok(f"invariant {label}")
            else:
                gate.fail(f"invariant {label} is {value!r}, expected true")


def wall_guard_tripped(spec, doc):
    for path in spec["wall_guards"]:
        for label, value in resolve(doc, path):
            if value is True:
                return label
    return None


def compare_numeric(path, rel_tol, fresh, baseline, gate, kind):
    f_entries = resolve(fresh, path)
    b_entries = resolve(baseline, path)
    if not f_entries and not b_entries:
        gate.note(f"{kind} path absent in both documents: {path}")
        return
    if len(f_entries) != len(b_entries):
        gate.skip(
            f"{kind} {path}: cardinality {len(f_entries)} vs "
            f"{len(b_entries)} (different sweep shape)"
        )
        return
    for (label, f), (_, b) in zip(f_entries, b_entries):
        if not isinstance(f, (int, float)) or not isinstance(b, (int, float)):
            gate.skip(f"{kind} {label}: non-numeric value")
            continue
        denom = max(abs(b), 1e-9)
        rel = abs(f - b) / denom
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
        for path, tol in spec["work"]:
            compare_numeric(path, tol, fresh, baseline, gate, "work")
        guard = wall_guard_tripped(spec, fresh) or wall_guard_tripped(
            spec, baseline
        )
        if guard is not None:
            for path, _ in spec["wall"]:
                gate.skip(f"wall {path}: guard {guard} stamped")
        else:
            for path, tol in spec["wall"]:
                compare_numeric(path, tol, fresh, baseline, gate, "wall")
    if baselines and compatible == 0:
        gate.note(
            "no signature-compatible baseline; gated on invariants only"
        )
    return gate


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
    for work_path, _ in spec["work"]:
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
        "kernel_sweep": [
            {"kernel": "scalar", "dot_ms": 10.0,
             "decisions_identical": True},
            {"kernel": "avx2", "dot_ms": 4.0,
             "decisions_identical": True},
        ],
        "megascale_epoch": {
            "epoch_ms": epoch_ms,
            "auction_rounds": rounds,
            "all_converged": converged,
            "conservation_ok": True,
            "metrics_reproducible": True,
        },
    }


def self_test():
    baseline = synthetic_megascale(rounds=1000, converged=True,
                                   epoch_ms=100.0)
    cases = [
        # (description, fresh document, expect_pass)
        ("within-band run passes",
         synthetic_megascale(1000, True, 110.0), True),
        ("20% work-counter regression fails",
         synthetic_megascale(1200, True, 100.0), False),
        ("flipped invariant fails",
         synthetic_megascale(1000, False, 100.0), False),
        ("wall blowup beyond the loose band fails",
         synthetic_megascale(1000, True, 300.0), False),
    ]
    # A single-vCPU stamp must turn the wall blowup into a skip.
    stamped = synthetic_megascale(1000, True, 300.0)
    stamped["metadata"]["host"]["single_vcpu"] = True
    cases.append(("wall blowup under a single-vCPU stamp passes",
                  stamped, True))
    # A smoke-vs-full signature mismatch must skip numerics but still
    # enforce invariants.
    resized = synthetic_megascale(5000, True, 100.0)
    resized["metadata"]["bidders"] = 1000000
    cases.append(("signature mismatch skips numerics", resized, True))
    resized_bad = synthetic_megascale(5000, False, 100.0)
    resized_bad["metadata"]["bidders"] = 1000000
    cases.append(("signature mismatch still enforces invariants",
                  resized_bad, False))

    all_ok = True
    for description, fresh, expect_pass in cases:
        gate = run_gate("megascale", fresh, [("synthetic", baseline)],
                        verbose=False)
        passed = not gate.failures
        ok = passed == expect_pass
        all_ok = all_ok and ok
        print(f"self-test [{'ok' if ok else 'FAIL'}] {description} "
              f"(gate {'passed' if passed else 'failed'})")
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


def main():
    parser = argparse.ArgumentParser(
        description="perf-regression gate over BENCH_*.json documents"
    )
    parser.add_argument("--benchmark")
    parser.add_argument("--fresh")
    parser.add_argument("--baseline", action="append", default=[])
    parser.add_argument("--trajectory")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.benchmark or not args.fresh or not args.baseline:
        parser.print_usage(sys.stderr)
        return 2

    fresh = load(args.fresh)
    if fresh is None:
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
