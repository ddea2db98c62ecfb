#!/usr/bin/env bash
# Coverage census: the pm:: functions in src/ that no run which CI or the
# docs name ever enters. The link census (verify skill, Part 2) keeps
# every symbol some binary links, so it cannot see a virtual override, a
# branch or a helper that is linked but never called; this one counts
# what executes.
#
#   scripts/coverage_census.sh [--out DIR]          # the never-entered list
#   scripts/coverage_census.sh --check [--out DIR]  # exit 1 on an unlisted one
#
# It builds every bench and example, and planetbench (configured from
# bench/planet into its own directory; nothing there is edited), with
# `--coverage -O0` into DIR (default build-coverage/, outside build/),
# then runs:
#   - every `bench-smoke` ctest entry except the planetbench gate;
#   - the examples outside that smoke set, at their default arguments;
#   - the scenario-runner invocations the docs name: every scenario at
#     seed 77 (the verify skill's golden diff), shard-outage at seed 7
#     (docs/scenarios.md), outage-during-price-war with every telemetry
#     export (docs/observability.md, CI's weekly telemetry run) and on a
#     lossy wire (docs/robustness.md);
#   - planetbench's four workloads at --smoke size, untraced and traced.
# gcov's JSON output from both trees is merged with python3: a function
# counts as entered when any run in either tree entered it. Tests are not
# built, so a function only tests reach is listed. First run ~8 min on 4
# cores; reruns rebuild only what changed.
#
# --check fails on a never-entered function missing from ALLOWLIST below,
# and on an ALLOWLIST entry that is now entered or gone, so the list
# cannot go stale. A listed function is deleted, covered by a run CI
# already makes, or allowlisted here with its reason.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

# Demangled signature (std::string, std::string_view and vector
# allocators spelled short)  |  why it stays though no census run enters it.
ALLOWLIST='
pm::bid::TbblNode::ToString() const | the parser round-trip oracle tests compare against
pm::exchange::BidWindow::Amend(std::string const&, pm::bid::Bid) | §II/§V.A entry-period behaviour; only tests amend a bid
pm::exchange::BidWindow::Withdraw(std::string const&) | §II/§V.A entry-period behaviour; only tests withdraw a bid
pm::exchange::BidWindow::Withdraw(std::string const&)::{lambda(pm::bid::Bid const&)#1}::operator()(pm::bid::Bid const&) const | the name predicate of Withdraw
pm::exchange::BidWindow::LatestPreliminaryPrices() const | §V.A preliminary-price read accessor; only tests read it
pm::cluster::QuotaTable::EntitlementOf(std::string const&, unsigned int) const | quota invariant observer for tests
pm::cluster::QuotaTable::OverQuota(std::string const&, double) const | quota invariant observer for tests
pm::cluster::QuotaTable::Teams() const | quota invariant observer for tests
pm::cluster::QuotaTable::UsageOf(std::string const&, unsigned int) const | quota invariant observer for tests
pm::exchange::Ledger::TotalBalance() const | conservation observer for tests
pm::federation::FederationTreasury::Outstanding(std::string const&, unsigned long) const | treasury invariant observer for tests
pm::federation::FederationTreasury::ShardFloat(unsigned long) const | zero-float invariant observer for tests
pm::federation::FederationTreasury::ShardNet(unsigned long) const | treasury invariant observer for tests
pm::telemetry::MetricsRegistry::CounterValue(std::string_view, pm::telemetry::Labels const&) const | registry read accessor for tests
pm::telemetry::MetricsRegistry::GaugeValue(std::string_view, pm::telemetry::Labels const&) const | registry read accessor for tests
pm::telemetry::MetricsRegistry::FindHistogram(std::string_view, pm::telemetry::Labels const&) const | registry read accessor for tests
pm::telemetry::FlightRecorder::Dropped(unsigned long) const | flight-recorder read accessor for tests
pm::telemetry::FlightRecorder::Ring(unsigned long) const | flight-recorder read accessor for tests
pm::federation::ArbitrageAgent::SeedHoldingsForTest(unsigned long, unsigned int, double, double) | test seam
pm::federation::FederatedExchange::ShardHealthOf(unsigned long) const | test seam
pm::federation::FederatedExchange::ShardWorld(unsigned long) const | test seam
pm::federation::FederatedExchange::InjectEpochRoundBudget(unsigned long, int) | fault injection; no registered scenario starves a round budget, the robustness tests do
pm::net::Encode(pm::net::LinkDown const&) | containment path: a link that exhausts its retries
pm::net::DecodeLinkDown(std::vector<unsigned char>) | containment path: a link that exhausts its retries
pm::net::FaultyLink::link() const | containment path: names the link in its LinkDown frame
pm::telemetry::BidTracer::SpansOf(unsigned long) const | containment path: flight dump of the routed bids on a failed shard
pm::auction::CheckSystemConstraints(pm::auction::ClockAuction const&, pm::auction::ClockAuctionResult const&, double)::{lambda(std::string const&)#1}::operator()(std::string const&) const | error path: reports a violated §III.B constraint
pm::bid::Tokenize(std::string_view)::{lambda(std::string, int, int)#2}::operator()(std::string, int, int) const | error path: a lexer syntax error
pm::bid::ToString(pm::bid::TokenKind) | error path: names the token in a parse error
pm::exchange::ToString(pm::exchange::ExternalRejection::Reason) | error path: names why a routed part was rejected
pm::CsvWriter::CsvWriter(std::ostream&) | the --csv export of fig7, which no smoke passes
pm::CsvWriter::Escape(std::string const&) | the --csv export of fig7, which no smoke passes
pm::CsvWriter::WriteRow(std::vector<std::string> const&) | the --csv export of fig7, which no smoke passes
pm::reserve::(anonymous namespace)::FlatWeighting::Name() const | WeightingFunction stays an interface (reserve_test fakes it); fig2 names only the three curves of the paper
pm::scenario::ToString(pm::scenario::EventKind) | only scenario_test calls it; a deletion candidate
pm::cluster::UnknownResourceKind(pm::ResourceKind) | error path, covered by TaskShapeTest.UnknownKindFailsLoudly
pm::agents::PriceLearner::BeliefOutOfRange(unsigned long) const | error path, covered by PriceLearnerTest.ValidatesArguments
'

mode=""
out="${root}/build-coverage"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --check) mode="--check" ;;
    --out) out="$2"; shift ;;
    *) echo "usage: scripts/coverage_census.sh [--check] [--out DIR]" >&2
       exit 2 ;;
  esac
  shift
done
mkdir -p "${out}"
out="$(cd "${out}" && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
log="${out}/census.log"
: > "${log}"

flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS='--coverage -O0'
       -DCMAKE_EXE_LINKER_FLAGS=--coverage)
echo "coverage census: building into ${out} (log: ${log})" >&2
cmake -S . -B "${out}/main" "${flags[@]}" >> "${log}"
targets=$(cmake --build "${out}/main" --target help |
          sed -n 's/^\.\.\. \(\(bench\|example\)_[a-z_0-9]*\).*/\1/p')
# shellcheck disable=SC2086
cmake --build "${out}/main" -j "${jobs}" --target ${targets} >> "${log}"
cmake -S bench/planet -B "${out}/planet" "${flags[@]}" >> "${log}"
cmake --build "${out}/planet" -j "${jobs}" --target planetbench >> "${log}"

# Fresh counters: only this run's executions count.
find "${out}/main" "${out}/planet" -name '*.gcda' -delete

echo "coverage census: running the bench smokes" >&2
ctest --test-dir "${out}/main" -L bench-smoke -E '^smoke_bench_planetbench$' \
      --output-on-failure >> "${log}"

echo "coverage census: running the examples outside the smoke set" >&2
smoked=$(ctest --test-dir "${out}/main" -L bench-smoke -N -V |
         sed -n 's/.*Test command: [^ ]*\/\(example_[a-z_]*\).*/\1/p' |
         sort -u)
mkdir -p "${out}/run"
for exe in "${out}"/main/example_*; do
  name="$(basename "${exe}")"
  if grep -qx "${name}" <<< "${smoked}"; then continue; fi
  (cd "${out}/run" && "${exe}") >> "${log}"
done

echo "coverage census: running the documented scenario invocations" >&2
runner="${out}/main/example_scenario_runner"
(
  cd "${out}/run"
  for s in $("${runner}" --list | cut -d' ' -f1); do
    "${runner}" --scenario "${s}" --seed 77 --out "${s}.json" --quiet
  done
  "${runner}" --scenario shard-outage --seed 7 --epochs 8 --quiet
  "${runner}" --scenario outage-during-price-war --epochs 6 --quiet \
      --profile --console --metrics-out metrics.json --trace-out trace.json \
      --prom-out metrics.prom --alerts-out alerts.json \
      --chrome-trace-out chrome_trace.json
  "${runner}" --scenario outage-during-price-war --quiet \
      --faults drop=0.05,dup=0.05,delay=2
) >> "${log}"

echo "coverage census: running planetbench's workloads at --smoke" >&2
for workload in market-1k:10 big-clusters:10 clock-dense:2 \
                planet-economy:20; do
  for trace in "" --trace; do
    "${out}/planet/planetbench" --workload "${workload%%:*}" \
        --seed 20090425 --ops "${workload##*:}" --smoke ${trace} \
        >> "${log}"
  done
done

echo "coverage census: merging gcov output" >&2
ALLOWLIST="${ALLOWLIST}" python3 - "${root}" "${mode}" "${out}/main" \
    "${out}/planet" <<'EOF'
import json, os, re, subprocess, sys

root, mode, trees = sys.argv[1], sys.argv[2], sys.argv[3:]


def short(name):
    """The demangled name with the library's type spellings shortened."""
    name = name.replace("std::__cxx11::basic_string<char, std::char_traits"
                        "<char>, std::allocator<char> >", "std::string")
    name = name.replace("std::basic_string_view<char, std::char_traits"
                        "<char> >", "std::string_view")
    name = name.replace("[abi:cxx11]", "")
    while True:
        shorter = re.sub(r", std::allocator<([^<>]*)\s*>\s*>", ">", name)
        if shorter == name:
            return name
        name = shorter


src = os.path.join(root, "src") + os.sep
entered = {}  # (source file, demangled name) -> max execution count.
lines = {}    # (source file, line) -> max count.
for tree in trees:
    for dirpath, _, names in os.walk(tree):
        for name in names:
            if not name.endswith(".gcda"):
                continue
            done = subprocess.run(
                ["gcov", "--json-format", "--stdout",
                 os.path.join(dirpath, name)],
                cwd=dirpath, capture_output=True, text=True, check=True)
            for doc in done.stdout.splitlines():
                if not doc.startswith("{"):
                    continue
                for f in json.loads(doc)["files"]:
                    path = os.path.normpath(
                        os.path.join(dirpath, f["file"]))
                    if not path.startswith(src):
                        continue
                    rel = os.path.relpath(path, root)
                    for fn in f["functions"]:
                        key = (rel, short(fn["demangled_name"]))
                        entered[key] = max(entered.get(key, 0),
                                           fn["execution_count"])
                    for ln in f["lines"]:
                        key = (rel, ln["line_number"])
                        lines[key] = max(lines.get(key, 0), ln["count"])

never = sorted((name, rel) for (rel, name), n in entered.items()
               if n == 0 and name.startswith("pm::"))
ran = sum(1 for n in lines.values() if n > 0)
print("coverage census: %d of %d src/ lines ran (%.1f%%); %d of %d pm:: "
      "functions never entered" %
      (ran, len(lines), 100.0 * ran / max(len(lines), 1), len(never),
       sum(1 for (_, name) in entered if name.startswith("pm::"))))
if mode != "--check":
    for name, rel in never:
        print("%s  (%s)" % (name, rel))
    sys.exit(0)

allowed = {}
for entry in os.environ["ALLOWLIST"].splitlines():
    if entry.strip():
        name, _, reason = entry.rpartition(" | ")
        allowed[name.strip()] = reason.strip()
never_names = {name for name, _ in never}
status = 0
for name, rel in never:
    if name not in allowed:
        print("coverage census: %s (%s) is never entered; delete it, "
              "cover it from a run CI makes, or allowlist it with a "
              "reason" % (name, rel), file=sys.stderr)
        status = 1
for name in sorted(set(allowed) - never_names):
    print("coverage census: allowlisted %s is now entered or gone; drop "
          "it from the allowlist" % name, file=sys.stderr)
    status = 1
if status == 0:
    print("coverage census: all %d never-entered functions allowlisted" %
          len(never))
sys.exit(status)
EOF
