// planetmarket: host metadata for benchmark artifacts.
//
// Every BENCH_*.json used to carry a hand-written "this container has one
// vCPU" caveat that nothing verified. CollectHostMetadata records what is
// actually true of the machine the bench ran on — core count, git SHA,
// UTC timestamp — and derives the caveat from it, so a rerun on a real
// multi-core host automatically sheds the warning (and the JSON says
// which commit and when).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

#include "common/check.h"

namespace pm {

/// What the bench host looked like at emission time.
struct HostMetadata {
  unsigned hardware_concurrency = 0;  // 0: unknown.
  bool single_vcpu = false;  // True only for a *measured* single core.
  std::string git_sha;        // "unknown" outside a git checkout.
  std::string timestamp_utc;  // ISO-8601, e.g. "2026-07-26T12:34:56Z".
};

HostMetadata CollectHostMetadata();

/// `text`, the value given for `flag`, as a T: the whole string in
/// decimal (a sign and a fraction only where T has them), finite, within
/// T's range, and at least `min`. CHECK-fails with a message that names
/// `flag` otherwise. The one parser for every numeric command-line value
/// of the benches and examples; defined for int, long long, unsigned,
/// std::uint64_t and double.
template <typename T>
T ParseNumberArg(std::string_view flag, std::string_view text,
                 T min = std::numeric_limits<T>::lowest());

/// Strips a `--threads N` / `--threads=N` override out of argv — before
/// any positional or benchmark-library parsing sees it — and returns the
/// requested count, or `fallback` when the flag is absent. Every bench
/// binary accepts the flag so a multi-core host can pin its pool sizes
/// without editing per-bench positional conventions. A parsed value of 0
/// means "serial" (no pool), matching the configs' num_threads = 0.
/// CHECK-fails on a missing value or one ParseNumberArg<unsigned>
/// rejects (sign, trailing characters, overflow); ThreadPool bounds the
/// count itself.
unsigned ParseThreadsFlag(int* argc, char** argv, unsigned fallback);

/// Exit status for a malformed command-line number in a bench or example
/// whose usage text documents no status of its own.
inline constexpr int kUsageExit = 2;

/// Returns `parse()`, a step of a binary's argument parsing. A malformed
/// number (the CheckFailure of ParseNumberArg or ParseThreadsFlag) is a
/// usage error, not an abort: its message, which names the flag, goes to
/// stderr and the process exits with `usage_status`.
template <typename Parse>
auto ParseOrExit(int usage_status, Parse parse) -> decltype(parse()) {
  try {
    return parse();
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(usage_status);
  }
}

/// Per-section host stamp for bench sections whose numbers are only
/// meaningful on real parallel hardware (thread scaling, concurrent
/// shard auctions). Unlike the top-level host caveat string, the flag is
/// explicit and machine-readable:
///   {"invalid_on_single_vcpu": true, "single_vcpu_host": false,
///    "hardware_concurrency": 8}
/// `invalid_on_single_vcpu` declares the section's requirement;
/// `single_vcpu_host` records what this run actually measured, so a
/// consumer drops the section iff both are true.
std::string SectionHostJson(const HostMetadata& meta,
                            bool needs_parallelism);

/// Convenience: SectionHostJson over CollectHostMetadata().
std::string SectionHostJson(bool needs_parallelism);

/// Renders the metadata as a JSON object (no trailing newline), e.g.
///   {"hardware_concurrency": 8, "single_vcpu": false,
///    "git_sha": "6e09b72", "timestamp_utc": "…"}
/// plus a machine-derived "caveat" entry when the host is single-vCPU.
/// Benchmarks embed it as the "host" key of their metadata block.
std::string HostMetadataJson(const HostMetadata& meta);

/// Convenience: CollectHostMetadata() rendered.
std::string HostMetadataJson();

/// Exit status of a bench that RefuseTrackedOutput stopped.
inline constexpr int kRefusedOutputExit = 73;

/// True when git tracks `path`, after printing the refusal to stderr: a
/// bench checks its output path before any work and exits
/// kRefusedOutputExit instead of overwriting a committed BENCH_*.json.
/// Outside a git checkout (or without git) nothing is tracked.
bool RefuseTrackedOutput(const std::string& path);

}  // namespace pm
