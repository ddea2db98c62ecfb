#include "common/bench_meta.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <sstream>
#include <string_view>
#include <thread>
#include <type_traits>

#include "common/check.h"

namespace pm {
namespace {

std::string GitSha() {
  // Benches run from the build directory, which lives inside the
  // checkout; outside any repo (or without git) this degrades to
  // "unknown" rather than failing the bench. `--dirty` marks artifacts
  // produced from an uncommitted tree — the stamped commit alone would
  // misattribute those numbers.
  FILE* pipe = ::popen(
      "git describe --always --dirty --abbrev=12 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buffer[64] = {0};
  std::string sha;
  if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    sha = buffer;
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
      sha.pop_back();
    }
  }
  ::pclose(pipe);
  return sha.empty() ? "unknown" : sha;
}

/// `text` single-quoted for /bin/sh.
std::string ShellQuote(const std::string& text) {
  std::string quoted = "'";
  for (char c : text) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted += c;
    }
  }
  return quoted + "'";
}

std::string UtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  if (::gmtime_r(&now, &tm) == nullptr) return "unknown";
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buffer;
}

}  // namespace

HostMetadata CollectHostMetadata() {
  HostMetadata meta;
  meta.hardware_concurrency = std::thread::hardware_concurrency();
  // hardware_concurrency() == 0 means "unknown", not "one core": only a
  // measured single core earns the caveat.
  meta.single_vcpu = meta.hardware_concurrency == 1;
  meta.git_sha = GitSha();
  meta.timestamp_utc = UtcNow();
  return meta;
}

std::string HostMetadataJson(const HostMetadata& meta) {
  std::ostringstream os;
  os << "{\"hardware_concurrency\": " << meta.hardware_concurrency
     << ", \"single_vcpu\": " << (meta.single_vcpu ? "true" : "false")
     << ", \"git_sha\": \"" << meta.git_sha << "\""
     << ", \"timestamp_utc\": \"" << meta.timestamp_utc << "\"";
  if (meta.single_vcpu) {
    os << ", \"caveat\": \"single vCPU host: pooled/threaded timings "
          "cannot beat serial here; re-run on a multi-core host\"";
  }
  os << "}";
  return os.str();
}

std::string HostMetadataJson() {
  return HostMetadataJson(CollectHostMetadata());
}

bool RefuseTrackedOutput(const std::string& path) {
  // Ask from the file's own directory, so a path into another checkout
  // (or outside any) is judged by that checkout's index.
  const std::filesystem::path file(path);
  const std::string dir =
      file.has_parent_path() ? file.parent_path().string() : ".";
  const std::string command = "git -C " + ShellQuote(dir) +
                              " ls-files -- " +
                              ShellQuote(file.filename().string()) +
                              " 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return false;
  char buffer[8];
  const bool tracked = std::fgets(buffer, sizeof(buffer), pipe) != nullptr;
  ::pclose(pipe);
  if (tracked) {
    std::fprintf(stderr,
                 "refusing to write %s: the path is tracked by git; pass "
                 "--out elsewhere\n",
                 path.c_str());
  }
  return tracked;
}

template <typename T>
T ParseNumberArg(std::string_view flag, std::string_view text, T min) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && ptr == end && value >= min;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (ok) return value;
  std::ostringstream bound;
  if (min > std::numeric_limits<T>::lowest()) bound << " >= " << min;
  PM_CHECK_MSG(false, flag << " needs a decimal number" << bound.str()
                           << ", got '" << text << "'");
  return value;
}

template int ParseNumberArg(std::string_view, std::string_view, int);
template long long ParseNumberArg(std::string_view, std::string_view,
                                  long long);
template unsigned ParseNumberArg(std::string_view, std::string_view,
                                 unsigned);
template std::uint64_t ParseNumberArg(std::string_view, std::string_view,
                                      std::uint64_t);
template double ParseNumberArg(std::string_view, std::string_view, double);

unsigned ParseThreadsFlag(int* argc, char** argv, unsigned fallback) {
  unsigned threads = fallback;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--threads") {
      PM_CHECK_MSG(i + 1 < *argc, "--threads needs a value");
      threads = ParseNumberArg<unsigned>(arg, argv[++i]);
      continue;  // Consumed the flag and its value.
    }
    if (arg.starts_with("--threads=")) {
      threads = ParseNumberArg<unsigned>("--threads", arg.substr(10));
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return threads;
}

std::string SectionHostJson(const HostMetadata& meta,
                            bool needs_parallelism) {
  std::ostringstream os;
  os << "{\"invalid_on_single_vcpu\": "
     << (needs_parallelism ? "true" : "false")
     << ", \"single_vcpu_host\": " << (meta.single_vcpu ? "true" : "false")
     << ", \"hardware_concurrency\": " << meta.hardware_concurrency << "}";
  return os.str();
}

std::string SectionHostJson(bool needs_parallelism) {
  return SectionHostJson(CollectHostMetadata(), needs_parallelism);
}

}  // namespace pm
