#include "telemetry/trace.h"

#include <sstream>

#include "common/table.h"

namespace pm::telemetry {
std::string Span::Render() const {
  std::ostringstream os;
  os << "[e" << epoch << " #" << seq << "] " << name;
  if (shard >= 0) os << " shard=" << shard;
  if (trace != 0) os << " trace=" << trace;
  for (const auto& [key, value] : attrs) {
    os << " " << key << "=" << value;
  }
  return os.str();
}

Span& BidTracer::Emit(std::uint64_t trace, std::string name, int epoch,
                      int shard) {
  Span span;
  span.trace = trace;
  span.seq = next_seq_++;
  span.name = std::move(name);
  span.epoch = epoch;
  span.shard = shard;
  spans_.push_back(std::move(span));
  return spans_.back();
}

std::vector<const Span*> BidTracer::SpansOf(std::uint64_t trace) const {
  std::vector<const Span*> out;
  for (const Span& span : spans_) {
    if (span.trace == trace) out.push_back(&span);
  }
  return out;
}

std::string BidTracer::ToJson() const {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"trace\": " << s.trace << ", \"seq\": " << s.seq
       << ", \"name\": " << JsonQuote(s.name) << ", \"epoch\": " << s.epoch
       << ", \"shard\": " << s.shard << ", \"attrs\": {";
    for (std::size_t a = 0; a < s.attrs.size(); ++a) {
      os << (a > 0 ? ", " : "") << JsonQuote(s.attrs[a].first) << ": "
         << JsonQuote(s.attrs[a].second);
    }
    os << "}}" << (i + 1 < spans_.size() ? "," : "") << "\n";
  }
  os << "]";
  return os.str();
}

}  // namespace pm::telemetry
