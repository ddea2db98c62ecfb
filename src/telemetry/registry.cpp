#include "telemetry/registry.h"

#include <sstream>

#include "common/check.h"
#include "common/table.h"

namespace pm::telemetry {
namespace {

void AppendLabel(std::string& out, const char* label,
                 const std::string& value, bool& any) {
  if (value.empty()) return;
  out += any ? "," : "{";
  out += label;
  out += '=';
  out += JsonQuote(value);
  any = true;
}

}  // namespace

std::string_view KeyName(const std::string& key) {
  const std::size_t brace = key.find('{');
  return std::string_view(key).substr(
      0, brace == std::string::npos ? key.size() : brace);
}

Labels KeyLabels(const std::string& key) {
  Labels labels;
  std::size_t at = key.find('{');
  if (at == std::string::npos) return labels;
  ++at;
  while (at < key.size() && key[at] != '}') {
    const std::size_t eq = key.find('=', at);
    PM_CHECK_MSG(eq != std::string::npos && eq + 1 < key.size() &&
                     key[eq + 1] == '"',
                 "malformed canonical key '" << key << "'");
    const std::string label = key.substr(at, eq - at);
    std::string value;
    std::size_t i = eq + 2;
    for (; i < key.size() && key[i] != '"'; ++i) {
      char c = key[i];
      if (c == '\\' && i + 1 < key.size()) {  // Undo JsonQuote.
        c = key[++i];
        if (c == 'n') c = '\n';
      }
      value += c;
    }
    PM_CHECK_MSG(i < key.size(), "malformed canonical key '" << key << "'");
    if (label == "shard") {
      labels.shard = std::move(value);
    } else if (label == "kind") {
      labels.kind = std::move(value);
    } else if (label == "phase") {
      labels.phase = std::move(value);
    } else {
      PM_CHECK_MSG(false, "unknown label '" << label << "' in key '" << key
                                            << "'");
    }
    at = i + 1;
    if (at < key.size() && key[at] == ',') ++at;
  }
  return labels;
}

std::string RenderKey(std::string_view name, const Labels& labels) {
  PM_CHECK_MSG(!name.empty(), "metric needs a name");
  PM_CHECK_MSG(name.find('{') == std::string_view::npos,
               "metric name '" << name << "' may not contain '{'");
  std::string key(name);
  bool any = false;
  AppendLabel(key, "shard", labels.shard, any);
  AppendLabel(key, "kind", labels.kind, any);
  AppendLabel(key, "phase", labels.phase, any);
  if (any) key += '}';
  return key;
}

void MetricsRegistry::AddCounter(std::string_view name,
                                 const Labels& labels, double delta) {
  PM_CHECK_MSG(delta >= 0.0, "counter '" << name
                                         << "' must grow monotonically");
  counters_[RenderKey(name, labels)] += delta;
}

void MetricsRegistry::SetGauge(std::string_view name, const Labels& labels,
                               double value) {
  gauges_[RenderKey(name, labels)] = value;
}

void MetricsRegistry::Observe(std::string_view name, const Labels& labels,
                              double value, double lo, double hi,
                              std::size_t bins) {
  const std::string key = RenderKey(name, labels);
  auto it = hists_.find(key);
  if (it == hists_.end()) {
    // One shape per metric name across every label set, so cross-label
    // merges (the JSON aggregate, operator roll-ups) are always valid.
    // Validated before inserting: a rejected declaration must not leave
    // a poisoned entry behind.
    stats::Histogram fresh(lo, hi, bins);
    for (const auto& [other_key, entry] : hists_) {
      if (entry.name == name) {
        PM_CHECK_MSG(entry.hist.SameShape(fresh),
                     "histogram '" << name
                                   << "' re-declared with a new shape");
      }
    }
    it = hists_
             .emplace(key, HistEntry{std::move(fresh), std::string(name)})
             .first;
  }
  it->second.hist.Add(value);
}

void MetricsRegistry::SetGaugeByKey(std::string key, double value) {
  PM_CHECK_MSG(!key.empty(), "gauge key must not be empty");
  gauges_[std::move(key)] = value;
}

void MetricsRegistry::SnapshotEpoch(int epoch) {
  EpochSnapshot snap;
  snap.epoch = epoch;
  snap.counters.assign(counters_.begin(), counters_.end());
  snap.gauges.assign(gauges_.begin(), gauges_.end());
  epochs_.push_back(std::move(snap));
}

double MetricsRegistry::CounterValue(std::string_view name,
                                     const Labels& labels) const {
  const auto it = counters_.find(RenderKey(name, labels));
  return it == counters_.end() ? 0.0 : it->second;
}

double MetricsRegistry::GaugeValue(std::string_view name,
                                   const Labels& labels) const {
  const auto it = gauges_.find(RenderKey(name, labels));
  return it == gauges_.end() ? 0.0 : it->second;
}

const stats::Histogram* MetricsRegistry::FindHistogram(
    std::string_view name, const Labels& labels) const {
  const auto it = hists_.find(RenderKey(name, labels));
  return it == hists_.end() ? nullptr : &it->second.hist;
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream os;
  os << "{\n";

  const auto scalar_section = [&os](const char* title,
                                    const std::map<std::string, double>&
                                        values,
                                    bool trailing_comma) {
    os << "  \"" << title << "\": [\n";
    std::size_t i = 0;
    for (const auto& [key, value] : values) {
      os << "    {\"key\": " << JsonQuote(key)
         << ", \"value\": " << JsonNum(value) << "}"
         << (++i < values.size() ? "," : "") << "\n";
    }
    os << "  ]" << (trailing_comma ? "," : "") << "\n";
  };

  scalar_section("counters", counters_, true);
  scalar_section("gauges", gauges_, true);

  // Histograms: every label set, then one merged planet-wide aggregate
  // per name that appears under more than one label set (stats::Histogram
  // Merge — same shape guaranteed by Observe).
  os << "  \"histograms\": [\n";
  {
    std::vector<std::pair<std::string, const stats::Histogram*>> rows;
    for (const auto& [key, entry] : hists_) {
      rows.emplace_back(key, &entry.hist);
    }
    std::map<std::string, stats::Histogram> merged;
    std::map<std::string, std::size_t> name_count;
    for (const auto& [key, entry] : hists_) {
      ++name_count[entry.name];
      const auto it = merged.find(entry.name);
      if (it == merged.end()) {
        merged.emplace(entry.name, entry.hist);
      } else {
        it->second.Merge(entry.hist);
      }
    }
    std::vector<std::pair<std::string, stats::Histogram>> aggregates;
    for (const auto& [name, hist] : merged) {
      if (name_count[name] > 1) aggregates.emplace_back(name, hist);
    }
    std::size_t i = 0;
    const std::size_t total = rows.size() + aggregates.size();
    const auto emit = [&](const std::string& key,
                          const stats::Histogram& h) {
      os << "    {\"key\": " << JsonQuote(key)
         << ", \"count\": " << h.TotalCount()
         << ", \"sum\": " << JsonNum(h.Sum())
         << ", \"underflow\": " << h.Underflow()
         << ", \"overflow\": " << h.Overflow()
         << ", \"p50\": " << JsonNum(h.Quantile(0.50))
         << ", \"p90\": " << JsonNum(h.Quantile(0.90))
         << ", \"p99\": " << JsonNum(h.Quantile(0.99)) << "}"
         << (++i < total ? "," : "") << "\n";
    };
    for (const auto& [key, hist] : rows) emit(key, *hist);
    for (const auto& [name, hist] : aggregates) emit(name, hist);
  }
  os << "  ],\n";

  // The logical-clock series: per-epoch counter/gauge snapshots.
  os << "  \"series\": [\n";
  for (std::size_t e = 0; e < epochs_.size(); ++e) {
    const EpochSnapshot& snap = epochs_[e];
    os << "    {\"epoch\": " << snap.epoch << ", \"counters\": [";
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
      os << (i > 0 ? ", " : "") << "{\"key\": "
         << JsonQuote(snap.counters[i].first)
         << ", \"value\": " << JsonNum(snap.counters[i].second) << "}";
    }
    os << "], \"gauges\": [";
    for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
      os << (i > 0 ? ", " : "") << "{\"key\": "
         << JsonQuote(snap.gauges[i].first)
         << ", \"value\": " << JsonNum(snap.gauges[i].second) << "}";
    }
    os << "]}" << (e + 1 < epochs_.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::ostringstream os;
  std::string_view last_type_for;

  const auto type_line = [&](const std::string& key, const char* type) {
    const std::string_view name = KeyName(key);
    if (name != last_type_for) {
      os << "# TYPE " << name << " " << type << "\n";
      last_type_for = name;
    }
  };

  for (const auto& [key, value] : counters_) {
    type_line(key, "counter");
    os << key << " " << JsonNum(value) << "\n";
  }
  last_type_for = {};
  for (const auto& [key, value] : gauges_) {
    type_line(key, "gauge");
    os << key << " " << JsonNum(value) << "\n";
  }
  last_type_for = {};
  for (const auto& [key, entry] : hists_) {
    type_line(key, "histogram");
    // Cumulative buckets over the declared bins, then the catch-all.
    // The canonical key already carries the label set; `le` is spliced
    // in as the last label.
    const stats::Histogram& h = entry.hist;
    const auto bucket_key = [&](const std::string& le) {
      std::string k = key;
      if (!k.empty() && k.back() == '}') {
        k.pop_back();
        k += ",le=\"" + le + "\"}";
      } else {
        k += "{le=\"" + le + "\"}";
      }
      const std::size_t brace = k.find('{');
      return k.substr(0, brace) + "_bucket" + k.substr(brace);
    };
    std::size_t cum = h.Underflow();
    for (std::size_t b = 0; b < h.NumBins(); ++b) {
      cum += h.Count(b);
      os << bucket_key(JsonNum(h.BinLow(b) + (h.BinCenter(b) - h.BinLow(b)) *
                                             2.0))
         << " " << cum << "\n";
    }
    os << bucket_key("+Inf") << " " << h.TotalCount() << "\n";
    const std::size_t brace = key.find('{');
    const std::string name(KeyName(key));
    const std::string suffix =
        brace == std::string::npos ? "" : key.substr(brace);
    os << name << "_sum" << suffix << " " << JsonNum(h.Sum()) << "\n";
    os << name << "_count" << suffix << " " << h.TotalCount() << "\n";
  }
  return os.str();
}

}  // namespace pm::telemetry
