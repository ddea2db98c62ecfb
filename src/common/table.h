// planetmarket: plain-text table, CSV and JSON scalar rendering.
//
// Every bench binary reproducing a paper table/figure prints its rows
// through TextTable (for the console) and optionally CsvWriter (for
// downstream plotting), so all experiment output is uniform and parseable.
// The JSON writers (telemetry exports, scenario metrics) share JsonQuote
// and JsonNum so their documents stay byte-deterministic.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace pm {

/// Column alignment for TextTable.
enum class Align { kLeft, kRight };

/// Builds an aligned, box-drawn text table:
///
///   TextTable t({"cluster", "price"});
///   t.AddRow({"r1", "1.23"});
///   std::cout << t.Render();
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Sets per-column alignment; default is kRight for every column except
  /// the first (kLeft).
  void SetAlign(std::size_t column, Align align);

  /// Appends a data row. Must have exactly as many cells as headers.
  void AddRow(std::vector<std::string> cells);

  /// Appends a horizontal rule between the previously added row and the
  /// next one (used to group sections).
  void AddRule();

  /// Number of data rows added so far.
  std::size_t NumRows() const { return rows_.size(); }

  /// Renders the full table, ending with a newline.
  std::string Render() const;

 private:
  struct Row {
    std::vector<std::string> cells;  // Empty cells vector encodes a rule.
    bool is_rule = false;
  };

  std::vector<std::string> headers_;
  std::vector<Align> aligns_;
  std::vector<Row> rows_;
};

/// Formats a double with `digits` decimal places ("3.142").
std::string FormatF(double value, int digits);

/// Formats a double as a percentage with `digits` decimals ("61.8%").
/// The input is a fraction: 0.618 → "61.8%".
std::string FormatPct(double fraction, int digits);

/// A JSON string literal: `s` in double quotes, with '"', '\' and newline
/// escaped.
std::string JsonQuote(const std::string& s);

/// A JSON number with 6 fixed decimals: no exponent, no locale separator,
/// and negative zero printed as "0.000000" so equal runs stay
/// byte-identical.
std::string JsonNum(double value);

/// Streams rows as RFC-4180-ish CSV (fields containing commas, quotes or
/// newlines are quoted; quotes doubled).
class CsvWriter {
 public:
  /// Writes to `os`, which must outlive the writer.
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  /// Writes one row.
  void WriteRow(const std::vector<std::string>& cells);

 private:
  static std::string Escape(const std::string& field);

  std::ostream& os_;
};

}  // namespace pm
