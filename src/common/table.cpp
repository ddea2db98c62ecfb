#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace pm {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  PM_CHECK(!headers_.empty());
  aligns_.assign(headers_.size(), Align::kRight);
  aligns_[0] = Align::kLeft;
}

void TextTable::SetAlign(std::size_t column, Align align) {
  PM_CHECK_MSG(column < aligns_.size(), "column " << column << " of "
                                                  << aligns_.size());
  aligns_[column] = align;
}

void TextTable::AddRow(std::vector<std::string> cells) {
  PM_CHECK_MSG(cells.size() == headers_.size(),
               "row has " << cells.size() << " cells, table has "
                          << headers_.size() << " columns");
  rows_.push_back(Row{std::move(cells), /*is_rule=*/false});
}

void TextTable::AddRule() { rows_.push_back(Row{{}, /*is_rule=*/true}); }

std::string TextTable::Render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const Row& row : rows_) {
    if (row.is_rule) continue;
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      widths[c] = std::max(widths[c], row.cells[c].size());
    }
  }

  auto pad = [&](const std::string& text, std::size_t c) {
    std::string out;
    const std::size_t fill = widths[c] - std::min(widths[c], text.size());
    if (aligns_[c] == Align::kRight) out.append(fill, ' ');
    out += text;
    if (aligns_[c] == Align::kLeft) out.append(fill, ' ');
    return out;
  };

  auto rule = [&] {
    std::string out = "+";
    for (std::size_t w : widths) {
      out.append(w + 2, '-');
      out += '+';
    }
    out += '\n';
    return out;
  };

  std::ostringstream os;
  os << rule();
  os << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << ' ' << pad(headers_[c], c) << " |";
  }
  os << '\n' << rule();
  for (const Row& row : rows_) {
    if (row.is_rule) {
      os << rule();
      continue;
    }
    os << "|";
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      os << ' ' << pad(row.cells[c], c) << " |";
    }
    os << '\n';
  }
  os << rule();
  return os.str();
}

std::string FormatF(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string FormatPct(double fraction, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", digits, fraction * 100.0);
  return buf;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNum(double value) {
  if (value == 0.0) return FormatF(0.0, 6);  // -0.0 too.
  return FormatF(value, 6);
}

void CsvWriter::WriteRow(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) os_ << ',';
    os_ << Escape(cells[i]);
  }
  os_ << '\n';
}

std::string CsvWriter::Escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char ch : field) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

}  // namespace pm
