#include "sql/query.h"

#include <algorithm>

namespace rjoin::sql {

std::string WindowSpec::ToString() const {
  if (!use_windows) return "";
  std::string out = "WINDOW " + std::to_string(size) + " ";
  out += unit == Unit::kTuples ? "TUPLES" : "TIME";
  if (kind == Kind::kTumbling) out += " TUMBLING";
  return out;
}

bool Query::References(const std::string& relation) const {
  return std::find(relations.begin(), relations.end(), relation) !=
         relations.end();
}

std::string Query::ToString() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  for (size_t i = 0; i < select_list.size(); ++i) {
    if (i > 0) out += ", ";
    out += select_list[i].ToString();
  }
  out += " FROM ";
  for (size_t i = 0; i < relations.size(); ++i) {
    if (i > 0) out += ", ";
    out += relations[i];
  }
  const bool has_where = !joins.empty() || !selections.empty();
  if (has_where) {
    out += " WHERE ";
    bool first = true;
    for (const auto& j : joins) {
      if (!first) out += " AND ";
      out += j.ToString();
      first = false;
    }
    for (const auto& s : selections) {
      if (!first) out += " AND ";
      out += s.ToString();
      first = false;
    }
  }
  if (window.use_windows) {
    out += " " + window.ToString();
  }
  return out;
}

}  // namespace rjoin::sql
