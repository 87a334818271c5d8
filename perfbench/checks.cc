#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using systemr::Row;
using systemr::Value;
using systemr::ValueType;

namespace {

std::string P(int partition) { return "P" + std::to_string(partition); }

/// Canonical text of a value: numbers compare by value whatever their type.
std::string Canon(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(v.AsInt());
    case ValueType::kDouble: {
      double d = v.AsReal();
      if (d == std::floor(d) && std::fabs(d) < 9e15) {
        return std::to_string(static_cast<int64_t>(d));
      }
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.9g", d);
      return buf;
    }
    default:
      return "'" + v.AsStr() + "'";
  }
}

std::string Canon(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Canon(row[i]);
  }
  return out + ")";
}

std::vector<std::string> SortedCanon(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(Canon(r));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::string CheckPointObs(const PointObs& o) {
  const std::string where =
      P(o.partition) + " keys [" + std::to_string(o.lo) + ", " +
      std::to_string(o.hi) + ")";
  if (o.kind == PointObs::Kind::kWrite) {
    if (o.got_count != 1) {
      return "UPDATE of " + where + " affected " + std::to_string(o.got_count) +
             " rows, want 1";
    }
    return "";
  }
  if (o.got_count != o.hi - o.lo) {
    return "read of " + where + " counted " + std::to_string(o.got_count) +
           " rows, want " + std::to_string(o.hi - o.lo);
  }
  if (o.own && o.got_sum != o.want_sum) {
    return "read of own " + where + " returned SUM(V) " +
           std::to_string(o.got_sum) + ", model says " +
           std::to_string(o.want_sum);
  }
  return "";
}

std::string CheckPartitionTotal(int partition, int64_t want_rows,
                                int64_t want_sum, int64_t got_rows,
                                int64_t got_sum) {
  if (got_rows != want_rows) {
    return P(partition) + " holds " + std::to_string(got_rows) +
           " rows, want " + std::to_string(want_rows);
  }
  if (got_sum != want_sum) {
    return P(partition) + " SUM(V) is " + std::to_string(got_sum) +
           ", initial sum plus acknowledged increments is " +
           std::to_string(want_sum);
  }
  return "";
}

std::string CheckSameRows(const std::vector<Row>& want,
                          const std::vector<Row>& got) {
  std::vector<std::string> w = SortedCanon(want);
  std::vector<std::string> g = SortedCanon(got);
  if (w == g) return "";
  std::vector<std::string> missing, extra;
  std::set_difference(w.begin(), w.end(), g.begin(), g.end(),
                      std::back_inserter(missing));
  std::set_difference(g.begin(), g.end(), w.begin(), w.end(),
                      std::back_inserter(extra));
  std::string out = std::to_string(got.size()) + " rows returned, " +
                    std::to_string(want.size()) + " expected";
  if (!missing.empty()) out += "; missing " + missing.front();
  if (!extra.empty()) out += "; unexpected " + extra.front();
  return out;
}

std::string CheckSorted(const std::vector<Row>& rows,
                        const std::vector<size_t>& key_columns) {
  for (size_t i = 1; i < rows.size(); ++i) {
    for (size_t c : key_columns) {
      int cmp = rows[i - 1][c].Compare(rows[i][c]);
      if (cmp < 0) break;
      if (cmp > 0) {
        return "row " + std::to_string(i) + " " + Canon(rows[i]) +
               " sorts before row " + std::to_string(i - 1) + " " +
               Canon(rows[i - 1]);
      }
    }
  }
  return "";
}

}  // namespace perfbench
