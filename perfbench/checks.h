// Correctness checks of the benchmark. Each compares what the engine
// returned with a value the benchmark computed itself from the rows it
// generated, or with a property the answer must have; none compares with a
// stored copy of an earlier output. Each returns "" when the answer passes
// and a description of the fault otherwise. check_test.cc feeds every check
// a wrong answer.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/value.h"

namespace perfbench {

/// One point_mix operation as the client saw it. A point lookup is the key
/// range [k, k+1); a write is the range of the one key it updated.
struct PointObs {
  enum class Kind : uint8_t { kRead, kWrite };
  Kind kind = Kind::kRead;
  int partition = 0;
  int64_t lo = 0;
  int64_t hi = 0;
  /// Read of the client's own partition: only it writes there, so the
  /// benchmark's model knows the exact SUM(V) of the range (`want_sum`).
  bool own = false;
  int64_t want_sum = 0;
  /// Reads: rows counted (COUNT(*), or result rows of a point lookup) and
  /// SUM(V) (or V). Writes: the affected-row count.
  int64_t got_count = 0;
  int64_t got_sum = 0;
};

/// Reads: every key in [lo, hi) exists and updates never delete, so the
/// count is hi - lo; own-partition sums match the model. Writes: exactly one
/// row affected.
std::string CheckPointObs(const PointObs& o);

/// End of run: a partition still holds `want_rows` rows and its SUM(V) is
/// the initial sum plus every acknowledged increment.
std::string CheckPartitionTotal(int partition, int64_t want_rows,
                                int64_t want_sum, int64_t got_rows,
                                int64_t got_sum);

/// Multiset equality of result rows (order ignored).
std::string CheckSameRows(const std::vector<systemr::Row>& want,
                          const std::vector<systemr::Row>& got);

/// Rows are in ascending order of the given columns, compared in turn.
std::string CheckSorted(const std::vector<systemr::Row>& rows,
                        const std::vector<size_t>& key_columns);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
