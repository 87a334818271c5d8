// Feeds every correctness check of the benchmark a deliberately wrong answer
// (an off-by-one count, a lost increment, a dropped row, ...) and requires
// the check to reject it, and the right answer and require it to pass.
// Exit status 0 when every case behaves.
#include <cstdio>

#include "checks.h"

using perfbench::PointObs;
using systemr::Row;
using systemr::Value;

namespace {

int failures = 0;

void Expect(bool rejected, bool want_rejected, const char* what) {
  if (rejected != want_rejected) {
    std::printf("FAIL: %s was %s\n", what, rejected ? "rejected" : "accepted");
    ++failures;
  } else {
    std::printf("ok: %s %s\n", what, rejected ? "rejected" : "accepted");
  }
}

bool Rejects(const std::string& err) { return !err.empty(); }

Row R(int64_t a, int64_t b) { return {Value::Int(a), Value::Int(b)}; }

}  // namespace

int main() {
  PointObs range;
  range.partition = 2;
  range.lo = 100;
  range.hi = 132;
  range.got_count = 32;
  Expect(Rejects(perfbench::CheckPointObs(range)), false, "range count 32 of 32");
  range.got_count = 31;
  Expect(Rejects(perfbench::CheckPointObs(range)), true, "range count off by one");

  PointObs own;
  own.lo = 7;
  own.hi = 8;
  own.own = true;
  own.want_sum = 500;
  own.got_count = 1;
  own.got_sum = 500;
  Expect(Rejects(perfbench::CheckPointObs(own)), false, "own read equal to model");
  own.got_sum = 497;
  Expect(Rejects(perfbench::CheckPointObs(own)), true, "own read missing an increment");
  own.got_count = 0;
  own.got_sum = 0;
  Expect(Rejects(perfbench::CheckPointObs(own)), true, "point lookup found no row");

  PointObs write;
  write.kind = PointObs::Kind::kWrite;
  write.got_count = 1;
  Expect(Rejects(perfbench::CheckPointObs(write)), false, "update affecting one row");
  write.got_count = 0;
  Expect(Rejects(perfbench::CheckPointObs(write)), true, "update affecting no row");

  Expect(Rejects(perfbench::CheckPartitionTotal(1, 4000, 2000123, 4000, 2000123)),
         false, "partition total with every increment");
  Expect(Rejects(perfbench::CheckPartitionTotal(1, 4000, 2000123, 4000, 2000118)),
         true, "partition total with a lost increment");
  Expect(Rejects(perfbench::CheckPartitionTotal(1, 4000, 2000123, 3999, 2000123)),
         true, "partition with a lost row");

  const std::vector<Row> want = {R(1, 10), R(2, 20), R(2, 20), R(3, 5)};
  Expect(Rejects(perfbench::CheckSameRows(want, {R(3, 5), R(2, 20), R(1, 10), R(2, 20)})),
         false, "same rows in another order");
  Expect(Rejects(perfbench::CheckSameRows(want, {R(1, 10), R(2, 20), R(3, 5)})),
         true, "a dropped duplicate row");
  Expect(Rejects(perfbench::CheckSameRows(want, {R(1, 10), R(2, 20), R(2, 20), R(3, 6)})),
         true, "a changed value");
  Expect(Rejects(perfbench::CheckSameRows(want, {R(1, 10), R(2, 20), R(2, 20), R(3, 5), R(4, 1)})),
         true, "an extra row");
  Expect(Rejects(perfbench::CheckSameRows({R(7, 1)}, {{Value::Real(7.0), Value::Int(1)}})),
         false, "a count returned as 7.0");

  Expect(Rejects(perfbench::CheckSorted({R(5, 1), R(5, 2), R(6, 0)}, {0, 1})), false,
         "rows in (a, b) order");
  Expect(Rejects(perfbench::CheckSorted({R(5, 2), R(5, 1), R(6, 0)}, {0, 1})), true,
         "rows out of order on the second key");
  Expect(Rejects(perfbench::CheckSorted({R(6, 0), R(5, 1)}, {0, 1})), true,
         "rows out of order on the first key");

  std::printf("%s: %d case(s) failed\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
