// adhoc: one client sends distinct, unparameterized many-way join statements
// over small tables that fit in the pool. Each carries selective literals, so
// every statement misses the plan cache and returns few rows: parse, bind and
// the DP join enumeration (the paper's optimization cost, which point_mix
// hides behind the plan cache) are the cost. The benchmark computes every
// answer itself by walking the generated rows along the join chain.
#include <algorithm>
#include <set>

#include "bench.h"
#include "checks.h"
#include "common/rng.h"

namespace perfbench {
namespace {

using systemr::Database;
using systemr::Rng;

constexpr int kTables = 6;
constexpr int kMinChain = 4;  // Tables joined by the shortest statement.
constexpr int64_t kRowsPerTable = 500;
constexpr int64_t kDistinctA = 25;
constexpr size_t kBufferPages = 1024;  // Every table and index stays resident.
// Statements per second of --seconds, and warm-up statements.
constexpr int64_t kStmtsPerSecond = 1500;
constexpr int64_t kWarmupStmts = 100;

struct TRow { int64_t id, f, a, b; };

/// One generated statement: a chain T[first] -> ... -> T[first+len-1] joined
/// on T[i].F = T[i+1].ID, with T[first].A = a and range filters on B.
struct Stmt {
  std::string sql;
  int first = 0;
  int len = 0;
  int64_t a = 0;
  struct Filter { int table; bool less; int64_t lit; };
  std::vector<Filter> filters;
};

std::string T(int i) { return "T" + std::to_string(i); }

class Adhoc : public Workload {
 public:
  explicit Adhoc(const Options& opt) : opt_(opt) {}

  int clients() const override { return 1; }
  size_t buffer_pages() const override { return kBufferPages; }

  SetupTimes Load(Database& db) override {
    SetupTimes times;
    Rng rng(StreamSeed(opt_.seed, 21));
    data_.assign(kTables, {});
    for (int t = 0; t < kTables; ++t) {
      std::vector<Row> rows;
      for (int64_t id = 0; id < kRowsPerTable; ++id) {
        TRow r{id, rng.Uniform(0, kRowsPerTable - 1),
               rng.Uniform(0, kDistinctA - 1), rng.Uniform(0, 999)};
        data_[t].push_back(r);
        rows.push_back({Value::Int(r.id), Value::Int(r.f), Value::Int(r.a),
                        Value::Int(r.b),
                        Value::Str(rng.RandomString(rng.Uniform(4, 20)))});
      }
      LoadTable(db,
                "CREATE TABLE " + T(t) +
                    " (ID INT, F INT, A INT, B INT, S VARCHAR(20))",
                T(t), rows,
                {"CREATE UNIQUE CLUSTERED INDEX " + T(t) + "_ID ON " + T(t) +
                     " (ID)",
                 "CREATE INDEX " + T(t) + "_A ON " + T(t) + " (A)"},
                &times);
    }
    // Right after load: temp pages of later statements count in the store.
    stored_bytes_per_row_ = StoredBytesPerRow(db, kTables * kRowsPerTable);
    return times;
  }

  // The statements are generated here, outside the set-up time.
  void Connect(int, Driver&) override {
    if (!timed_.empty()) return;
    Rng rng(StreamSeed(opt_.seed, 20));
    std::set<std::string> seen;
    warmup_ = Generate(&rng, kWarmupStmts, &seen);
    timed_ = Generate(&rng, kStmtsPerSecond * opt_.seconds, &seen);
  }

  void RunOps(int, Driver& d, bool warmup) override {
    const std::vector<Stmt>& stmts = warmup ? warmup_ : timed_;
    for (size_t i = 0; i < stmts.size(); ++i) {
      ++attempted_;
      Clock::time_point t0 = Clock::now();
      Reply r = d.Query(stmts[i].sql);
      const double us = SecondsSince(t0) * 1e6;
      if (!r.ok()) {
        ++failed_;
        if (errors_.size() < 5) errors_.push_back(stmts[i].sql + ": " + r.Describe());
        continue;
      }
      ++completed_;
      if (warmup) continue;
      us_[static_cast<size_t>(stmts[i].len - kMinChain)].push_back({NowNs(), us});
      results_.emplace_back(i, std::move(r.rows));
    }
  }

  uint64_t EndPhase(Report* r, bool served) override {
    for (const std::string& e : errors_) r->Note(e);
    for (const auto& [i, rows] : results_) {
      std::string err = CheckSameRows(Expected(timed_[i]), rows);
      if (!err.empty()) r->Fail(timed_[i].sql + ": " + err);
    }
    r->attempted += attempted_;
    r->failed += failed_;
    const uint64_t stmts = completed_;
    if (served) {
      std::vector<Timed> done;
      for (const std::vector<Timed>& us : us_) {
        for (const Timed& t : us) done.push_back({t.end_ns, 1});
      }
      r->Add("stmts_per_s", WindowedRate(done), "stmt/s");
      r->Add("stmt_p50_us", StmtP50Us(us_), "us");
    }
    for (std::vector<Timed>& us : us_) us.clear();
    results_.clear();
    errors_.clear();
    attempted_ = failed_ = completed_ = 0;
    return stmts;
  }

  void EndRun(Report* r, Database&, bool served) override {
    if (served) r->Add("stored_bytes_per_row", stored_bytes_per_row_, "B/row");
  }

  void CheckRecovered(Report* r, Database& recovered) override {
    for (int t = 0; t < kTables; ++t) {
      int64_t sum = 0;
      for (const TRow& row : data_[t]) sum += row.b;
      std::string err =
          CheckSameRows({{Value::Int(kRowsPerTable), Value::Int(sum)}},
                        TableTotals(recovered, T(t), "B"));
      if (!err.empty()) r->Fail("after recovery: " + T(t) + ": " + err);
    }
  }

 private:
  static std::vector<Stmt> Generate(Rng* rng, int64_t n,
                                    std::set<std::string>* seen) {
    std::vector<Stmt> out;
    while (static_cast<int64_t>(out.size()) < n) {
      Stmt s;
      s.len = static_cast<int>(rng->Uniform(kMinChain, kTables));
      s.first = static_cast<int>(rng->Uniform(0, kTables - s.len));
      s.a = rng->Uniform(0, kDistinctA - 1);
      std::vector<std::string> from, where;
      for (int j = 0; j < s.len; ++j) {
        const int t = s.first + j;
        from.push_back(T(t));
        if (j + 1 < s.len) where.push_back(T(t) + ".F = " + T(t + 1) + ".ID");
        if (j > 0 && (rng->Bernoulli(0.5) || (s.filters.empty() && j + 1 == s.len))) {
          Stmt::Filter f{t, rng->Bernoulli(0.5), rng->Uniform(100, 900)};
          s.filters.push_back(f);
          where.push_back(T(t) + ".B " + (f.less ? "< " : ">= ") +
                          std::to_string(f.lit));
        }
      }
      where.push_back(T(s.first) + ".A = " + std::to_string(s.a));
      // Clause order carries no meaning; shuffle it so texts differ more.
      for (std::vector<std::string>* v : {&from, &where}) {
        for (size_t i = v->size() - 1; i > 0; --i) {
          std::swap((*v)[i], (*v)[static_cast<size_t>(
                                 rng->Uniform(0, static_cast<int64_t>(i)))]);
        }
      }
      s.sql = "SELECT " + T(s.first) + ".ID, " + T(s.first + s.len - 1) +
              ".B FROM ";
      for (size_t i = 0; i < from.size(); ++i) s.sql += (i ? ", " : "") + from[i];
      s.sql += " WHERE ";
      for (size_t i = 0; i < where.size(); ++i) {
        s.sql += (i ? " AND " : "") + where[i];
      }
      if (seen->insert(s.sql).second) out.push_back(std::move(s));
    }
    return out;
  }

  /// Follows each qualifying first-table row along the chain by ID.
  std::vector<Row> Expected(const Stmt& s) const {
    std::vector<Row> out;
    for (const TRow& start : data_[s.first]) {
      if (start.a != s.a) continue;
      const TRow* cur = &start;
      bool pass = true;
      for (int j = 1; j < s.len && pass; ++j) {
        cur = &data_[s.first + j][static_cast<size_t>(cur->f)];
        for (const Stmt::Filter& f : s.filters) {
          if (f.table == s.first + j && (f.less ? !(cur->b < f.lit) : !(cur->b >= f.lit))) {
            pass = false;
          }
        }
      }
      if (pass) out.push_back({Value::Int(start.id), Value::Int(cur->b)});
    }
    return out;
  }

  Options opt_;
  std::vector<Stmt> warmup_, timed_;
  std::vector<std::vector<TRow>> data_;

  // Latencies by chain length, kMinChain to kTables tables: each length is
  // its own statement class.
  std::vector<std::vector<Timed>> us_ =
      std::vector<std::vector<Timed>>(kTables - kMinChain + 1);
  double stored_bytes_per_row_ = 0;
  std::vector<std::pair<size_t, std::vector<Row>>> results_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0, failed_ = 0, completed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeAdhoc(const Options& opt) {
  return std::make_unique<Adhoc>(opt);
}

}  // namespace perfbench
