// point_mix: a closed loop of several clients over loopback. Each client
// sends prepared point lookups and short prepared range aggregates over every
// partition, and single-row UPDATE transactions confined to the partitions it
// owns, a quarter auto-commit and the rest BEGIN ... COMMIT. All data fits in
// the buffer pool. For statements this small the frame codec, admission, the
// plan cache, relation locks and the WAL commit are the cost; the optimizer
// hides behind cached plans, and writes run beside reads.
#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "checks.h"
#include "common/rng.h"

namespace perfbench {
namespace {

using systemr::Database;
using systemr::QueryResult;
using systemr::Rng;
using systemr::StatusOr;

// Four partitions, each its own table (locks are relation-level), so a
// client's writes lock only the partitions it owns.
constexpr int kPartitions = 4;
// No more clients than the machine has CPUs, though all of them share one.
constexpr int kClients = 2;
constexpr int64_t kRowsPerPartition = 4000;
constexpr int64_t kRangeWidth = 32;
// 16 MiB: the load plus every row version the updates of a 20 s run append
// (heap space is never reclaimed) stays resident, with room to spare.
constexpr size_t kBufferPages = 4096;
// Operations per client per second of --seconds, and warm-up operations.
constexpr int64_t kOpsPerClientSecond = 12000;
constexpr int64_t kWarmupOps = 3000;
constexpr double kPointShare = 0.5;
constexpr double kRangeShare = 0.3;  // The rest are writes.
// Writes in BEGIN ... COMMIT, three round trips against one for auto-commit.
// Far from a half, so that the median of write latency falls inside the
// three-trip mode instead of between the two.
constexpr double kTxnShare = 0.75;

std::string Table(int p) { return "P" + std::to_string(p); }

class PointMix : public Workload {
 public:
  explicit PointMix(const Options& opt)
      : opt_(opt), clients_(std::min(kClients, opt.cpus)), logs_(clients_) {}

  int clients() const override { return clients_; }
  size_t buffer_pages() const override { return kBufferPages; }

  SetupTimes Load(Database& db) override {
    SetupTimes times;
    Rng rng(StreamSeed(opt_.seed, 1));
    model_.assign(kPartitions, {});
    initial_sum_.assign(kPartitions, 0);
    acked_.assign(kPartitions, 0);
    for (int p = 0; p < kPartitions; ++p) {
      std::vector<Row> rows;
      for (int64_t k = 0; k < kRowsPerPartition; ++k) {
        int64_t v = rng.Uniform(0, 999);
        model_[p].push_back(v);
        initial_sum_[p] += v;
        rows.push_back({Value::Int(k), Value::Int(v),
                        Value::Str(rng.RandomString(rng.Uniform(4, 24)))});
      }
      const std::string t = Table(p);
      LoadTable(db, "CREATE TABLE " + t + " (K INT, V INT, TAG VARCHAR(24))",
                t, rows,
                {"CREATE UNIQUE CLUSTERED INDEX " + t + "_K ON " + t + " (K)"},
                &times);
    }
    return times;
  }

  void Connect(int c, Driver& d) override {
    auto prepare = [&](const std::string& name, const std::string& sql) {
      Reply r = d.Prepare(name, sql);
      if (!r.ok()) {
        logs_[c].check_errors.push_back("PREPARE " + sql + ": " + r.Describe());
      }
    };
    for (int p = 0; p < kPartitions; ++p) {
      const std::string t = Table(p);
      prepare("pt" + std::to_string(p), "SELECT V FROM " + t + " WHERE K = ?");
      prepare("rg" + std::to_string(p),
              "SELECT COUNT(*), SUM(V) FROM " + t + " WHERE K >= ? AND K < ?");
    }
  }

  void RunOps(int c, Driver& d, bool warmup) override {
    Log& log = logs_[c];
    std::vector<int> own;
    for (int p = c; p < kPartitions; p += clients_) own.push_back(p);
    Rng rng(StreamSeed(opt_.seed, 2, static_cast<uint64_t>(c), warmup ? 1 : 0));
    const int64_t ops = warmup ? kWarmupOps : kOpsPerClientSecond * opt_.seconds;
    for (int64_t i = 0; i < ops; ++i) {
      const double dice = rng.NextDouble();
      const int64_t k = rng.Uniform(0, kRowsPerPartition - 1);
      PointObs o;
      ++log.attempted;
      if (dice < kPointShare + kRangeShare) {
        const bool point = dice < kPointShare;
        o.partition = static_cast<int>(rng.Uniform(0, kPartitions - 1));
        o.lo = k;
        o.hi = point ? k + 1 : std::min(k + kRangeWidth, kRowsPerPartition);
        o.own = o.partition % clients_ == c;
        const std::string id = std::to_string(o.partition);
        Clock::time_point t0 = Clock::now();
        Reply r = point ? d.Execute("pt" + id, {Value::Int(o.lo)})
                        : d.Execute("rg" + id, {Value::Int(o.lo), Value::Int(o.hi)});
        const double us = SecondsSince(t0) * 1e6;
        if (!r.ok()) {
          Failed(&log, r);
          continue;
        }
        ++log.stmts;
        if (warmup) continue;
        const int64_t end = NowNs();
        log.done.push_back({end, 1});
        (point ? log.point_us : log.range_us).push_back({end, us});
        if (o.own) {
          for (int64_t key = o.lo; key < o.hi; ++key) {
            o.want_sum += model_[o.partition][key];
          }
        }
        if (point) {
          o.got_count = static_cast<int64_t>(r.rows.size());
          o.got_sum = r.rows.size() == 1 ? AsInt(r.rows[0][0]) : 0;
        } else if (r.rows.size() == 1 && r.rows[0].size() == 2) {
          o.got_count = AsInt(r.rows[0][0]);
          o.got_sum = r.rows[0][1].is_null() ? 0 : AsInt(r.rows[0][1]);
        } else {
          o.got_count = -1;
        }
        log.obs.push_back(o);
        continue;
      }
      o.kind = PointObs::Kind::kWrite;
      o.partition = own[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(own.size()) - 1))];
      o.lo = k;
      o.hi = k + 1;
      const int64_t delta = rng.Uniform(1, 9);
      const bool txn = rng.Bernoulli(kTxnShare);
      const std::string sql = "UPDATE " + Table(o.partition) + " SET V = V + " +
                              std::to_string(delta) + " WHERE K = " +
                              std::to_string(k);
      Clock::time_point t0 = Clock::now();
      Reply r;
      if (txn) {
        r = d.Begin();
        if (!r.ok()) {
          Failed(&log, r);
          continue;
        }
      }
      Reply u = d.Query(sql);
      if (txn) r = d.Commit();
      const double us = SecondsSince(t0) * 1e6;
      if (!u.ok() || !r.ok()) {
        Failed(&log, u.ok() ? r : u);
        continue;
      }
      // Acknowledged: the model and the expected partition sum take it.
      model_[o.partition][k] += delta;
      acked_[o.partition] += delta;
      log.stmts += txn ? 3 : 1;
      if (warmup) continue;
      const int64_t end = NowNs();
      log.done.push_back({end, txn ? 3.0 : 1.0});
      log.write_us.push_back({end, us});
      o.got_count = static_cast<int64_t>(u.affected);
      log.obs.push_back(o);
    }
  }

  uint64_t EndPhase(Report* r, bool served) override {
    std::vector<Timed> point_us, range_us, write_us, done;
    uint64_t stmts = 0;
    for (Log& log : logs_) {
      for (const std::string& e : log.check_errors) r->Fail(e);
      for (const std::string& e : log.op_errors) r->Note(e);
      for (const PointObs& o : log.obs) {
        std::string err = CheckPointObs(o);
        if (!err.empty()) r->Fail(err);
      }
      r->attempted += log.attempted;
      r->failed += log.failed;
      stmts += log.stmts;
      point_us.insert(point_us.end(), log.point_us.begin(), log.point_us.end());
      range_us.insert(range_us.end(), log.range_us.begin(), log.range_us.end());
      write_us.insert(write_us.end(), log.write_us.begin(), log.write_us.end());
      done.insert(done.end(), log.done.begin(), log.done.end());
      log = Log();
    }
    if (served) {
      r->Add("stmts_per_s", WindowedRate(done), "stmt/s");
      r->Add("stmt_p50_us", StmtP50Us({point_us, range_us, write_us}), "us");
      std::fprintf(stderr, "point_mix: %d clients, %zu point / %zu range / %zu write samples\n",
                   clients_, point_us.size(), range_us.size(), write_us.size());
    }
    return stmts;
  }

  void EndRun(Report* r, Database& db, bool served) override {
    end_totals_ = Totals(r, db);
    for (int p = 0; p < kPartitions; ++p) {
      std::string err = CheckPartitionTotal(p, kRowsPerPartition,
                                            initial_sum_[p] + acked_[p],
                                            end_totals_[p].first,
                                            end_totals_[p].second);
      if (!err.empty()) r->Fail(err);
    }
    if (served) {
      r->Add("stored_bytes_per_row",
             StoredBytesPerRow(db, kPartitions * kRowsPerPartition), "B/row");
    }
  }

  void CheckRecovered(Report* r, Database& recovered) override {
    std::vector<std::pair<int64_t, int64_t>> got = Totals(r, recovered);
    for (int p = 0; p < kPartitions; ++p) {
      std::string err =
          CheckPartitionTotal(p, end_totals_[p].first, end_totals_[p].second,
                              got[p].first, got[p].second);
      if (!err.empty()) r->Fail("after recovery: " + err);
    }
  }

 private:
  struct Log {
    std::vector<Timed> point_us, range_us, write_us;
    std::vector<Timed> done;  // Statements completed, by completion time.
    std::vector<PointObs> obs;
    std::vector<std::string> check_errors;
    std::vector<std::string> op_errors;
    uint64_t stmts = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };

  static void Failed(Log* log, const Reply& r) {
    ++log->failed;
    if (log->op_errors.size() < 5) log->op_errors.push_back(r.Describe());
  }

  /// COUNT(*) and SUM(V) of every partition, read in-process.
  static std::vector<std::pair<int64_t, int64_t>> Totals(Report* r,
                                                         Database& db) {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (int p = 0; p < kPartitions; ++p) {
      StatusOr<QueryResult> q =
          db.Query("SELECT COUNT(*), SUM(V) FROM " + Table(p));
      if (!q.ok() || q->rows.size() != 1) {
        r->Fail("totals of " + Table(p) + ": " +
                (q.ok() ? "wrong shape" : q.status().ToString()));
        out.emplace_back(-1, -1);
        continue;
      }
      out.emplace_back(AsInt(q->rows[0][0]), AsInt(q->rows[0][1]));
    }
    return out;
  }

  Options opt_;
  int clients_;
  std::vector<Log> logs_;
  // model_[p][k] is V of key k in partition p; only p's owner writes it.
  std::vector<std::vector<int64_t>> model_;
  std::vector<int64_t> initial_sum_;
  std::vector<int64_t> acked_;  // Acknowledged increments per partition.
  // COUNT(*) and SUM(V) per partition at the end of the run.
  std::vector<std::pair<int64_t, int64_t>> end_totals_;
};

}  // namespace

std::unique_ptr<Workload> MakePointMix(const Options& opt) {
  return std::make_unique<PointMix>(opt);
}

}  // namespace perfbench
