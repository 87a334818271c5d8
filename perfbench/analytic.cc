// analytic: one client, serial plans, a fixed set of read-only statements
// over data several times the buffer pool: a three-way FK=PK join with a
// cross-table residual, GROUP BY on an unindexed column, an equi-join on
// unindexed columns, an ORDER BY that needs a sort, and a correlated scalar
// subquery. Executor operators and buffer misses (checksums, LRU eviction)
// are the cost; net, session and the optimizer take little. The benchmark
// computes every answer itself from the rows it generated.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>
#include <unordered_map>

#include "bench.h"
#include "checks.h"
#include "common/rng.h"

namespace perfbench {
namespace {

using systemr::Database;
using systemr::Rng;

constexpr int64_t kNations = 25;
constexpr int64_t kCustomers = 800;
constexpr int64_t kOrders = 8000;
// A 256 KiB pool; ORDERS alone is several times that, so its scans miss.
// The whole data set (about 1.5 MiB) stays within a core's L2, whose speed
// other tenants of a shared machine move far less than the shared last-level
// cache's.
constexpr size_t kBufferPages = 64;
// Rounds of the statement set per second of --seconds; one warm-up round.
constexpr double kRoundsPerSecond = 60;
constexpr int kStatements = 5;

struct Nation { int64_t nk, region, quota; };
struct Customer { int64_t ck, nk, seg, bal, acct; };
struct Order { int64_t ok, ck, status, amt, prio, ref; };

Row Ints(std::initializer_list<int64_t> v) {
  Row r;
  for (int64_t x : v) r.push_back(Value::Int(x));
  return r;
}

class Analytic : public Workload {
 public:
  explicit Analytic(const Options& opt) : opt_(opt) {
    Rng rng(StreamSeed(opt_.seed, 10));
    region_ = rng.Uniform(0, 4);
    prio_ = rng.Uniform(0, 29);
    seg_ = rng.Uniform(0, 4);
    sql_ = {
        "SELECT COUNT(*), SUM(O.AMT) FROM ORDERS O, CUSTOMER C, NATION N "
        "WHERE O.CK = C.CK AND C.NK = N.NK AND N.REGION = " +
            std::to_string(region_) + " AND O.AMT > C.BAL",
        "SELECT O.STATUS, COUNT(*), SUM(O.AMT), MAX(O.PRIO) FROM ORDERS O "
        "GROUP BY O.STATUS",
        "SELECT COUNT(*), SUM(C.BAL) FROM ORDERS O, CUSTOMER C "
        "WHERE O.REF = C.ACCT",
        "SELECT O.OK, O.AMT FROM ORDERS O WHERE O.PRIO = " +
            std::to_string(prio_) + " ORDER BY O.AMT, O.OK",
        "SELECT COUNT(*) FROM CUSTOMER C WHERE C.SEG = " + std::to_string(seg_) +
            " AND C.BAL > (SELECT MAX(N.QUOTA) FROM NATION N "
            "WHERE N.NK = C.NK)",
    };
  }

  int clients() const override { return 1; }
  size_t buffer_pages() const override { return kBufferPages; }

  SetupTimes Load(Database& db) override {
    SetupTimes times;
    Rng rng(StreamSeed(opt_.seed, 11));
    std::vector<Row> rows;
    for (int64_t nk = 0; nk < kNations; ++nk) {
      nations_.push_back({nk, nk % 5, rng.Uniform(0, 9999)});
      rows.push_back(Ints({nk, nk % 5, nations_.back().quota}));
      rows.back().push_back(Value::Str(rng.RandomString(rng.Uniform(6, 16))));
    }
    LoadTable(db,
              "CREATE TABLE NATION (NK INT, REGION INT, QUOTA INT, "
              "NAME VARCHAR(16))",
              "NATION", rows, {"CREATE UNIQUE INDEX NATION_NK ON NATION (NK)"},
              &times);

    // ACCT: distinct values drawn from twice the range, so about half the
    // orders' REF values find a customer.
    std::vector<int64_t> accts(2 * kCustomers);
    for (size_t i = 0; i < accts.size(); ++i) accts[i] = static_cast<int64_t>(i);
    for (size_t i = accts.size() - 1; i > 0; --i) {
      std::swap(accts[i], accts[static_cast<size_t>(
                              rng.Uniform(0, static_cast<int64_t>(i)))]);
    }
    rows.clear();
    for (int64_t ck = 0; ck < kCustomers; ++ck) {
      Customer c{ck, rng.Uniform(0, kNations - 1), rng.Uniform(0, 4),
                 rng.Uniform(-1000, 9999), accts[static_cast<size_t>(ck)]};
      customers_.push_back(c);
      rows.push_back(Ints({c.ck, c.nk, c.seg, c.bal, c.acct}));
      rows.back().push_back(Value::Str(rng.RandomString(rng.Uniform(8, 24))));
    }
    LoadTable(db,
              "CREATE TABLE CUSTOMER (CK INT, NK INT, SEG INT, BAL INT, "
              "ACCT INT, NAME VARCHAR(24))",
              "CUSTOMER", rows,
              {"CREATE UNIQUE CLUSTERED INDEX CUSTOMER_CK ON CUSTOMER (CK)"},
              &times);

    rows.clear();
    for (int64_t ok = 0; ok < kOrders; ++ok) {
      Order o{ok, rng.Uniform(0, kCustomers - 1), rng.Uniform(0, 19),
              rng.Uniform(0, 9999), rng.Uniform(0, 29),
              rng.Uniform(0, 2 * kCustomers - 1)};
      orders_.push_back(o);
      rows.push_back(Ints({o.ok, o.ck, o.status, o.amt, o.prio, o.ref}));
      rows.back().push_back(Value::Str(rng.RandomString(rng.Uniform(10, 40))));
    }
    LoadTable(db,
              "CREATE TABLE ORDERS (OK INT, CK INT, STATUS INT, AMT INT, "
              "PRIO INT, REF INT, NOTE VARCHAR(40))",
              "ORDERS", rows,
              {"CREATE UNIQUE CLUSTERED INDEX ORDERS_OK ON ORDERS (OK)",
               "CREATE INDEX ORDERS_CK ON ORDERS (CK)"},
              &times);
    stored_bytes_per_row_ =
        StoredBytesPerRow(db, kNations + kCustomers + kOrders);
    return times;
  }

  void Connect(int, Driver&) override {}

  void RunOps(int, Driver& d, bool warmup) override {
    const int rounds =
        warmup ? 1 : static_cast<int>(std::ceil(kRoundsPerSecond * opt_.seconds));
    for (int round = 0; round < rounds; ++round) {
      for (int q = 0; q < kStatements; ++q) {
        ++attempted_;
        Clock::time_point t0 = Clock::now();
        Reply r = d.Query(sql_[q]);
        const double us = SecondsSince(t0) * 1e6;
        if (!r.ok()) {
          ++failed_;
          if (errors_.size() < 5) errors_.push_back(sql_[q] + ": " + r.Describe());
          continue;
        }
        ++stmts_;
        if (warmup) continue;
        const int64_t end = NowNs();
        us_[q].push_back({end, us});
        done_.push_back({end, 1});
        results_.emplace_back(q, std::move(r.rows));
      }
    }
  }

  uint64_t EndPhase(Report* r, bool served) override {
    if (expected_.empty()) ComputeExpected();
    for (const std::string& e : errors_) r->Note(e);
    for (const auto& [q, rows] : results_) {
      std::string err = CheckSameRows(expected_[q], rows);
      if (err.empty() && q == 3) err = CheckSorted(rows, {1, 0});
      if (!err.empty()) r->Fail("statement " + std::to_string(q + 1) + ": " + err);
    }
    for (int q = 0; q < kStatements; ++q) {
      std::vector<double> us;
      for (const Timed& t : us_[q]) us.push_back(t.value);
      std::fprintf(stderr, "analytic: statement %d median %.2f ms over %zu runs\n",
                   q + 1, Percentile(us, 0.5) / 1e3, us.size());
    }
    r->attempted += attempted_;
    r->failed += failed_;
    const uint64_t stmts = stmts_;
    if (served) {
      r->Add("stmts_per_s", WindowedRate(done_), "stmt/s");
      r->Add("stmt_p50_us", StmtP50Us(us_), "us");
    }
    for (std::vector<Timed>& us : us_) us.clear();
    done_.clear();
    results_.clear();
    errors_.clear();
    attempted_ = failed_ = stmts_ = 0;
    return stmts;
  }

  void EndRun(Report* r, Database&, bool served) override {
    if (served) r->Add("stored_bytes_per_row", stored_bytes_per_row_, "B/row");
  }

  void CheckRecovered(Report* r, Database& recovered) override {
    int64_t quota = 0, bal = 0, amt = 0;
    for (const Nation& n : nations_) quota += n.quota;
    for (const Customer& c : customers_) bal += c.bal;
    for (const Order& o : orders_) amt += o.amt;
    const std::tuple<const char*, const char*, int64_t, int64_t> tables[] = {
        {"NATION", "QUOTA", kNations, quota},
        {"CUSTOMER", "BAL", kCustomers, bal},
        {"ORDERS", "AMT", kOrders, amt}};
    for (const auto& [table, column, count, sum] : tables) {
      std::string err = CheckSameRows({Ints({count, sum})},
                                      TableTotals(recovered, table, column));
      if (!err.empty()) r->Fail(std::string("after recovery: ") + table + ": " + err);
    }
  }

 private:
  /// The answers, computed from the generated rows without the engine.
  void ComputeExpected() {
    expected_.assign(kStatements, {});
    int64_t count = 0, sum = 0;
    for (const Order& o : orders_) {
      const Customer& c = customers_[static_cast<size_t>(o.ck)];
      if (nations_[static_cast<size_t>(c.nk)].region == region_ && o.amt > c.bal) {
        ++count;
        sum += o.amt;
      }
    }
    expected_[0].push_back(Ints({count, sum}));

    std::map<int64_t, std::array<int64_t, 3>> groups;  // count, sum, max
    for (const Order& o : orders_) {
      auto [it, fresh] = groups.try_emplace(o.status, std::array<int64_t, 3>{0, 0, o.prio});
      it->second[0] += 1;
      it->second[1] += o.amt;
      it->second[2] = std::max(it->second[2], o.prio);
    }
    for (const auto& [status, g] : groups) {
      expected_[1].push_back(Ints({status, g[0], g[1], g[2]}));
    }

    std::unordered_map<int64_t, int64_t> bal_by_acct;
    for (const Customer& c : customers_) bal_by_acct[c.acct] = c.bal;
    count = sum = 0;
    for (const Order& o : orders_) {
      auto it = bal_by_acct.find(o.ref);
      if (it != bal_by_acct.end()) {
        ++count;
        sum += it->second;
      }
    }
    expected_[2].push_back(Ints({count, sum}));

    for (const Order& o : orders_) {
      if (o.prio == prio_) expected_[3].push_back(Ints({o.ok, o.amt}));
    }

    count = 0;
    for (const Customer& c : customers_) {
      if (c.seg == seg_ && c.bal > nations_[static_cast<size_t>(c.nk)].quota) ++count;
    }
    expected_[4].push_back(Ints({count}));
  }

  Options opt_;
  int64_t region_, prio_, seg_;
  std::vector<std::string> sql_;
  std::vector<Nation> nations_;
  std::vector<Customer> customers_;
  std::vector<Order> orders_;
  double stored_bytes_per_row_ = 0;
  std::vector<std::vector<Row>> expected_;

  std::vector<std::pair<int, std::vector<Row>>> results_;
  std::vector<std::vector<Timed>> us_ =
      std::vector<std::vector<Timed>>(kStatements);
  std::vector<Timed> done_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0, failed_ = 0, stmts_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeAnalytic(const Options& opt) {
  return std::make_unique<Analytic>(opt);
}

}  // namespace perfbench
