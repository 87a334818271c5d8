#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace perfbench {

using systemr::Database;
using systemr::Status;
using systemr::StatusOr;

const Clock::time_point kProcessStart = Clock::now();

void Report::Fail(const std::string& what) {
  correct = false;
  if (failures_printed_ < 10) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++failures_printed_;
  }
}

void Report::Note(const std::string& what) {
  if (notes_printed_ < 10) {
    std::fprintf(stderr, "operation failed: %s\n", what.c_str());
    ++notes_printed_;
  }
}

std::string Report::ToJson() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << num << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  return os.str();
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

namespace {

std::vector<Timed> ByCompletion(std::vector<Timed> events) {
  std::sort(events.begin(), events.end(),
            [](const Timed& x, const Timed& y) { return x.end_ns < y.end_ns; });
  return events;
}

}  // namespace

double WindowedRate(const std::vector<Timed>& events) {
  const std::vector<Timed> e = ByCompletion(events);
  if (e.size() <= kWindows) return 0;
  // Window k runs from the completion of event k*per to that of event
  // (k+1)*per and holds the events completed in between.
  const size_t per = (e.size() - 1) / kWindows;
  double best = 0;
  for (size_t k = 0; k < kWindows; ++k) {
    double sum = 0;
    for (size_t i = k * per + 1; i <= (k + 1) * per; ++i) sum += e[i].value;
    const double secs =
        static_cast<double>(e[(k + 1) * per].end_ns - e[k * per].end_ns) / 1e9;
    best = std::max(best, sum / std::max(secs, 1e-9));
  }
  return best;
}

double StmtP50Us(const std::vector<std::vector<Timed>>& classes) {
  double log_sum = 0;
  int n = 0;
  for (const std::vector<Timed>& us : classes) {
    const std::vector<Timed> e = ByCompletion(us);
    const size_t per = std::max<size_t>(e.size() / kWindows, 1);
    if (e.empty()) continue;
    double p50 = 0;
    for (size_t k = 0; k * per < e.size() && k < kWindows; ++k) {
      std::vector<double> w;
      for (size_t i = k * per; i < (k + 1) * per; ++i) w.push_back(e[i].value);
      const double a = Percentile(w, 0.5);
      p50 = k == 0 ? a : std::min(p50, a);
    }
    log_sum += std::log(p50);
    ++n;
  }
  return n == 0 ? 0 : std::exp(log_sum / n);
}

void Tracer::Open(const char* name, uint64_t stmt) {
  uint64_t parent = open_.empty() ? 0 : spans_[open_.back()].id;
  uint64_t id = base_ + spans_.size() + 1;
  open_.push_back(spans_.size());
  spans_.push_back(SpanRec{id, parent, stmt, name, NowNs(), 0});
}

void Tracer::Close() {
  spans_[open_.back()].end_ns = NowNs();
  open_.pop_back();
}

std::string Reply::Describe() const {
  if (!sent) return "transport failure: " + message;
  return std::string(systemr::StatusCodeName(code)) + ": " + message;
}

void LayerCounts::Merge(const LayerCounts& o) {
  stmts += o.stmts;
  untraced_stmts += o.untraced_stmts;
  traced_ns += o.traced_ns;
  untraced_ns += o.untraced_ns;
  commits += o.commits;
  bytes += o.bytes;
  exec.page_fetches += o.exec.page_fetches;
  exec.rsi_calls += o.exec.rsi_calls;
  exec.subquery_evals += o.exec.subquery_evals;
  exec.subquery_cache_hits += o.exec.subquery_cache_hits;
  exec.buffer_gets += o.exec.buffer_gets;
  exec.buffer_hits += o.exec.buffer_hits;
  exec.batch_rows_in += o.exec.batch_rows_in;
  exec.batch_rows_out += o.exec.batch_rows_out;
  exec.hash_build_rows += o.exec.hash_build_rows;
  exec.hash_probe_rows += o.exec.hash_probe_rows;
  cost_qerror.insert(cost_qerror.end(), o.cost_qerror.begin(),
                     o.cost_qerror.end());
  rows_qerror.insert(rows_qerror.end(), o.rows_qerror.begin(),
                     o.rows_qerror.end());
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(CPU_COUNT(&set), 1);
}

void PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  int last = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) last = c;
  }
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    std::fprintf(stderr, "perfbench: cannot pin to CPU %d; running unpinned\n",
                 last);
  }
}

int64_t AsInt(const Value& v) {
  return v.type() == systemr::ValueType::kInt64
             ? v.AsInt()
             : static_cast<int64_t>(std::llround(v.AsNumber()));
}

namespace {

void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(2);
}

std::string Literal(const Value& v) {
  if (v.type() == systemr::ValueType::kString) return "'" + v.AsStr() + "'";
  return std::to_string(v.AsInt());
}

}  // namespace

void LoadTable(Database& db, const std::string& create_table,
               const std::string& table, const std::vector<Row>& rows,
               const std::vector<std::string>& create_indexes,
               SetupTimes* times) {
  Status s = db.Execute(create_table);
  if (!s.ok()) Die(create_table, s);
  constexpr size_t kRowsPerInsert = 256;
  constexpr size_t kInsertsPerTxn = 4;
  Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < rows.size();) {
    std::string script = "BEGIN;";
    for (size_t n = 0; n < kInsertsPerTxn && i < rows.size(); ++n) {
      script += " INSERT INTO " + table + " VALUES ";
      for (size_t k = 0; k < kRowsPerInsert && i < rows.size(); ++k, ++i) {
        script += k == 0 ? "(" : ", (";
        for (size_t c = 0; c < rows[i].size(); ++c) {
          if (c > 0) script += ", ";
          script += Literal(rows[i][c]);
        }
        script += ")";
      }
      script += ";";
    }
    script += " COMMIT;";
    s = db.ExecuteScript(script);
    if (!s.ok()) Die("loading " + table, s);
  }
  times->load_s += SecondsSince(t0);
  times->rows += rows.size();
  t0 = Clock::now();
  for (const std::string& ci : create_indexes) {
    s = db.Execute(ci);
    if (!s.ok()) Die(ci, s);
  }
  times->create_index_s += SecondsSince(t0);
  t0 = Clock::now();
  s = db.Execute("UPDATE STATISTICS " + table);
  if (!s.ok()) Die("UPDATE STATISTICS " + table, s);
  times->update_statistics_s += SecondsSince(t0);
}

Recovered RecoverDurablePrefix(Database& db) {
  systemr::WalManager& wal = db.rss().wal();
  std::string bytes = wal.SnapshotBytes(wal.durable_size());
  Recovered out;
  out.db = std::make_unique<Database>(db.rss().pool().capacity());
  Clock::time_point t0 = Clock::now();
  StatusOr<Database::RecoveryStats> st = out.db->Recover(bytes);
  out.seconds = SecondsSince(t0);
  if (!st.ok()) Die("recovery", st.status());
  out.replayed = st->replayed;
  return out;
}

std::vector<Row> TableTotals(Database& db, const std::string& table,
                             const std::string& column) {
  StatusOr<systemr::QueryResult> q =
      db.Query("SELECT COUNT(*), SUM(" + column + ") FROM " + table);
  if (!q.ok()) return {};
  return q->rows;
}

double StoredBytesPerRow(Database& db, uint64_t live_rows) {
  return static_cast<double>(db.rss().store().num_pages()) *
         systemr::kPageSize / static_cast<double>(live_rows);
}

uint64_t StreamSeed(uint64_t seed, uint64_t a, uint64_t b, uint64_t c) {
  // splitmix64 finalizer over the combined inputs.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull ^ (a + 1) * 0xbf58476d1ce4e5b9ull ^
               (b + 1) * 0x94d049bb133111ebull ^ (c + 1) * 0xd6e8feb86659fd93ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
