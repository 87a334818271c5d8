// perfbench: builds one workload's database through SQL, drives it, checks
// every answer and prints the result as one JSON line.
//
//   perfbench --workload point_mix|analytic|adhoc --seed N --seconds S
//             --trace 0|1
//
// --trace 0 serves the engine with net::Server on loopback and measures the
// end-to-end metrics through net::Client connections. --trace 1 runs the
// same operation streams through the in-process driver, traced in
// alternating blocks of statements, and reports per-layer metrics and the
// tracing overhead; its spans are written to .bench_out/spans-<workload>.csv.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "bench.h"
#include "net/server.h"

namespace perfbench {
namespace {

namespace net = systemr::net;
using systemr::Database;
using systemr::PlanCache;

constexpr size_t kCacheCapacity = 64;  // serverd's default.

struct EngineSnapshot {
  systemr::BufferStats pool;
  systemr::WalManager::Stats wal;
  uint64_t wal_bytes = 0;
  uint64_t catalog_version = 0;
  systemr::PlanCacheStats cache;
  uint64_t queued_total = 0;

  static EngineSnapshot Take(Database& db, const PlanCache& cache,
                             const net::AdmissionController& adm) {
    EngineSnapshot s;
    s.pool = db.rss().pool().stats();
    s.wal = db.rss().wal().stats();
    s.wal_bytes = db.rss().wal().size();
    s.catalog_version = db.catalog().version();
    s.cache = cache.stats();
    s.queued_total = adm.queued_total();
    return s;
  }
};

struct SpanTotals {
  uint64_t calls = 0;
  int64_t self_ns = 0;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Self time per span name: a span's duration minus its children's.
std::map<std::string, SpanTotals> SelfTimes(const std::vector<SpanRec>& spans) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const SpanRec& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanTotals> out;
  for (const SpanRec& s : spans) {
    SpanTotals& t = out[s.name];
    ++t.calls;
    auto it = child_ns.find(s.id);
    t.self_ns += s.end_ns - s.start_ns - (it == child_ns.end() ? 0 : it->second);
  }
  return out;
}

void WriteSpans(const std::string& workload, const std::vector<SpanRec>& spans) {
  std::filesystem::create_directories(".bench_out");
  std::string path = ".bench_out/spans-" + workload + ".csv";
  // Times are relative to the first span's start, to keep the file small.
  int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRec& s : spans) t0 = std::min(t0, s.start_ns);
  std::ofstream out(path);
  out << "stmt,span,parent,name,start_ns,end_ns\n";
  for (const SpanRec& s : spans) {
    out << s.stmt << ',' << s.id << ',' << s.parent << ',' << s.name << ','
        << s.start_ns - t0 << ',' << s.end_ns - t0 << '\n';
  }
  std::fprintf(stderr, "wrote %zu spans to %s\n", spans.size(), path.c_str());
}

void AddLayerMetrics(const Options& opt, const std::vector<SpanRec>& spans,
                     const LayerCounts& c, const EngineSnapshot& a,
                     const EngineSnapshot& b, Database& db,
                     const SetupTimes& setup, const Recovered& rec,
                     uint64_t phase_stmts, double phase_s, Report* r) {
  std::map<std::string, SpanTotals> t = SelfTimes(spans);
  // Span and driver counters cover the traced statements; engine counters
  // (pool, WAL, catalog, plan cache, admission) the whole timed phase.
  const double stmts = static_cast<double>(c.stmts);
  const double all = static_cast<double>(phase_stmts);
  auto mean_us = [&](const char* name) {
    const SpanTotals& s = t[name];
    return Ratio(static_cast<double>(s.self_ns) / 1000.0,
                 static_cast<double>(s.calls));
  };
  auto per_stmt = [&](double v) { return Ratio(v, stmts); };
  auto per_kstmt = [&](double v) { return Ratio(1000.0 * v, stmts); };
  auto per_phase_stmt = [&](double v) { return Ratio(v, all); };
  auto per_phase_kstmt = [&](double v) { return Ratio(1000.0 * v, all); };

  std::fprintf(stderr, "%-20s %10s %12s %14s\n", "span", "calls", "self_ms",
               "self_us/stmt");
  std::map<std::string, double> layer_ns;
  for (const auto& [name, s] : t) {
    std::fprintf(stderr, "%-20s %10llu %12.3f %14.3f\n", name.c_str(),
                 static_cast<unsigned long long>(s.calls), s.self_ns / 1e6,
                 per_stmt(s.self_ns / 1e3));
    layer_ns[name.substr(0, name.find('.'))] += static_cast<double>(s.self_ns);
  }

  r->Add("net.codec_us", per_stmt(t["net.codec"].self_ns / 1e3), "us");
  r->Add("net.bytes_per_stmt", per_stmt(static_cast<double>(c.bytes)), "B");
  r->Add("net.admission_wait_us", mean_us("net.admit"), "us");
  r->Add("net.queued_per_kstmt",
         per_phase_kstmt(static_cast<double>(b.queued_total - a.queued_total)),
         "count");

  const double hits = static_cast<double>(b.cache.hits - a.cache.hits);
  const double misses = static_cast<double>(b.cache.misses - a.cache.misses);
  r->Add("session.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  r->Add("session.invalidations_per_kstmt",
         per_phase_kstmt(static_cast<double>(b.cache.invalidations -
                                             a.cache.invalidations)),
         "count");
  r->Add("session.lookup_us", mean_us("session.lookup"), "us");

  r->Add("sql.parse_us", mean_us("sql.parse"), "us");
  r->Add("sql.bind_us", mean_us("sql.bind"), "us");
  r->Add("sql.compiles_per_kstmt",
         per_kstmt(static_cast<double>(t["optimizer.optimize"].calls)),
         "count");
  r->Add("optimizer.optimize_us", mean_us("optimizer.optimize"), "us");
  r->Add("optimizer.cost_qerror_p50", Percentile(c.cost_qerror, 0.5), "ratio");
  r->Add("optimizer.rows_qerror_p50", Percentile(c.rows_qerror, 0.5), "ratio");

  const systemr::ExecStats& e = c.exec;
  r->Add("exec.run_us", mean_us("exec.run"), "us");
  r->Add("exec.rsi_calls_per_stmt", per_stmt(static_cast<double>(e.rsi_calls)),
         "count");
  r->Add("exec.subquery_evals_per_stmt",
         per_stmt(static_cast<double>(e.subquery_evals)), "count");
  r->Add("exec.subquery_cache_hit_ratio",
         Ratio(static_cast<double>(e.subquery_cache_hits),
               static_cast<double>(e.subquery_cache_hits + e.subquery_evals)),
         "ratio");
  r->Add("exec.hash_build_rows_per_stmt",
         per_stmt(static_cast<double>(e.hash_build_rows)), "count");
  r->Add("exec.hash_probe_rows_per_stmt",
         per_stmt(static_cast<double>(e.hash_probe_rows)), "count");
  r->Add("exec.batch_density", e.AvgSelectionDensity(), "ratio");

  const double gets =
      static_cast<double>(b.pool.logical_gets - a.pool.logical_gets);
  const double fetches = static_cast<double>(b.pool.fetches - a.pool.fetches);
  const double commits = static_cast<double>(c.commits);
  r->Add("rss.buffer_gets_per_stmt", per_phase_stmt(gets), "count");
  r->Add("rss.page_fetches_per_stmt", per_phase_stmt(fetches), "count");
  r->Add("rss.buffer_hit_ratio", gets == 0 ? 0 : 1.0 - fetches / gets, "ratio");
  r->Add("rss.store_pages", static_cast<double>(db.rss().store().num_pages()),
         "count");
  r->Add("rss.wal_bytes_per_commit",
         Ratio(static_cast<double>(b.wal_bytes - a.wal_bytes), commits), "B");
  r->Add("rss.wal_syncs_per_commit",
         Ratio(static_cast<double>(b.wal.syncs - a.wal.syncs), commits),
         "count");

  r->Add("db.mutate_us", mean_us("db.mutate"), "us");
  r->Add("db.commit_us", mean_us("db.commit"), "us");
  r->Add("db.recovery_records_per_s",
         Ratio(static_cast<double>(rec.replayed), rec.seconds), "1/s");
  r->Add("db.load_rows_per_s",
         Ratio(static_cast<double>(setup.rows), setup.load_s), "1/s");
  r->Add("catalog.version_bumps_per_kstmt",
         per_phase_kstmt(
             static_cast<double>(b.catalog_version - a.catalog_version)),
         "count");
  r->Add("catalog.create_index_s", setup.create_index_s, "s");
  r->Add("catalog.update_statistics_s", setup.update_statistics_s, "s");

  for (const char* layer : {"net", "session", "sql", "optimizer", "exec", "db"}) {
    r->Add(std::string(layer) + ".self_us_per_stmt",
           per_stmt(layer_ns[layer] / 1e3), "us");
  }
  const double traced_us = Ratio(c.traced_ns / 1e3, stmts);
  const double untraced_us =
      Ratio(c.untraced_ns / 1e3, static_cast<double>(c.untraced_stmts));
  r->Add("trace.stmts_per_s", Ratio(all, phase_s), "stmt/s");
  r->Add("trace.traced_stmt_us", traced_us, "us");
  r->Add("trace.untraced_stmt_us", untraced_us, "us");
  r->Add("trace.overhead_pct", 100.0 * (Ratio(traced_us, untraced_us) - 1), "%");
  WriteSpans(opt.workload, spans);
}

// One recovery takes well under a second, too short to time alone on a
// shared machine, where other tenants slow this one's CPU for a second or
// more now and then: the served run recovers several fresh engines from the
// same log, over several seconds, and reports the fastest, as it reports the
// best window.
constexpr int kRecoveries = 20;

/// Recovers kRecoveries fresh engines from the durable WAL prefix, checks the
/// first and returns the fastest recovery.
Recovered FastestRecovery(Workload& w, Database& db, Report* r) {
  Recovered best = RecoverDurablePrefix(db);
  w.CheckRecovered(r, *best.db);
  std::fprintf(stderr, "recover: %zu records in %.4f s", best.replayed,
               best.seconds);
  for (int i = 1; i < kRecoveries; ++i) {
    Recovered rec = RecoverDurablePrefix(db);
    std::fprintf(stderr, " %.4f", rec.seconds);
    if (rec.seconds < best.seconds) best = std::move(rec);
  }
  std::fprintf(stderr, " s\n");
  return best;
}

Report Run(Workload& w, const Options& opt) {
  Report report;
  Database db(w.buffer_pages());
  SetupTimes setup = w.Load(db);
  const double setup_s = SecondsSince(kProcessStart);
  std::fprintf(stderr,
               "setup: %.3f s (INSERTs %.3f s for %llu rows; CREATE INDEX "
               "%.3f s; UPDATE STATISTICS %.3f s)\n",
               setup_s, setup.load_s,
               static_cast<unsigned long long>(setup.rows),
               setup.create_index_s, setup.update_statistics_s);
  PinToOneCpu();
  const int n = w.clients();
  PlanCache cache(kCacheCapacity);

  if (!opt.trace) {
    report.Add("setup_s", setup_s, "s");
    net::Server server(&db, &cache, net::ServerOptions{});
    systemr::Status s = server.Start();
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: server: %s\n", s.ToString().c_str());
      std::exit(2);
    }
    std::vector<std::unique_ptr<Driver>> drivers;
    for (int i = 0; i < n; ++i) drivers.push_back(MakeWireDriver(server.port()));
    RunClients(n, [&](int c) {
      w.Connect(c, *drivers[c]);
      w.RunOps(c, *drivers[c], /*warmup=*/true);
    });
    RunClients(n, [&](int c) { w.RunOps(c, *drivers[c], /*warmup=*/false); });
    drivers.clear();
    server.Stop();
    w.EndPhase(&report, /*served=*/true);
    w.EndRun(&report, db, /*served=*/true);
    report.Add("recover_s", FastestRecovery(w, db, &report).seconds, "s");
    return report;
  }

  net::ServerOptions so;
  net::AdmissionController admission(so.max_concurrent, so.max_queue);
  InProcShared shared{&db, &cache, &admission};
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::vector<std::unique_ptr<InProcDriver>> drivers;
  for (int i = 0; i < n; ++i) {
    tracers.push_back(
        std::make_unique<Tracer>(static_cast<uint64_t>(i + 1) * 1000000000));
    drivers.push_back(std::make_unique<InProcDriver>(shared));
  }
  RunClients(n, [&](int c) {
    w.Connect(c, *drivers[c]);
    w.RunOps(c, *drivers[c], /*warmup=*/true);
  });
  EngineSnapshot before = EngineSnapshot::Take(db, cache, admission);
  for (int i = 0; i < n; ++i) drivers[i]->set_tracer(tracers[i].get());
  double secs =
      RunClients(n, [&](int c) { w.RunOps(c, *drivers[c], /*warmup=*/false); });
  EngineSnapshot after = EngineSnapshot::Take(db, cache, admission);
  const uint64_t stmts = w.EndPhase(&report, /*served=*/false);

  LayerCounts counts;
  std::vector<SpanRec> spans;
  for (int i = 0; i < n; ++i) {
    counts.Merge(drivers[i]->counts());
    spans.insert(spans.end(), tracers[i]->spans().begin(),
                 tracers[i]->spans().end());
  }
  drivers.clear();
  w.EndRun(&report, db, /*served=*/false);
  Recovered rec = RecoverDurablePrefix(db);
  w.CheckRecovered(&report, *rec.db);
  AddLayerMetrics(opt, spans, counts, before, after, db, setup, rec, stmts,
                  secs, &report);
  return report;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "point_mix|analytic|adhoc --seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  opt.cpus = UsableCpus();
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("missing value");
    const char* flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      opt.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      long s = std::strtol(value, &end, 10);
      if (*end != '\0' || s < 1 || s > 600) Usage("bad --seconds");
      opt.seconds = static_cast<int>(s);
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("bad --trace");
      }
      opt.trace = value[0] == '1';
    } else {
      Usage("unknown flag");
    }
  }
  std::unique_ptr<Workload> w;
  if (opt.workload == "point_mix") {
    w = MakePointMix(opt);
  } else if (opt.workload == "analytic") {
    w = MakeAnalytic(opt);
  } else if (opt.workload == "adhoc") {
    w = MakeAdhoc(opt);
  } else {
    Usage("unknown workload");
  }
  Report report = Run(*w, opt);
  std::fflush(stderr);
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
