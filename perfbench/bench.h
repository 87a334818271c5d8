// Shared pieces of the engine benchmark: run options, the result record
// printed as the last line of output, the driver interface through which a
// workload sends its statements, and the span recorder of traced runs.
//
// A workload sends every statement through a Driver. The served driver is a
// net::Client talking to a net::Server over loopback (what serverd runs); the
// in-process driver replays the server's per-statement sequence of public
// calls (codec, admission, plan cache, parse, bind, optimize, run, mutate,
// commit) directly, so that a span can be put around each of them.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "db/database.h"
#include "net/admission.h"
#include "session/plan_cache.h"

namespace perfbench {

using systemr::Row;
using systemr::Value;
using Clock = std::chrono::steady_clock;

/// Taken at static initialization, i.e. as the process starts: setup_s runs
/// from here, so it covers one cold set-up.
extern const Clock::time_point kProcessStart;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  int cpus = 1;  // CPUs the process may run on, before it pins itself to one.
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check (printed to stderr, at most a few).
  void Fail(const std::string& what);
  /// Prints why an operation failed (to stderr, at most a few). Failed
  /// operations are counted in `failed`; they do not make the run incorrect.
  void Note(const std::string& what);
  /// The one-line JSON result.
  std::string ToJson() const;

 private:
  int failures_printed_ = 0;
  int notes_printed_ = 0;
};

/// Nearest-rank percentile (q in [0,1]) of unsorted samples; sorts a copy.
double Percentile(std::vector<double> v, double q);

/// One timed-phase event: when it completed and its value (a latency in us,
/// or a count of statements).
struct Timed {
  int64_t end_ns;
  double value;
};

/// The end-to-end rates and latencies of a run are the best of kWindows
/// windows of its timed phase, each holding an equal share of the events in
/// order of completion. On a shared machine, other tenants now and then slow
/// this one's vCPU and its caches for a second or more: such an episode
/// slows some windows of a run, or most of them, but moves the best one only
/// when it covers the whole run. A change that slows the program slows every
/// window, the best one included. Windows of equal count, not equal time,
/// give every run the same samples per window, so a percentile is reported
/// in every run or in none.
inline constexpr size_t kWindows = 10;

/// The highest, over the windows, of the values summed per window per second.
double WindowedRate(const std::vector<Timed>& events);

/// stmt_p50_us: the geometric mean, over a workload's statement classes, of
/// each class's median latency in us, itself the lowest over the windows of
/// the class's samples. Each class has its own latency mode, so a median
/// over the mix would jump between modes as the mix of a window shifts; the
/// geometric mean weighs a change by the same factor in any class equally.
/// Classes without samples are skipped.
double StmtP50Us(const std::vector<std::vector<Timed>>& classes);

// --- Tracing ---

/// One timed call: the spans of one statement share `stmt`; `parent` is the
/// enclosing span (0 for the statement's root span).
struct SpanRec {
  uint64_t id;
  uint64_t parent;
  uint64_t stmt;
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
};

/// Per-driver span buffer (one client thread each, so no locking). Spans
/// stay in memory until the run writes them out. `id_base` keeps the span
/// and statement ids of different drivers apart.
class Tracer {
 public:
  explicit Tracer(uint64_t id_base) : base_(id_base) {}
  uint64_t NewStmt() { return base_ + ++stmt_seq_; }
  void Open(const char* name, uint64_t stmt);
  void Close();
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  uint64_t base_;
  uint64_t stmt_seq_ = 0;
  std::vector<SpanRec> spans_;
  std::vector<size_t> open_;  // Indexes into spans_ of unfinished spans.
};

/// RAII span; a no-op when the tracer is null.
class Span {
 public:
  Span(Tracer* t, const char* name, uint64_t stmt) : t_(t) {
    if (t_ != nullptr) t_->Open(name, stmt);
  }
  ~Span() {
    if (t_ != nullptr) t_->Close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

// --- Drivers ---

/// One reply as the client sees it. `sent` is false when the transport
/// failed (the server never answered).
struct Reply {
  bool sent = true;
  systemr::StatusCode code = systemr::StatusCode::kOk;
  std::string message;
  std::vector<Row> rows;
  uint64_t affected = 0;
  bool ok() const { return sent && code == systemr::StatusCode::kOk; }
  std::string Describe() const;
};

class Driver {
 public:
  virtual ~Driver() = default;
  virtual Reply Prepare(const std::string& name, const std::string& sql) = 0;
  virtual Reply Execute(const std::string& name,
                        const std::vector<Value>& params) = 0;
  /// Any statement as unparameterized text (SELECT, DML).
  virtual Reply Query(const std::string& sql) = 0;
  virtual Reply Begin() = 0;
  virtual Reply Commit() = 0;
};

/// Connects to a served engine; dies loudly if the handshake fails.
std::unique_ptr<Driver> MakeWireDriver(uint16_t port);

/// Counters the in-process drivers collect during a traced phase, summed
/// over drivers. Statements alternate in blocks between traced and untraced;
/// the span-derived counters cover the traced ones.
struct LayerCounts {
  uint64_t stmts = 0;           // Traced statements.
  uint64_t untraced_stmts = 0;
  int64_t traced_ns = 0;        // Wall time of traced statements.
  int64_t untraced_ns = 0;
  uint64_t commits = 0;  // Write transactions, traced or not: auto-commit
                         // DML + COMMIT.
  uint64_t bytes = 0;    // Request + reply frames, length prefix included.
  systemr::ExecStats exec;
  std::vector<double> cost_qerror;
  std::vector<double> rows_qerror;
  void Merge(const LayerCounts& o);
};

/// State shared by the in-process drivers of one pass: the engine and the
/// same plan cache and admission limits a net::Server would use.
struct InProcShared {
  systemr::Database* db;
  systemr::PlanCache* cache;
  systemr::net::AdmissionController* admission;
};

/// Replays, per statement, the calls net::Server::Serve makes for one
/// connection (frame codecs, admission, Session's plan-cache protocol,
/// Database::Run / Mutate / CommitTxn). Once a tracer is set, statements
/// alternate in blocks of kTraceBlock between traced (a span around each
/// call) and untraced, so that the two are timed under the same machine
/// conditions and their difference is the tracing overhead.
class InProcDriver : public Driver {
 public:
  static constexpr uint64_t kTraceBlock = 60;

  explicit InProcDriver(const InProcShared& shared) : sh_(shared) {}
  ~InProcDriver() override;

  Reply Prepare(const std::string& name, const std::string& sql) override;
  Reply Execute(const std::string& name,
                const std::vector<Value>& params) override;
  Reply Query(const std::string& sql) override;
  Reply Begin() override;
  Reply Commit() override;

  void set_tracer(Tracer* t) { pass_tracer_ = t; }
  const LayerCounts& counts() const { return counts_; }

 private:
  struct Prepared {
    std::string sql;
    std::string key;
    std::shared_ptr<const systemr::OptimizedQuery> plan;
    uint64_t version = 0;
  };
  /// Session::PlanFor: cache lookup, else parse + bind + optimize + insert.
  systemr::StatusOr<std::shared_ptr<const systemr::OptimizedQuery>> PlanFor(
      const std::string& sql, const std::string& key, uint64_t* version,
      bool mark_replanned, uint64_t stmt);
  /// PreparedStatement::Execute: re-plan on a version change, run, replan
  /// once on estimate divergence.
  systemr::StatusOr<systemr::QueryResult> RunPrepared(
      Prepared* ps, const std::vector<Value>& params, uint64_t stmt);
  std::string Admitted(uint64_t stmt, const std::function<std::string()>& fn);
  Reply Finish(const std::string& request, const std::string& reply,
               uint64_t stmt);
  void CountSelect(const systemr::QueryResult& r);
  /// Starts a statement: picks whether it is traced, returns its id.
  uint64_t StartStmt();

  InProcShared sh_;
  Tracer* pass_tracer_ = nullptr;
  Tracer* tracer_ = nullptr;  // The current statement's: null if untraced.
  uint64_t seq_ = 0;
  int64_t stmt_start_ns_ = 0;
  std::map<std::string, Prepared> prepared_;
  std::unique_ptr<systemr::Txn> txn_;
  LayerCounts counts_;
};

/// The number of CPUs this process may run on.
int UsableCpus();

/// Pins the calling thread to one CPU, the last it may use; the threads it
/// starts later inherit it, so the round trip between a client and its
/// connection thread is a context switch on one CPU. Left to the scheduler,
/// the reply wakes a thread on another vCPU, and on a virtual machine what
/// that costs is set by the hypervisor, not by the program (README: "CPU
/// placement"). Called once set-up is done: set-up has one thread, and on
/// one pinned CPU it took longer and varied more than left to the scheduler.
void PinToOneCpu();

// --- Workload plumbing ---

/// Runs fn(client) on `n` threads and returns the wall time of the whole.
template <class Fn>
double RunClients(int n, Fn fn) {
  Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (std::thread& t : threads) t.join();
  return SecondsSince(t0);
}

/// Set-up figures every workload reports in its traced run.
struct SetupTimes {
  double load_s = 0;  // INSERT statements only.
  uint64_t rows = 0;
  double create_index_s = 0;
  double update_statistics_s = 0;
};

/// Loads one table through SQL: CREATE TABLE, multi-row INSERTs committed in
/// batches, then the given CREATE INDEX statements and UPDATE STATISTICS.
/// `rows` are rendered as SQL literals. Dies loudly on an engine error:
/// nothing can be measured on a half-built database.
void LoadTable(systemr::Database& db, const std::string& create_table,
               const std::string& table, const std::vector<Row>& rows,
               const std::vector<std::string>& create_indexes,
               SetupTimes* times);

/// Integer view of a numeric result value.
int64_t AsInt(const Value& v);

/// A workload: its data, its clients' operation streams and its checks. The
/// runner (main.cc) owns the engine and the drivers, so the same workload
/// code runs served (untraced) and in-process (traced).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual int clients() const = 0;
  virtual size_t buffer_pages() const = 0;
  /// Creates the schema and loads the data through SQL.
  virtual SetupTimes Load(systemr::Database& db) = 0;
  /// Per-connection preparation (PREPAREs); not timed.
  virtual void Connect(int client, Driver& d) = 0;
  /// Client `client`'s operations of one phase. Warm-up operations are the
  /// same kind as timed ones but drawn from their own stream.
  virtual void RunOps(int client, Driver& d, bool warmup) = 0;
  /// After a timed phase: checks what its operations returned, counts
  /// attempted/failed, and with `served` adds the end-to-end metrics.
  /// Returns the statements the phase completed. Clears the phase's logs.
  virtual uint64_t EndPhase(Report* r, bool served) = 0;
  /// After the last phase: checks the engine's end state and, when `served`,
  /// adds stored_bytes_per_row.
  virtual void EndRun(Report* r, systemr::Database& db, bool served) = 0;
  /// Checks an engine recovered from the durable log after EndRun: it holds
  /// every committed row.
  virtual void CheckRecovered(Report* r, systemr::Database& recovered) = 0;
};

std::unique_ptr<Workload> MakePointMix(const Options& opt);
std::unique_ptr<Workload> MakeAnalytic(const Options& opt);
std::unique_ptr<Workload> MakeAdhoc(const Options& opt);

/// Recovers a fresh engine from the durable WAL prefix of `db`.
struct Recovered {
  std::unique_ptr<systemr::Database> db;
  double seconds = 0;
  size_t replayed = 0;
};
Recovered RecoverDurablePrefix(systemr::Database& db);

/// COUNT(*) and SUM(<column>) of a table, read in-process, as one result row
/// (empty when the query fails).
std::vector<Row> TableTotals(systemr::Database& db, const std::string& table,
                             const std::string& column);

/// stored_bytes_per_row: every page the store has handed out, per live row.
double StoredBytesPerRow(systemr::Database& db, uint64_t live_rows);

/// Seeds an independent stream: same (seed, a, b, c) gives the same stream.
uint64_t StreamSeed(uint64_t seed, uint64_t a, uint64_t b = 0, uint64_t c = 0);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
