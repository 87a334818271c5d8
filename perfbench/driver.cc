// The two drivers: a net::Client against a served engine, and the in-process
// replay of the server's per-statement calls that the traced run uses.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench.h"
#include "net/client.h"
#include "net/protocol.h"
#include "optimizer/feedback.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace perfbench {

namespace net = systemr::net;
using systemr::OptimizedQuery;
using systemr::QueryResult;
using systemr::Statement;
using systemr::Status;
using systemr::StatusOr;

namespace {

class WireDriver : public Driver {
 public:
  explicit WireDriver(uint16_t port) {
    Status s = client_.Connect("127.0.0.1", port);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: connect: %s\n", s.ToString().c_str());
      std::exit(2);
    }
  }
  ~WireDriver() override { client_.Close(); }

  Reply Prepare(const std::string& name, const std::string& sql) override {
    return From(client_.Prepare(name, sql));
  }
  Reply Execute(const std::string& name,
                const std::vector<Value>& params) override {
    return From(client_.Execute(name, params));
  }
  Reply Query(const std::string& sql) override {
    return From(client_.Query(sql));
  }
  Reply Begin() override { return From(client_.Begin()); }
  Reply Commit() override { return From(client_.Commit()); }

 private:
  static Reply From(StatusOr<net::WireResult> r) {
    Reply out;
    if (!r.ok()) {
      out.sent = false;
      out.message = r.status().ToString();
      return out;
    }
    out.code = r->code;
    out.message = std::move(r->message);
    out.rows = std::move(r->rows);
    out.affected = r->affected;
    return out;
  }

  net::Client client_;
};

// Frame overhead: u32 length prefix + opcode byte.
constexpr uint64_t kFrameHeader = 5;

double QError(double est, double actual) {
  est = std::max(est, 1.0);
  actual = std::max(actual, 1.0);
  return std::max(est / actual, actual / est);
}

}  // namespace

std::unique_ptr<Driver> MakeWireDriver(uint16_t port) {
  return std::make_unique<WireDriver>(port);
}

uint64_t InProcDriver::StartStmt() {
  const bool traced =
      pass_tracer_ != nullptr && (seq_++ / kTraceBlock) % 2 == 0;
  tracer_ = traced ? pass_tracer_ : nullptr;
  stmt_start_ns_ = NowNs();
  return traced ? tracer_->NewStmt() : 0;
}

InProcDriver::~InProcDriver() {
  if (txn_ != nullptr) (void)sh_.db->RollbackTxn(txn_.get());
}

StatusOr<std::shared_ptr<const OptimizedQuery>> InProcDriver::PlanFor(
    const std::string& sql, const std::string& key, uint64_t* version,
    bool mark_replanned, uint64_t stmt) {
  uint64_t v = sh_.db->catalog().version();
  if (!mark_replanned) {
    std::shared_ptr<const OptimizedQuery> plan;
    {
      Span s(tracer_, "session.lookup", stmt);
      plan = sh_.cache->Lookup(key, v);
    }
    if (plan != nullptr) {
      *version = v;
      return plan;
    }
  }
  StatusOr<Statement> parsed = [&] {
    Span s(tracer_, "sql.parse", stmt);
    return systemr::Parse(sql);
  }();
  if (!parsed.ok()) return parsed.status();
  if (parsed->kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  StatusOr<std::unique_ptr<systemr::BoundQueryBlock>> block = [&] {
    Span s(tracer_, "sql.bind", stmt);
    systemr::Binder binder(&sh_.db->catalog());
    return binder.Bind(*parsed->select);
  }();
  if (!block.ok()) return block.status();
  StatusOr<OptimizedQuery> query = [&] {
    Span s(tracer_, "optimizer.optimize", stmt);
    systemr::Optimizer optimizer(&sh_.db->catalog(), sh_.db->options());
    return optimizer.Optimize(std::move(*block));
  }();
  if (!query.ok()) return query.status();
  query->num_params = parsed->num_params;
  query->feedback_replanned = mark_replanned;
  auto plan = std::make_shared<const OptimizedQuery>(std::move(*query));
  sh_.cache->Insert(key, v, plan);
  *version = v;
  return plan;
}

StatusOr<QueryResult> InProcDriver::RunPrepared(
    Prepared* ps, const std::vector<Value>& params, uint64_t stmt) {
  if (sh_.db->catalog().version() != ps->version) {
    StatusOr<std::shared_ptr<const OptimizedQuery>> plan =
        PlanFor(ps->sql, ps->key, &ps->version, false, stmt);
    if (!plan.ok()) return plan.status();
    ps->plan = std::move(*plan);
  }
  StatusOr<QueryResult> result = [&] {
    Span s(tracer_, "exec.run", stmt);
    return sh_.db->Run(*ps->plan, params, nullptr, txn_.get());
  }();
  if (!result.ok()) return result;
  if (sh_.db->options().feedback != nullptr && !ps->plan->feedback_replanned &&
      QError(ps->plan->est_rows, static_cast<double>(result->rows.size())) >
          systemr::kReplanQErrorThreshold) {
    sh_.cache->Remove(ps->key);
    StatusOr<std::shared_ptr<const OptimizedQuery>> plan =
        PlanFor(ps->sql, ps->key, &ps->version, true, stmt);
    if (!plan.ok()) return plan.status();
    ps->plan = std::move(*plan);
  }
  return result;
}

std::string InProcDriver::Admitted(uint64_t stmt,
                                   const std::function<std::string()>& fn) {
  Status slot;
  {
    Span s(tracer_, "net.admit", stmt);
    slot = sh_.admission->Admit();
  }
  if (!slot.ok()) return net::EncodeStatusReply(slot);
  std::string reply = fn();
  sh_.admission->Release();
  return reply;
}

void InProcDriver::CountSelect(const QueryResult& r) {
  if (tracer_ == nullptr) return;
  LayerCounts one;
  one.exec = r.stats;
  counts_.Merge(one);
  counts_.cost_qerror.push_back(QError(r.est_cost, r.actual_cost));
  counts_.rows_qerror.push_back(
      QError(r.est_rows, static_cast<double>(r.rows.size())));
}

Reply InProcDriver::Finish(const std::string& request, const std::string& reply,
                           uint64_t stmt) {
  net::WireResult w;
  bool decoded;
  {
    Span s(tracer_, "net.codec", stmt);
    decoded = net::DecodeReply(reply, &w);
  }
  if (pass_tracer_ != nullptr) {
    const int64_t ns = NowNs() - stmt_start_ns_;
    if (tracer_ != nullptr) {
      ++counts_.stmts;
      counts_.traced_ns += ns;
      counts_.bytes += 2 * kFrameHeader + request.size() + reply.size();
    } else {
      ++counts_.untraced_stmts;
      counts_.untraced_ns += ns;
    }
  }
  Reply out;
  if (!decoded) {
    out.sent = false;
    out.message = "undecodable reply";
    return out;
  }
  out.code = w.code;
  out.message = std::move(w.message);
  out.rows = std::move(w.rows);
  out.affected = w.affected;
  return out;
}

namespace {

std::string RowsReplyFor(const QueryResult& r) {
  return net::EncodeRowsReply(r.columns, r.rows, r.plan_text,
                              r.stats.page_fetches, r.stats.buffer_gets,
                              r.stats.rsi_calls, r.est_cost, r.actual_cost);
}

}  // namespace

Reply InProcDriver::Prepare(const std::string& name, const std::string& sql) {
  uint64_t stmt = StartStmt();
  Span root(tracer_, "stmt", stmt);
  std::string request, dname, dsql, reply;
  {
    Span s(tracer_, "net.codec", stmt);
    request = net::EncodePrepare(name, sql);
    net::DecodePrepare(request, &dname, &dsql);
  }
  Prepared ps;
  ps.sql = dsql;
  {
    Span s(tracer_, "session.normalize", stmt);
    ps.key = systemr::NormalizeSql(dsql);
  }
  StatusOr<std::shared_ptr<const OptimizedQuery>> plan =
      PlanFor(ps.sql, ps.key, &ps.version, false, stmt);
  {
    Span s(tracer_, "net.codec", stmt);
    if (plan.ok()) {
      ps.plan = std::move(*plan);
      prepared_.insert_or_assign(dname, std::move(ps));
      reply = net::EncodeStatusReply(Status::OK());
    } else {
      reply = net::EncodeStatusReply(plan.status());
    }
  }
  return Finish(request, reply, stmt);
}

Reply InProcDriver::Execute(const std::string& name,
                            const std::vector<Value>& params) {
  uint64_t stmt = StartStmt();
  Span root(tracer_, "stmt", stmt);
  std::string request, dname, reply;
  std::vector<Value> dparams;
  {
    Span s(tracer_, "net.codec", stmt);
    request = net::EncodeExecute(name, params);
    net::DecodeExecute(request, &dname, &dparams);
  }
  auto it = prepared_.find(dname);
  if (it == prepared_.end()) {
    reply = net::EncodeStatusReply(
        Status::NotFound("no prepared statement '" + dname + "'"));
  } else {
    reply = Admitted(stmt, [&] {
      StatusOr<QueryResult> r = RunPrepared(&it->second, dparams, stmt);
      if (r.ok()) CountSelect(*r);
      Span s(tracer_, "net.codec", stmt);
      if (!r.ok()) return net::EncodeStatusReply(r.status());
      return RowsReplyFor(*r);
    });
  }
  return Finish(request, reply, stmt);
}

Reply InProcDriver::Query(const std::string& sql) {
  uint64_t stmt = StartStmt();
  Span root(tracer_, "stmt", stmt);
  std::string request, dsql, reply;
  std::vector<Value> dparams;
  {
    Span s(tracer_, "net.codec", stmt);
    request = net::EncodeQuery(sql, {});
    net::DecodeQuery(request, &dsql, &dparams);
  }
  // The server parses once to route the statement by kind.
  StatusOr<Statement> parsed = [&] {
    Span s(tracer_, "sql.parse", stmt);
    return systemr::Parse(dsql);
  }();
  if (!parsed.ok()) {
    reply = net::EncodeStatusReply(parsed.status());
  } else if (parsed->kind == Statement::Kind::kSelect) {
    reply = Admitted(stmt, [&] {
      Prepared ps;
      ps.sql = dsql;
      {
        Span s(tracer_, "session.normalize", stmt);
        ps.key = systemr::NormalizeSql(dsql);
      }
      StatusOr<std::shared_ptr<const OptimizedQuery>> plan =
          PlanFor(ps.sql, ps.key, &ps.version, false, stmt);
      if (!plan.ok()) {
        Span s(tracer_, "net.codec", stmt);
        return net::EncodeStatusReply(plan.status());
      }
      ps.plan = std::move(*plan);
      StatusOr<QueryResult> r = RunPrepared(&ps, dparams, stmt);
      if (r.ok()) CountSelect(*r);
      Span s(tracer_, "net.codec", stmt);
      if (!r.ok()) return net::EncodeStatusReply(r.status());
      return RowsReplyFor(*r);
    });
  } else if (parsed->kind == Statement::Kind::kInsert ||
             parsed->kind == Statement::Kind::kDelete ||
             parsed->kind == Statement::Kind::kUpdate) {
    reply = Admitted(stmt, [&] {
      StatusOr<size_t> n = [&] {
        Span s(tracer_, "db.mutate", stmt);
        return sh_.db->Mutate(dsql, txn_.get());
      }();
      if (pass_tracer_ != nullptr && txn_ == nullptr && n.ok()) ++counts_.commits;
      Span s(tracer_, "net.codec", stmt);
      if (!n.ok()) return net::EncodeStatusReply(n.status());
      return net::EncodeAffectedReply(*n);
    });
  } else {
    reply = net::EncodeStatusReply(
        Status::InvalidArgument("the in-process driver sends SELECT and DML"));
  }
  return Finish(request, reply, stmt);
}

Reply InProcDriver::Begin() {
  uint64_t stmt = StartStmt();
  Span root(tracer_, "stmt", stmt);
  Status s = Status::InvalidArgument("transaction already open");
  if (txn_ == nullptr) {
    Span span(tracer_, "db.begin", stmt);
    txn_ = sh_.db->BeginTxn();
    s = Status::OK();
  }
  std::string reply;
  {
    Span span(tracer_, "net.codec", stmt);
    reply = net::EncodeStatusReply(s);
  }
  return Finish("", reply, stmt);
}

Reply InProcDriver::Commit() {
  uint64_t stmt = StartStmt();
  Span root(tracer_, "stmt", stmt);
  Status s = Status::InvalidArgument("COMMIT outside a transaction");
  if (txn_ != nullptr) {
    Span span(tracer_, "db.commit", stmt);
    s = sh_.db->CommitTxn(txn_.get());
    txn_.reset();
    if (pass_tracer_ != nullptr) ++counts_.commits;
  }
  std::string reply;
  {
    Span span(tracer_, "net.codec", stmt);
    reply = net::EncodeStatusReply(s);
  }
  return Finish("", reply, stmt);
}

}  // namespace perfbench
