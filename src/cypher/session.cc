#include "cypher/session.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <optional>

#include "cache/epoch.h"
#include "cypher/parser.h"
#include "cypher/semantic.h"
#include "exec/thread_pool.h"
#include "nodestore/record_file.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "util/string_util.h"

namespace mbq::cypher {

namespace {

/// Session-level metrics, shared by every CypherSession in the process
/// (the registry deduplicates by name).
struct SessionMetrics {
  obs::Counter* queries;
  obs::Counter* rows_returned;
  obs::Counter* db_hits;
  obs::Counter* plan_cache_hits;
  obs::Counter* plan_cache_misses;
  obs::Histogram* query_latency;
  obs::Counter* lint_runs;
  obs::Counter* lint_diagnostics;
  obs::Counter* lint_rejected;
  obs::Counter* slow_captured;
  obs::Counter* writes;

  static SessionMetrics& Get() {
    static SessionMetrics m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
      SessionMetrics m;
      m.queries = r.GetCounter("cypher.queries", "queries",
                               "queries executed (EXPLAIN/LINT excluded)");
      m.rows_returned =
          r.GetCounter("cypher.rows_returned", "rows", "result rows produced");
      m.db_hits = r.GetCounter("cypher.db_hits", "records",
                               "record accesses charged to queries");
      m.plan_cache_hits =
          r.GetCounter("cypher.plan_cache.hits", "hits",
                       "Prepare() served from the plan cache");
      m.plan_cache_misses =
          r.GetCounter("cypher.plan_cache.misses", "misses",
                       "Prepare() that had to parse and plan");
      m.query_latency = r.GetHistogram("cypher.query_latency", "ns",
                                       "wall time per executed query");
      m.lint_runs = r.GetCounter("cypher.lint.runs", "queries",
                                 "LINT verb invocations");
      m.lint_diagnostics =
          r.GetCounter("cypher.lint.diagnostics", "diagnostics",
                       "semantic diagnostics emitted at compile/lint time");
      m.lint_rejected = r.GetCounter("cypher.lint.rejected", "queries",
                                     "queries refused by strict lint mode");
      m.slow_captured =
          r.GetCounter("cypher.slow.captured", "queries",
                       "executions at/over the slow-query threshold, "
                       "captured by the flight recorder");
      m.writes = r.GetCounter("cypher.writes", "queries",
                              "write queries whose WriteBatch committed");
      return m;
    }();
    return m;
  }
};

/// Strips a leading case-insensitive keyword (followed by whitespace)
/// from `query`; returns true and advances past it on a match.
bool ConsumeVerb(std::string_view* query, std::string_view verb) {
  if (query->size() <= verb.size()) return false;
  for (size_t i = 0; i < verb.size(); ++i) {
    char c = (*query)[i];
    if (std::toupper(static_cast<unsigned char>(c)) != verb[i]) return false;
  }
  char next = (*query)[verb.size()];
  if (!std::isspace(static_cast<unsigned char>(next))) return false;
  query->remove_prefix(verb.size());
  *query = TrimString(*query);
  return true;
}

}  // namespace

size_t CypherSession::CachedResult::ByteSize() const {
  size_t bytes = profile.size();
  for (const std::string& c : columns) bytes += c.size() + sizeof(std::string);
  // Rows hold RtValues whose payloads (strings, paths) we approximate by
  // the slot footprint — good enough for an eviction budget.
  for (const Row& r : rows) bytes += r.size() * sizeof(RtValue);
  return bytes;
}

CypherSession::CypherSession(GraphDb* db) : db_(db) {
  slow_query_millis_.store(obs::DefaultSlowQueryMillis(),
                           std::memory_order_relaxed);
  // Opt-in default parallelism: sessions stay sequential unless the
  // process sets CYPHER_THREADS (or the embedder calls SetThreads).
  if (const char* env = std::getenv("CYPHER_THREADS")) {
    char* end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && v > 0 && v <= 256) {
      threads_.store(static_cast<uint32_t>(v), std::memory_order_relaxed);
    }
  }
}

void CypherSession::SetThreads(uint32_t threads, exec::ThreadPool* pool) {
  threads_.store(threads == 0 ? 1 : threads, std::memory_order_relaxed);
  pool_.store(pool, std::memory_order_relaxed);
}

void CypherSession::Configure(const SessionOptions& options) {
  if (options.threads != 0) {
    SetThreads(options.threads, options.pool);
  } else if (options.pool != nullptr) {
    pool_.store(options.pool, std::memory_order_relaxed);
  }
  SetPlanCacheEnabled(options.plan_cache);
  SetLintLevel(options.lint_level);
  if (options.slow_query_millis >= 0) {
    SetSlowQueryMillis(static_cast<uint64_t>(options.slow_query_millis));
  }
  if (options.result_cache) {
    cache::ResultCache<CachedResult>::Options rc;
    rc.capacity = options.result_cache_capacity;
    result_cache_ =
        std::make_unique<cache::ResultCache<CachedResult>>(rc, &db_->epochs());
  } else {
    result_cache_.reset();
  }
  if (options.adjacency_cache) {
    cache::AdjacencyCache::Options ac;
    ac.capacity = options.adjacency_cache_capacity;
    ac.min_degree = options.adjacency_min_degree;
    adj_cache_ = std::make_unique<cache::AdjacencyCache>(ac, &db_->epochs());
  } else {
    adj_cache_.reset();
  }
}

std::string CypherSession::ResultCacheKey(const std::string& body,
                                          const Params& params) {
  std::string key = cache::CanonicalQueryText(body);
  if (!params.empty()) {
    std::vector<const std::pair<const std::string, Value>*> sorted;
    sorted.reserve(params.size());
    for (const auto& kv : params) sorted.push_back(&kv);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    for (const auto* kv : sorted) {
      key += '\n';
      key += kv->first;
      key += '=';
      // Type tag keeps Int(1) and String("1") distinct keys.
      key += std::to_string(static_cast<int>(kv->second.type()));
      key += ':';
      key += kv->second.ToString();
    }
  }
  return key;
}

Status CypherSession::LintGate(
    const std::vector<Diagnostic>& diagnostics) const {
  if (lint_level_ == LintLevel::kOff) return Status::OK();
  for (const Diagnostic& d : diagnostics) {
    if (LintLevelBlocks(lint_level_, d.severity)) {
      SessionMetrics::Get().lint_rejected->Inc();
      return Status::InvalidArgument(
          "query rejected by strict lint mode: " + d.ToString() +
          " (run LINT <query> for the full report)");
    }
  }
  return Status::OK();
}

Result<std::shared_ptr<const PlannedQuery>> CypherSession::PrepareShared(
    const std::string& query, bool* cache_hit, bool enforce_lint) {
  // The lock covers parse+analyze+plan, so a second thread racing on the
  // same uncached text blocks here and then takes the cache hit below —
  // single-flight compilation, never two plans for one text.
  util::ScopedLock lock(mu_);
  *cache_hit = false;
  auto it = plan_cache_.find(query);
  if (plan_cache_enabled_ && it != plan_cache_.end()) {
    plan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    SessionMetrics::Get().plan_cache_hits->Inc();
    last_prepare_was_cache_hit_ = true;
    *cache_hit = true;
    // A plan cached by a lenient compile (EXPLAIN, lint_level off) still
    // carries its diagnostics; strict mode re-checks them on every hit.
    if (enforce_lint) MBQ_RETURN_IF_ERROR(LintGate(it->second->diagnostics));
    return std::shared_ptr<const PlannedQuery>(it->second);
  }
  plan_cache_misses_.fetch_add(1, std::memory_order_relaxed);
  SessionMetrics::Get().plan_cache_misses->Inc();
  last_prepare_was_cache_hit_ = false;
  MBQ_ASSIGN_OR_RETURN(Query ast, ParseQuery(query));
  // The semantic pass sits between parser and planner: strict mode
  // refuses blocked queries here, before any planning work.
  AnalysisResult analysis = AnalyzeQuery(ast, db_);
  SessionMetrics::Get().lint_diagnostics->Inc(analysis.diagnostics.size());
  if (enforce_lint) MBQ_RETURN_IF_ERROR(LintGate(analysis.diagnostics));
  MBQ_ASSIGN_OR_RETURN(std::unique_ptr<PlannedQuery> plan,
                       PlanQuery(std::move(ast), db_));
  plan->diagnostics = std::move(analysis.diagnostics);
  std::shared_ptr<PlannedQuery> shared = std::move(plan);
  if (plan_cache_enabled_) {
    plan_cache_[query] = shared;
  } else {
    // Keep the most recent uncached plan alive for the caller.
    uncached_plan_ = shared;
  }
  return std::shared_ptr<const PlannedQuery>(shared);
}

Result<const PlannedQuery*> CypherSession::Prepare(const std::string& query) {
  bool cache_hit = false;
  MBQ_ASSIGN_OR_RETURN(std::shared_ptr<const PlannedQuery> plan,
                       PrepareShared(query, &cache_hit,
                                     /*enforce_lint=*/false));
  return plan.get();
}

Result<QueryResult> CypherSession::Lint(const std::string& query) {
  SessionMetrics& metrics = SessionMetrics::Get();
  metrics.lint_runs->Inc();
  AnalysisResult analysis;
  auto parsed = ParseQuery(query);
  if (!parsed.ok()) {
    // Lexer/parser failures become a diagnostic row (their messages
    // already carry line:column spans) so :lint always renders a report.
    Diagnostic d;
    d.severity = Severity::kError;
    d.rule = "parse-error";
    d.message = parsed.status().message();
    analysis.diagnostics.push_back(std::move(d));
  } else {
    analysis = AnalyzeQuery(*parsed, db_);
  }
  metrics.lint_diagnostics->Inc(analysis.diagnostics.size());
  QueryResult result;
  result.lint_only = true;
  result.columns = {"severity", "rule", "at", "message"};
  for (const Diagnostic& d : analysis.diagnostics) {
    Row row;
    row.push_back(RtValue::FromValue(Value::String(SeverityName(d.severity))));
    row.push_back(RtValue::FromValue(Value::String(d.rule)));
    row.push_back(RtValue::FromValue(
        Value::String(d.span.known() ? d.span.ToString() : "")));
    row.push_back(RtValue::FromValue(Value::String(d.message)));
    result.rows.push_back(std::move(row));
  }
  result.profile = analysis.ToText();
  return result;
}

Result<QueryResult> CypherSession::Run(const std::string& query,
                                       const Params& params) {
  std::string_view text = TrimString(query);
  bool profiled = ConsumeVerb(&text, "PROFILE");
  bool explain_only = !profiled && ConsumeVerb(&text, "EXPLAIN");
  std::string body(text);

  // Analysis-only verb: never plans, executes, touches the result cache
  // or bumps the cypher.query.* metrics (mirroring EXPLAIN's bypass).
  if (!profiled && !explain_only && ConsumeVerb(&text, "LINT")) {
    return Lint(std::string(text));
  }

  SessionMetrics& metrics = SessionMetrics::Get();

  // Result-cache probe before any parsing: a hit needs neither a plan nor
  // an execution. EXPLAIN always goes to the planner (it reports shape,
  // not rows).
  cache::ResultCache<CachedResult>* rcache = result_cache_.get();
  std::string result_key;
  if (rcache != nullptr && !explain_only) {
    result_key = ResultCacheKey(body, params);
    if (std::shared_ptr<const CachedResult> hit = rcache->Get(result_key)) {
      QueryResult result;
      result.columns = hit->columns;
      result.rows = hit->rows;
      result.db_hits = 0;
      result.plan_cached = true;
      result.result_cached = true;
      result.profiled = profiled;
      result.profile = "cache=hit\n" + hit->profile;
      metrics.queries->Inc();
      metrics.rows_returned->Inc(result.rows.size());
      return result;
    }
  }

  bool cached = false;
  MBQ_ASSIGN_OR_RETURN(std::shared_ptr<const PlannedQuery> plan,
                       PrepareShared(body, &cached,
                                     /*enforce_lint=*/!explain_only));

  // EXPLAIN/PROFILE lead with the compile-time diagnostics; execution
  // results keep their plain plan tree.
  std::string diagnostics_text;
  for (const Diagnostic& d : plan->diagnostics) {
    diagnostics_text += d.ToString();
    diagnostics_text += '\n';
  }

  QueryResult result;
  result.columns = plan->columns;
  result.plan_cached = cached;
  result.profiled = profiled;
  result.explain_only = explain_only;

  if (explain_only) {
    result.profile = diagnostics_text + DescribePlanShape(*plan->root);
    return result;
  }

  // Stamp the epochs BEFORE executing: a write that lands mid-execution
  // invalidates the entry we are about to insert, never the other way.
  // Write queries never enter the result cache, so they skip the stamp.
  cache::EpochStamp stamp;
  if (rcache != nullptr && !plan->is_write) {
    stamp = cache::CaptureStamp(db_->epochs(), plan->epoch_domains,
                                plan->epoch_use_global);
  }

  // A write query lowers to one WriteBatch for the engine's commit path;
  // a session with no writer cannot commit it.
  if (plan->is_write && !commit_) {
    return Status::NotImplemented(
        "write query on a read-only engine: Cypher writes commit through "
        "the engine's writer (open it with enable_writes)");
  }
  // With the live write path attached, every execution runs under a
  // shared snapshot, so it never observes a half-applied batch.
  std::optional<store::SnapshotRegistry::ReadSnapshot> read_guard;
  if (snapshots_ != nullptr) read_guard.emplace(snapshots_->OpenSnapshot());
  store::WriteBatch writes;

  // The session is an ingress: execute under a trace context (a child of
  // any adopted RPC context, a fresh root otherwise) so the query's span
  // — and every remote call a shard fan-out makes — shares one trace id.
  obs::ScopedTraceContext trace(obs::ChildOrRootContext());
  obs::TraceSpan latency(metrics.query_latency);
  uint32_t threads = threads_.load(std::memory_order_relaxed);
  if (threads == 0) threads = 1;
  // Write plans are sequential: they lower row by row into one batch.
  if (plan->is_write) threads = 1;
  // Register with the live-query table (/queries, :queries) for the
  // duration of the execution.
  obs::ActiveQueryScope active(&obs::QueryRegistry::Global(), body, "cypher",
                               threads);

  ExecContext ctx;
  ctx.db = db_;
  ctx.params = &params;
  if (threads > 1) {
    exec::ThreadPool* pool = pool_.load(std::memory_order_relaxed);
    ctx.pool = pool != nullptr ? pool : &exec::ThreadPool::Default();
    ctx.threads = threads;
  }
  std::atomic<uint64_t> side_hits{0};
  ctx.side_hits = &side_hits;
  ctx.adj_cache = adj_cache_.get();
  if (plan->is_write) ctx.writes = &writes;

  // The cached plan tree is shared across threads and never executed
  // directly — each run drives a private clone.
  std::unique_ptr<Operator> root = plan->root->CloneTree();
  uint64_t hits_before = nodestore::DbHitCounter::ThreadHits();
  MBQ_RETURN_IF_ERROR(root->Open(&ctx));
  Row row;
  for (;;) {
    MBQ_ASSIGN_OR_RETURN(bool more, root->NextTracked(&row));
    if (!more) break;
    result.rows.push_back(row);
    // Live progress for /queries: relaxed stores, unsynchronized reads.
    active.SetRows(result.rows.size());
    active.SetDbHits(nodestore::DbHitCounter::ThreadHits() - hits_before);
  }
  result.db_hits = nodestore::DbHitCounter::ThreadHits() - hits_before +
                   side_hits.load(std::memory_order_relaxed);
  result.profile = DescribePlanTree(*root);
  active.SetDbHits(result.db_hits);

  // The commit takes the exclusive section, so the snapshot goes first.
  // An error above returned before anything committed.
  if (plan->is_write) {
    read_guard.reset();
    MBQ_RETURN_IF_ERROR(commit_(std::move(writes)));
    metrics.writes->Inc();
  }

  double elapsed_millis = active.ElapsedMillis();
  obs::SpanRecorder::Global().Record(body, "cypher", active.start_nanos(),
                                     active.ElapsedNanos());
  if (obs::IsSlowQuery(elapsed_millis,
                       slow_query_millis_.load(std::memory_order_relaxed))) {
    obs::SlowQuery slow;
    slow.query = body;
    slow.engine = "cypher";
    slow.millis = elapsed_millis;
    slow.db_hits = result.db_hits;
    slow.rows = result.rows.size();
    slow.threads = threads;
    slow.cache = rcache != nullptr ? "miss" : "off";
    slow.epoch = db_->epochs().GlobalEpoch();
    slow.diagnostics = plan->diagnostics.size();
    slow.profile = result.profile;
    obs::FlightRecorder::Global().Record(std::move(slow));
    metrics.slow_captured->Inc();
  }

  if (rcache != nullptr && !plan->is_write) {
    auto payload = std::make_shared<CachedResult>();
    payload->columns = result.columns;
    payload->rows = result.rows;
    payload->profile = result.profile;
    size_t bytes = payload->ByteSize();
    result.profile = "cache=miss\n" + result.profile;
    rcache->Put(result_key, std::move(payload), bytes, std::move(stamp));
  }

  // After the payload capture, so cached profiles stay plain (a result-
  // cache hit skips compilation and has no diagnostics to show).
  if (profiled && !diagnostics_text.empty()) {
    result.profile = diagnostics_text + result.profile;
  }

  metrics.queries->Inc();
  metrics.rows_returned->Inc(result.rows.size());
  metrics.db_hits->Inc(result.db_hits);
  return result;
}

}  // namespace mbq::cypher
