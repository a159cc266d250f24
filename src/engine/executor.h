// TBQL query execution engine (Sec III-F): exact search mode.
//
// Each TBQL pattern compiles into a small data query (compiler.h). The
// scheduler orders their execution by estimated pruning power — the count
// of declared constraints, with shorter maximum path lengths scoring higher
// — and propagates the concrete entity ids matched by executed patterns
// into dependent patterns (patterns sharing an entity id) as IN-filters.
// Matched per-pattern events are then joined on shared entities, temporal
// and attribute relationships are applied, and the return clause projects
// entity/event attributes.
//
// Compared to the naive plan (one giant SQL/Cypher query), this avoids
// weaving many joins and non-equi temporal constraints together, which is
// what Table VIII measures.
//
// Pattern execution has one path, DAG-scheduled: patterns sharing a
// joinable entity id chain in scheduler order (propagation needs the
// predecessor's ids); independent patterns run concurrently on the shared
// pool through a dataflow ready queue (inline for one pattern or an empty
// pool). Cancellation and deadlines are polled at pattern boundaries and
// inside the storage executors' scan loops.
//
// A pattern is excessive (left out of the join, the paper's tolerance for
// synthesized patterns that retrieve nothing) only when its data query,
// run with no propagated domain, returns no event: a pattern that matches
// nothing under a non-empty domain gets one existence check (its
// unconstrained query, listed in executed_queries), and a pattern emptied
// by propagation or refilter empties the result. The rows therefore never depend on the
// pattern order; tests/fixtures/tbql_oracle.h checks them by nested-loop
// joining the unconstrained per-pattern lists from brute-force SQL/Cypher
// oracles, sharing nothing with the scheduler, propagation, the DAG,
// refilter or the hash join.
#pragma once

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/compiler.h"
#include "storage/store.h"
#include "tbql/analyzer.h"
#include "tbql/parser.h"

namespace raptor::obs {
class TraceSpan;
}  // namespace raptor::obs

namespace raptor::engine {

struct ExecOptions {
  /// Cooperative cancellation: polled at pattern boundaries, join levels,
  /// and inside the storage executors' scan loops. When set mid-query the
  /// hunt returns Status::Cancelled. Must outlive the call.
  const std::atomic<bool>* cancel = nullptr;
  /// Absolute deadline; exceeded at any pattern/join boundary the hunt
  /// returns Status::Timeout.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Delta pass of a standing refresh: pattern `pattern` matches only
  /// events with an id above `above`, and executes first, so its (small)
  /// match set drives constraint propagation into every dependent
  /// pattern. Event ids are dense and never reused, so a pass per pattern
  /// with `above` at the store's last event id of the previous refresh
  /// finds every row that binds a newer event. The pattern must have one
  /// event per match (an event pattern or a length-1 path); a multi-hop
  /// path gets InvalidArgument.
  struct EventFloor {
    size_t pattern = 0;
    audit::EventId above = 0;
  };
  std::optional<EventFloor> event_floor;
  /// Require every pattern to match: the first pattern that matches
  /// nothing ends the pattern DAG (no later pattern starts) and the result
  /// is empty, instead of excluding it from the join (the paper's
  /// excessive-pattern tolerance); no existence checks run. Delta passes
  /// need this — under a floor an empty pattern means "no new
  /// contribution", not "pattern is excessive".
  bool require_all_patterns = false;
  /// Multi-query optimization: shared-subresult caches handed through to
  /// the storage executors (SelectOptions/MatchOptions::result_cache), so
  /// identical compiled data queries — shared seed probes, duplicated
  /// templates — execute once per epoch. Must outlive the call.
  storage::QueryResultCache<sql::BlockResultSet>* sql_result_cache = nullptr;
  storage::QueryResultCache<graphdb::GraphBlockResult>* graph_result_cache =
      nullptr;
  /// EXPLAIN ANALYZE hook: when non-null, the executor hangs one timed
  /// child span per scheduled pattern under it (match counts, propagated
  /// constraint-domain sizes, the storage executor's shard/worker spans)
  /// plus refilter/join/project phase spans. Null (the default) costs one
  /// pointer test per pattern. Must outlive the call.
  obs::TraceSpan* trace = nullptr;
};

struct TbqlResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;

  std::string ToString(size_t max_rows = 20) const;
};

struct ExecReport {
  TbqlResultSet results;
  /// Data query texts in scheduler order (an existence check follows its
  /// pattern's query).
  std::vector<std::string> executed_queries;
  /// Per-pattern match counts, indexed by pattern position.
  std::vector<size_t> pattern_match_counts;
  /// Excessive patterns, excluded from the join: their data query finds no
  /// event even without propagated domains (the paper's synthesized
  /// queries may contain such patterns, which must not empty the whole
  /// result). Under require_all_patterns: the pattern(s) found matching
  /// nothing before the DAG stopped.
  std::vector<size_t> unmatched_patterns;
  double seconds = 0;
  /// All events matched by event patterns that survived constraint
  /// propagation and refilter (deduplicated, for evaluation).
  std::vector<long long> matched_event_ids;
  /// Constraint-propagation DAG the scheduler ran: pattern_deps[i] lists
  /// the pattern indices that had to execute before pattern i.
  std::vector<std::vector<size_t>> pattern_deps;
};

/// Pruning score of pattern `idx` (exposed for tests): declared constraint count, plus a bonus shrinking with the
/// maximum path length.
double PruningScore(const tbql::AnalyzedQuery& aq, size_t idx);

/// Constraint-propagation DAG under execution order `order` (pattern
/// indices, most selective first): deps[i] lists every pattern ordered
/// before i that shares a joinable (non-network) entity id with i. Those
/// are exactly the pairs whose execution order affects the propagated
/// entity domains; patterns with no edge may run concurrently.
std::vector<std::vector<size_t>> PatternDependencies(
    const tbql::AnalyzedQuery& aq, const std::vector<size_t>& order);

class TbqlExecutor {
 public:
  explicit TbqlExecutor(const storage::AuditStore* store) : store_(store) {}

  /// Execute an analyzed-parse of `text`.
  Result<ExecReport> ExecuteText(std::string_view text,
                                 const ExecOptions& options = {}) const;

  /// Execute a parsed query.
  Result<ExecReport> Execute(const tbql::TbqlQuery& query,
                             const ExecOptions& options = {}) const;

  /// Plan-time cost estimate for `text` in "rows/nodes visited" units: each
  /// pattern compiles to its data query (no constraint propagation — the
  /// pre-propagation cost is the admission-relevant upper bound) and the
  /// backend estimators (sql::EstimateSelectCost / graphdb::
  /// EstimateCypherCost) price it from index statistics alone. Unparseable
  /// or uncompilable text estimates 0.0 — it will fail fast at run time.
  double EstimateCost(std::string_view text) const;

 private:
  const storage::AuditStore* store_;
};

/// Rewrite every basic event pattern of `query` into the equivalent
/// length-1 event path pattern ("->"), producing the Table VIII query
/// type (c) that executes on the graph backend.
tbql::TbqlQuery ToLength1PathQuery(const tbql::TbqlQuery& query);

}  // namespace raptor::engine
