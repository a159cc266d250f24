// TBQL-to-data-query compiler (Sec III-F).
//
// Each TBQL pattern compiles into a semantically equivalent *data query*:
// event patterns become small SQL SELECTs over the relational backend
// (mature indexing + fast joins); variable-length event path patterns
// become Cypher MATCHes over the graph backend. The scheduler can inject
// `id IN (...)` constraints gathered from previously executed patterns.
//
// The module also provides the two baseline compilers used by Tables VIII
// and X: a single "giant" SQL query and a single "giant" Cypher query that
// each encode the whole TBQL query at once.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "tbql/analyzer.h"

namespace raptor::engine {

enum class Backend { kRelational, kGraph };

struct DataQuery {
  Backend backend = Backend::kRelational;
  std::string text;        // actual SQL / Cypher text
  size_t pattern_index = 0;
  bool has_event_columns = false;  // event id/start/end present in results
};

/// Allowed audit entity ids for one TBQL entity: a hash set, so domain
/// intersection and membership re-checks are O(1) probes instead of sorted
/// list merges.
using EntitySet = std::unordered_set<long long>;

/// Concrete entity-id bindings propagated from already-executed patterns:
/// TBQL entity id -> allowed audit entity ids. (The compiler renders the
/// sets into IN (...) lists in sorted order so query text is deterministic.)
using EntityConstraints = std::map<std::string, EntitySet>;

/// Compile pattern `idx` into a data query. Event patterns and length-1
/// paths with `->` compile to SQL or Cypher respectively; multi-hop paths
/// always compile to Cypher. A length-1 path carries its event filters and
/// the query's global attribute filters into the Cypher WHERE over the
/// edge properties (id, op, start_time, end_time, amount); any other event
/// attribute, or an event filter on a multi-hop path, is Unsupported.
/// `events_above` restricts the pattern to events with a larger id
/// (`e.id > n`); a multi-hop path has no single event to restrict, so it
/// gets InvalidArgument.
Result<DataQuery> CompilePattern(
    const tbql::AnalyzedQuery& aq, size_t idx,
    const EntityConstraints& constraints, audit::Timestamp now = 0,
    std::optional<audit::EventId> events_above = std::nullopt);

/// Baseline: the whole query as one giant SQL statement (event patterns
/// only; path patterns are unsupported in SQL, per the paper).
Result<std::string> CompileGiantSql(const tbql::AnalyzedQuery& aq,
                                    audit::Timestamp now = 0);

/// Baseline: the whole query as one giant Cypher statement.
Result<std::string> CompileGiantCypher(const tbql::AnalyzedQuery& aq,
                                       audit::Timestamp now = 0);

}  // namespace raptor::engine
