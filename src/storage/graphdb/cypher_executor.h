// Pattern matcher + executor for the Cypher subset. Every operator has one
// implementation; the only run-time choice is serial vs morsel-parallel.
//
// Matching is a streaming backtracking subgraph search, Neo4j-like in
// miniature:
//  * each comma-separated pattern part is matched against the graph
//    depth-first, threading one flat binding frame (variables interned to
//    dense slots) through every part; shared variables join parts, and a
//    completed binding streams straight into the row sink;
//  * the more-constrained endpoint of a chain seeds the search (bound
//    variable > cheapest index probe > label scan > full scan); competing
//    probes (inline properties, indexed WHERE equality / IN) are ranked by
//    exact per-value cardinality;
//  * typed relationships expand through the per-type adjacency groups;
//    variable-length relationships expand by bounded DFS, and relationship
//    uniqueness holds across the whole MATCH (Cypher's
//    relationship-isomorphism semantics);
//  * inline property constraints and WHERE property references read the
//    graph's frozen per-(shard × label) columns (storage/columnar.h):
//    string literals resolve to a dictionary id once per query and compare
//    as uint32s. Columns that cannot represent a value exactly (doubles,
//    NULLs, mixed types) fall back to the PropertyMap per predicate;
//  * single-variable WHERE conjuncts run as soon as their variable binds,
//    IN lists probe a hashed set, and the rest of WHERE runs on complete
//    bindings. The row sink applies DISTINCT through an incremental
//    seen-set and stops the whole search — seed iteration included — once
//    LIMIT rows exist, so `LIMIT 1` over a label scan visits one seed.
//
// Serial vs morsel: a query fans out only when the graph is sharded,
// parallel_shards > 1, the top-level seed set holds at least
// parallel_min_seeds seeds, and any LIMIT is at least parallel_min_limit.
// The morsel scheduler carves each shard's seed list into morsel_size chunks
// on per-worker work-stealing deques (common/thread_pool.h), so a skewed
// shard's seeds spread over the whole fleet. Each morsel streams into its
// own row sink and results merge in morsel order — deterministic for a
// fixed graph, shard count and morsel size, independent of the steal
// schedule. A LIMIT cancels cooperatively through an atomic row budget
// shared by all workers, and DISTINCT emissions hash-partition per worker
// so the merge adopts whole compacted blocks (storage/shard_parallel.h).
#pragma once

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "storage/graphdb/cypher_ast.h"
#include "storage/graphdb/graph.h"
#include "storage/row_block.h"

namespace raptor::storage {
template <typename ResultT>
class QueryResultCache;
}  // namespace raptor::storage

namespace raptor::obs {
class TraceSpan;
}  // namespace raptor::obs

namespace raptor::graphdb {

struct GraphResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  std::string ToString(size_t max_rows = 20) const;
};

/// Chunked result: rows live in per-morsel blocks after a parallel run
/// (one block for a serial run) instead of a flat vector. The parallel
/// merge adopts every morsel block without touching individual rows
/// (rows.pushed_rows() == 0); consumers stream through storage::RowCursor. GraphResultSet remains the materialized
/// compatibility view (ExecuteCypher flattens one of these).
struct GraphBlockResult {
  std::vector<std::string> columns;
  storage::RowBlocks<std::vector<Value>> rows;

  storage::RowCursor<std::vector<Value>> cursor() const {
    return storage::RowCursor<std::vector<Value>>(&rows);
  }
};

/// Execution counters, exposed for the scheduler-ablation benchmark.
struct MatchStats {
  size_t seed_candidates = 0;   // start-node candidates visited
  size_t edges_traversed = 0;   // edge expansions
  size_t bindings_emitted = 0;  // complete query bindings before WHERE
  size_t rows_emitted = 0;      // result rows produced (after WHERE/DISTINCT)
  size_t morsels_executed = 0;  // seed morsels run by the parallel driver
  size_t morsels_stolen = 0;    // of those, taken from another worker's deque
};

struct MatchOptions {
  /// Expansion bound applied when a variable-length pattern has no upper
  /// bound (Neo4j discourages unbounded expansion for the same reason).
  int unbounded_varlen_cap = 8;
  /// Seeds per morsel. Small enough that a skewed shard yields many
  /// stealable units, large enough to amortize per-morsel sink setup.
  int morsel_size = 2048;
  /// Maximum morsel workers for whole-graph matching. 1 = always serial.
  int parallel_shards = 4;
  /// Stay serial when the top-level seed set is smaller than this: tiny
  /// queries lose more to worker dispatch than they gain from parallelism.
  int parallel_min_seeds = 64;
  /// Stay serial when a LIMIT is below this: the serial
  /// early-exit path finishes such queries in a handful of seed visits.
  int parallel_min_limit = 8;
  /// Cooperative cancellation: when non-null and set, seed iteration stops
  /// (every worker polls it alongside the shared LIMIT budget) and the
  /// query returns Status::Cancelled. The flag must outlive the call.
  const std::atomic<bool>* cancel = nullptr;
  /// Absolute deadline polled inside the scan loops next to the cancel
  /// flag (amortized clock reads — common/deadline.h), so a single giant
  /// scan stops within one poll stride of expiry and the query returns
  /// Status::Timeout.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Incremental standing hunts: restrict part-0 seed iteration to this
  /// node set (seeds outside it are skipped before matching). The caller
  /// owns completeness — the set must contain every part-0 node of any row
  /// the query is expected to produce. Must outlive the call.
  const std::unordered_set<NodeId>* top_seed_filter = nullptr;
  /// Multi-query optimization: when non-null, GraphDatabase::QueryBlocks
  /// memoizes full-scan results (no seed filter, no LIMIT) keyed by query
  /// text so structurally-identical hunts share one execution per epoch.
  /// The owner (service::HuntService) clears it on every store mutation.
  /// Must outlive the call.
  storage::QueryResultCache<GraphBlockResult>* result_cache = nullptr;
  /// EXPLAIN ANALYZE hook: when non-null, the morsel scheduler hangs one
  /// timed child span per worker under it (seed, row, and steal counters
  /// included) and QueryBlocks records subresult cache hits. Null (the
  /// default) costs one pointer test per query. Must outlive the call.
  obs::TraceSpan* trace = nullptr;
};

/// Execute `query` against `graph`.
Result<GraphResultSet> ExecuteCypher(const CypherQuery& query,
                                     const PropertyGraph& graph,
                                     const MatchOptions& options = {},
                                     MatchStats* stats = nullptr);

/// Execute `query`, returning the chunked block result (the zero-copy
/// parallel-merge path; ExecuteCypher is a flattening wrapper over this).
Result<GraphBlockResult> ExecuteCypherBlocks(const CypherQuery& query,
                                             const PropertyGraph& graph,
                                             const MatchOptions& options = {},
                                             MatchStats* stats = nullptr);

/// Plan-time cost estimate in "nodes visited" units: per pattern part, the
/// cheaper of the forward/reverse chain-start seed cardinalities (the same
/// ProbeCountNodes / label-bucket rank SelectSeeds applies at run time,
/// including indexed WHERE equality / IN pushdown) scaled by the pattern
/// radius (1 + summed relationship lengths, varlen capped by
/// options.unbounded_varlen_cap). Touches only index statistics — no node
/// or edge visits — so admission layers can price a hunt before running it.
double EstimateCypherCost(const CypherQuery& query, const PropertyGraph& graph,
                          const MatchOptions& options = {});

/// Default storage shard count used by the database facades (the raw
/// PropertyGraph still defaults to one shard).
constexpr size_t kDefaultShardCount = 4;

/// Graph database facade: owns a graph, parses and executes Cypher text.
class GraphDatabase {
 public:
  explicit GraphDatabase(size_t shard_count = kDefaultShardCount)
      : graph_(shard_count) {}

  PropertyGraph& graph() { return graph_; }
  const PropertyGraph& graph() const { return graph_; }

  MatchOptions& options() { return options_; }
  const MatchOptions& options() const { return options_; }

  Result<GraphResultSet> Query(std::string_view cypher,
                               MatchStats* stats = nullptr) const;
  Result<GraphResultSet> Execute(const CypherQuery& query,
                                 MatchStats* stats = nullptr) const;

  /// Streaming variants returning chunked block results. The options
  /// overload lets per-request settings (HuntService cancellation flags)
  /// override the facade defaults without mutating shared state.
  Result<GraphBlockResult> QueryBlocks(std::string_view cypher,
                                       MatchStats* stats = nullptr) const;
  Result<GraphBlockResult> QueryBlocks(std::string_view cypher,
                                       const MatchOptions& options,
                                       MatchStats* stats = nullptr) const;

  /// Plan-time node-visit estimate for a Cypher text (EstimateCypherCost on
  /// the parsed query); 0.0 when the text does not parse.
  double EstimateCost(std::string_view cypher) const;

 private:
  PropertyGraph graph_;
  MatchOptions options_;
};

}  // namespace raptor::graphdb
