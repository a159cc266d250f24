// Planner + executor for the SQL subset. Every operator has one
// implementation; the only run-time choice is serial vs morsel-parallel.
//
// The plan is intentionally PostgreSQL-like in miniature:
//  * WHERE/ON conjuncts are classified into single-table pushdown filters,
//    equi-join predicates, and residual (cross-pattern) predicates;
//  * base tables are filtered first, through the cheapest hash-index
//    equality / IN probe where one exists (ranked by exact per-shard
//    cardinality); a table left empty ends the query (joins are inner);
//  * single-table filters of the shape `col op literal` / `col IN (...)`
//    compile against the table's frozen columnar storage (table.h /
//    storage/columnar.h): int comparisons read the SoA int vector
//    directly and string equality compares dictionary ids as uint32s.
//    Filters a column cannot represent exactly (doubles, NULLs,
//    mixed-type columns, complex expressions) evaluate row-wise, per
//    predicate and per shard;
//  * joins are left-deep in FROM order, hash joins on available equi-join
//    keys, nested-loop otherwise — executed as a streaming pipeline that
//    threads one tuple through the levels instead of materializing a tuple
//    vector per join level; hash-join build sides store per-key row ids as
//    chunked candidate blocks in one arena per level;
//  * residual predicates (e.g. temporal constraints between event aliases,
//    which are non-equi) are applied as soon as their aliases are bound;
//  * DISTINCT dedups through an incremental seen-set during emission, and
//    LIMIT stops the pipeline — including the first table's base scan —
//    once LIMIT rows have been emitted. ORDER BY must see every row, so it
//    sorts after the pipeline and only then applies LIMIT.
//
// Serial vs morsel: the base scan (and with it the whole downstream
// join/probe pipeline) fans out only when the first table is sharded,
// parallel_shards > 1, the scan holds at least parallel_min_rows rows, and
// any early LIMIT is at least parallel_min_limit. The morsel scheduler carves
// each shard's scan (or index seed list) into morsel_size chunks on
// per-worker work-stealing deques (common/thread_pool.h), so a skewed
// shard's rows spread across the whole fleet. Morsels emit into their own
// result sets, merged in morsel order; a LIMIT cancels cooperatively via
// an atomic row budget, and DISTINCT emissions hash-partition per morsel
// so the merge adopts whole compacted blocks (storage/shard_parallel.h).
// ORDER BY sorts after the merge, so rows comparing equal on every key may
// order differently than a serial run; key-unique sorts are unaffected.
//
// This gives the honest behaviour Table VIII depends on: a giant SQL query
// with many joins and non-equi temporal constraints pays for large
// intermediate results, while TBQL's scheduler (engine/scheduler.*) avoids
// them with per-pattern queries + constraint propagation.
#pragma once

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/relational/sql_ast.h"
#include "storage/relational/table.h"
#include "storage/row_block.h"

namespace raptor::storage {
template <typename ResultT>
class QueryResultCache;
}  // namespace raptor::storage

namespace raptor::obs {
class TraceSpan;
}  // namespace raptor::obs

namespace raptor::sql {

struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;

  std::string ToString(size_t max_rows = 20) const;
};

/// Chunked result: rows live in per-morsel blocks after a parallel scan
/// (one block for a serial run). The parallel merge adopts each morsel
/// block wholesale (rows.pushed_rows() == 0 — the zero-copy merge);
/// consumers stream through storage::RowCursor.
/// ResultSet remains the materialized compatibility view (ExecuteSelect
/// flattens one of these).
struct BlockResultSet {
  std::vector<std::string> columns;
  storage::RowBlocks<Row> rows;

  storage::RowCursor<Row> cursor() const {
    return storage::RowCursor<Row>(&rows);
  }
};

/// Execution counters, exposed for the scheduler-ablation benchmark.
struct ExecStats {
  size_t base_rows_scanned = 0;     // rows touched by base-table filters
  size_t index_probe_rows = 0;      // rows fetched through index probes
  size_t join_output_tuples = 0;    // tuples produced across all joins
  size_t rows_emitted = 0;          // result rows produced
  size_t columnar_filter_rows = 0;  // predicate checks served by frozen columns
  size_t morsels_executed = 0;      // scan morsels run by the parallel driver
  size_t morsels_stolen = 0;        // of those, taken from another worker
};

struct SelectOptions {
  /// Rows per morsel. Small enough that a skewed shard yields many
  /// stealable units, large enough to amortize per-morsel pipeline setup.
  int morsel_size = 2048;
  /// Maximum morsel workers for the base scan / probe pipeline. 1 =
  /// always serial.
  int parallel_shards = 4;
  /// Stay serial when the base-table scan (or its index seed list) is
  /// smaller than this: tiny scans lose more to dispatch than they gain.
  int parallel_min_rows = 256;
  /// Stay serial when a LIMIT is below this: the serial
  /// early-exit path finishes such queries in a handful of row visits.
  int parallel_min_limit = 8;
  /// Cooperative cancellation: when non-null and set, the base scan stops
  /// (every worker polls it alongside the shared LIMIT budget) and the
  /// query returns Status::Cancelled. The flag must outlive the call.
  const std::atomic<bool>* cancel = nullptr;
  /// Absolute deadline polled inside the scan loops next to the cancel
  /// flag (amortized clock reads — common/deadline.h), so a single giant
  /// scan stops within one poll stride of expiry and the query returns
  /// Status::Timeout.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Multi-query optimization: when non-null, Database::QueryBlocks
  /// memoizes full-scan results (no LIMIT) keyed by query text so
  /// structurally-identical compiled sub-queries share one execution per
  /// epoch. The owner (service::HuntService) clears it on every store
  /// mutation. Must outlive the call.
  storage::QueryResultCache<BlockResultSet>* result_cache = nullptr;
  /// EXPLAIN ANALYZE hook: when non-null, the morsel scheduler hangs one
  /// timed child span per worker under it (scan, probe, and steal counters
  /// included) and QueryBlocks records subresult cache hits. Null (the
  /// default) costs one pointer test per query. Must outlive the call.
  obs::TraceSpan* trace = nullptr;
};

class Catalog {
 public:
  virtual ~Catalog() = default;
  virtual const Table* FindTable(std::string_view name) const = 0;
};

/// Execute `stmt` against `catalog`. Thread-compatible (no shared state).
Result<ResultSet> ExecuteSelect(const SelectStmt& stmt, const Catalog& catalog,
                                const SelectOptions& options = {},
                                ExecStats* stats = nullptr);

/// Execute `stmt`, returning the chunked block result (the zero-copy
/// parallel-merge path; ExecuteSelect is a flattening wrapper over this).
Result<BlockResultSet> ExecuteSelectBlocks(const SelectStmt& stmt,
                                           const Catalog& catalog,
                                           const SelectOptions& options = {},
                                           ExecStats* stats = nullptr);

/// Plan-time cost estimate in "rows visited" units, from the same exact
/// per-shard index cardinalities (Table::ProbeCount) the planner ranks
/// access paths with: each alias contributes its cheapest probe-able
/// candidate count (or its full row count without one), with the driving
/// alias additionally scaled by the join depth it pipelines through. No
/// rows are touched — the estimate costs a handful of hash probes, so
/// admission layers (service::HuntService) can price a query before
/// running it. Unknown tables / unresolvable columns degrade gracefully
/// (they contribute zero), never error.
double EstimateSelectCost(const SelectStmt& stmt, const Catalog& catalog);

}  // namespace raptor::sql
