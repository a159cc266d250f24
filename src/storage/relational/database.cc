#include "storage/relational/database.h"

#include "obs/trace.h"
#include "storage/subresult_cache.h"

namespace raptor::sql {

namespace {

/// Cache key for a memoized execution: the query text plus every option
/// that can change the result rows or their order (parallel merge order
/// depends on morsel geometry and the serial/morsel choice). Cancel,
/// deadline, and the cache pointer itself are excluded — they never change
/// a successful result.
std::string SubresultCacheKey(std::string_view sql, const SelectOptions& o) {
  std::string key(sql);
  key += '\x1f';
  key += std::to_string(o.morsel_size) + ',' +
         std::to_string(o.parallel_shards) + ',' +
         std::to_string(o.parallel_min_rows) + ',' +
         std::to_string(o.parallel_min_limit);
  return key;
}

}  // namespace

Status Database::CreateTable(std::string_view name, Schema schema) {
  std::string key(name);
  if (tables_.count(key)) {
    return Status::AlreadyExists("table exists: " + key);
  }
  tables_.emplace(key,
                  std::make_unique<Table>(key, std::move(schema),
                                          shard_count_));
  return Status::OK();
}

Status Database::Insert(std::string_view table, Row row) {
  Table* t = GetMutableTable(table);
  if (t == nullptr) {
    return Status::NotFound("unknown table: " + std::string(table));
  }
  return t->Insert(std::move(row));
}

Status Database::CreateIndex(std::string_view table, std::string_view column) {
  Table* t = GetMutableTable(table);
  if (t == nullptr) {
    return Status::NotFound("unknown table: " + std::string(table));
  }
  return t->CreateIndex(column);
}

Result<ResultSet> Database::Query(std::string_view sql,
                                  ExecStats* stats) const {
  auto stmt = ParseSelect(sql);
  if (!stmt.ok()) return stmt.status();
  return Execute(stmt.value(), stats);
}

Result<ResultSet> Database::Execute(const SelectStmt& stmt,
                                    ExecStats* stats) const {
  return ExecuteSelect(stmt, *this, options_, stats);
}

Result<BlockResultSet> Database::QueryBlocks(std::string_view sql,
                                             ExecStats* stats) const {
  return QueryBlocks(sql, options_, stats);
}

Result<BlockResultSet> Database::QueryBlocks(std::string_view sql,
                                             const SelectOptions& options,
                                             ExecStats* stats) const {
  auto stmt = ParseSelect(sql);
  if (!stmt.ok()) return stmt.status();
  // Shared-subresult hook (multi-query optimization): memoize full-scan
  // executions only — parallel LIMIT row-claiming races the shared budget,
  // so LIMIT queries bypass the cache.
  if (options.result_cache != nullptr && stmt.value().limit < 0) {
    std::string key = SubresultCacheKey(sql, options);
    if (auto cached = options.result_cache->Lookup(key)) {
      obs::Add(options.trace, "subresult_cache_hits", 1);
      return *cached;
    }
    obs::Add(options.trace, "subresult_cache_misses", 1);
    auto result = ExecuteSelectBlocks(stmt.value(), *this, options, stats);
    if (result.ok()) {
      options.result_cache->Insert(
          key, std::make_shared<const BlockResultSet>(result.value()));
    }
    return result;
  }
  return ExecuteSelectBlocks(stmt.value(), *this, options, stats);
}

double Database::EstimateCost(std::string_view sql) const {
  auto stmt = ParseSelect(sql);
  if (!stmt.ok()) return 0.0;
  return EstimateSelectCost(stmt.value(), *this);
}

const Table* Database::FindTable(std::string_view name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Table* Database::GetMutableTable(std::string_view name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

}  // namespace raptor::sql
