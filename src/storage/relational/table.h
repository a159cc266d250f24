// In-memory row-store table with hash equality indexes, the storage unit of
// the embedded relational engine that substitutes PostgreSQL.
//
// Sharding: rows and index storage partition into a power-of-two number of
// entity-id-hashed shards (shard = row id & mask; row ids stay dense and
// global, assigned in insert order). Each shard owns its rows and its slice
// of every hash index, which lets the SQL executor carve base-table scans
// and hash-join probe sides into per-shard morsels. The pre-sharding
// accessors that return whole-table references (rows(), Probe() without a
// shard argument) remain valid as the single-shard (shard_count() == 1)
// case; row(id) and the per-shard probes work for any shard count.
//
// Thread-safety contract: construction and mutation (Insert / CreateIndex)
// are single-threaded; all const member functions are race-free when
// called concurrently from any number of threads.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "storage/columnar.h"
#include "storage/relational/value.h"
#include "storage/shard_layout.h"

namespace raptor::sql {

struct Column {
  std::string name;
  ColumnType type = ColumnType::kText;
};

/// Table schema: ordered named, typed columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  /// Index of `name`, or -1.
  int FindColumn(std::string_view name) const;

  const std::vector<Column>& columns() const { return columns_; }
  size_t size() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }

 private:
  std::vector<Column> columns_;
  // Transparent hash: FindColumn(string_view) probes without allocating.
  std::unordered_map<std::string, int, StringViewHash, std::equal_to<>>
      by_name_;
};

using Row = std::vector<Value>;
using RowId = size_t;

/// Row-store table. Supports appends, full scans, and hash-index-backed
/// equality probes on indexed columns.
class Table {
 public:
  /// `shard_count` is rounded up to a power of two; 1 (the default)
  /// reproduces the unsharded layout exactly.
  Table(std::string name, Schema schema, size_t shard_count = 1);

  /// Append one row. Arity must match the schema; values are checked
  /// loosely (NULL is accepted for any column).
  Status Insert(Row row);

  /// Create (or no-op if present) a hash index on `column` in every shard.
  /// Existing rows are indexed immediately; inserts maintain it.
  Status CreateIndex(std::string_view column);

  bool HasIndex(int column_idx) const;

  /// Row ids whose `column_idx` cell equals `v` (index probe).
  /// Precondition: HasIndex(column_idx) && shard_count() == 1 (the sharded
  /// layout exposes the per-shard probe below).
  const std::vector<RowId>& Probe(int column_idx, const Value& v) const;

  /// The index bucket of `shard` only (global row ids, ascending); a
  /// value's full candidate set is the disjoint union of its buckets
  /// across all shards. Precondition: HasIndex(column_idx) &&
  /// shard < shard_count().
  const std::vector<RowId>& Probe(int column_idx, const Value& v,
                                  size_t shard) const;

  /// Candidate count for column == v summed over all shards, without
  /// materializing the union (exact for any shard count).
  size_t ProbeCount(int column_idx, const Value& v) const;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  const Row& row(RowId id) const {
    return shards_[layout_.ShardOf(id)].rows[layout_.LocalOf(id)];
  }

  /// Whole-table row storage. Precondition: shard_count() == 1.
  const std::vector<Row>& rows() const { return shards_[0].rows; }

  size_t row_count() const { return row_count_; }
  size_t shard_count() const { return shards_.size(); }

  /// Shard owning row `id`.
  size_t ShardOf(RowId id) const { return layout_.ShardOf(id); }

  /// Row `id`'s offset within its shard — the cell position inside the
  /// shard's frozen columns.
  size_t LocalOf(RowId id) const { return layout_.LocalOf(id); }

  // --- Frozen columnar storage (storage/columnar.h) ------------------------
  // Insert freezes every cell into per-(shard × column) SoA vectors
  // alongside the row store; string cells dictionary-encode against one
  // dictionary per schema column, shared across shards.

  /// Frozen column of (shard, column). Cell positions are the row's local
  /// offset within the shard (ShardLayout::LocalOf).
  const storage::Column& ColumnSlice(size_t shard, int column_idx) const {
    return shards_[shard].cols[column_idx];
  }

  /// Dictionary id of `text` in column `column_idx`'s dictionary, or
  /// storage::kNullDictId when that string never occurs in the column.
  uint32_t LookupColumnDict(int column_idx, std::string_view text) const {
    uint32_t id = col_dicts_[column_idx].Lookup(text);
    return id == kNoSymbol ? storage::kNullDictId : id;
  }

  /// The string behind a dictionary id of column `column_idx`.
  std::string_view ColumnDictName(int column_idx, uint32_t dict_id) const {
    return col_dicts_[column_idx].Name(dict_id);
  }

 private:
  // Keyed directly on Value with a Compare()-consistent hash, so inserts
  // and probes never render the cell to a string.
  using ValueIndex =
      std::unordered_map<Value, std::vector<RowId>, ValueHash, ValueEq>;

  /// One entity-id-hashed partition: the rows whose id hashes here and
  /// this shard's slice of every column index (global row ids).
  struct Shard {
    std::vector<Row> rows;
    std::unordered_map<int, ValueIndex> indexes;  // column index -> index
    std::vector<storage::Column> cols;            // frozen SoA cells
  };

  std::string name_;
  Schema schema_;
  std::vector<Shard> shards_;
  std::vector<StringInterner> col_dicts_;  // one dictionary per column
  storage::ShardLayout layout_;
  size_t row_count_ = 0;
};

}  // namespace raptor::sql
