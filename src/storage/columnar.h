// Frozen columnar (SoA) property storage shared by the graph and
// relational backends, and the only stored copy of every property.
//
// Ingest hands each row (sql::Row) or property map (graphdb::PropertyMap)
// to its store, which freezes the cells into per-bucket column vectors —
// per (shard × label) for graph nodes, per (shard × edge type) for graph
// edges, per (shard × schema column) for tables — and drops the row form.
// Predicate loops scan column slices, and every reader that needs a whole
// cell (projection, join keys, index maintenance) reads it back through
// Column::CellAt. String cells are dictionary-encoded against one
// dictionary per property/column (global across shards and buckets), so
// an equality literal is interned once per query and compared as a
// uint32 everywhere.
//
// Typing is resolved per column from the data: the first frozen value
// picks the kind (int64 or string); any later conflict — or any value the
// typed cells cannot represent exactly under sql::Value::Compare semantics
// (doubles, explicit NULLs) — demotes the column to kMixed, which keeps
// every cell (earlier ones converted) as a sql::Value. Absent cells (a row
// without the property) are explicit in every kind: a present-bitmap for
// int and kMixed columns, kNullDictId for string columns, and positions
// past len() for trailing rows that never froze a cell. An absent cell
// reads back as "no value", distinct from an explicit NULL.
//
// Thread-safety matches the owning stores: freezing happens on the
// single-writer mutation path; all readers are const and race-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "storage/relational/value.h"

namespace raptor::storage {

/// Absent-cell sentinel in dictionary-encoded string columns.
constexpr uint32_t kNullDictId = static_cast<uint32_t>(-1);

/// One frozen property column over a bucket of rows. Positions are the
/// row's dense offset within its bucket (label_pos / type_pos / local row
/// offset) and must be appended in increasing order; skipped positions
/// are absent cells.
class Column {
 public:
  enum class Kind : uint8_t { kUnset, kInt64, kString, kMixed };

  Kind kind() const { return kind_; }
  bool usable() const {
    return kind_ == Kind::kInt64 || kind_ == Kind::kString;
  }

  /// Cells frozen so far; positions >= len() are absent.
  size_t len() const {
    switch (kind_) {
      case Kind::kString: return dict_ids_.size();
      case Kind::kMixed: return mixed_.size();
      default: return ints_.size();
    }
  }

  /// Freeze the cell at `pos` (the row's bucket offset). `dict` is the
  /// column's global string dictionary; it must stay address-stable for
  /// the column's lifetime (cells read back through it).
  void Append(size_t pos, const sql::Value& v, StringInterner* dict) {
    dict_ = dict;
    if (kind_ == Kind::kUnset) {
      kind_ = v.is_int() ? Kind::kInt64
              : v.is_text() ? Kind::kString
                            : Kind::kMixed;
    }
    if (kind_ == Kind::kInt64 && !v.is_int()) Demote();
    if (kind_ == Kind::kString && !v.is_text()) Demote();
    switch (kind_) {
      case Kind::kInt64:
        ints_.resize(pos, 0);
        present_.resize(pos, 0);
        ints_.push_back(v.AsInt());
        present_.push_back(1);
        break;
      case Kind::kString:
        dict_ids_.resize(pos, kNullDictId);
        dict_ids_.push_back(dict->Intern(v.AsText()));
        break;
      default:
        mixed_.resize(pos);
        present_.resize(pos, 0);
        mixed_.push_back(v);
        present_.push_back(1);
        break;
    }
  }

  /// kInt64 cell read; false when absent.
  bool IntAt(size_t pos, int64_t* out) const {
    if (pos >= ints_.size() || !present_[pos]) return false;
    *out = ints_[pos];
    return true;
  }

  /// kString cell read; kNullDictId when absent.
  uint32_t DictAt(size_t pos) const {
    return pos >= dict_ids_.size() ? kNullDictId : dict_ids_[pos];
  }

  /// kMixed cell read; nullptr when absent (an explicit NULL is a present
  /// cell holding Value::Null()).
  const sql::Value* MixedAt(size_t pos) const {
    if (pos >= mixed_.size() || !present_[pos]) return nullptr;
    return &mixed_[pos];
  }

  /// The cell at `pos` of any kind, materialized; false when absent.
  bool CellAt(size_t pos, sql::Value* out) const {
    switch (kind_) {
      case Kind::kInt64: {
        int64_t v;
        if (!IntAt(pos, &v)) return false;
        *out = sql::Value(v);
        return true;
      }
      case Kind::kString: {
        uint32_t id = DictAt(pos);
        if (id == kNullDictId) return false;
        *out = sql::Value(std::string(dict_->Name(id)));
        return true;
      }
      case Kind::kMixed: {
        const sql::Value* v = MixedAt(pos);
        if (v == nullptr) return false;
        *out = *v;
        return true;
      }
      case Kind::kUnset:
        break;
    }
    return false;
  }

  /// The string behind a kString cell's dictionary id.
  std::string_view DictName(uint32_t id) const { return dict_->Name(id); }

 private:
  /// Switch to kMixed, converting every cell frozen so far to a Value.
  void Demote() {
    size_t n = len();
    std::vector<sql::Value> mixed(n);
    std::vector<uint8_t> present(n, 0);
    for (size_t i = 0; i < n; ++i) present[i] = CellAt(i, &mixed[i]) ? 1 : 0;
    kind_ = Kind::kMixed;
    ints_ = {};
    dict_ids_ = {};
    mixed_ = std::move(mixed);
    present_ = std::move(present);
  }

  Kind kind_ = Kind::kUnset;
  const StringInterner* dict_ = nullptr;
  std::vector<int64_t> ints_;        // kInt64 cells (0 where absent)
  std::vector<uint8_t> present_;     // kInt64 / kMixed: 1 = cell present
  std::vector<uint32_t> dict_ids_;   // kString cells (kNullDictId = absent)
  std::vector<sql::Value> mixed_;    // kMixed cells
};

/// Column set of one bucket (shard × label / edge type), keyed by the
/// owning store's interned property-name id.
class ColumnGroup {
 public:
  Column* ColumnFor(uint32_t prop_id) { return &cols_[prop_id]; }

  /// Every (prop id, column) pair of the bucket, in no particular order.
  const std::unordered_map<uint32_t, Column>& columns() const { return cols_; }

  /// nullptr when no row of this bucket ever froze the property.
  const Column* Find(uint32_t prop_id) const {
    auto it = cols_.find(prop_id);
    return it == cols_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<uint32_t, Column> cols_;
};

}  // namespace raptor::storage
