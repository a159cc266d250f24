#include "storage/relational/table.h"

#include <limits>

#include "common/strings.h"

namespace raptor::sql {

namespace {

const std::vector<RowId> kNoRows;

}  // namespace

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    by_name_.emplace(columns_[i].name, static_cast<int>(i));
  }
}

int Schema::FindColumn(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

Table::Table(std::string name, Schema schema, size_t shard_count)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      layout_(shard_count) {
  shards_.resize(layout_.count());
  for (Shard& s : shards_) s.cols.resize(schema_.size());
  col_dicts_.resize(schema_.size());
  ascending_.assign(schema_.size(), 1);
  last_int_.assign(schema_.size(), std::numeric_limits<int64_t>::min());
}

Status Table::Insert(Row row) {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument(
        StrFormat("table %s expects %zu columns, got %zu", name_.c_str(),
                  schema_.size(), row.size()));
  }
  RowId id = row_count_++;
  Shard& shard = shards_[layout_.ShardOf(id)];
  for (auto& [col, index] : shard.indexes) {
    index[row[col]].push_back(id);
  }
  size_t pos = shard.rows++;  // == layout_.LocalOf(id)
  for (size_t c = 0; c < row.size(); ++c) {
    if (!row[c].is_int()) {
      ascending_[c] = 0;
    } else {
      int64_t v = row[c].AsInt();
      if (v < last_int_[c]) ascending_[c] = 0;
      last_int_[c] = v;
    }
    shard.cols[c].Append(pos, row[c], &col_dicts_[c]);
  }
  return Status::OK();
}

RowId Table::FirstRowAbove(int column_idx, int64_t k, bool inclusive) const {
  RowId lo = 0, hi = row_count_;
  while (lo < hi) {
    RowId mid = lo + (hi - lo) / 2;
    int64_t v = 0;
    ColumnSlice(layout_.ShardOf(mid), column_idx)
        .IntAt(layout_.LocalOf(mid), &v);
    if (inclusive ? v >= k : v > k) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

Row Table::RowAt(RowId id) const {
  Row row;
  row.reserve(schema_.size());
  for (size_t c = 0; c < schema_.size(); ++c) {
    row.push_back(Cell(id, static_cast<int>(c)));
  }
  return row;
}

Status Table::CreateIndex(std::string_view column) {
  int col = schema_.FindColumn(column);
  if (col < 0) {
    return Status::NotFound(StrFormat("no column %s in table %s",
                                      std::string(column).c_str(),
                                      name_.c_str()));
  }
  if (shards_[0].indexes.count(col)) return Status::OK();
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    ValueIndex& index = shard.indexes[col];
    for (size_t local = 0; local < shard.rows; ++local) {
      RowId id = layout_.GlobalOf(s, local);
      index[Cell(id, col)].push_back(id);
    }
  }
  return Status::OK();
}

bool Table::HasIndex(int column_idx) const {
  // Indexes are created in every shard at once; shard 0 is authoritative.
  return shards_[0].indexes.count(column_idx) > 0;
}

const std::vector<RowId>& Table::Probe(int column_idx, const Value& v) const {
  return Probe(column_idx, v, 0);
}

const std::vector<RowId>& Table::Probe(int column_idx, const Value& v,
                                       size_t shard) const {
  auto it = shards_[shard].indexes.find(column_idx);
  if (it == shards_[shard].indexes.end()) return kNoRows;
  auto jt = it->second.find(v);
  return jt == it->second.end() ? kNoRows : jt->second;
}

size_t Table::ProbeCount(int column_idx, const Value& v) const {
  size_t count = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    count += Probe(column_idx, v, s).size();
  }
  return count;
}

}  // namespace raptor::sql
