// One string-predicate kernel shared by the relational and graph
// executors: decides `cell op literal` for a text literal over the frozen
// columns of storage/columnar.h, where op is `=`, IN (a text list), LIKE,
// CONTAINS, STARTS WITH or ENDS WITH.
//
// Semantics are the row path's (sql::Value), for a cell of any column kind:
//  * `=` / IN hold only for a text cell equal to a literal; an int cell, an
//    explicit NULL and an absent cell never match;
//  * the pattern operators (LIKE, CONTAINS, STARTS WITH, ENDS WITH) run on
//    the cell's text rendering (Value::ToString), so an int cell matches on
//    its decimal digits and an absent or NULL cell reads as the text
//    "NULL" — `CONTAINS 'UL'` holds on a node without the property.
//
// A string slice decides each cell by its dictionary id: `=` compares one
// interned id, IN probes a set of ids, and a pattern operator evaluates
// each dictionary string at most once per query, memoizing the verdict in
// a relaxed-atomic byte array that the morsel workers share (two workers
// racing on one id both evaluate it and store the same verdict).
//
// The same memo drives the dictionary seek of both access-path rankers:
// walking the dictionary yields exactly the strings whose cells match, so
// probing an index with them returns every matching row — provided no
// match can hide outside the dictionary. That holds when every slice of
// the column is string-typed or absent (int and kMixed cells are not in
// the dictionary) and the verdict on an absent cell is false (absent cells
// are not in the index). Seekable() checks the second condition,
// SeekableSlice() the first.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/strings.h"
#include "storage/columnar.h"
#include "storage/relational/value.h"

namespace raptor::storage {

class StringPredicate {
 public:
  enum class Op : uint8_t {
    kEq,
    kIn,
    kLike,
    kContains,
    kStartsWith,
    kEndsWith,
  };

  /// `needles` holds the literal (the list for kIn, one text otherwise).
  /// `dict` is the column's string dictionary (nullptr when the column has
  /// none); ids interned into it after construction are decided unmemoized.
  StringPredicate(Op op, std::vector<std::string> needles,
                  const StringInterner* dict)
      : op_(op), needles_(std::move(needles)), dict_(dict) {
    null_verdict_ = OnValue(sql::Value::Null());
    size_t dict_size = dict_ != nullptr ? dict_->size() : 0;
    if (op_ == Op::kEq || op_ == Op::kIn) {
      for (const std::string& n : needles_) {
        uint32_t id = dict_ != nullptr ? dict_->Lookup(n) : kNoSymbol;
        if (id != kNoSymbol) ids_.push_back(id);
      }
      std::sort(ids_.begin(), ids_.end());
    } else {
      memo_size_ = dict_size;
      memo_ = std::make_unique<std::atomic<uint8_t>[]>(memo_size_);
    }
  }

  StringPredicate(StringPredicate&& o) noexcept
      : op_(o.op_),
        needles_(std::move(o.needles_)),
        dict_(o.dict_),
        null_verdict_(o.null_verdict_),
        ids_(std::move(o.ids_)),
        memo_size_(o.memo_size_),
        memo_(std::move(o.memo_)),
        checked_(o.checked_.load(std::memory_order_relaxed)) {}

  /// Verdict on the cell at `pos` of `slice`, whatever its kind; a null
  /// slice means no row of the bucket carries the property.
  bool OnCell(const Column* slice, size_t pos) const {
    if (slice == nullptr) return null_verdict_;
    switch (slice->kind()) {
      case Column::Kind::kString: {
        uint32_t id = slice->DictAt(pos);
        return id == kNullDictId ? null_verdict_ : OnDictId(id);
      }
      case Column::Kind::kInt64: {
        int64_t v;
        return slice->IntAt(pos, &v) ? OnValue(sql::Value(v)) : null_verdict_;
      }
      case Column::Kind::kMixed: {
        const sql::Value* v = slice->MixedAt(pos);
        return v != nullptr ? OnValue(*v) : null_verdict_;
      }
      case Column::Kind::kUnset:
        break;
    }
    return null_verdict_;
  }

  /// A pattern operator whose verdict on an absent cell is false: the
  /// predicate a dictionary seek can serve exactly (see the file comment).
  bool Seekable() const {
    return op_ != Op::kEq && op_ != Op::kIn && !null_verdict_;
  }

  /// A slice a dictionary seek covers: absent, empty or string-typed.
  static bool SeekableSlice(const Column* slice) {
    return slice == nullptr || slice->kind() == Column::Kind::kUnset ||
           slice->kind() == Column::Kind::kString;
  }

  /// A dictionary seek's accepted strings and their summed probe count.
  struct Seek {
    std::vector<sql::Value> keys;
    size_t count = 0;
  };

  /// The dictionary seek, priced by `probe_count(key)`: every dictionary
  /// string whose cells match, in id order, while the summed count stays
  /// below `bound`. Walks nothing unless the dictionary is smaller than
  /// `bound`. nullopt when the seek cannot beat `bound` or `interrupted()`
  /// fired (it is polled per entry and should amortize its own clock
  /// reads).
  template <class Interrupted, class ProbeCount>
  std::optional<Seek> SeekBelow(size_t bound, Interrupted&& interrupted,
                                ProbeCount&& probe_count) const {
    if (memo_size_ >= bound) return std::nullopt;
    Seek out;
    for (uint32_t id = 0; id < memo_size_; ++id) {
      if (interrupted()) return std::nullopt;
      if (!OnDictId(id)) continue;
      out.keys.emplace_back(std::string(dict_->Name(id)));
      out.count += probe_count(out.keys.back());
      if (out.count >= bound) return std::nullopt;
    }
    return out;
  }

  /// Dictionary strings evaluated so far (memo misses, over every worker).
  size_t strings_checked() const {
    return checked_.load(std::memory_order_relaxed);
  }

 private:
  /// Verdict on a text cell.
  bool OnText(std::string_view text) const {
    switch (op_) {
      case Op::kEq:
      case Op::kIn:
        return std::find(needles_.begin(), needles_.end(), text) !=
               needles_.end();
      case Op::kLike:
        return LikeMatch(text, needles_[0]);
      case Op::kContains:
        return text.find(needles_[0]) != std::string_view::npos;
      case Op::kStartsWith:
        return StartsWith(text, needles_[0]);
      case Op::kEndsWith:
        return EndsWith(text, needles_[0]);
    }
    return false;
  }

  /// Verdict on a whole cell value (NULL for an absent cell).
  bool OnValue(const sql::Value& v) const {
    if (v.is_text()) return OnText(v.AsText());
    if (op_ == Op::kEq || op_ == Op::kIn) return false;
    return OnText(v.ToString());
  }

  /// Verdict on a string cell by dictionary id (not kNullDictId).
  bool OnDictId(uint32_t id) const {
    if (op_ == Op::kEq || op_ == Op::kIn) {
      return std::binary_search(ids_.begin(), ids_.end(), id);
    }
    if (id >= memo_size_) return Decide(id);  // interned after construction
    uint8_t v = memo_[id].load(std::memory_order_relaxed);
    if (v == 0) {
      v = Decide(id) ? 2 : 1;
      memo_[id].store(v, std::memory_order_relaxed);
    }
    return v == 2;
  }

  bool Decide(uint32_t id) const {
    checked_.fetch_add(1, std::memory_order_relaxed);
    return OnText(dict_->Name(id));
  }

  Op op_;
  std::vector<std::string> needles_;
  const StringInterner* dict_;
  bool null_verdict_ = false;
  std::vector<uint32_t> ids_;  // kEq / kIn: the literals' dictionary ids
  size_t memo_size_ = 0;       // pattern ops: memoized dictionary prefix
  // 0 = not yet decided, 1 = no match, 2 = match.
  std::unique_ptr<std::atomic<uint8_t>[]> memo_;
  mutable std::atomic<size_t> checked_{0};
};

}  // namespace raptor::storage
