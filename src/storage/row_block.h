// Chunked result-row storage and the streaming cursor over it.
//
// The morsel-parallel query executors produce one row vector per morsel;
// RowBlocks *adopts* each vector wholesale as one block (a single
// std::vector move — no per-row moves, no reallocation of a combined
// vector), which is the ROADMAP "zero-copy merge" item. Rows that cannot
// be adopted block-wise are Push()ed individually; the adopted/pushed
// counters make the distinction observable, so tests and benches can
// assert that a non-DISTINCT parallel merge performed no per-row work.
//
// RowCursor is the client-facing streaming view: it walks the blocks as
// contiguous spans without flattening, so a consumer can stream a large
// result (HuntService tickets hand one out per finished hunt) while the
// owning RowBlocks stays put. The cursor never outlives its RowBlocks.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace raptor::storage {

template <typename RowT>
class RowBlocks {
 public:
  using Block = std::vector<RowT>;

  /// Take ownership of an entire block of rows. O(1): no per-row work.
  void Adopt(Block&& rows) {
    if (rows.empty()) return;
    adopted_rows_ += rows.size();
    row_count_ += rows.size();
    blocks_.push_back(std::move(rows));
    open_ = false;
  }

  /// Append one row to the open tail block (starting one if the last
  /// block was adopted). Used by merges that must inspect rows (DISTINCT
  /// re-dedup) and by serial compatibility paths.
  void Push(RowT&& row) {
    if (!open_) {
      blocks_.emplace_back();
      open_ = true;
    }
    blocks_.back().push_back(std::move(row));
    ++pushed_rows_;
    ++row_count_;
  }

  size_t row_count() const { return row_count_; }
  size_t block_count() const { return blocks_.size(); }
  bool empty() const { return row_count_ == 0; }

  /// Rows that arrived block-wise (no per-row move) vs one at a time.
  /// adopted_rows() + pushed_rows() == row_count() at all times.
  size_t adopted_rows() const { return adopted_rows_; }
  size_t pushed_rows() const { return pushed_rows_; }

  const std::vector<Block>& blocks() const { return blocks_; }

  /// Keep only the first `n` rows: drops whole tail blocks and resizes the
  /// boundary block (the trailing-LIMIT trim, which never needs to move
  /// surviving rows).
  void Truncate(size_t n) {
    if (n >= row_count_) return;
    size_t kept = 0;
    size_t b = 0;
    for (; b < blocks_.size() && kept + blocks_[b].size() <= n; ++b) {
      kept += blocks_[b].size();
    }
    if (b < blocks_.size()) {
      blocks_[b].resize(n - kept);
      if (blocks_[b].empty()) {
        blocks_.resize(b);
      } else {
        blocks_.resize(b + 1);
      }
    }
    row_count_ = n;
    // The trim invalidates the arrival-mode split; fold the loss into the
    // pushed side so the counters still sum to row_count().
    if (adopted_rows_ > n) adopted_rows_ = n;
    pushed_rows_ = n - adopted_rows_;
    open_ = false;
  }

  /// Move every row into one flat vector (the materialized compatibility
  /// path behind the legacy ResultSet APIs). Leaves this container empty.
  Block Flatten() {
    Block out;
    if (blocks_.size() == 1) {
      out = std::move(blocks_[0]);
    } else {
      out.reserve(row_count_);
      for (Block& b : blocks_) {
        for (RowT& row : b) out.push_back(std::move(row));
      }
    }
    blocks_.clear();
    row_count_ = adopted_rows_ = pushed_rows_ = 0;
    open_ = false;
    return out;
  }

 private:
  std::vector<Block> blocks_;
  size_t row_count_ = 0;
  size_t adopted_rows_ = 0;
  size_t pushed_rows_ = 0;
  bool open_ = false;  // tail block accepts Push()
};

/// Forward-only streaming view over a RowBlocks: yields one contiguous
/// span per block, or single rows through Next(). The underlying blocks
/// must outlive the cursor and stay unmodified while it is in use.
template <typename RowT>
class RowCursor {
 public:
  struct Span {
    const RowT* data = nullptr;
    size_t size = 0;
  };

  RowCursor() = default;
  explicit RowCursor(const RowBlocks<RowT>* blocks) : blocks_(blocks) {}

  /// Next non-empty chunk of rows; false at end of stream.
  bool NextSpan(Span* out) {
    if (blocks_ == nullptr) return false;
    while (block_ < blocks_->blocks().size()) {
      const auto& b = blocks_->blocks()[block_++];
      if (b.empty()) continue;
      out->data = b.data();
      out->size = b.size();
      return true;
    }
    return false;
  }

  /// Next single row; nullptr at end of stream.
  const RowT* Next() {
    if (span_pos_ >= span_.size && !NextSpanInto()) return nullptr;
    return &span_.data[span_pos_++];
  }

 private:
  bool NextSpanInto() {
    span_pos_ = 0;
    return NextSpan(&span_);
  }

  const RowBlocks<RowT>* blocks_ = nullptr;
  size_t block_ = 0;
  Span span_;
  size_t span_pos_ = 0;
};

}  // namespace raptor::storage
