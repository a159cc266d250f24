// Shared policy pieces of the morsel-parallel query executors (the Cypher
// matcher and the SQL pipeline): LIMIT row-budget selection and the
// deterministic morsel-order merge. Both engines fan morsels out onto the
// common thread pool and stream into per-morsel result sets; the subtle
// parts — how a LIMIT is enforced across workers and how DISTINCT survives
// the merge — live here once so the two executors cannot drift apart.
//
// Budget policy: without DISTINCT every emitted row counts globally, so
// workers claim emission slots from one atomic counter (exactly `limit`
// claims succeed, and idle workers poll the counter to abandon their
// scans early). With DISTINCT a global count cannot know about
// cross-morsel duplicates, so each morsel dedups locally up to the limit
// and the merge dedups again. That guarantees the merged unique-row count
// is never BELOW min(limit, full distinct count) — every morsel either
// filled the limit by itself or exhausted its seeds — but it can exceed
// the limit (disjoint morsels can each contribute up to `limit` rows), so
// the executors truncate after the merge.
//
// DISTINCT merge: morsels hash-partition their emissions by row hash into
// kDistinctPartitions buckets (WorkerRows::parts). Duplicate rows always
// land in the same partition, so the merge dedups one partition at a time
// (per-partition seen-set, morsel order within a partition), compacts each
// morsel's surviving rows in place, and adopts the compacted vectors as
// whole blocks (RowBlocks::pushed_rows() stays 0). Output order is
// partition-major, morsel-minor: deterministic for a fixed storage layout,
// and the row set equals the serial run's.
#pragma once

#include <atomic>
#include <cstddef>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/relational/value.h"
#include "storage/row_block.h"

namespace raptor::storage {

/// Number of hash partitions the DISTINCT sinks spread rows over. Power of two (partition index is hash & (kDistinctPartitions-1)).
constexpr size_t kDistinctPartitions = 8;

/// Partition index of a result row (sinks and the merge must agree).
inline size_t DistinctPartitionOf(const std::vector<sql::Value>& row) {
  return sql::ValueRowHash{}(row) & (kDistinctPartitions - 1);
}

/// One work-stealing morsel: the positional range [lo, hi) of one shard's
/// iteration space (the k-th row of its start/stride walk, or the k-th
/// entry of its seed / candidate sub-list).
struct Morsel {
  size_t shard;
  size_t lo;
  size_t hi;
};

/// Positions of `shard` in a start/stride walk of `total` dense ids over
/// `shard_count` shards (ids shard, shard + n, shard + 2n, ... below
/// total — storage::ShardLayout's round-robin low-bits assignment).
inline size_t StrideCount(size_t total, size_t shard, size_t shard_count) {
  return total > shard ? (total - 1 - shard) / shard_count + 1 : 0;
}

/// Carve each shard's `counts[s]` positions into fixed-size morsels, laid
/// out shard-major: the order the merge walks them, so a result is
/// identical for a fixed plan whatever the steal schedule.
inline std::vector<Morsel> CarveMorsels(const std::vector<size_t>& counts,
                                        int morsel_size) {
  size_t size = static_cast<size_t>(morsel_size < 1 ? 1 : morsel_size);
  std::vector<Morsel> morsels;
  for (size_t s = 0; s < counts.size(); ++s) {
    for (size_t lo = 0; lo < counts[s]; lo += size) {
      morsels.push_back({s, lo, lo + size < counts[s] ? lo + size : counts[s]});
    }
  }
  return morsels;
}

/// Per-morsel result container for the parallel schedulers. Non-DISTINCT
/// emissions stream into `rows`; DISTINCT emissions are hash-partitioned
/// into `parts` (sized lazily by the sink).
struct WorkerRows {
  std::vector<std::vector<sql::Value>> rows;
  std::vector<std::vector<std::vector<sql::Value>>> parts;

  void EnableDistinctPartitions() { parts.resize(kDistinctPartitions); }
};

/// One morsel's output: its rows and its error status.
struct MorselRun {
  WorkerRows rs;
  Status error = Status::OK();
};

/// LIMIT enforcement for a fleet of morsel workers. Wire
/// `shared_claimed()` / `shared_cap` and `local_cap` into each morsel's row
/// sink. A negative `limit` means no early stop.
struct ShardRowBudget {
  std::atomic<size_t> claimed{0};
  size_t shared_cap = 0;
  size_t local_cap = static_cast<size_t>(-1);
  bool shared = false;

  ShardRowBudget(bool distinct, long long limit) {
    if (limit < 0) return;
    if (distinct) {
      local_cap = static_cast<size_t>(limit);
    } else {
      shared = true;
      shared_cap = static_cast<size_t>(limit);
    }
  }

  std::atomic<size_t>* shared_claimed() { return shared ? &claimed : nullptr; }
};

/// Merge per-morsel results in morsel order (deterministic for a fixed
/// storage layout and morsel carve): fail on the first morsel error and
/// hand the rows to `out`. Without DISTINCT every morsel's row vector is
/// adopted wholesale as one block. With DISTINCT the merge dedups
/// partition by partition (see the header comment) and adopts each
/// morsel's compacted partition vector — also block-wise. `Run` must
/// expose a `Status error` and a WorkerRows at `rs`.
template <class Run>
Status MergeShardRuns(std::vector<Run>& runs, bool distinct,
                      RowBlocks<std::vector<sql::Value>>* out) {
  for (Run& run : runs) RAPTOR_RETURN_NOT_OK(run.error);
  if (!distinct) {
    for (Run& run : runs) out->Adopt(std::move(run.rs.rows));
    return Status::OK();
  }
  std::unordered_set<std::vector<sql::Value>, sql::ValueRowHash,
                     sql::ValueRowEq>
      seen;
  for (size_t p = 0; p < kDistinctPartitions; ++p) {
    seen.clear();
    for (Run& run : runs) {
      if (run.rs.parts.size() <= p) continue;
      auto& part = run.rs.parts[p];
      size_t kept = 0;
      for (size_t i = 0; i < part.size(); ++i) {
        if (!seen.insert(part[i]).second) continue;
        if (kept != i) part[kept] = std::move(part[i]);
        ++kept;
      }
      part.resize(kept);
      out->Adopt(std::move(part));
    }
  }
  return Status::OK();
}

}  // namespace raptor::storage
