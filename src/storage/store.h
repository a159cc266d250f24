// AuditStore: the paper's storage component. Parsed system entities and
// events are replicated into BOTH database backends — the relational engine
// (for event-pattern SQL queries) and the graph engine (for variable-length
// event-path Cypher queries) — with indexes on the key attributes the paper
// lists (file name, process executable name, destination IP).
#pragma once

#include <unordered_map>
#include <vector>

#include "audit/types.h"
#include "common/status.h"
#include "storage/graphdb/cypher_executor.h"
#include "storage/reduction/reduction.h"
#include "storage/relational/database.h"

namespace raptor::storage {

struct StoreOptions {
  bool enable_reduction = true;
  ReductionOptions reduction;
  /// Cross-batch reduction carry-over: Append withholds the tail of each
  /// batch that is still inside the merge window (events whose end_time is
  /// within merge_threshold_us of the batch's newest end_time), folds it
  /// into the next batch before reduction, and only then stores it — so
  /// duplicate events spanning a batch boundary merge exactly as they
  /// would in a single load. Withheld events become visible when a later
  /// batch outruns the window or on Flush(). Off (default): every batch
  /// reduces independently and is visible immediately.
  bool carry_over_window = false;
  /// Upper bound on withheld events; overflow stores the oldest ones
  /// immediately (they lose only their chance at a cross-batch merge).
  size_t max_carry_events = 4096;
};

/// Per-Append observability: what one batch did to the store. Standing
/// hunts use `touched_entities` (endpoints of stored events plus new
/// entities) as the epoch's dirty set.
struct AppendStats {
  size_t appended_entities = 0;
  size_t appended_events = 0;  // stored (visible) this call
  size_t carried_events = 0;   // withheld in the carry-over window
  std::vector<audit::EntityId> touched_entities;
};

/// The store's complete logical state, detached from both backends: what a
/// persist::Checkpointer snapshot carries and what RestoreFrom() rebuilds
/// the backends from. Everything here is append-ordered (entities by id,
/// events by id), which is what makes a rebuild reproduce node/edge ids —
/// and therefore query results — byte-identically.
struct StoreSnapshotState {
  std::vector<audit::SystemEntity> entities;
  /// Visible (stored) events, id-ordered. Under retention these are the
  /// surviving suffix: ids `evicted_through + 1 .. next_event_id - 1`.
  std::vector<audit::SystemEvent> events;
  /// Carry-over window: reduced events withheld at a batch boundary.
  std::vector<audit::SystemEvent> carry;
  uint64_t next_event_id = 1;
  audit::EventId evicted_through = 0;  // ids <= this were aged out
  uint64_t raw_entities_consumed = 0;
  /// Reduction input counter (output is derivable from the id space).
  uint64_t reduction_input_events = 0;
};

class AuditStore {
 public:
  explicit AuditStore(StoreOptions options = {}) : options_(options) {}

  /// Load a parsed log: applies data reduction (if enabled), creates the
  /// relational tables `entities` and `events` plus the property graph,
  /// and builds indexes. Call once per store (Append handles follow-up
  /// batches).
  Status Load(const audit::ParsedLog& log);

  /// Incremental ingestion of one batch. `log.entities` must EXTEND every
  /// batch previously passed to Load/Append (entity interning is shared
  /// across batches, so earlier entities reappear as a prefix and are
  /// skipped by count); `log.events` are taken as entirely NEW events —
  /// the caller drains consumed events between batches and never resubmits
  /// them. Without the carry-over window each batch is reduced
  /// independently (cross-batch duplicate events are not merged); with it,
  /// the previous batch's withheld tail is folded in first so boundary
  /// duplicates merge. Appends go to both backends; event ids continue
  /// densely. Mutation is single-threaded: never call while queries are
  /// running.
  Status Append(const audit::ParsedLog& log, AppendStats* stats = nullptr);

  /// Store the carry-over window's withheld events (no-op when the window
  /// is off or empty). Call at end of stream — standing hunts and one-shot
  /// queries only see flushed events. Mutation, like Append.
  Status Flush(AppendStats* stats = nullptr);

  /// Events withheld by the carry-over window (invisible to queries until
  /// a later batch or Flush() stores them).
  size_t carried_event_count() const { return carry_.size(); }

  const sql::Database& relational() const { return relational_; }
  sql::Database& relational() { return relational_; }

  const graphdb::GraphDatabase& graph() const { return graph_; }
  graphdb::GraphDatabase& graph() { return graph_; }

  /// Entity metadata kept for the fuzzy matcher and result rendering.
  const std::vector<audit::SystemEntity>& entities() const {
    return entities_;
  }
  /// Events after reduction, sorted by start_time. Under retention this
  /// holds the surviving suffix of the id space; use EventById() to map an
  /// event id to its record.
  const std::vector<audit::SystemEvent>& events() const { return events_; }

  /// The event with id `id`. Event ids are stable across retention:
  /// eviction removes an id-prefix, so surviving ids stay a dense range
  /// and the lookup is O(1). Precondition: `id` is the id of a stored,
  /// non-evicted event.
  const audit::SystemEvent& EventById(audit::EventId id) const {
    return events_[id - 1 - evicted_through_];
  }

  /// Newest event id handed out (0 before any event is stored). Ids are
  /// never reused, including after retention.
  audit::EventId last_event_id() const {
    return static_cast<audit::EventId>(next_event_id_ - 1);
  }

  /// Events removed by retention; ids 1..evicted_through are gone.
  audit::EventId evicted_through() const { return evicted_through_; }

  /// Newest end_time over the stored events (0 when none): the "now" that
  /// TBQL `last N` windows resolve against. O(1); kept on append and
  /// recomputed after eviction and snapshot restore.
  audit::Timestamp newest_end_time() const { return newest_end_time_; }

  /// Graph node id for an entity id (kInvalidNode if absent).
  graphdb::NodeId NodeForEntity(audit::EntityId id) const;

  const ReductionStats& reduction_stats() const { return reduction_stats_; }

  size_t entity_count() const { return entities_.size(); }
  size_t event_count() const { return events_.size(); }

  /// Detach a copy of the store's logical state for a snapshot. Mutation-
  /// free; call under the same exclusion as queries (the write gate).
  StoreSnapshotState ExportSnapshotState() const;

  /// Reset this store to `state`, rebuilding both backends (tables,
  /// indexes, graph, entity→node map) by re-inserting entities and events
  /// in id order — the same order the original inserts used, so node and
  /// edge ids come out identical. Precondition: the store is fresh (no
  /// Load/Append yet).
  Status RestoreFrom(StoreSnapshotState state);

  /// Retention: drop every stored event with id <= `watermark` and rebuild
  /// the backends in place from the survivors. Event ids are NOT
  /// renumbered (EventById stays valid for survivors); the reduction
  /// ratio's output side keeps counting evicted events, so ratios over the
  /// surviving window are unchanged. The carry-over window and the entity
  /// table are untouched. Returns the number of events evicted.
  Result<size_t> EvictEventsThrough(audit::EventId watermark);

 private:
  Status InitSchemas();
  Status AppendEntity(const audit::SystemEntity& e, AppendStats* stats);
  Status AppendEvent(const audit::SystemEvent& ev, AppendStats* stats);
  Status StoreEvents(std::vector<audit::SystemEvent> events,
                     AppendStats* stats);
  /// Insert one entity / event into both backends (relational row + graph
  /// node/edge). Shared by first-time appends and RestoreFrom/eviction
  /// rebuilds; does not touch entities_/events_ bookkeeping.
  Status InsertEntityRows(const audit::SystemEntity& e);
  Status InsertEventRows(const audit::SystemEvent& ev);
  /// Tear down and re-create both backends from entities_/events_ (same
  /// insertion order → same node/edge ids), preserving configured query
  /// options, and recompute newest_end_time_.
  Status RebuildBackends();

  StoreOptions options_;
  sql::Database relational_;
  graphdb::GraphDatabase graph_;
  std::vector<audit::SystemEntity> entities_;
  std::vector<audit::SystemEvent> events_;
  std::unordered_map<audit::EntityId, graphdb::NodeId> entity_to_node_;
  // Carry-over window: reduced events still inside the merge window at the
  // last batch's end, withheld from storage so the next batch can merge
  // into them. Bounded by options_.max_carry_events.
  std::vector<audit::SystemEvent> carry_;
  ReductionStats reduction_stats_;
  /// Next event id to assign. Monotonic forever — under retention it
  /// outruns events_.size(), so it is a counter, not a derived size.
  uint64_t next_event_id_ = 1;
  /// Retention watermark: events with id <= this were evicted. events_[0]
  /// (when present) has id evicted_through_ + 1.
  audit::EventId evicted_through_ = 0;
  /// Max end_time over events_ (see newest_end_time()).
  audit::Timestamp newest_end_time_ = 0;
  bool loaded_ = false;        // Load() was called (it remains call-once)
  bool schema_ready_ = false;  // tables + indexes exist
  // Entity prefix of the shared interning store already consumed by
  // Append; the next Append ingests only the entities that follow. (Events
  // carry no such counter: each batch passes only its new events.)
  size_t raw_entities_consumed_ = 0;
};

}  // namespace raptor::storage
