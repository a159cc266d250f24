#include "storage/store.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace raptor::storage {

using audit::EntityType;
using audit::SystemEntity;
using audit::SystemEvent;
using sql::ColumnType;
using sql::Row;
using sql::Schema;
using sql::Value;

Status AuditStore::Load(const audit::ParsedLog& log) {
  if (loaded_) {
    return Status::InvalidArgument("AuditStore::Load called twice");
  }
  loaded_ = true;
  return Append(log);
}

Status AuditStore::Append(const audit::ParsedLog& log, AppendStats* stats) {
  const std::vector<SystemEntity>& all_entities = log.entities.entities();
  if (all_entities.size() < raw_entities_consumed_) {
    return Status::InvalidArgument(
        "AuditStore::Append requires an entity table extending the batches "
        "already ingested");
  }
  if (!schema_ready_) {
    RAPTOR_RETURN_NOT_OK(InitSchemas());
    schema_ready_ = true;
  }

  for (size_t i = raw_entities_consumed_; i < all_entities.size(); ++i) {
    RAPTOR_RETURN_NOT_OK(AppendEntity(all_entities[i], stats));
  }
  raw_entities_consumed_ = all_entities.size();
  reduction_stats_.input_events += log.events.size();

  bool carry = options_.enable_reduction && options_.carry_over_window;
  // The batch to reduce: with the carry-over window the previous batch's
  // withheld tail is folded in first (re-sorted by start_time, since the
  // new batch may interleave with it), so duplicates spanning the boundary
  // merge exactly as in a single load.
  std::vector<SystemEvent> batch;
  if (carry && !carry_.empty()) {
    batch = std::move(carry_);
    carry_.clear();
    batch.insert(batch.end(), log.events.begin(), log.events.end());
    std::stable_sort(batch.begin(), batch.end(),
                     [](const SystemEvent& a, const SystemEvent& b) {
                       return a.start_time < b.start_time;
                     });
  } else {
    batch = log.events;
  }

  std::vector<SystemEvent> reduced;
  if (options_.enable_reduction) {
    reduced = ReduceEvents(batch, options_.reduction);
  } else {
    reduced = std::move(batch);
  }

  if (carry && !reduced.empty()) {
    // Withhold the tail still inside the merge window: an event whose
    // end_time is within merge_threshold_us of the stream head could still
    // absorb a duplicate from the next (later-timed) batch.
    audit::Timestamp head = 0;
    for (const SystemEvent& ev : reduced) {
      head = std::max(head, ev.end_time);
    }
    const audit::Timestamp cutoff = head - options_.reduction.merge_threshold_us;
    std::vector<SystemEvent> store_now;
    store_now.reserve(reduced.size());
    for (SystemEvent& ev : reduced) {
      (ev.end_time >= cutoff ? carry_ : store_now).push_back(std::move(ev));
    }
    // Bound the window: overflow stores the oldest withheld events now
    // (they only lose their chance at a cross-batch merge).
    if (carry_.size() > options_.max_carry_events) {
      size_t excess = carry_.size() - options_.max_carry_events;
      store_now.insert(store_now.end(),
                       std::make_move_iterator(carry_.begin()),
                       std::make_move_iterator(carry_.begin() + excess));
      carry_.erase(carry_.begin(), carry_.begin() + excess);
      std::stable_sort(store_now.begin(), store_now.end(),
                       [](const SystemEvent& a, const SystemEvent& b) {
                         return a.start_time < b.start_time;
                       });
    }
    reduced = std::move(store_now);
  }
  if (stats != nullptr) stats->carried_events = carry_.size();

  return StoreEvents(std::move(reduced), stats);
}

Status AuditStore::Flush(AppendStats* stats) {
  if (carry_.empty()) return Status::OK();
  std::vector<SystemEvent> tail = std::move(carry_);
  carry_.clear();
  if (stats != nullptr) stats->carried_events = 0;
  return StoreEvents(std::move(tail), stats);
}

/// Renumber (ids are assigned in storage order, densely, and are never
/// reused — retention evicts an id-prefix, so EventById stays O(1)) and
/// append to both backends, keeping the reduction ratio's output side in
/// sync.
Status AuditStore::StoreEvents(std::vector<SystemEvent> events,
                               AppendStats* stats) {
  for (SystemEvent& ev : events) {
    ev.id = static_cast<audit::EventId>(next_event_id_++);
    RAPTOR_RETURN_NOT_OK(AppendEvent(ev, stats));
  }
  // Withheld events count as reduction output: they are already reduced,
  // just not yet visible (Flush moves them without re-reducing). Evicted
  // events stay counted (next_event_id_ is monotonic), so retention does
  // not skew the ratio over the surviving window.
  reduction_stats_.output_events =
      static_cast<size_t>(next_event_id_ - 1) + carry_.size();
  return Status::OK();
}

Status AuditStore::InitSchemas() {
  Schema entity_schema({{"id", ColumnType::kInt64},
                        {"type", ColumnType::kText},
                        {"name", ColumnType::kText},
                        {"path", ColumnType::kText},
                        {"pid", ColumnType::kInt64},
                        {"exename", ColumnType::kText},
                        {"cmd", ColumnType::kText},
                        {"srcip", ColumnType::kText},
                        {"srcport", ColumnType::kInt64},
                        {"dstip", ColumnType::kText},
                        {"dstport", ColumnType::kInt64},
                        {"protocol", ColumnType::kText},
                        {"user", ColumnType::kText},
                        {"grp", ColumnType::kText}});
  RAPTOR_RETURN_NOT_OK(relational_.CreateTable("entities", entity_schema));
  Schema event_schema({{"id", ColumnType::kInt64},
                       {"subject", ColumnType::kInt64},
                       {"object", ColumnType::kInt64},
                       {"op", ColumnType::kText},
                       {"object_type", ColumnType::kText},
                       {"start_time", ColumnType::kInt64},
                       {"end_time", ColumnType::kInt64},
                       {"amount", ColumnType::kInt64},
                       {"failure_code", ColumnType::kInt64}});
  RAPTOR_RETURN_NOT_OK(relational_.CreateTable("events", event_schema));

  // Indexes on the key attributes (Sec III-B). Created before the first
  // row lands: inserts maintain every existing index, so batch appends
  // stay indexed without a rebuild.
  RAPTOR_RETURN_NOT_OK(relational_.CreateIndex("entities", "id"));
  RAPTOR_RETURN_NOT_OK(relational_.CreateIndex("entities", "name"));
  RAPTOR_RETURN_NOT_OK(relational_.CreateIndex("entities", "exename"));
  RAPTOR_RETURN_NOT_OK(relational_.CreateIndex("entities", "dstip"));
  RAPTOR_RETURN_NOT_OK(relational_.CreateIndex("entities", "type"));
  RAPTOR_RETURN_NOT_OK(relational_.CreateIndex("events", "subject"));
  RAPTOR_RETURN_NOT_OK(relational_.CreateIndex("events", "object"));
  RAPTOR_RETURN_NOT_OK(relational_.CreateIndex("events", "op"));

  graphdb::PropertyGraph& g = graph_.graph();
  g.CreateNodeIndex("file", "name");
  g.CreateNodeIndex("proc", "exename");
  g.CreateNodeIndex("ip", "dstip");
  // Entity-id indexes let propagated `id IN [...]` constraints seed pattern
  // matches with index seeks instead of label scans.
  g.CreateNodeIndex("file", "id");
  g.CreateNodeIndex("proc", "id");
  g.CreateNodeIndex("ip", "id");
  return Status::OK();
}

Status AuditStore::AppendEntity(const SystemEntity& e, AppendStats* stats) {
  if (stats != nullptr) {
    ++stats->appended_entities;
    stats->touched_entities.push_back(e.id);
  }
  RAPTOR_RETURN_NOT_OK(InsertEntityRows(e));
  entities_.push_back(e);
  return Status::OK();
}

Status AuditStore::InsertEntityRows(const SystemEntity& e) {
  Row row;
  row.reserve(14);
  row.emplace_back(static_cast<int64_t>(e.id));
  row.emplace_back(audit::EntityTypeName(e.type));
  row.emplace_back(e.name);
  row.emplace_back(e.path);
  row.emplace_back(static_cast<int64_t>(e.pid));
  row.emplace_back(e.exename);
  row.emplace_back(e.cmd);
  row.emplace_back(e.srcip);
  row.emplace_back(static_cast<int64_t>(e.srcport));
  row.emplace_back(e.dstip);
  row.emplace_back(static_cast<int64_t>(e.dstport));
  row.emplace_back(e.protocol);
  row.emplace_back(e.user);
  row.emplace_back(e.group);
  RAPTOR_RETURN_NOT_OK(relational_.Insert("entities", std::move(row)));

  graphdb::PropertyMap props;
  props.emplace("id", Value(static_cast<int64_t>(e.id)));
  switch (e.type) {
    case EntityType::kFile:
      props.emplace("name", Value(e.name));
      props.emplace("path", Value(e.path));
      break;
    case EntityType::kProcess:
      props.emplace("exename", Value(e.exename));
      props.emplace("pid", Value(static_cast<int64_t>(e.pid)));
      if (!e.cmd.empty()) props.emplace("cmd", Value(e.cmd));
      break;
    case EntityType::kNetwork:
      props.emplace("srcip", Value(e.srcip));
      props.emplace("srcport", Value(static_cast<int64_t>(e.srcport)));
      props.emplace("dstip", Value(e.dstip));
      props.emplace("dstport", Value(static_cast<int64_t>(e.dstport)));
      props.emplace("protocol", Value(e.protocol));
      break;
  }
  if (!e.user.empty()) props.emplace("user", Value(e.user));
  graphdb::NodeId node =
      graph_.graph().AddNode(audit::EntityTypeName(e.type), std::move(props));
  entity_to_node_.emplace(e.id, node);
  return Status::OK();
}

Status AuditStore::AppendEvent(const SystemEvent& ev, AppendStats* stats) {
  if (entity_to_node_.find(ev.subject) == entity_to_node_.end() ||
      entity_to_node_.find(ev.object) == entity_to_node_.end()) {
    return Status::InvalidArgument(
        "event references an entity absent from the store");
  }
  if (stats != nullptr) {
    ++stats->appended_events;
    stats->touched_entities.push_back(ev.subject);
    stats->touched_entities.push_back(ev.object);
  }
  RAPTOR_RETURN_NOT_OK(InsertEventRows(ev));
  events_.push_back(ev);
  newest_end_time_ = std::max(newest_end_time_, ev.end_time);
  return Status::OK();
}

Status AuditStore::InsertEventRows(const SystemEvent& ev) {
  auto sit = entity_to_node_.find(ev.subject);
  auto oit = entity_to_node_.find(ev.object);
  if (sit == entity_to_node_.end() || oit == entity_to_node_.end()) {
    return Status::InvalidArgument(
        "event references an entity absent from the store");
  }
  Row row;
  row.reserve(9);
  row.emplace_back(static_cast<int64_t>(ev.id));
  row.emplace_back(static_cast<int64_t>(ev.subject));
  row.emplace_back(static_cast<int64_t>(ev.object));
  row.emplace_back(audit::EventOpName(ev.op));
  row.emplace_back(audit::EntityTypeName(ev.object_type));
  row.emplace_back(static_cast<int64_t>(ev.start_time));
  row.emplace_back(static_cast<int64_t>(ev.end_time));
  row.emplace_back(static_cast<int64_t>(ev.amount));
  row.emplace_back(static_cast<int64_t>(ev.failure_code));
  RAPTOR_RETURN_NOT_OK(relational_.Insert("events", std::move(row)));

  graphdb::PropertyMap props;
  props.emplace("id", Value(static_cast<int64_t>(ev.id)));
  // The operation doubles as the relationship type and as a property so
  // Cypher WHERE clauses can express complex op expressions.
  props.emplace("op", Value(audit::EventOpName(ev.op)));
  props.emplace("start_time", Value(static_cast<int64_t>(ev.start_time)));
  props.emplace("end_time", Value(static_cast<int64_t>(ev.end_time)));
  props.emplace("amount", Value(static_cast<int64_t>(ev.amount)));
  graph_.graph().AddEdge(sit->second, oit->second, audit::EventOpName(ev.op),
                         std::move(props));
  return Status::OK();
}

graphdb::NodeId AuditStore::NodeForEntity(audit::EntityId id) const {
  auto it = entity_to_node_.find(id);
  return it == entity_to_node_.end() ? graphdb::kInvalidNode : it->second;
}

StoreSnapshotState AuditStore::ExportSnapshotState() const {
  StoreSnapshotState state;
  state.entities = entities_;
  state.events = events_;
  state.carry = carry_;
  state.next_event_id = next_event_id_;
  state.evicted_through = evicted_through_;
  state.raw_entities_consumed = raw_entities_consumed_;
  state.reduction_input_events = reduction_stats_.input_events;
  return state;
}

Status AuditStore::RestoreFrom(StoreSnapshotState state) {
  if (loaded_ || schema_ready_ || !entities_.empty()) {
    return Status::InvalidArgument(
        "AuditStore::RestoreFrom requires a fresh store");
  }
  if (state.events.size() + state.evicted_through !=
      state.next_event_id - 1) {
    return Status::InvalidArgument(
        "snapshot state event ids are not a dense range");
  }
  entities_ = std::move(state.entities);
  events_ = std::move(state.events);
  carry_ = std::move(state.carry);
  next_event_id_ = state.next_event_id;
  evicted_through_ = state.evicted_through;
  raw_entities_consumed_ = state.raw_entities_consumed;
  reduction_stats_.input_events =
      static_cast<size_t>(state.reduction_input_events);
  reduction_stats_.output_events =
      static_cast<size_t>(next_event_id_ - 1) + carry_.size();
  loaded_ = true;
  return RebuildBackends();
}

Result<size_t> AuditStore::EvictEventsThrough(audit::EventId watermark) {
  if (watermark <= evicted_through_) return size_t{0};
  if (watermark > next_event_id_ - 1) {
    return Status::InvalidArgument(
        "retention watermark beyond the newest stored event");
  }
  const size_t drop = static_cast<size_t>(watermark - evicted_through_);
  events_.erase(events_.begin(), events_.begin() + drop);
  evicted_through_ = watermark;
  RAPTOR_RETURN_NOT_OK(RebuildBackends());
  return drop;
}

Status AuditStore::RebuildBackends() {
  // Keep the configured query options across the teardown; everything
  // else (tables, indexes, graph, node ids) is reproduced by re-running
  // the inserts in id order.
  sql::SelectOptions relational_opts = relational_.options();
  graphdb::MatchOptions graph_opts = graph_.options();
  relational_ = sql::Database();
  graph_ = graphdb::GraphDatabase();
  relational_.options() = relational_opts;
  graph_.options() = graph_opts;
  entity_to_node_.clear();
  schema_ready_ = false;
  RAPTOR_RETURN_NOT_OK(InitSchemas());
  schema_ready_ = true;
  for (const SystemEntity& e : entities_) {
    RAPTOR_RETURN_NOT_OK(InsertEntityRows(e));
  }
  newest_end_time_ = 0;
  for (const SystemEvent& ev : events_) {
    RAPTOR_RETURN_NOT_OK(InsertEventRows(ev));
    newest_end_time_ = std::max(newest_end_time_, ev.end_time);
  }
  return Status::OK();
}

}  // namespace raptor::storage
