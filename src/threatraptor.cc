#include "threatraptor.h"

#include <algorithm>

#include "audit/jsonl.h"
#include "huntlib/feed.h"
#include "persist/codec.h"

namespace raptor {

Result<std::unique_ptr<ThreatRaptor>> ThreatRaptor::Open(
    const persist::DurabilityOptions& durability,
    ThreatRaptorOptions options) {
  options.service.durability = durability;
  auto tr = std::make_unique<ThreatRaptor>(std::move(options));
  if (durability.data_dir.empty()) return tr;  // plain in-memory facade
  RAPTOR_ASSIGN_OR_RETURN(
      tr->checkpointer_,
      persist::Checkpointer::Open(tr->options_.service.durability));
  tr->replaying_ = true;
  Status recovered = tr->RecoverState();
  tr->replaying_ = false;
  if (!recovered.ok()) return recovered;
  return tr;
}

Status ThreatRaptor::RecoverState() {
  if (checkpointer_->has_snapshot()) {
    persist::SystemSnapshot snap = checkpointer_->TakeRestoredSnapshot();
    // Mirror the store's entity table into the accumulator's interner:
    // entities are id-ordered, so re-interning reassigns the same ids and
    // later batches keep extending the same table.
    for (const audit::SystemEntity& e : snap.store.entities) {
      accum_.entities.Intern(e);
    }
    store_ = std::make_unique<storage::AuditStore>(options_.store);
    RAPTOR_RETURN_NOT_OK(store_->RestoreFrom(std::move(snap.store)));
    epoch_marks_ = std::move(snap.epoch_marks);
    {
      std::lock_guard<std::mutex> lock(offsets_mu_);
      for (auto& [stream, offset] : snap.stream_offsets) {
        stream_offsets_[stream] = offset;
      }
    }
    last_checkpoint_epoch_ = snap.epoch;
    // The service resumes the epoch count at the snapshot's epoch and
    // holds the standing seen-sets until their queries are resubmitted.
    options_.service.initial_epoch = snap.epoch;
    Service().SeedStanding(std::move(snap.standing));
  }
  return checkpointer_->ReplayTail(
      [&](const persist::WalRecord& record) {
        return ReplayWalRecord(record);
      });
}

Status ThreatRaptor::ReplayWalRecord(const persist::WalRecord& record) {
  switch (record.type) {
    case persist::WalRecordType::kSyscallBatch: {
      RAPTOR_ASSIGN_OR_RETURN(std::vector<audit::SyscallRecord> records,
                              audit::ParseJsonlRecords(record.payload));
      return IngestSyscalls(records, record.stream, record.stream_offset);
    }
    case persist::WalRecordType::kParsedBatch: {
      RAPTOR_ASSIGN_OR_RETURN(audit::ParsedLog log,
                              persist::DecodeParsedLog(record.payload));
      return IngestParsedLog(log);
    }
    case persist::WalRecordType::kFlush:
      return FlushIngest();
  }
  return Status::Internal("unknown WAL record type");
}

Status ThreatRaptor::IngestSyscalls(
    const std::vector<audit::SyscallRecord>& records) {
  return IngestSyscalls(records, /*stream=*/{}, /*offset_after=*/0);
}

Status ThreatRaptor::IngestSyscalls(
    const std::vector<audit::SyscallRecord>& records, std::string_view stream,
    uint64_t offset_after) {
  RAPTOR_RETURN_NOT_OK(parser_.Parse(records, &accum_));
  std::string payload;
  if (ShouldLog()) payload = audit::RecordsToJsonl(records);
  return SyncStore(persist::WalRecordType::kSyscallBatch, std::move(payload),
                   stream, offset_after);
}

Status ThreatRaptor::IngestParsedLog(const audit::ParsedLog& log) {
  // Validate first so rejection leaves no trace in the accumulator (and
  // nothing unreplayable in the WAL).
  for (const audit::SystemEvent& ev : log.events) {
    if (ev.subject < 1 || ev.subject > log.entities.size() ||
        ev.object < 1 || ev.object > log.entities.size()) {
      return Status::InvalidArgument(
          "parsed log event references an unknown entity id");
    }
  }
  std::string payload;
  if (ShouldLog()) persist::EncodeParsedLog(log, &payload);
  std::unordered_map<audit::EntityId, audit::EntityId> remap;
  remap.reserve(log.entities.size());
  for (const audit::SystemEntity& e : log.entities.entities()) {
    remap.emplace(e.id, accum_.entities.Intern(e));
  }
  for (const audit::SystemEvent& ev : log.events) {
    audit::SystemEvent copy = ev;
    copy.subject = remap.at(ev.subject);
    copy.object = remap.at(ev.object);
    copy.id = static_cast<audit::EventId>(accum_.events.size()) + 1;
    accum_.events.push_back(std::move(copy));
  }
  return SyncStore(persist::WalRecordType::kParsedBatch, std::move(payload),
                   /*stream=*/{}, /*offset_after=*/0);
}

Status ThreatRaptor::FlushIngest() {
  if (store_ == nullptr || store_->carried_event_count() == 0) {
    return Status::OK();
  }
  if (closed_) return Status::Unavailable("ThreatRaptor is closed");
  persist::WalRecord record;
  record.type = persist::WalRecordType::kFlush;
  auto epoch = Service().Ingest(
      [&](service::IngestReport* report) {
        storage::AppendStats stats;
        RAPTOR_RETURN_NOT_OK(store_->Flush(&stats));
        report->touched_entities = std::move(stats.touched_entities);
        return Status::OK();
      },
      ShouldLog() ? &record : nullptr);
  if (!epoch.ok()) return epoch.status();
  return NoteEpochApplied(epoch.value());
}

Status ThreatRaptor::SyncStore(persist::WalRecordType type,
                               std::string payload, std::string_view stream,
                               uint64_t offset_after) {
  if (closed_) return Status::Unavailable("ThreatRaptor is closed");
  if (store_ == nullptr) {
    store_ = std::make_unique<storage::AuditStore>(options_.store);
  }
  persist::WalRecord record;
  persist::WalRecord* wal_record = nullptr;
  if (ShouldLog()) {
    record.type = type;
    record.stream = std::string(stream);
    record.stream_offset = offset_after;
    record.payload = std::move(payload);
    wal_record = &record;
  }
  auto epoch = Service().Ingest(
      [&](service::IngestReport* report) {
        storage::AppendStats stats;
        RAPTOR_RETURN_NOT_OK(store_->Append(accum_, &stats));
        report->touched_entities = std::move(stats.touched_entities);
        // The store consumed this batch's events; keep only the entity
        // table (shared interning across batches) so long-running sessions
        // do not retain a second full copy of every raw event.
        accum_.events.clear();
        // The stream's consumed-offset advances atomically with the batch
        // (same gate, same WAL record), so snapshot + replay always agree
        // with it — a restarted tail never skips or repeats a batch.
        if (!stream.empty()) {
          std::lock_guard<std::mutex> lock(offsets_mu_);
          stream_offsets_[std::string(stream)] = offset_after;
        }
        return Status::OK();
      },
      wal_record);
  if (!epoch.ok()) return epoch.status();
  return NoteEpochApplied(epoch.value());
}

Status ThreatRaptor::NoteEpochApplied(uint64_t epoch) {
  if (checkpointer_ == nullptr) return Status::OK();
  const persist::DurabilityOptions& durability = options_.service.durability;
  if (durability.retention_horizon_epochs > 0) {
    epoch_marks_.emplace_back(epoch, store_->last_event_id());
  }
  if (replaying_ || durability.snapshot_interval_epochs == 0) {
    return Status::OK();
  }
  if (epoch - last_checkpoint_epoch_ >= durability.snapshot_interval_epochs) {
    // The ingest itself succeeded; a checkpoint failure here surfaces as
    // this call's status so the caller learns persistence is in trouble.
    return Checkpoint();
  }
  return Status::OK();
}

Status ThreatRaptor::Checkpoint() {
  if (checkpointer_ == nullptr) {
    return Status::Unsupported(
        "durability is off (open with a data_dir to checkpoint)");
  }
  if (closed_) return Status::Unavailable("ThreatRaptor is closed");
  if (store_ == nullptr) {
    // Nothing ingested yet: create the (empty) store so the snapshot and
    // any standing seen-sets still persist.
    store_ = std::make_unique<storage::AuditStore>(options_.store);
  }
  const persist::DurabilityOptions& durability = options_.service.durability;
  return Service().Exclusive([&] {
    const uint64_t now_epoch = Service().epoch();
    // Retention first, so the snapshot holds exactly the surviving
    // window: evict every epoch older than the horizon by translating it
    // into an event-id watermark. Event ids stay stable; the reduction
    // ratio keeps counting evicted output (see AuditStore::
    // EvictEventsThrough), and standing seen-sets are untouched — an
    // evicted row was already delivered, and set semantics mean it is
    // never re-delivered anyway.
    if (durability.retention_horizon_epochs > 0 &&
        now_epoch > durability.retention_horizon_epochs) {
      const uint64_t cutoff = now_epoch - durability.retention_horizon_epochs;
      uint64_t watermark = 0;
      size_t expired_marks = 0;
      for (const auto& [epoch, event_id] : epoch_marks_) {
        if (epoch > cutoff) break;
        watermark = event_id;
        ++expired_marks;
      }
      if (watermark > store_->evicted_through()) {
        auto evicted = store_->EvictEventsThrough(watermark);
        if (!evicted.ok()) return evicted.status();
        events_evicted_ += evicted.value();
      }
      epochs_evicted_ += expired_marks;
      epoch_marks_.erase(epoch_marks_.begin(),
                         epoch_marks_.begin() + expired_marks);
    }

    persist::SystemSnapshot snap;
    snap.epoch = now_epoch;
    snap.store = store_->ExportSnapshotState();
    snap.epoch_marks = epoch_marks_;
    snap.standing = Service().ExportStandingSeen();
    {
      std::lock_guard<std::mutex> lock(offsets_mu_);
      snap.stream_offsets.assign(stream_offsets_.begin(),
                                 stream_offsets_.end());
    }
    RAPTOR_RETURN_NOT_OK(checkpointer_->WriteCheckpoint(snap));
    last_checkpoint_epoch_ = now_epoch;
    return Status::OK();
  });
}

Status ThreatRaptor::Close() {
  if (checkpointer_ == nullptr || closed_) return Status::OK();
  Status final_checkpoint = Checkpoint();
  closed_ = true;
  {
    std::lock_guard<std::mutex> lock(service_mu_);
    if (service_ != nullptr) service_->AttachWal(nullptr);
  }
  checkpointer_.reset();
  return final_checkpoint;
}

persist::DurabilityStats ThreatRaptor::durability_stats() const {
  persist::DurabilityStats out;
  if (checkpointer_ != nullptr) out = checkpointer_->stats();
  out.events_evicted = events_evicted_;
  out.epochs_evicted = epochs_evicted_;
  return out;
}

std::optional<uint64_t> ThreatRaptor::restored_stream_offset(
    std::string_view stream) const {
  std::lock_guard<std::mutex> lock(offsets_mu_);
  auto it = stream_offsets_.find(stream);
  if (it == stream_offsets_.end()) return std::nullopt;
  return it->second;
}

void ThreatRaptor::CollectMetrics(obs::MetricsRegistry* registry) const {
  {
    std::lock_guard<std::mutex> lock(service_mu_);
    if (service_ != nullptr) service_->CollectMetrics(registry);
  }
  registry->Gauge("raptor_durable",
                  "1 when a data directory is attached (Open, not Closed)",
                  durable() ? 1.0 : 0.0);
  persist::DurabilityStats d = durability_stats();
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  registry->Counter("raptor_wal_bytes_total",
                    "Framed WAL bytes appended this run", count(d.wal_bytes));
  registry->Counter("raptor_wal_segments_total",
                    "WAL segments created this run", count(d.wal_segments));
  registry->Counter("raptor_checkpoints_total",
                    "Sharded snapshots written this run",
                    count(d.checkpoints));
  registry->Gauge("raptor_checkpoint_last_bytes",
                  "Size of the last snapshot written",
                  count(d.snapshot_bytes));
  registry->Gauge("raptor_recovery_restored",
                  "1 when Open loaded a snapshot", d.restored ? 1.0 : 0.0);
  registry->Gauge("raptor_recovery_replayed_records",
                  "WAL records replayed after the snapshot restore",
                  count(d.replayed_records));
  registry->Counter("raptor_retention_events_evicted_total",
                    "Events removed by the retention horizon",
                    count(d.events_evicted));
  registry->Counter("raptor_retention_epochs_evicted_total",
                    "Epochs aged out by the retention horizon",
                    count(d.epochs_evicted));
}

std::string ThreatRaptor::ExportMetrics(obs::MetricsFormat format) const {
  obs::MetricsRegistry registry;
  CollectMetrics(&registry);
  return registry.Render(format);
}

Result<service::HuntResponse> ThreatRaptor::HuntTechnique(
    std::string_view technique_id,
    const std::map<std::string, std::string>& params) const {
  RAPTOR_RETURN_NOT_OK(RequireStore());
  huntlib::HuntLibrary library;
  auto spec = library.FromTechnique(technique_id, params);
  if (!spec.ok()) return spec.status();
  service::HuntRequest request = std::move(spec).value().request;
  // One-shot catalog hunts honor the facade's execution options; the
  // dialect and text come from the technique template.
  if (request.dialect == service::QueryDialect::kTbql) {
    request.exec = options_.execution;
  }
  return Service().Run(std::move(request));
}

}  // namespace raptor
