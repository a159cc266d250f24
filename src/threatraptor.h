// ThreatRaptor — public umbrella API.
//
// Reproduction of "Enabling Efficient Cyber Threat Hunting With Cyber
// Threat Intelligence" (ICDE 2021). The facade wires the full pipeline of
// Fig. 1: audit log ingestion (parsing + data reduction + dual-backend
// storage), OSCTI threat behavior extraction, TBQL query synthesis, and
// query execution in exact or fuzzy search mode.
//
// Quickstart:
//
//   raptor::ThreatRaptor tr;
//   tr.IngestSyscalls(records);                 // or IngestParsedLog
//   auto hunt = tr.HuntWithOsctiText(report);   // extract+synthesize+run
//   std::cout << hunt.value().report.results.ToString();
//
// or proactively, without OSCTI:
//
//   auto r = tr.Hunt("proc p[\"%curl%\"] connect ip i return p, i");
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "audit/parser.h"
#include "audit/simulator.h"
#include "common/status.h"
#include "engine/executor.h"
#include "engine/poirot.h"
#include "extraction/extractor.h"
#include "obs/metrics.h"
#include "persist/checkpointer.h"
#include "service/hunt_service.h"
#include "storage/store.h"
#include "synthesis/synthesizer.h"
#include "tbql/analyzer.h"
#include "tbql/parser.h"

namespace raptor {

struct ThreatRaptorOptions {
  storage::StoreOptions store;
  extraction::ExtractionOptions extraction;
  synthesis::SynthesisOptions synthesis;
  service::HuntServiceOptions service;
};

/// Result of an end-to-end OSCTI-driven hunt.
struct HuntOutcome {
  extraction::ExtractionResult extraction;  // behavior graph + timings
  synthesis::SynthesisResult synthesis;     // TBQL query + timing
  engine::ExecReport report;                // matched records
};

class ThreatRaptor {
 public:
  explicit ThreatRaptor(ThreatRaptorOptions options = {})
      : options_(std::move(options)) {}

  /// Open a durable facade: recover the data directory named by
  /// `durability` (load the latest snapshot, replay the WAL tail), and
  /// route every later mutation through the write-ahead log. Restores the
  /// store, the reduction carry-over window, standing-hunt seen-sets
  /// (consumed by the next SubmitStanding of the same query — see
  /// HuntService::SeedStanding), the retention watermarks, and tailed
  /// streams' byte offsets (restored_stream_offset). An empty
  /// `durability.data_dir` returns a plain in-memory facade.
  static Result<std::unique_ptr<ThreatRaptor>> Open(
      const persist::DurabilityOptions& durability,
      ThreatRaptorOptions options = {});

  /// Cut a snapshot now: under the service's exclusive gate, apply the
  /// retention policy (if a horizon is configured), write a sharded
  /// snapshot of the full system state, rotate the WAL and prune dead
  /// segments. Unsupported on a non-durable facade.
  Status Checkpoint();

  /// Final checkpoint + detach persistence. Idempotent; the facade stays
  /// queryable but further mutations are refused.
  Status Close();

  /// This facade persists through a data directory (came from Open with a
  /// non-empty data_dir, and Close has not run).
  bool durable() const { return checkpointer_ != nullptr; }

  /// WAL / snapshot / recovery / retention counters (zeroed struct when
  /// not durable).
  persist::DurabilityStats durability_stats() const;

  /// Byte offset at which `stream` (a name passed to the stream-tagged
  /// IngestSyscalls overload, e.g. the tailed file's path) should resume,
  /// as recovered by Open; nullopt if the stream is unknown.
  std::optional<uint64_t> restored_stream_offset(
      std::string_view stream) const;

  /// Parse raw syscall records and load them into both storage backends.
  /// May be called repeatedly: later batches append incrementally (entity
  /// interning is shared across batches, event ids continue). Batches
  /// apply through the hunt service's epoch gate, so ingestion interleaves
  /// safely with in-flight hunts (the mutation waits for running hunts to
  /// drain instead of being refused). Concurrent ingest calls serialize on
  /// the gate, but each call's parse must not race another — feed one
  /// stream per facade. On a durable facade the raw batch is WAL-logged
  /// before it applies.
  Status IngestSyscalls(const std::vector<audit::SyscallRecord>& records);

  /// Stream-tagged variant: additionally records that `records` ends at
  /// byte `offset_after` of `stream`, atomically with the batch itself
  /// (the offset rides in the WAL record and in snapshots), so a restart
  /// resumes the tail exactly after the last persisted batch.
  Status IngestSyscalls(const std::vector<audit::SyscallRecord>& records,
                        std::string_view stream, uint64_t offset_after);

  /// Load an already-parsed log. May be called repeatedly: each batch is
  /// remapped into the accumulated entity store (the incoming log's entity
  /// ids are batch-local) and appended. A malformed batch (an event
  /// referencing an entity id absent from the batch's own entity table) is
  /// rejected before anything is interned or appended (and before it is
  /// WAL-logged).
  Status IngestParsedLog(const audit::ParsedLog& log);

  /// Store the cross-batch reduction window's withheld tail (see
  /// storage::StoreOptions::carry_over_window). Call at end of stream —
  /// queries and standing hunts only see flushed events. Applies through
  /// the epoch gate like any other mutation; a no-op when nothing is
  /// withheld or before ingestion.
  Status FlushIngest();

  /// Extract a threat behavior graph from OSCTI text (Algorithm 1).
  Result<extraction::ExtractionResult> ExtractBehaviorGraph(
      std::string_view oscti_text) const {
    extraction::ThreatBehaviorExtractor extractor(options_.extraction);
    return extractor.Extract(oscti_text);
  }

  /// Synthesize a TBQL query from a threat behavior graph (Sec III-E).
  Result<synthesis::SynthesisResult> SynthesizeQuery(
      const extraction::ThreatBehaviorGraph& graph) const {
    synthesis::QuerySynthesizer synthesizer(options_.synthesis);
    return synthesizer.Synthesize(graph);
  }

  /// Execute a TBQL query text in exact search mode. A thin synchronous
  /// wrapper over the hunt service: Submit + Wait, so it shares admission
  /// and scheduling with asynchronous clients.
  Result<engine::ExecReport> Hunt(std::string_view tbql_text) const {
    RAPTOR_RETURN_NOT_OK(RequireStore());
    service::HuntRequest request;
    request.text = std::string(tbql_text);
    request.dialect = service::QueryDialect::kTbql;
    auto response = Service().Run(std::move(request));
    if (!response.ok()) return response.status();
    return std::move(response).value().report;
  }

  /// Execute a parsed TBQL query in exact search mode (directly on the
  /// executor — parsed queries skip the service's text front door but run
  /// on the same DAG-scheduled engine).
  Result<engine::ExecReport> Hunt(const tbql::TbqlQuery& query) const {
    RAPTOR_RETURN_NOT_OK(RequireStore());
    engine::TbqlExecutor executor(store_.get());
    return executor.Execute(query);
  }

  /// The asynchronous hunt service over this store (created on first use;
  /// null before ingestion). Submit() TBQL/Cypher/SQL requests and hold
  /// HuntTickets; up to options.service.max_concurrent hunts run at once.
  service::HuntService* hunt_service() const {
    return store_ == nullptr ? nullptr : &Service();
  }

  /// SLO metrics snapshot of the hunt service: queue depth, per-tenant
  /// submission/rejection counters, hunt latency quantiles, epoch lag, and
  /// writer-gate wait statistics. A default-constructed (all-zero) snapshot
  /// when no store is loaded or the service was never instantiated — the
  /// call itself never forces the lazy service into existence.
  service::HuntService::Metrics service_metrics() const {
    std::lock_guard<std::mutex> lock(service_mu_);
    if (store_ == nullptr || service_ == nullptr) return {};
    return service_->metrics();
  }

  /// Populate `registry` with the facade's full telemetry snapshot: every
  /// hunt-service series (admission, gate, epochs, standing/MQO, latency
  /// histograms, per-tenant counters — see HuntService::CollectMetrics)
  /// when the service exists (never forces the lazy service into
  /// existence), plus WAL / checkpoint / recovery / retention counters on
  /// a durable facade.
  void CollectMetrics(obs::MetricsRegistry* registry) const;

  /// CollectMetrics rendered as Prometheus exposition text (default) or
  /// JSON — the scrape/export surface behind `hunt --metrics-export`.
  std::string ExportMetrics(
      obs::MetricsFormat format = obs::MetricsFormat::kPrometheus) const;

  /// Runtime tenant-policy reconfiguration on the hunt service: the new
  /// weight/queue-cap take effect at the tenant's next admission (see
  /// HuntService::SetTenantPolicy). Instantiates the lazy service so the
  /// policy is in place before the tenant's first Submit; false (policy
  /// dropped) when no store is loaded.
  bool SetTenantPolicy(const std::string& tenant,
                       service::TenantPolicy policy) {
    if (store_ == nullptr) return false;
    Service().SetTenantPolicy(tenant, policy);
    return true;
  }

  /// Instantiate a hunt-library catalog technique (huntlib/catalog.h) with
  /// `params` filling its IOC slots — missing parameters default to
  /// match-anything — and run it synchronously through the hunt service.
  /// NotFound for an unknown technique id. For a standing fleet, use
  /// huntlib::HuntLibrary::AttachCatalog against hunt_service() instead.
  Result<service::HuntResponse> HuntTechnique(
      std::string_view technique_id,
      const std::map<std::string, std::string>& params = {}) const;

  /// Execute a TBQL query in fuzzy search mode (Poirot-based alignment).
  Result<engine::FuzzyReport> HuntFuzzy(
      std::string_view tbql_text, const engine::FuzzyOptions& fuzzy = {}) const {
    RAPTOR_RETURN_NOT_OK(RequireStore());
    engine::FuzzyMatcher matcher(store_.get());
    return matcher.SearchText(tbql_text, fuzzy);
  }

  /// The whole pipeline of Fig. 2: OSCTI text -> threat behavior graph ->
  /// synthesized TBQL query -> matched audit records.
  Result<HuntOutcome> HuntWithOsctiText(std::string_view oscti_text) const {
    RAPTOR_RETURN_NOT_OK(RequireStore());
    auto extraction = ExtractBehaviorGraph(oscti_text);
    if (!extraction.ok()) return extraction.status();
    auto synthesis = SynthesizeQuery(extraction.value().graph);
    if (!synthesis.ok()) return synthesis.status();
    auto report = Hunt(synthesis.value().query);
    if (!report.ok()) return report.status();
    HuntOutcome outcome;
    outcome.extraction = std::move(extraction).value();
    outcome.synthesis = std::move(synthesis).value();
    outcome.report = std::move(report).value();
    return outcome;
  }

  /// The loaded audit store (null before ingestion).
  const storage::AuditStore* store() const { return store_.get(); }

 private:
  Status RequireStore() const {
    if (store_ == nullptr) {
      return Status::InvalidArgument(
          "no audit data ingested; call IngestSyscalls first");
    }
    return Status::OK();
  }

  /// Mutations on a durable facade are logged write-ahead — except while
  /// replaying the WAL itself, and never after Close().
  bool ShouldLog() const {
    return checkpointer_ != nullptr && !replaying_ && !closed_;
  }

  /// Apply the accumulated batch under the hunt service's epoch gate:
  /// the WAL record (durable facades) is appended first, then the
  /// mutation waits for running hunts to drain, applies, and bumps the
  /// store epoch (waking standing hunts). The service is created here on
  /// first ingest so every later mutation is gated.
  Status SyncStore(persist::WalRecordType type, std::string payload,
                   std::string_view stream, uint64_t offset_after);

  /// Recovery body of Open: restore the snapshot (store, accumulator
  /// interner, epoch marks, stream offsets, standing seeds) and replay
  /// the WAL tail through the normal ingest path.
  Status RecoverState();
  Status ReplayWalRecord(const persist::WalRecord& record);
  /// Record the (epoch → last event id) watermark retention uses, and cut
  /// an automatic checkpoint when the configured interval elapsed.
  Status NoteEpochApplied(uint64_t epoch);

  service::HuntService& Service() const {
    std::lock_guard<std::mutex> lock(service_mu_);
    if (service_ == nullptr) {
      service_ = std::make_unique<service::HuntService>(store_.get(),
                                                        options_.service);
      if (checkpointer_ != nullptr) {
        service_->AttachWal(checkpointer_->wal());
      }
    }
    return *service_;
  }

  ThreatRaptorOptions options_;
  audit::AuditLogParser parser_;
  audit::ParsedLog accum_;
  // Durable state. Declared before store_/service_ so it is destroyed
  // last: the service holds a raw pointer to the checkpointer's WAL
  // writer until it is itself destroyed.
  std::unique_ptr<persist::Checkpointer> checkpointer_;
  bool replaying_ = false;  // WAL replay in progress; do not re-log
  bool closed_ = false;     // Close() ran; mutations are refused
  uint64_t last_checkpoint_epoch_ = 0;
  /// (epoch, last event id) per applied epoch, oldest first — retention's
  /// horizon→watermark translation. Only populated when a horizon is set.
  /// Guarded by the write gate (mutations) / Exclusive (checkpoint).
  std::vector<std::pair<uint64_t, uint64_t>> epoch_marks_;
  uint64_t events_evicted_ = 0;
  uint64_t epochs_evicted_ = 0;
  /// stream name → bytes consumed, updated inside the gate with the batch
  /// that consumed them; snapshots carry it, Open restores it.
  mutable std::mutex offsets_mu_;
  std::map<std::string, uint64_t, std::less<>> stream_offsets_;
  std::unique_ptr<storage::AuditStore> store_;
  // Lazily constructed so purely-synchronous pipelines that never ingest
  // pay nothing; destroyed before store_ (declaration order) so in-flight
  // hunts are cancelled while the store is still alive.
  mutable std::mutex service_mu_;
  mutable std::unique_ptr<service::HuntService> service_;
};

}  // namespace raptor
