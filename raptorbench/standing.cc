// stream_standing: the continuous path, CTI report -> standing hunt ->
// streamed events -> alert. A simulated live feed with all 18 attack
// scripts planted three minutes apart is ingested one one-minute batch at a
// time (carry-over window on) while 74 standing hunts refresh: one
// synthesized from each case's CTI report plus the technique catalog
// stamped onto 4 tenants.
//
// Closed drain loop: the next batch goes in once every hunt has delivered
// the previous epoch. An open loop at a fixed batch rate was tried and its
// median moved by a third between identical runs; the drain loop repeats.
// Standing refresh, MQO dedupe and the subresult cache do most of the work;
// the store stays small, so ingest does little.
#include <algorithm>
#include <mutex>
#include <set>
#include <unordered_map>

#include "huntlib/catalog.h"
#include "huntlib/feed.h"
#include "inputs.h"
#include "layers.h"
#include "threatraptor.h"
#include "workloads.h"

namespace raptorbench {

using raptor::Status;
using raptor::obs::ScopedSpan;
using raptor::obs::TraceSpan;

namespace {

/// Benign processes over the simulated hour.
constexpr int kProcesses = 900;
/// Tenants the technique catalog is stamped onto.
constexpr int kTenants = 4;
/// Replays of the whole feed per run, at least.
constexpr int kMinReplays = 2;
/// Set-ups per run, at least (each replay sets up afresh; set-up-only
/// repetitions make up the rest); setup_s is their median.
constexpr size_t kMinSetups = 5;
/// Threads running the untimed per-epoch reference executions.
constexpr size_t kCheckThreads = 4;

using Batches = std::vector<std::vector<raptor::audit::SyscallRecord>>;

/// Everything the sinks see, keyed by subscription id. Sinks fire on
/// admission workers, so all of it is guarded by `mu`.
struct Deliveries {
  std::mutex mu;
  std::unordered_map<uint64_t, std::set<std::string>> rows;
  std::vector<double> refresh_ms;
  std::vector<double> alert_ms;
  /// Ingest-call start per epoch; written before the call that creates
  /// the epoch, read by the alert sinks after it.
  std::vector<Clock::time_point> epoch_start;
  std::vector<std::shared_ptr<const TraceSpan>> profiles;
};

struct Replay {
  double setup_s = 0;
  double drain_s = 0;
  size_t epochs = 0;
  std::vector<double> alert_ms;
  std::vector<double> refresh_ms;
  std::vector<double> ingest_ms;
  raptor::service::HuntService::Stats stats;
  double gate_wait_s = 0;
  size_t hunts = 0;
  size_t events = 0;
  size_t records = 0;
  size_t batches = 0;
  long long data_queries = 0;
  /// Rows delivered per hunt (attachment order) over the whole replay.
  std::vector<std::set<std::string>> delivered;
  /// Hunts whose delivered rows differ from a one-shot run on the final
  /// store: their results shrink as the store grows (a TBQL pattern that
  /// matched nothing is left out of the join until it matches).
  std::vector<std::string> nonmonotone;
};

/// One standing hunt's query, run once outside the service.
DirectRun DirectHunt(const raptor::storage::AuditStore& store,
                     const raptor::service::HuntRequest& req, TraceSpan* trace,
                     LayerSamples* samples) {
  DirectRun ref = req.dialect == raptor::service::QueryDialect::kTbql
                      ? RunDirectTbql(store, req.text, trace, samples)
                      : RunDirectCypher(store, req.text, trace, samples);
  // Standing hunts have set semantics: a row is delivered once.
  ref.rows.erase(std::unique(ref.rows.begin(), ref.rows.end()),
                 ref.rows.end());
  return ref;
}

/// The live feed, one batch per one-minute window.
raptor::Result<Batches> FeedBatches(uint64_t seed) {
  Batches batches;
  raptor::stream::SimulatorSource source(StandingFeed(seed, kProcesses));
  for (;;) {
    auto polled = source.Poll();
    if (!polled.ok()) return polled.status();
    if (!polled.value().records.empty()) {
      batches.push_back(std::move(polled.value().records));
    }
    if (polled.value().end_of_stream) return batches;
  }
}

raptor::service::StandingSink MakeSink(Deliveries* d) {
  raptor::service::StandingSink sink;
  sink.on_update = [d](const raptor::service::StandingUpdate& u) {
    std::set<std::string> keys;
    auto cursor = u.cursor();
    while (const std::vector<raptor::sql::Value>* row = cursor.Next()) {
      keys.insert(RowKey(*row));
    }
    std::lock_guard<std::mutex> lock(d->mu);
    d->rows[u.subscription_id].merge(keys);
    d->refresh_ms.push_back(u.seconds * 1e3);
    if (u.profile != nullptr) d->profiles.push_back(u.profile);
  };
  sink.on_alert = [d](const raptor::service::StandingUpdate& u) {
    auto now = Clock::now();
    std::lock_guard<std::mutex> lock(d->mu);
    if (u.epoch < d->epoch_start.size()) {
      d->alert_ms.push_back(
          std::chrono::duration<double>(now - d->epoch_start[u.epoch])
              .count() *
          1e3);
    }
  };
  return sink;
}

/// One pass over the whole feed on a fresh facade. Generating the feed
/// counts as set-up, like attaching the hunts; `setup_only` stops there.
/// `first` (null on the first replay, which is checked epoch by epoch)
/// holds the rows the checked replay delivered.
Replay RunReplay(const Options& opts,
                 const std::vector<std::set<std::string>>* first,
                 bool setup_only, TraceSpan* trace, LayerSamples* samples,
                 std::vector<double>* cti_ms, RunResult* out) {
  Replay r;
  Deliveries d;
  auto setup_start = Clock::now();
  auto fed = [&] {
    ScopedSpan span(trace, "inputs.generate");
    return FeedBatches(opts.seed);
  }();
  if (!fed.ok()) {
    out->Fail("feed: " + fed.status().ToString());
    return r;
  }
  const Batches& batches = fed.value();
  for (const auto& b : batches) r.records += b.size();
  r.batches = batches.size();
  d.epoch_start.resize(batches.size() + 4);
  raptor::ThreatRaptorOptions options;
  options.store.carry_over_window = true;
  raptor::ThreatRaptor tr(options);
  if (Status st = tr.IngestSyscalls({}); !st.ok()) {
    out->Fail("bootstrap ingest: " + st.ToString());
    return r;
  }
  raptor::service::HuntService* service = tr.hunt_service();
  raptor::huntlib::HuntLibrary library;
  for (const raptor::cases::AttackCase& c : raptor::cases::AllCases()) {
    auto start = Clock::now();
    auto spec = [&] {
      ScopedSpan span(trace, "huntlib.synthesize_from_cti");
      return library.SynthesizeFromCti(c.oscti_text, c.id, "cti");
    }();
    if (cti_ms != nullptr) cti_ms->push_back(SecondsSince(start) * 1e3);
    if (!spec.ok()) {
      out->Fail("synthesize " + c.id + ": " + spec.status().ToString());
      continue;
    }
    spec.value().request.profile = trace != nullptr;
    library.Attach(service, std::move(spec).value(), MakeSink(&d));
  }
  for (int t = 0; t < kTenants; ++t) {
    for (const raptor::huntlib::Technique& tech :
         raptor::huntlib::AllTechniques()) {
      auto spec = library.FromTechnique(tech.id, {},
                                        "tenant-" + std::to_string(t));
      if (!spec.ok()) {
        out->Fail("technique " + tech.id + ": " + spec.status().ToString());
        continue;
      }
      spec.value().request.profile = trace != nullptr;
      library.Attach(service, std::move(spec).value(), MakeSink(&d));
    }
  }
  r.hunts = library.attachments().size();
  auto drain = [&](uint64_t epoch) {
    for (const auto& a : library.attachments()) {
      if (!a.handle.WaitEpoch(epoch, 120'000'000)) {
        out->Fail("drain timed out at epoch " + std::to_string(epoch) + ": " +
                  a.spec.name);
        return false;
      }
    }
    return true;
  };
  if (!drain(service->epoch())) return r;
  r.setup_s = SecondsSince(setup_start);
  if (setup_only) return r;
  const auto& attachments = library.attachments();
  std::vector<std::set<std::string>> expected(attachments.size());

  // The exact check, made on the first replay of a run: after every epoch,
  // each hunt's delivered rows so far equal the union of one-shot runs of
  // that hunt on the store as it stood after each epoch so far. That is
  // what the service promises (every row once, in the first epoch its
  // query produces it), also for hunts whose results are not monotone in
  // the store. Untimed: it runs between the drain and the next batch.
  auto check_epoch = [&](uint64_t epoch) {
    std::vector<DirectRun> refs(attachments.size());
    ParallelFor(refs.size(), kCheckThreads, [&](size_t i) {
      refs[i] = DirectHunt(*tr.store(), attachments[i].spec.request, nullptr,
                           nullptr);
    });
    std::lock_guard<std::mutex> lock(d.mu);
    for (size_t i = 0; i < refs.size(); ++i) {
      const std::string name = attachments[i].spec.name + " (" +
                               attachments[i].spec.request.tenant + ")";
      out->Attempt();
      if (!refs[i].status.ok()) {
        out->Fail(name + " reference: " + refs[i].status.ToString());
        continue;
      }
      expected[i].insert(refs[i].rows.begin(), refs[i].rows.end());
      if (opts.corrupt_reference) expected[i].insert("corrupted reference row");
      const std::set<std::string>& got = d.rows[attachments[i].handle.id()];
      if (got != expected[i]) {
        out->Fail(name + " at epoch " + std::to_string(epoch) + ": delivered " +
                  std::to_string(got.size()) + " rows, one-shot runs " +
                  std::to_string(expected[i].size()));
      }
    }
  };
  double check_s = 0;
  if (first == nullptr) check_epoch(service->epoch());

  // The closed drain loop; the final flush is one more epoch.
  auto drain_start = Clock::now();
  for (size_t b = 0; b <= batches.size(); ++b) {
    uint64_t next = service->epoch() + 1;
    {
      std::lock_guard<std::mutex> lock(d.mu);
      if (next >= d.epoch_start.size()) d.epoch_start.resize(next + 1);
      d.epoch_start[next] = Clock::now();
    }
    auto t0 = Clock::now();
    Status st = [&] {
      ScopedSpan span(trace, "service.ingest_call");
      return b < batches.size() ? tr.IngestSyscalls(batches[b])
                                : tr.FlushIngest();
    }();
    r.ingest_ms.push_back(SecondsSince(t0) * 1e3);
    if (!st.ok()) {
      out->Fail("ingest batch " + std::to_string(b) + ": " + st.ToString());
      return r;
    }
    if (!drain(service->epoch())) return r;
    if (first == nullptr) {
      auto check_start = Clock::now();
      check_epoch(service->epoch());
      check_s += SecondsSince(check_start);
    }
  }
  r.drain_s = SecondsSince(drain_start) - check_s;
  r.epochs = batches.size() + 1;
  r.stats = service->stats();
  r.gate_wait_s = tr.service_metrics().gate_wait_seconds_total;
  r.events = tr.store()->event_count();

  // One-shot run of every hunt on the final flushed store. A monotone
  // hunt's delivered rows equal it; the rest are counted, not failed (see
  // CheckEpoch for the check that holds for every hunt).
  std::lock_guard<std::mutex> lock(d.mu);
  for (size_t i = 0; i < attachments.size(); ++i) {
    DirectRun ref = DirectHunt(*tr.store(), attachments[i].spec.request,
                               trace, samples);
    r.data_queries += static_cast<long long>(ref.data_queries);
    std::set<std::string> final_rows(ref.rows.begin(), ref.rows.end());
    const std::set<std::string>& got = d.rows[attachments[i].handle.id()];
    if (ref.status.ok() && got != final_rows) {
      r.nonmonotone.push_back(attachments[i].spec.name + " (" +
                              attachments[i].spec.request.tenant + ")");
    }
    r.delivered.push_back(got);
    if (first == nullptr) continue;
    out->Attempt();
    if (got != (*first)[i]) {
      out->Fail(attachments[i].spec.name + " (" +
                attachments[i].spec.request.tenant + "): delivered " +
                std::to_string(got.size()) + " rows, the checked replay " +
                std::to_string((*first)[i].size()));
    }
  }
  library.DetachAll();
  r.alert_ms = std::move(d.alert_ms);
  r.refresh_ms = std::move(d.refresh_ms);
  if (trace != nullptr) {
    for (const auto& p : d.profiles) {
      trace->Adopt(std::const_pointer_cast<TraceSpan>(p));
    }
  }
  return r;
}

}  // namespace

void RunStreamStanding(const Options& opts, RunResult* out) {
  // Traced run: after the first replay (cold, and checked epoch by epoch),
  // replays interleave untraced and traced ones (TracedUnit); their drain
  // time ratio is the trace overhead.
  SpanRoots roots;
  LayerSamples samples;
  std::vector<double> cti_ms;
  std::vector<double> setup_s, alert_ms, refresh_ms, ingest_ms;
  double drain_s = 0;
  double overhead[2] = {0, 0};  // untraced, traced drain time after replay 0
  size_t epochs = 0;
  std::vector<std::set<std::string>> checked;
  std::vector<std::string> nonmonotone;
  Replay last;
  for (int i = 0;; ++i) {
    bool traced = i > 0 && TracedUnit(opts, i - 1);
    if (i >= kMinReplays && drain_s >= opts.seconds &&
        Balanced(opts, i - 1)) {
      break;
    }
    std::shared_ptr<TraceSpan> root;
    if (traced) root = TraceSpan::Root("replay");
    LayerSamples replay_samples;
    Replay r = RunReplay(opts, i == 0 ? nullptr : &checked,
                         /*setup_only=*/false, root.get(), &replay_samples,
                         traced ? &cti_ms : nullptr, out);
    if (i == 0) {
      checked = r.delivered;
      nonmonotone = r.nonmonotone;
    }
    if (r.epochs == 0) return;  // failed; already reported
    drain_s += r.drain_s;
    if (i > 0) overhead[traced ? 1 : 0] += r.drain_s;
    epochs += r.epochs;
    setup_s.push_back(r.setup_s);
    alert_ms.insert(alert_ms.end(), r.alert_ms.begin(), r.alert_ms.end());
    refresh_ms.insert(refresh_ms.end(), r.refresh_ms.begin(),
                      r.refresh_ms.end());
    ingest_ms.insert(ingest_ms.end(), r.ingest_ms.begin(), r.ingest_ms.end());
    out->ExactCount("store.events_after_reduction",
                    static_cast<long long>(r.events));
    out->ExactCount("service.alerts",
                    static_cast<long long>(r.stats.standing_alerts));
    out->ExactCount("engine.data_queries_final_check", r.data_queries);
    if (root != nullptr) {
      root->Finish();
      roots.push_back(root);
      samples = std::move(replay_samples);
    }
    last = std::move(r);
  }

  while (setup_s.size() < kMinSetups) {
    Replay r = RunReplay(opts, nullptr, /*setup_only=*/true, nullptr, nullptr,
                         nullptr, out);
    if (r.setup_s == 0) return;  // failed; already reported
    setup_s.push_back(r.setup_s);
  }

  double epochs_per_s = epochs / drain_s;
  if (last.stats.subresult_hits == 0) {
    out->Fail("design check: no subresult-cache hits across 74 standing hunts");
  }
  out->EndToEnd("setup_s", Median(setup_s), "s");
  out->EndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  out->EndToEnd("latency_p50_ms", Quantile(alert_ms, 0.5), "ms");
  out->EndToEnd("latency_p95_ms", Quantile(alert_ms, 0.95), "ms");
  out->EndToEnd("throughput_per_s", epochs_per_s, "1/s");
  out->Info("epoch_to_alert_p50_ms", Quantile(alert_ms, 0.5), "ms");
  out->Info("epoch_to_alert_p95_ms", Quantile(alert_ms, 0.95), "ms");
  out->Info("epoch_to_alert_samples", static_cast<double>(alert_ms.size()),
            "count");
  out->Info("epochs_per_s", epochs_per_s, "1/s");
  out->Info("feed_records", static_cast<double>(last.records), "count");
  out->Info("feed_batches", static_cast<double>(last.batches), "count");
  out->Info("standing_hunts", static_cast<double>(last.hunts), "count");
  out->Info("standing_hunts_nonmonotone",
            static_cast<double>(nonmonotone.size()), "count");
  for (const std::string& name : nonmonotone) {
    std::printf("nonmonotone hunt (delivered rows differ from a one-shot run "
                "on the final store): %s\n",
                name.c_str());
  }

  if (!opts.trace) return;
  // Direct extraction/synthesis calls and the ingest layers on the feed,
  // each under their own root.
  std::shared_ptr<TraceSpan> root = TraceSpan::Root("synthesis_layers");
  if (auto q = SynthesizeCaseQueries(root.get(), &samples); !q.ok()) {
    out->Fail("synthesis: " + q.status().ToString());
  }
  root->Finish();
  roots.push_back(root);
  ReportEngineLayers(samples, out);
  out->Layer("engine.data_queries", static_cast<double>(last.data_queries),
             "count");
  out->Layer("service.ingest_call_ms", Median(ingest_ms), "ms");
  out->Layer("service.gate_wait_s", last.gate_wait_s, "s");
  out->Layer("service.refresh_ms", Median(refresh_ms), "ms");
  const auto& s = last.stats;
  out->Layer("service.refreshes", static_cast<double>(s.standing_refreshes),
             "count");
  out->Layer("service.incremental_share",
             s.standing_refreshes == 0
                 ? 0
                 : static_cast<double>(s.standing_incremental) /
                       static_cast<double>(s.standing_refreshes),
             "ratio");
  out->Layer("service.mqo_dedup_hits",
             static_cast<double>(s.standing_dedup_hits), "count");
  out->Layer("service.subresult_hits", static_cast<double>(s.subresult_hits),
             "count");
  out->Layer("service.alerts", static_cast<double>(s.standing_alerts),
             "count");
  out->Layer("huntlib.synthesize_from_cti_ms", Median(cti_ms), "ms");
  out->Layer("huntlib.hunts_attached", static_cast<double>(last.hunts),
             "count");
  out->Layer("obs.trace_overhead", overhead[1] / overhead[0], "ratio");

  std::vector<raptor::audit::SyscallRecord> all;
  for (const auto& b : FeedBatches(opts.seed).value_or({})) {
    all.insert(all.end(), b.begin(), b.end());
  }
  ReportIngestLayers(all, &roots, out);
  std::printf("per-layer self time, stream_standing (traced replays):\n%s",
              SelfTimeTable(roots).c_str());
}

}  // namespace raptorbench
