// oneshot_cti: the paper's read path (Table VIII). A store holding every
// case's log answers the hunts synthesized from every case's CTI report,
// in both TBQL form (relational backend) and length-1 path form (graph
// backend), submitted through HuntService by 4 closed-loop clients.
//
// Each round first ingests a fresh benign batch, untimed. That bumps the
// store epoch, so no hunt can be answered from the service's per-epoch
// subresult cache: a hunt repeated within one epoch measures a hash lookup,
// not the engine. Engine scheduling and storage scans do nearly all the
// work; ingest and standing refresh do almost none.
#include <optional>

#include "inputs.h"
#include "layers.h"
#include "threatraptor.h"
#include "workloads.h"

namespace raptorbench {

using raptor::Status;
using raptor::obs::ScopedSpan;
using raptor::obs::TraceSpan;
using raptor::service::HuntResponse;

namespace {

/// Benign noise multiplier on every case's profile.
constexpr int kNoiseScale = 1;
/// Store builds per run; setup_s is their median.
constexpr int kSetups = 3;
/// Hunts in flight (closed loop), equal to the service's worker count.
constexpr size_t kClients = 4;
/// Processes in each round's fresh benign batch.
constexpr int kFreshProcesses = 40;

struct Hunt {
  std::string label;
  std::string text;
};

struct Setup {
  std::unique_ptr<raptor::ThreatRaptor> tr;
  std::vector<Hunt> hunts;
  size_t records = 0;
  double seconds = 0;
};

raptor::Result<Setup> BuildSetup(uint64_t seed, TraceSpan* trace,
                                 LayerSamples* samples) {
  auto start = Clock::now();
  Setup s;
  std::vector<raptor::audit::SyscallRecord> log = [&] {
    ScopedSpan span(trace, "inputs.generate");
    return MergedCaseLogs(seed, kNoiseScale);
  }();
  s.records = log.size();
  s.tr = std::make_unique<raptor::ThreatRaptor>();
  {
    ScopedSpan span(trace, "service.ingest_call");
    RAPTOR_RETURN_NOT_OK(s.tr->IngestSyscalls(log));
  }
  auto queries = SynthesizeCaseQueries(trace, samples);
  if (!queries.ok()) return queries.status();
  for (const CaseQuery& q : queries.value()) {
    s.hunts.push_back({q.case_id + "/tbql", q.tbql_text});
    s.hunts.push_back({q.case_id + "/path", q.path_text});
  }
  s.seconds = SecondsSince(start);
  return s;
}

struct Round {
  double seconds = 0;
  std::vector<double> latency_ms;
  std::vector<Status> status;
  std::vector<std::optional<HuntResponse>> responses;
};

/// Every hunt once, `kClients` closed-loop clients, each timing its hunt
/// from Submit until the ticket is done (queue wait included).
Round RunRound(raptor::service::HuntService* service,
               const std::vector<Hunt>& hunts, bool profile) {
  Round r;
  r.latency_ms.assign(hunts.size(), 0);
  r.status.assign(hunts.size(), Status::OK());
  r.responses.resize(hunts.size());
  auto start = Clock::now();
  ParallelFor(hunts.size(), kClients, [&](size_t i) {
    raptor::service::HuntRequest request;
    request.text = hunts[i].text;
    request.profile = profile;
    auto t0 = Clock::now();
    raptor::service::HuntTicket ticket = service->Submit(std::move(request));
    Status st = ticket.Wait();
    r.latency_ms[i] = SecondsSince(t0) * 1e3;
    r.status[i] = st;
    if (st.ok()) r.responses[i] = ticket.TakeResponse();
  });
  r.seconds = SecondsSince(start);
  return r;
}

}  // namespace

void RunOneshotCti(const Options& opts, RunResult* out) {
  SpanRoots roots;
  LayerSamples samples;
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = Setup{};  // release the previous store before building the next
    std::shared_ptr<TraceSpan> root;
    if (opts.trace && i == kSetups - 1) root = TraceSpan::Root("setup");
    LayerSamples setup_samples;
    auto built = BuildSetup(opts.seed, root.get(), &setup_samples);
    if (!built.ok()) {
      out->Fail("setup: " + built.status().ToString());
      return;
    }
    setup = std::move(built).value();
    setup_s.push_back(setup.seconds);
    out->ExactCount("store.events_after_reduction",
                    static_cast<long long>(setup.tr->store()->event_count()));
    if (root != nullptr) {
      root->Finish();
      roots.push_back(root);
      samples = std::move(setup_samples);  // no round has run yet
    }
  }
  raptor::service::HuntService* service = setup.tr->hunt_service();
  const raptor::storage::AuditStore& store = *setup.tr->store();

  // Round -1 warms up (checked, not measured). In the traced run the
  // measured rounds interleave untraced and traced ones (TracedUnit), and
  // their time ratio is the trace overhead.
  std::vector<double> latency_ms, exec_ms, ingest_ms;
  double timed[2] = {0, 0};
  size_t hunts_done = 0;
  long long data_queries = 0;
  for (int round = -1;; ++round) {
    bool warmup = round < 0;
    bool traced = !warmup && TracedUnit(opts, round);
    double measured = timed[0] + timed[1];
    if (round >= 2 && measured >= opts.seconds && Balanced(opts, round)) break;
    std::shared_ptr<TraceSpan> root;
    if (traced) root = TraceSpan::Root("round");

    std::vector<raptor::audit::SyscallRecord> fresh = [&] {
      ScopedSpan span(root.get(), "inputs.generate");
      return FreshBenignBatch(opts.seed, round + 1, kFreshProcesses);
    }();
    auto t0 = Clock::now();
    Status ingested = [&] {
      ScopedSpan span(root.get(), "service.ingest_call");
      return setup.tr->IngestSyscalls(fresh);
    }();
    ingest_ms.push_back(SecondsSince(t0) * 1e3);
    if (!ingested.ok()) {
      out->Fail("fresh batch ingest: " + ingested.ToString());
      return;
    }

    Round r = [&] {
      ScopedSpan span(root.get(), "service.hunts");
      Round result = RunRound(service, setup.hunts, traced);
      if (span.get() != nullptr) {
        for (auto& response : result.responses) {
          if (response && response->profile != nullptr) {
            span.get()->Adopt(
                std::const_pointer_cast<TraceSpan>(response->profile));
          }
        }
      }
      return result;
    }();
    if (!warmup) timed[traced ? 1 : 0] += r.seconds;

    // Outside the timed region: the same hunts straight on the executor at
    // the same epoch, with no result cache. Untraced rounds spread them over
    // the clients' threads; traced rounds run them one by one, so each
    // layer span times one call alone.
    std::vector<DirectRun> refs(setup.hunts.size());
    if (traced) {
      for (size_t i = 0; i < refs.size(); ++i) {
        refs[i] = RunDirectTbql(store, setup.hunts[i].text, root.get(),
                                &samples);
      }
    } else {
      ParallelFor(refs.size(), kClients, [&](size_t i) {
        refs[i] = RunDirectTbql(store, setup.hunts[i].text, nullptr, nullptr);
      });
    }
    data_queries = 0;
    for (size_t i = 0; i < setup.hunts.size(); ++i) {
      out->Attempt();
      if (!warmup) latency_ms.push_back(r.latency_ms[i]);
      if (!r.status[i].ok()) {
        out->Fail(setup.hunts[i].label + ": " + r.status[i].ToString());
        continue;
      }
      if (!warmup) exec_ms.push_back(r.responses[i]->seconds * 1e3);
      DirectRun& ref = refs[i];
      data_queries += static_cast<long long>(ref.data_queries);
      if (!ref.status.ok()) {
        out->Fail(setup.hunts[i].label +
                  " reference: " + ref.status.ToString());
        continue;
      }
      if (opts.corrupt_reference) CorruptReference(&ref.rows);
      RowSet got;
      for (const auto& row : r.responses[i]->report.results.rows) {
        got.push_back(RowKey(row));
      }
      Canonicalize(&got);
      if (got != ref.rows) {
        out->Fail(setup.hunts[i].label + ": " + std::to_string(got.size()) +
                  " rows, reference has " + std::to_string(ref.rows.size()));
      }
    }
    out->ExactCount("engine.data_queries_per_round", data_queries);
    if (!warmup) hunts_done += setup.hunts.size();
    if (root != nullptr) {
      root->Finish();
      roots.push_back(root);
    }
  }

  raptor::service::HuntService::Stats stats = service->stats();
  double hunts_per_s = hunts_done / (timed[0] + timed[1]);
  if (stats.subresult_hits != 0) {
    out->Fail("design check: " + std::to_string(stats.subresult_hits) +
              " subresult-cache hits on fresh epochs (expected 0)");
  }
  out->EndToEnd("setup_s", Median(setup_s), "s");
  out->EndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  out->EndToEnd("latency_p50_ms", Quantile(latency_ms, 0.5), "ms");
  out->EndToEnd("latency_p95_ms", Quantile(latency_ms, 0.95), "ms");
  out->EndToEnd("throughput_per_s", hunts_per_s, "1/s");
  out->Info("hunt_latency_p50_ms", Quantile(latency_ms, 0.5), "ms");
  out->Info("hunt_latency_p95_ms", Quantile(latency_ms, 0.95), "ms");
  out->Info("hunt_latency_samples", static_cast<double>(latency_ms.size()),
            "count");
  out->Info("hunts_per_s", hunts_per_s, "1/s");
  out->Info("store_records", static_cast<double>(setup.records), "count");
  out->Info("store_events", static_cast<double>(store.event_count()), "count");

  if (!opts.trace) return;
  ReportEngineLayers(samples, out);
  out->Layer("engine.data_queries", static_cast<double>(data_queries),
             "count");
  std::vector<double> queue = SpanMillis(roots, "queue_wait");
  out->Layer("service.queue_wait_ms", Median(queue), "ms");
  out->Layer("service.exec_ms", Median(exec_ms), "ms");
  out->Layer("service.ingest_call_ms", Median(ingest_ms), "ms");
  out->Layer("service.gate_wait_s",
             setup.tr->service_metrics().gate_wait_seconds_total, "s");
  out->Layer("service.subresult_hits",
             static_cast<double>(stats.subresult_hits), "count");
  out->Layer("obs.trace_overhead", timed[1] / timed[0], "ratio");
  ReportIngestLayers(MergedCaseLogs(opts.seed, kNoiseScale), &roots, out);
  std::printf("per-layer self time, oneshot_cti (traced rounds):\n%s",
              SelfTimeTable(roots).c_str());
}

}  // namespace raptorbench
