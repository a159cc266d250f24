// ingest_durable: the write path. Every case's log, merged and cut into
// fixed-size batches, goes through a durable facade (ThreatRaptor::Open,
// WAL on). One Checkpoint() after three quarters of the batches leaves the
// last quarter in the WAL tail; the facade is then dropped without Close, as
// a crash would, and re-opened to recover from snapshot plus WAL replay.
//
// Parse, reduction, append to both backends, WAL, snapshot and recovery do
// the work; the engine and standing refresh do none, so a read-path change
// must show no change here. The flush policy is FsyncMode::kNone: writes
// land in the page cache, so the figures describe the code, not the disk.
#include <filesystem>
#include <unistd.h>

#include "inputs.h"
#include "layers.h"
#include "threatraptor.h"
#include "workloads.h"

namespace raptorbench {

using raptor::Status;
using raptor::obs::ScopedSpan;
using raptor::obs::TraceSpan;

namespace {

constexpr int kNoiseScale = 1;
constexpr size_t kBatchRecords = 4096;
/// Load-checkpoint-crash-recover cycles per run, at least; setup_s is the
/// median of their set-ups.
constexpr int kMinCycles = 3;
/// The probe hunt compared before the crash and after recovery.
constexpr const char* kProbeCase = "data_leak";

using Batches = std::vector<std::vector<raptor::audit::SyscallRecord>>;

struct Cycle {
  double setup_s = 0;
  double ingest_s = 0;
  double checkpoint_s = 0;
  double recover_s = 0;
  size_t records = 0;
  std::vector<double> batch_ms;
  raptor::persist::DurabilityStats before;
  raptor::persist::DurabilityStats after;
  size_t events = 0;
  double gate_wait_s = 0;
};

Batches CutBatches(std::vector<raptor::audit::SyscallRecord> records) {
  Batches out;
  for (size_t i = 0; i < records.size(); i += kBatchRecords) {
    size_t end = std::min(records.size(), i + kBatchRecords);
    out.emplace_back(std::make_move_iterator(records.begin() + i),
                     std::make_move_iterator(records.begin() + end));
  }
  return out;
}

raptor::persist::DurabilityOptions Durability(const std::string& dir) {
  raptor::persist::DurabilityOptions d;
  d.data_dir = dir;
  d.fsync = raptor::persist::FsyncMode::kNone;
  return d;
}

/// Probe hunt rows on `tr`, canonical.
raptor::Result<RowSet> ProbeRows(const raptor::ThreatRaptor& tr,
                                 const std::string& probe, TraceSpan* trace) {
  ScopedSpan span(trace, "service.hunt");
  auto report = tr.Hunt(probe);
  if (!report.ok()) return report.status();
  RowSet rows;
  for (const auto& row : report.value().results.rows) {
    rows.push_back(RowKey(row));
  }
  Canonicalize(&rows);
  return rows;
}

/// One load -> checkpoint -> crash -> recover cycle in a fresh data
/// directory. Input generation counts as set-up, like opening the facade.
/// The generated batches are left in `*batches` for the in-memory pass.
Cycle RunCycle(const Options& opts, const std::string& dir,
               const std::string& probe, TraceSpan* trace, Batches* batches_out,
               RunResult* out) {
  Cycle c;
  std::filesystem::remove_all(dir);
  auto setup_start = Clock::now();
  Batches& batches = *batches_out;
  {
    ScopedSpan span(trace, "inputs.generate");
    batches = CutBatches(MergedCaseLogs(opts.seed, kNoiseScale));
  }
  auto opened = [&] {
    ScopedSpan span(trace, "persist.open");
    return raptor::ThreatRaptor::Open(Durability(dir));
  }();
  c.setup_s = SecondsSince(setup_start);
  if (!opened.ok()) {
    out->Fail("open: " + opened.status().ToString());
    return c;
  }
  std::unique_ptr<raptor::ThreatRaptor> tr = std::move(opened).value();
  size_t checkpoint_at = batches.size() * 3 / 4;
  for (size_t b = 0; b < batches.size(); ++b) {
    if (b == checkpoint_at) {
      auto t0 = Clock::now();
      Status st = [&] {
        ScopedSpan span(trace, "persist.checkpoint");
        return tr->Checkpoint();
      }();
      c.checkpoint_s = SecondsSince(t0);
      if (!st.ok()) out->Fail("checkpoint: " + st.ToString());
    }
    out->Attempt();
    auto t0 = Clock::now();
    Status st = [&] {
      ScopedSpan span(trace, "service.ingest_call");
      return tr->IngestSyscalls(batches[b]);
    }();
    double ms = SecondsSince(t0) * 1e3;
    c.batch_ms.push_back(ms);
    c.ingest_s += ms / 1e3;
    c.records += batches[b].size();
    if (!st.ok()) out->Fail("ingest batch " + std::to_string(b) + ": " + st.ToString());
  }
  c.before = tr->durability_stats();
  c.gate_wait_s = tr->service_metrics().gate_wait_seconds_total;
  size_t entities = tr->store()->entity_count();
  c.events = tr->store()->event_count();
  auto rows_before = ProbeRows(*tr, probe, trace);
  {
    ScopedSpan span(trace, "facade.drop");
    tr.reset();  // the crash: no Close(), no final checkpoint
  }

  auto t0 = Clock::now();
  auto recovered = [&] {
    ScopedSpan span(trace, "persist.recover");
    return raptor::ThreatRaptor::Open(Durability(dir));
  }();
  c.recover_s = SecondsSince(t0);
  out->Attempt();
  if (!recovered.ok()) {
    out->Fail("recover: " + recovered.status().ToString());
    return c;
  }
  tr = std::move(recovered).value();
  c.after = tr->durability_stats();
  size_t entities_after = tr->store() == nullptr ? 0 : tr->store()->entity_count();
  size_t events_after = tr->store() == nullptr ? 0 : tr->store()->event_count();
  if (opts.corrupt_reference) ++entities;
  if (entities_after != entities || events_after != c.events) {
    out->Fail("recovered store has " + std::to_string(entities_after) +
              " entities / " + std::to_string(events_after) +
              " events, before the crash " + std::to_string(entities) +
              " / " + std::to_string(c.events));
  }
  out->Attempt();
  auto rows_after = ProbeRows(*tr, probe, trace);
  if (!rows_before.ok() || !rows_after.ok()) {
    out->Fail("probe hunt failed: " +
              (rows_before.ok() ? rows_after.status() : rows_before.status())
                  .ToString());
  } else {
    RowSet expected = rows_before.value();
    if (opts.corrupt_reference) CorruptReference(&expected);
    if (rows_after.value() != expected) {
      out->Fail("probe hunt returns " +
                std::to_string(rows_after.value().size()) +
                " rows after recovery, " + std::to_string(expected.size()) +
                " before the crash");
    }
  }
  {
    ScopedSpan span(trace, "facade.drop");
    tr.reset();
    std::filesystem::remove_all(dir);
  }
  return c;
}

/// The same batches through an in-memory facade: the base of the WAL
/// overhead ratio.
double InMemoryIngestSeconds(const Batches& batches, RunResult* out) {
  raptor::ThreatRaptor tr;
  double seconds = 0;
  for (const auto& batch : batches) {
    auto t0 = Clock::now();
    Status st = tr.IngestSyscalls(batch);
    seconds += SecondsSince(t0);
    if (!st.ok()) out->Fail("in-memory ingest: " + st.ToString());
  }
  return seconds;
}

}  // namespace

void RunIngestDurable(const Options& opts, RunResult* out) {
  LayerSamples unused;
  auto queries = SynthesizeCaseQueries(nullptr, &unused);
  std::string probe;
  for (const CaseQuery& q : queries.value_or({})) {
    if (q.case_id == kProbeCase) probe = q.tbql_text;
  }
  if (probe.empty()) {
    out->Fail("probe hunt synthesis failed");
    return;
  }
  std::string dir = (std::filesystem::path(opts.work_dir) /
                     ("durable-" + std::to_string(::getpid())))
                        .string();

  // Traced run: after the first (cold) cycle, cycles interleave untraced
  // and traced ones (TracedUnit); their ingest time ratio is the trace
  // overhead. Each cycle is paired with an in-memory ingest of the same
  // batches, run before the durable cycle on odd iterations and after it on
  // even ones.
  SpanRoots roots;
  std::vector<double> setup_s, checkpoint_s, recover_s, batch_ms;
  double ingest_s = 0;
  double overhead[2] = {0, 0};  // untraced, traced ingest time after cycle 0
  double memory_ingest = 0;
  double measured = 0;  // ingest, checkpoint and recovery time
  Batches batches;
  size_t records = 0;
  Cycle last;
  for (int i = 0;; ++i) {
    bool traced = i > 0 && TracedUnit(opts, i - 1);
    if (i >= kMinCycles && measured >= opts.seconds && Balanced(opts, i - 1)) {
      break;
    }
    if (opts.trace && i % 2 == 1) {
      memory_ingest += InMemoryIngestSeconds(batches, out);
    }
    std::shared_ptr<TraceSpan> root;
    if (traced) root = TraceSpan::Root("cycle");
    Cycle c = RunCycle(opts, dir, probe, root.get(), &batches, out);
    if (root != nullptr) {
      root->Finish();
      roots.push_back(root);
    }
    if (c.records == 0) return;  // failed; already reported
    if (opts.trace && i % 2 == 0) {
      memory_ingest += InMemoryIngestSeconds(batches, out);
    }
    ingest_s += c.ingest_s;
    if (i > 0) overhead[traced ? 1 : 0] += c.ingest_s;
    measured += c.ingest_s + c.checkpoint_s + c.recover_s;
    records += c.records;
    setup_s.push_back(c.setup_s);
    checkpoint_s.push_back(c.checkpoint_s);
    recover_s.push_back(c.recover_s);
    batch_ms.insert(batch_ms.end(), c.batch_ms.begin(), c.batch_ms.end());
    out->ExactCount("store.events_after_reduction",
                    static_cast<long long>(c.events));
    out->ExactCount("persist.wal_bytes",
                    static_cast<long long>(c.before.wal_bytes));
    out->ExactCount("persist.snapshot_bytes",
                    static_cast<long long>(c.before.snapshot_bytes));
    last = std::move(c);
  }

  double records_per_s = records / ingest_s;
  double wal_per_record =
      static_cast<double>(last.before.wal_bytes) / last.records;
  double snapshot_per_record =
      static_cast<double>(last.before.snapshot_bytes) / last.records;
  out->EndToEnd("setup_s", Median(setup_s), "s");
  out->EndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  out->EndToEnd("latency_p50_ms", Quantile(batch_ms, 0.5), "ms");
  out->EndToEnd("latency_p95_ms", Quantile(batch_ms, 0.95), "ms");
  out->EndToEnd("throughput_per_s", records_per_s, "1/s");
  out->Info("ingest_records_per_s", records_per_s, "1/s");
  out->Info("ingest_batch_p50_ms", Quantile(batch_ms, 0.5), "ms");
  out->Info("ingest_batch_p95_ms", Quantile(batch_ms, 0.95), "ms");
  out->Info("ingest_batch_samples", static_cast<double>(batch_ms.size()),
            "count");
  out->Info("checkpoint_s", Median(checkpoint_s), "s");
  out->Info("recover_s", Median(recover_s), "s");
  out->Info("wal_bytes_per_record", wal_per_record, "bytes");
  out->Info("snapshot_bytes_per_record", snapshot_per_record, "bytes");
  out->Info("records_per_cycle", static_cast<double>(last.records), "count");

  if (!opts.trace) return;
  out->Layer("persist.wal_bytes", static_cast<double>(last.before.wal_bytes),
             "bytes");
  out->Layer("persist.wal_records",
             static_cast<double>(last.before.wal_records), "count");
  out->Layer("persist.snapshot_bytes",
             static_cast<double>(last.before.snapshot_bytes), "bytes");
  out->Layer("persist.replayed_records",
             static_cast<double>(last.after.replayed_records), "count");
  out->Layer("persist.wal_overhead", ingest_s / memory_ingest, "ratio");
  out->Layer("persist.checkpoint_s", Median(checkpoint_s), "s");
  out->Layer("persist.recover_s", Median(recover_s), "s");
  out->Layer("service.ingest_call_ms", Median(batch_ms), "ms");
  out->Layer("service.gate_wait_s", last.gate_wait_s, "s");
  out->Layer("obs.trace_overhead", overhead[1] / overhead[0], "ratio");
  std::vector<raptor::audit::SyscallRecord> all;
  for (const auto& b : batches) all.insert(all.end(), b.begin(), b.end());
  batches.clear();
  ReportIngestLayers(all, &roots, out);
  std::printf("per-layer self time, ingest_durable (traced cycles):\n%s",
              SelfTimeTable(roots).c_str());
}

}  // namespace raptorbench
