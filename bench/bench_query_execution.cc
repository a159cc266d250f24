// Table VIII (RQ4): execution time of the four semantically equivalent
// query types per case —
//   (a) TBQL (event patterns, scheduled, relational backend)
//   (b) one giant SQL query (all joins/constraints woven together)
//   (c) TBQL in length-1 event path syntax (scheduled, graph backend)
//   (d) one giant Cypher query
// Each query runs BENCH_ROUNDS rounds (default 20) on a log scaled by
// BENCH_SCALE (default 10x the test profile).
//
// A second section measures the graph hot path on the shared synthetic
// large provenance graph fixture (BENCH_LARGE_NODES nodes /
// BENCH_LARGE_EDGES edges, default 100k/500k): typed expansion through the
// per-type adjacency groups plus hashed IN-list probing, and an inline
// equality constraint served by the frozen columns.
// A third section measures LIMIT/DISTINCT early exit on the same graph
// (time and seeds visited).
// A fourth section measures morsel-parallel execution on both backends:
// whole-graph Cypher matching and SQL scans/joins fanned out over the
// storage shards versus the forced-serial path, plus the LIMIT 1 guard
// (small limits must bypass the fan-out and stay on the serial fast
// path). It also covers a deliberately skewed graph where one shard holds
// ~half the expansion work, and the zero-copy merge counters of DISTINCT
// queries (partition adoption; any per-row push fails the bench).
// A fifth section measures inter-query concurrency: N identical TBQL
// hunts submitted through service::HuntService at 1/2/4 in-flight
// (throughput in hunts/sec), plus the zero-copy merge counters of a
// shard-parallel Cypher block query (adopted vs pushed rows; a non-zero
// pushed count on the non-DISTINCT workload fails the bench).
// A sixth section measures continuous hunting: a simulated live stream
// ingested batch by batch through the epoch gate with standing hunts
// attached (batches/sec, records/sec), and the per-refresh cost of the
// dirty-seeded incremental path versus a full re-scan.
// A seventh section measures durability: the same pre-collected batch
// sequence ingested in-memory versus through the write-ahead log
// (overhead ratio), plus checkpoint and crash-restore throughput in
// MB/s and entities/s against a temporary data directory.
// An eighth section measures tracing overhead: the same TBQL hunt run
// through the HuntService with profiling off versus on. The off path must
// stay within noise of the untraced baseline (a single branch per hunt);
// the on path builds the full span tree and is guarded against runaway
// overhead (BENCH_TRACE_MAX_OVERHEAD_X, default 5x).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "service/hunt_service.h"
#include "stream/event_stream.h"
#include "stream/ingestor.h"
#include "tests/fixtures/synthetic_graph.h"

using namespace raptor;

namespace {

/// LIMIT/DISTINCT early exit on the fixture graph: the pipeline stops
/// seed iteration once LIMIT rows exist.
void RunLimitPushdownWorkload(graphdb::GraphDatabase& db,
                              bench::BenchReport* report) {
  struct Workload {
    const char* key;
    std::string query;
  };
  const Workload workloads[] = {
      {"limit1",
       "MATCH (p:proc)-[e:op7]->(f:file) RETURN p.exename, f.name LIMIT 1"},
      {"limit10",
       "MATCH (p:proc)-[e:op7]->(f:file) RETURN p.exename, f.name LIMIT 10"},
      {"distinct_limit10",
       "MATCH (p:proc)-[e:op3]->(f:file) RETURN DISTINCT p.exename LIMIT 10"},
  };
  std::printf("\nLIMIT/DISTINCT early exit:\n");

  int rounds = bench::Rounds(5);
  // Serial: this workload isolates the early exit
  // (RunParallelMatchWorkload measures the fan-out).
  db.options() = graphdb::MatchOptions{};
  db.options().parallel_shards = 1;
  for (const Workload& w : workloads) {
    std::vector<double> times;
    size_t seeds = 0;
    Stopwatch timer;
    for (int i = 0; i < rounds; ++i) {
      graphdb::MatchStats stats;
      timer.Restart();
      auto rs = db.Query(w.query, &stats);
      times.push_back(timer.ElapsedSeconds());
      if (!rs.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     rs.status().ToString().c_str());
        std::exit(1);
      }
      seeds = stats.seed_candidates;
    }
    double seconds = bench::Mean(times);
    std::printf("  %s: %.6f s (%zu seeds visited)\n", w.key, seconds, seeds);
    report->Metric("limit_pushdown",
                   std::string(w.key) + "_streaming_seconds", seconds);
    report->Metric("limit_pushdown", std::string(w.key) + "_streaming_seeds",
                   static_cast<double>(seeds));
  }
  db.options() = graphdb::MatchOptions{};
}

/// Shard-parallel matching vs the serial path on the same fixture graph
/// (the facade shards storage 4 ways by default): one whole-graph match
/// that fans seed iteration out over the worker pool, and a LIMIT 1 probe
/// that must stay on the serial early-exit fast path (parallel_min_limit),
/// whose ratio to the forced-serial run should therefore stay ~1.
void RunParallelMatchWorkload(graphdb::GraphDatabase& db,
                              bench::BenchReport* report) {
  std::printf("\nShard-parallel Cypher (serial vs %zu shards, pool %zu):\n",
              db.graph().shard_count(), ThreadPool::Shared().size());

  int rounds = bench::Rounds(5);
  auto measure = [&](const std::string& query, int shards, size_t* rows_out) {
    db.options() = graphdb::MatchOptions{};
    db.options().parallel_shards = shards;
    std::vector<double> times;
    Stopwatch timer;
    for (int i = 0; i < rounds; ++i) {
      timer.Restart();
      auto rs = db.Query(query);
      times.push_back(timer.ElapsedSeconds());
      if (!rs.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     rs.status().ToString().c_str());
        std::exit(1);
      }
      *rows_out = rs.value().rows.size();
    }
    return bench::Mean(times);
  };

  const std::string full_query =
      "MATCH (p:proc)-[e:op7]->(f:file) WHERE f.name CONTAINS '9' "
      "RETURN p.exename, f.name";
  size_t rows_serial = 0, rows_sharded = 0;
  double serial = measure(full_query, /*shards=*/1, &rows_serial);
  double sharded = measure(full_query, /*shards=*/4, &rows_sharded);
  double speedup = sharded > 0 ? serial / sharded : 0;
  std::printf(
      "  parallel_match: serial %.6f s, sharded %.6f s (%zu rows), "
      "speedup %.2fx\n",
      serial, sharded, rows_sharded, speedup);
  if (rows_serial != rows_sharded) {
    std::fprintf(stderr, "row count mismatch: %zu vs %zu\n", rows_serial,
                 rows_sharded);
    std::exit(1);
  }
  report->Metric("parallel", "match_serial_seconds", serial);
  report->Metric("parallel", "match_sharded_seconds", sharded);
  report->Metric("parallel", "match_speedup", speedup);

  const std::string limit1_query =
      "MATCH (p:proc)-[e:op7]->(f:file) RETURN p.exename, f.name LIMIT 1";
  size_t rows = 0;
  double l1_serial = measure(limit1_query, /*shards=*/1, &rows);
  double l1_default = measure(limit1_query, /*shards=*/4, &rows);
  double ratio = l1_serial > 0 ? l1_default / l1_serial : 0;
  std::printf(
      "  parallel_match_limit1: serial %.6f s, default %.6f s, "
      "ratio %.2fx (must stay near 1: small limits bypass the fan-out)\n",
      l1_serial, l1_default, ratio);
  report->Metric("parallel", "match_limit1_serial_seconds", l1_serial);
  report->Metric("parallel", "match_limit1_default_seconds", l1_default);
  report->Metric("parallel", "match_limit1_ratio", ratio);

  // Zero-copy merge counters: the sharded non-DISTINCT run must adopt
  // every worker block wholesale — any individually pushed row means the
  // merge regressed to per-row moves.
  db.options() = graphdb::MatchOptions{};
  db.options().parallel_shards = 4;
  auto blocks = db.QueryBlocks(full_query);
  if (!blocks.ok()) {
    std::fprintf(stderr, "block query failed: %s\n",
                 blocks.status().ToString().c_str());
    std::exit(1);
  }
  size_t adopted = blocks.value().rows.adopted_rows();
  size_t pushed = blocks.value().rows.pushed_rows();
  std::printf(
      "  zero_copy_merge: %zu rows adopted in %zu blocks, %zu pushed\n",
      adopted, blocks.value().rows.block_count(), pushed);
  if (pushed != 0) {
    std::fprintf(stderr,
                 "zero-copy merge regression: %zu rows moved row-by-row\n",
                 pushed);
    std::exit(1);
  }
  report->Metric("zero_copy", "match_adopted_rows",
                 static_cast<double>(adopted));
  report->Metric("zero_copy", "match_pushed_rows",
                 static_cast<double>(pushed));
  report->Metric("zero_copy", "match_blocks",
                 static_cast<double>(blocks.value().rows.block_count()));

  // DISTINCT merges must stay zero-copy too: hash-partitioned seen-sets
  // let the merge adopt whole per-partition vectors instead of re-checking
  // and pushing rows one by one (the pre-partitioned behavior).
  db.options() = graphdb::MatchOptions{};
  db.options().parallel_shards = 4;
  auto dblocks = db.QueryBlocks(
      "MATCH (p:proc)-[e:op3]->(f:file) RETURN DISTINCT p.exename");
  if (!dblocks.ok()) {
    std::fprintf(stderr, "distinct block query failed: %s\n",
                 dblocks.status().ToString().c_str());
    std::exit(1);
  }
  size_t d_adopted = dblocks.value().rows.adopted_rows();
  size_t d_pushed = dblocks.value().rows.pushed_rows();
  std::printf("  zero_copy_distinct: %zu rows adopted in %zu blocks, %zu "
              "pushed\n",
              d_adopted, dblocks.value().rows.block_count(), d_pushed);
  if (d_pushed != 0 || d_adopted == 0) {
    std::fprintf(stderr,
                 "distinct zero-copy merge regression: %zu adopted, %zu "
                 "pushed row-by-row\n",
                 d_adopted, d_pushed);
    std::exit(1);
  }
  report->Metric("zero_copy", "distinct_adopted_rows",
                 static_cast<double>(d_adopted));
  report->Metric("zero_copy", "distinct_pushed_rows",
                 static_cast<double>(d_pushed));
  db.options() = graphdb::MatchOptions{};
}

/// Morsel work-stealing vs serial on a deliberately skewed graph: half the
/// edge draws pin their source to the hot subset (ids ≡ 0 mod shard
/// count, i.e. one storage shard), and the morsel scheduler splits that
/// shard's seed list into stealable chunks so the other workers share it.
/// A speedup (and a non-zero stolen count) needs several cores.
void RunSkewedMorselWorkload(bench::BenchReport* report) {
  fixtures::SyntheticGraphSpec spec;
  spec.nodes = std::max(2LL, bench::EnvLong("BENCH_LARGE_NODES", 100'000));
  spec.edges = bench::EnvLong("BENCH_LARGE_EDGES", 500'000);
  graphdb::GraphDatabase db;
  spec.skew_hot_fraction = 0.5;
  spec.skew_modulus = static_cast<int>(db.graph().shard_count());
  Rng rng(4242);
  fixtures::BuildSyntheticGraph(db.graph(), spec, rng);
  std::printf(
      "\nSkewed-shard morsel stealing: %lld nodes, %lld edges, %.0f%% of "
      "edge sources pinned to 1 of %zu shards (pool %zu):\n",
      spec.nodes, spec.edges, spec.skew_hot_fraction * 100,
      db.graph().shard_count(), ThreadPool::Shared().size());

  const std::string query =
      "MATCH (p:proc)-[e:op7]->(f:file) WHERE f.name CONTAINS '9' "
      "RETURN p.exename, f.name";
  int rounds = bench::Rounds(5);
  auto measure = [&](int shards, graphdb::GraphResultSet* out,
                     graphdb::MatchStats* stats_out) {
    db.options() = graphdb::MatchOptions{};
    db.options().parallel_shards = shards;
    std::vector<double> times;
    Stopwatch timer;
    for (int i = 0; i < rounds; ++i) {
      graphdb::MatchStats stats;
      timer.Restart();
      auto rs = db.Query(query, &stats);
      times.push_back(timer.ElapsedSeconds());
      if (!rs.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     rs.status().ToString().c_str());
        std::exit(1);
      }
      *out = std::move(rs.value());
      *stats_out = stats;
    }
    return bench::Mean(times);
  };

  graphdb::GraphResultSet rs_serial, rs_morsel;
  graphdb::MatchStats st_serial, st_morsel;
  double serial = measure(1, &rs_serial, &st_serial);
  double morsel = measure(4, &rs_morsel, &st_morsel);
  if (rs_morsel.rows != rs_serial.rows) {
    std::fprintf(stderr, "skewed workload: schedules disagree on rows\n");
    std::exit(1);
  }
  double vs_serial = morsel > 0 ? serial / morsel : 0;
  std::printf(
      "  skewed_match: serial %.6f s, morsel %.6f s (%zu rows; %zu morsels, "
      "%zu stolen), morsel speedup %.2fx\n",
      serial, morsel, rs_morsel.rows.size(), st_morsel.morsels_executed,
      st_morsel.morsels_stolen, vs_serial);
  report->Param("skew_hot_percent",
                static_cast<long long>(spec.skew_hot_fraction * 100));
  report->Metric("skewed", "match_serial_seconds", serial);
  report->Metric("skewed", "match_morsel_seconds", morsel);
  report->Metric("skewed", "morsel_vs_serial_speedup", vs_serial);
  report->Metric("skewed", "morsels_executed",
                 static_cast<double>(st_morsel.morsels_executed));
  report->Metric("skewed", "morsels_stolen",
                 static_cast<double>(st_morsel.morsels_stolen));
}

/// Inter-query concurrency: identical TBQL hunts pushed through the
/// HuntService at increasing admission widths. On multicore hardware
/// throughput should scale with the width until the shared pool
/// saturates; the 1-core dev container reports ~1x (see CI artifacts).
void RunConcurrentHuntWorkload(bench::BenchReport* report) {
  const cases::AttackCase* c = cases::FindCase("data_leak");
  if (c == nullptr) {
    std::fprintf(stderr, "data_leak case missing\n");
    std::exit(1);
  }
  auto tr = bench::LoadCase(*c, bench::NoiseScale());
  const std::string query = "proc p read || write file f return p, f";
  const int hunts =
      static_cast<int>(bench::EnvLong("BENCH_CONCURRENT_HUNTS", 12));
  std::printf("\nConcurrent hunts (%d x \"%s\", store %zu events):\n", hunts,
              query.c_str(), tr->store()->event_count());
  double qps_by_width[3] = {0, 0, 0};
  const size_t widths[3] = {1, 2, 4};
  for (int w = 0; w < 3; ++w) {
    service::HuntServiceOptions opts;
    opts.max_concurrent = widths[w];
    service::HuntService service(tr->store(), opts);
    Stopwatch timer;
    std::vector<service::HuntTicket> tickets;
    tickets.reserve(hunts);
    for (int i = 0; i < hunts; ++i) {
      service::HuntRequest request;
      request.text = query;
      tickets.push_back(service.Submit(std::move(request)));
    }
    size_t rows = 0;
    for (service::HuntTicket& t : tickets) {
      if (!t.Wait().ok()) {
        std::fprintf(stderr, "hunt failed: %s\n",
                     t.status().ToString().c_str());
        std::exit(1);
      }
      rows = t.response().report.results.rows.size();
    }
    double seconds = timer.ElapsedSeconds();
    qps_by_width[w] = seconds > 0 ? hunts / seconds : 0;
    std::printf(
        "  in_flight=%zu: %.3f s total, %.1f hunts/s (%zu rows each)\n",
        widths[w], seconds, qps_by_width[w], rows);
    report->Metric("concurrent",
                   "qps_inflight" + std::to_string(widths[w]),
                   qps_by_width[w]);
  }
  report->Metric("concurrent", "speedup_4v1",
                 qps_by_width[0] > 0 ? qps_by_width[2] / qps_by_width[0] : 0);
}

/// Continuous hunting: a simulated live stream ingested batch by batch
/// through the epoch gate with standing hunts attached. Reports ingest
/// throughput (with refreshes riding along) and the per-refresh cost of
/// the dirty-seeded incremental path vs a forced full re-scan of the
/// same query — the standing-hunt delta win.
void RunStreamingWorkload(bench::BenchReport* report) {
  stream::SimulatorSourceOptions feed;
  long long scale = bench::EnvLong("BENCH_SCALE", 10);
  feed.profile.num_users = 8;
  feed.profile.num_processes = static_cast<int>(40 * scale);
  feed.profile.mean_records_per_process = 30;
  feed.profile.duration = 60LL * 60 * 1000 * 1000;
  feed.batch_window_us = 2LL * 60 * 1000 * 1000;  // 2-minute batches
  stream::SimulatorSource source(feed);

  ThreatRaptorOptions options;
  options.store.carry_over_window = true;
  ThreatRaptor tr(options);
  if (!tr.IngestSyscalls({}).ok()) {
    std::fprintf(stderr, "stream bootstrap failed\n");
    std::exit(1);
  }
  service::HuntService* service = tr.hunt_service();

  // Two standing hunts over the same query: one allowed the dirty-seeded
  // incremental path, one forced to re-scan fully every epoch.
  struct RefreshCost {
    std::mutex mu;
    double seconds = 0;
    size_t refreshes = 0;
    size_t incremental = 0;
    size_t rows = 0;
  };
  RefreshCost inc_cost, full_cost;
  auto make_sink = [](RefreshCost* cost) {
    service::StandingSink sink;
    sink.on_update = [cost](const service::StandingUpdate& update) {
      std::lock_guard<std::mutex> lock(cost->mu);
      cost->seconds += update.seconds;
      ++cost->refreshes;
      if (update.incremental) ++cost->incremental;
      cost->rows = update.total_rows;
    };
    return sink;
  };
  service::HuntRequest standing;
  standing.dialect = service::QueryDialect::kCypher;
  standing.text =
      "MATCH (p:proc)-[e:read]->(f:file) RETURN p.exename, f.name";
  service::StandingOptions inc_opts;
  inc_opts.max_dirty_fraction = 1.0;
  auto inc_handle =
      service->SubmitStanding(standing, make_sink(&inc_cost), inc_opts);
  service::StandingOptions full_opts;
  full_opts.allow_incremental = false;
  auto full_handle =
      service->SubmitStanding(standing, make_sink(&full_cost), full_opts);

  // Stream everything; refresh between batches so both subscriptions pay
  // one refresh per epoch (coalescing would hide the per-refresh cost).
  Stopwatch timer;
  size_t batches = 0;
  size_t records = 0;
  for (;;) {
    auto batch = source.Poll();
    if (!batch.ok()) {
      std::fprintf(stderr, "poll failed: %s\n",
                   batch.status().ToString().c_str());
      std::exit(1);
    }
    if (!batch.value().records.empty()) {
      ++batches;
      records += batch.value().records.size();
      if (!tr.IngestSyscalls(batch.value().records).ok()) {
        std::fprintf(stderr, "stream ingest failed\n");
        std::exit(1);
      }
      inc_handle.WaitEpoch(service->epoch());
      full_handle.WaitEpoch(service->epoch());
    }
    if (batch.value().end_of_stream) break;
  }
  if (!tr.FlushIngest().ok()) std::exit(1);
  inc_handle.WaitEpoch(service->epoch());
  full_handle.WaitEpoch(service->epoch());
  double seconds = timer.ElapsedSeconds();

  std::lock_guard<std::mutex> li(inc_cost.mu);
  std::lock_guard<std::mutex> lf(full_cost.mu);
  if (inc_cost.rows != full_cost.rows || inc_cost.incremental == 0) {
    std::fprintf(stderr,
                 "standing differential broke: inc %zu rows (%zu "
                 "incremental refreshes) vs full %zu rows\n",
                 inc_cost.rows, inc_cost.incremental, full_cost.rows);
    std::exit(1);
  }
  double inc_per = inc_cost.seconds / inc_cost.refreshes;
  double full_per = full_cost.seconds / full_cost.refreshes;
  std::printf(
      "\nStreaming ingest (2 standing hunts attached, carry-over window):\n"
      "  %zu batches / %zu records in %.3f s -> %.1f batches/s, %.0f "
      "records/s\n"
      "  store: %zu events after reduction; %llu epochs\n"
      "  refresh cost: incremental %.3f ms vs full re-scan %.3f ms "
      "(%.1fx; %zu/%zu refreshes dirty-seeded)\n",
      batches, records, seconds, batches / seconds, records / seconds,
      tr.store()->event_count(),
      static_cast<unsigned long long>(service->epoch()), inc_per * 1e3,
      full_per * 1e3, inc_per > 0 ? full_per / inc_per : 0,
      inc_cost.incremental, inc_cost.refreshes);
  report->Metric("streaming", "ingest_batches_per_sec", batches / seconds);
  report->Metric("streaming", "ingest_records_per_sec", records / seconds);
  report->Metric("streaming", "standing_refreshes",
                 static_cast<double>(inc_cost.refreshes));
  report->Metric("streaming", "incremental_refreshes",
                 static_cast<double>(inc_cost.incremental));
  report->Metric("streaming", "incremental_refresh_seconds", inc_per);
  report->Metric("streaming", "full_refresh_seconds", full_per);
  report->Metric("streaming", "incremental_vs_full_speedup",
                 inc_per > 0 ? full_per / inc_per : 0);
}

/// Durability: the same pre-collected batch sequence ingested with the
/// write-ahead log on versus purely in-memory (overhead ratio), then a
/// full checkpoint and a crash-restore (Open after dropping the facade
/// without Close), each reported as MB/s over the snapshot bytes and
/// entities/s over the recovered entity+event population.
void RunDurabilityWorkload(bench::BenchReport* report) {
  long long scale = bench::EnvLong("BENCH_SCALE", 10);
  stream::SimulatorSourceOptions feed;
  feed.profile.num_users = 8;
  feed.profile.num_processes = static_cast<int>(40 * scale);
  feed.profile.mean_records_per_process = 30;
  feed.profile.duration = 60LL * 60 * 1000 * 1000;
  feed.batch_window_us = 2LL * 60 * 1000 * 1000;  // 2-minute batches
  stream::SimulatorSource source(feed);
  std::vector<std::vector<audit::SyscallRecord>> batches;
  size_t records = 0;
  for (;;) {
    auto batch = source.Poll();
    if (!batch.ok()) {
      std::fprintf(stderr, "poll failed: %s\n",
                   batch.status().ToString().c_str());
      std::exit(1);
    }
    if (!batch.value().records.empty()) {
      records += batch.value().records.size();
      batches.push_back(std::move(batch.value().records));
    }
    if (batch.value().end_of_stream) break;
  }

  // Baseline: identical batches into a plain in-memory facade.
  Stopwatch memory_timer;
  ThreatRaptor memory_tr;
  for (const auto& batch : batches) {
    if (!memory_tr.IngestSyscalls(batch).ok()) std::exit(1);
  }
  if (!memory_tr.FlushIngest().ok()) std::exit(1);
  double memory_seconds = memory_timer.ElapsedSeconds();

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "raptor_bench_durable";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  persist::DurabilityOptions durability;
  durability.data_dir = dir.string();

  // Same batches with every mutation framed into the WAL first.
  Stopwatch wal_timer;
  auto durable = ThreatRaptor::Open(durability);
  if (!durable.ok()) {
    std::fprintf(stderr, "durable open failed: %s\n",
                 durable.status().ToString().c_str());
    std::exit(1);
  }
  ThreatRaptor* tr = durable.value().get();
  for (const auto& batch : batches) {
    if (!tr->IngestSyscalls(batch).ok()) std::exit(1);
  }
  if (!tr->FlushIngest().ok()) std::exit(1);
  double wal_seconds = wal_timer.ElapsedSeconds();

  // Explicit checkpoint: sharded snapshot + WAL rotation + prune.
  Stopwatch checkpoint_timer;
  if (!tr->Checkpoint().ok()) std::exit(1);
  double checkpoint_seconds = checkpoint_timer.ElapsedSeconds();
  persist::DurabilityStats stats = tr->durability_stats();
  size_t entities = tr->store()->entity_count();
  size_t events = tr->store()->event_count();
  double population = static_cast<double>(entities + events);
  double snapshot_mb = stats.snapshot_bytes / (1024.0 * 1024.0);

  // Crash: drop the facade without Close, then recover from disk.
  durable.value().reset();
  Stopwatch restore_timer;
  auto reopened = ThreatRaptor::Open(durability);
  if (!reopened.ok()) {
    std::fprintf(stderr, "restore failed: %s\n",
                 reopened.status().ToString().c_str());
    std::exit(1);
  }
  double restore_seconds = restore_timer.ElapsedSeconds();
  if (!reopened.value()->durability_stats().restored ||
      reopened.value()->store()->event_count() != events ||
      reopened.value()->store()->entity_count() != entities) {
    std::fprintf(stderr, "restore differential broke: %zu/%zu events, "
                 "%zu/%zu entities\n",
                 reopened.value()->store()->event_count(), events,
                 reopened.value()->store()->entity_count(), entities);
    std::exit(1);
  }
  reopened.value().reset();
  std::filesystem::remove_all(dir, ec);

  double overhead = memory_seconds > 0 ? wal_seconds / memory_seconds : 0;
  std::printf(
      "\nDurability (%zu batches / %zu records; snapshot %.2f MB, "
      "%zu entities + %zu events):\n"
      "  ingest: in-memory %.3f s, with WAL %.3f s (%.2fx overhead)\n"
      "  checkpoint: %.3f s -> %.1f MB/s, %.0f entities/s\n"
      "  restore:    %.3f s -> %.1f MB/s, %.0f entities/s\n",
      batches.size(), records, snapshot_mb, entities, events,
      memory_seconds, wal_seconds, overhead, checkpoint_seconds,
      checkpoint_seconds > 0 ? snapshot_mb / checkpoint_seconds : 0,
      checkpoint_seconds > 0 ? population / checkpoint_seconds : 0,
      restore_seconds,
      restore_seconds > 0 ? snapshot_mb / restore_seconds : 0,
      restore_seconds > 0 ? population / restore_seconds : 0);
  report->Metric("durability", "ingest_memory_seconds", memory_seconds);
  report->Metric("durability", "ingest_wal_seconds", wal_seconds);
  report->Metric("durability", "wal_overhead_ratio", overhead);
  report->Metric("durability", "checkpoint_seconds", checkpoint_seconds);
  report->Metric("durability", "checkpoint_mb_per_sec",
                 checkpoint_seconds > 0 ? snapshot_mb / checkpoint_seconds
                                        : 0);
  report->Metric("durability", "checkpoint_entities_per_sec",
                 checkpoint_seconds > 0 ? population / checkpoint_seconds
                                        : 0);
  report->Metric("durability", "restore_seconds", restore_seconds);
  report->Metric("durability", "restore_mb_per_sec",
                 restore_seconds > 0 ? snapshot_mb / restore_seconds : 0);
  report->Metric("durability", "restore_entities_per_sec",
                 restore_seconds > 0 ? population / restore_seconds : 0);
}

/// Tracing overhead: the same TBQL hunt through the HuntService with
/// profiling off versus on. Off is the production default — one null
/// check per instrumentation point — so its time should be statistically
/// indistinguishable from the pre-tracing baseline (tracked across
/// commits by bench_compare.py on this JSON). On pays for the span tree;
/// the guard only catches runaway regressions, not scheduler noise.
void RunTracingOverheadWorkload(bench::BenchReport* report) {
  const cases::AttackCase* c = cases::FindCase("data_leak");
  if (c == nullptr) {
    std::fprintf(stderr, "data_leak case missing\n");
    std::exit(1);
  }
  auto tr = bench::LoadCase(*c, bench::NoiseScale());
  const std::string query = "proc p read || write file f return p, f";
  int rounds = bench::Rounds(10);
  service::HuntService service(tr->store());

  size_t span_count = 0;
  auto measure = [&](bool profile, size_t* rows_out) {
    std::vector<double> times;
    Stopwatch timer;
    for (int i = 0; i < rounds; ++i) {
      service::HuntRequest request;
      request.text = query;
      request.profile = profile;
      timer.Restart();
      service::HuntTicket ticket = service.Submit(std::move(request));
      if (!ticket.Wait().ok()) {
        std::fprintf(stderr, "hunt failed: %s\n",
                     ticket.status().ToString().c_str());
        std::exit(1);
      }
      times.push_back(timer.ElapsedSeconds());
      *rows_out = ticket.response().report.results.rows.size();
      const obs::TraceSpan* root = ticket.response().profile.get();
      if (profile != (root != nullptr)) {
        std::fprintf(stderr,
                     "profile presence disagrees with the request flag\n");
        std::exit(1);
      }
      if (root != nullptr) {
        span_count = 0;
        auto count = [&](auto&& self, const obs::TraceSpan& s) -> void {
          ++span_count;
          for (const auto& child : s.children()) self(self, *child);
        };
        count(count, *root);
      }
    }
    return bench::Mean(times);
  };

  size_t rows_off = 0, rows_on = 0;
  double off = measure(/*profile=*/false, &rows_off);
  double on = measure(/*profile=*/true, &rows_on);
  if (rows_off != rows_on) {
    std::fprintf(stderr, "tracing changed results: %zu vs %zu rows\n",
                 rows_off, rows_on);
    std::exit(1);
  }
  double overhead = off > 0 ? on / off : 0;
  std::printf(
      "\nTracing overhead (%d-round mean, %zu rows, %zu spans per "
      "profile):\n"
      "  profile off %.6f s, profile on %.6f s -> %.2fx overhead\n",
      rounds, rows_on, span_count, off, on, overhead);
  long long max_overhead = bench::EnvLong("BENCH_TRACE_MAX_OVERHEAD_X", 5);
  if (overhead > static_cast<double>(max_overhead)) {
    std::fprintf(stderr,
                 "tracing overhead regression: %.2fx exceeds the %lldx "
                 "guard\n",
                 overhead, max_overhead);
    std::exit(1);
  }
  report->Metric("tracing", "profile_off_seconds", off);
  report->Metric("tracing", "profile_on_seconds", on);
  report->Metric("tracing", "overhead_ratio", overhead);
  report->Metric("tracing", "profile_spans",
                 static_cast<double>(span_count));
}

/// Shard-parallel SELECT vs the serial path: a filtered full scan and a
/// hash join whose probe side rides the partitioned base scan.
void RunParallelSelectWorkload(long long rows_n,
                               bench::BenchReport* report) {
  sql::Database db;  // kDefaultShardCount-way sharded storage
  if (!db.CreateTable("big", sql::Schema({{"id", sql::ColumnType::kInt64},
                                          {"name", sql::ColumnType::kText},
                                          {"score", sql::ColumnType::kInt64}}))
           .ok() ||
      !db.CreateTable("dim", sql::Schema({{"id", sql::ColumnType::kInt64},
                                          {"tag", sql::ColumnType::kText}}))
           .ok()) {
    std::fprintf(stderr, "table creation failed\n");
    std::exit(1);
  }
  Rng rng(271828);
  for (long long i = 0; i < rows_n; ++i) {
    (void)db.Insert("big", {sql::Value(static_cast<int64_t>(i)),
                            sql::Value("/data/f" + std::to_string(i)),
                            sql::Value(static_cast<int64_t>(rng.Uniform(100)))});
  }
  for (int i = 0; i < 100; ++i) {
    (void)db.Insert("dim", {sql::Value(static_cast<int64_t>(i)),
                            sql::Value("tag" + std::to_string(i))});
  }
  std::printf("\nShard-parallel SQL on %lld rows (serial vs sharded):\n",
              rows_n);

  int rounds = bench::Rounds(5);
  sql::ExecStats last_stats;
  auto measure = [&](const char* query, int shards) {
    db.options() = sql::SelectOptions{};
    db.options().parallel_shards = shards;
    std::vector<double> times;
    Stopwatch timer;
    for (int i = 0; i < rounds; ++i) {
      sql::ExecStats stats;
      timer.Restart();
      auto rs = db.Query(query, &stats);
      times.push_back(timer.ElapsedSeconds());
      if (!rs.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     rs.status().ToString().c_str());
        std::exit(1);
      }
      last_stats = stats;
    }
    return bench::Mean(times);
  };

  const char* scan_query =
      "SELECT id FROM big WHERE score > 50 AND name LIKE '%7%'";
  double scan_serial = measure(scan_query, 1);
  double scan_sharded = measure(scan_query, 4);
  double scan_speedup = scan_sharded > 0 ? scan_serial / scan_sharded : 0;
  std::printf("  parallel_select: serial %.6f s, sharded %.6f s, %.2fx\n",
              scan_serial, scan_sharded, scan_speedup);
  report->Metric("parallel", "select_serial_seconds", scan_serial);
  report->Metric("parallel", "select_sharded_seconds", scan_sharded);
  report->Metric("parallel", "select_speedup", scan_speedup);

  const char* join_query =
      "SELECT t.id, u.tag FROM big t, dim u WHERE t.score = u.id "
      "AND t.score > 60";
  double join_serial = measure(join_query, 1);
  double join_sharded = measure(join_query, 4);
  double join_speedup = join_sharded > 0 ? join_serial / join_sharded : 0;
  std::printf("  parallel_join: serial %.6f s, sharded %.6f s, %.2fx\n",
              join_serial, join_sharded, join_speedup);
  report->Metric("parallel", "join_serial_seconds", join_serial);
  report->Metric("parallel", "join_sharded_seconds", join_sharded);
  report->Metric("parallel", "join_speedup", join_speedup);

  // Columnar filter compilation, serial: `score > 50` compiles to an
  // int-vector compare on the frozen columns (the LIKE conjunct still
  // evaluates row-wise).
  double col_on = measure(scan_query, 1);
  size_t columnar_rows = last_stats.columnar_filter_rows;
  std::printf(
      "  columnar_select: %.6f s (%zu predicate rows served from columns)\n",
      col_on, columnar_rows);
  if (columnar_rows == 0) {
    std::fprintf(stderr, "columnar filter compilation did not engage\n");
    std::exit(1);
  }
  report->Metric("columnar", "select_columnar_seconds", col_on);
  report->Metric("columnar", "select_filter_rows",
                 static_cast<double>(columnar_rows));

  // Morsel scheduler counters on the sharded scan (uniform data; the
  // skewed-graph workload measures the stealing win).
  double sel_morsel = measure(scan_query, 4);
  size_t sel_morsels = last_stats.morsels_executed;
  size_t sel_stolen = last_stats.morsels_stolen;
  std::printf("  morsel_select: %.6f s (%zu morsels, %zu stolen)\n",
              sel_morsel, sel_morsels, sel_stolen);
  report->Metric("morsel", "select_morsel_seconds", sel_morsel);
  report->Metric("morsel", "select_morsels_executed",
                 static_cast<double>(sel_morsels));
  report->Metric("morsel", "select_morsels_stolen",
                 static_cast<double>(sel_stolen));
}

/// Typed expansion + IN-filter probing on a synthetic large graph.
void RunLargeGraphWorkload(bench::BenchReport* report) {
  fixtures::SyntheticGraphSpec spec;
  // >= 2 so both node populations are non-empty (Rng::Uniform needs n > 0).
  spec.nodes = std::max(2LL, bench::EnvLong("BENCH_LARGE_NODES", 100'000));
  spec.edges = bench::EnvLong("BENCH_LARGE_EDGES", 500'000);
  // Propagated entity-id IN domains reach thousands of ids on large logs.
  const int n_in_list = 2048;

  std::printf(
      "\nLarge-graph hot path: %lld nodes, %lld edges, %d edge types, "
      "IN-list of %d file names\n",
      spec.nodes, spec.edges, spec.edge_types, n_in_list);

  graphdb::GraphDatabase db;
  Rng rng(42);
  Stopwatch sw;
  fixtures::SyntheticGraph sg =
      fixtures::BuildSyntheticGraph(db.graph(), spec, rng);
  double build_seconds = sw.ElapsedSeconds();

  // Query: typed expansion to files whose name is in a large IN list.
  std::string query = "MATCH (p:proc)-[e:op7]->(f:file) WHERE f.name IN [" +
                      fixtures::RandomFileNameInList(spec, sg, rng, n_in_list) +
                      "] RETURN p.exename, f.name";

  int rounds = bench::Rounds(5);
  auto measure = [&](const std::string& q) {
    // Serial: this workload isolates the indexed/interned hot path
    // (RunParallelMatchWorkload measures the fan-out).
    db.options() = graphdb::MatchOptions{};
    db.options().parallel_shards = 1;
    std::vector<double> times;
    size_t rows = 0, edges_traversed = 0;
    Stopwatch timer;
    for (int i = 0; i < rounds; ++i) {
      graphdb::MatchStats stats;
      timer.Restart();
      auto rs = db.Query(q, &stats);
      times.push_back(timer.ElapsedSeconds());
      if (!rs.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     rs.status().ToString().c_str());
        std::exit(1);
      }
      rows = rs.value().rows.size();
      edges_traversed = stats.edges_traversed;
    }
    std::printf(" %s s (%zu rows, %zu edges traversed)\n",
                bench::MeanStd(times).c_str(), rows, edges_traversed);
    return bench::Mean(times);
  };

  std::printf("  typed expansion + hashed IN-list:");
  double fast = measure(query);
  std::printf("  build: %.3f s\n", build_seconds);

  // Columnar predicate evaluation: an inline equality constraint on the
  // expansion target compiles to a dictionary-id compare against the
  // frozen column (one uint32 per candidate).
  std::string eq_query = "MATCH (p:proc)-[e:op7]->(f:file {name: '" +
                         fixtures::RandomFileName(spec, sg, rng) +
                         "'}) RETURN p.exename";
  std::printf("  columnar inline equality:");
  double columnar_on = measure(eq_query);
  db.options() = graphdb::MatchOptions{};

  report->Param("large_nodes", spec.nodes);
  report->Param("large_edges", spec.edges);
  report->Param("large_edge_types", spec.edge_types);
  report->Param("large_in_list", n_in_list);
  report->Metric("large_graph", "build_seconds", build_seconds);
  report->Metric("large_graph", "indexed_seconds", fast);
  report->Metric("columnar", "match_columnar_seconds", columnar_on);

  RunLimitPushdownWorkload(db, report);
  RunParallelMatchWorkload(db, report);
  RunSkewedMorselWorkload(report);
  RunParallelSelectWorkload(spec.nodes, report);
}

}  // namespace

int main() {
  int scale = bench::NoiseScale();
  int rounds = bench::Rounds();
  bench::BenchReport report("query_execution");
  report.Param("scale", scale);
  report.Param("rounds", rounds);
  std::printf(
      "Table VIII: query execution time (seconds, %d-round mean ± std, "
      "noise scale %dx)\n\n",
      rounds, scale);
  TablePrinter table({"Case", "TBQL", "SQL", "TBQL (length-1 path)",
                      "Cypher"});
  double totals[4] = {0, 0, 0, 0};
  for (const cases::AttackCase& c : cases::AllCases()) {
    auto tr = bench::LoadCase(c, scale);
    auto ext = tr->ExtractBehaviorGraph(c.oscti_text);
    auto syn = tr->SynthesizeQuery(ext.value().graph);
    if (!syn.ok()) {
      table.AddRow({c.id, "synthesis error", "", "", ""});
      continue;
    }
    tbql::TbqlQuery query = std::move(syn).value().query;
    auto analyzed = tbql::Analyze(query);
    auto giant_sql = engine::CompileGiantSql(analyzed.value());
    auto giant_cypher = engine::CompileGiantCypher(analyzed.value());
    tbql::TbqlQuery path_query = engine::ToLength1PathQuery(query);

    auto measure = [&](auto fn) {
      std::vector<double> times;
      times.reserve(rounds);
      Stopwatch sw;
      for (int i = 0; i < rounds; ++i) {
        sw.Restart();
        fn();
        times.push_back(sw.ElapsedSeconds());
      }
      return times;
    };

    std::vector<double> t_tbql =
        measure([&] { (void)tr->Hunt(query); });
    std::vector<double> t_sql = measure(
        [&] { (void)tr->store()->relational().Query(giant_sql.value()); });
    std::vector<double> t_path =
        measure([&] { (void)tr->Hunt(path_query); });
    std::vector<double> t_cypher = measure(
        [&] { (void)tr->store()->graph().Query(giant_cypher.value()); });

    totals[0] += bench::Mean(t_tbql);
    totals[1] += bench::Mean(t_sql);
    totals[2] += bench::Mean(t_path);
    totals[3] += bench::Mean(t_cypher);
    report.Metric(c.id, "tbql_seconds", bench::Mean(t_tbql));
    report.Metric(c.id, "giant_sql_seconds", bench::Mean(t_sql));
    report.Metric(c.id, "tbql_path_seconds", bench::Mean(t_path));
    report.Metric(c.id, "giant_cypher_seconds", bench::Mean(t_cypher));
    table.AddRow({c.id, bench::MeanStd(t_tbql), bench::MeanStd(t_sql),
                  bench::MeanStd(t_path), bench::MeanStd(t_cypher)});
  }
  table.AddRow({"Total", StrFormat("%.4f", totals[0]),
                StrFormat("%.4f", totals[1]), StrFormat("%.4f", totals[2]),
                StrFormat("%.4f", totals[3])});
  table.Print();
  std::printf(
      "\nRelational backend: scheduled TBQL vs giant SQL speedup = %.1fx\n"
      "Graph backend: scheduled TBQL(path) vs giant Cypher speedup = %.1fx\n",
      totals[1] / totals[0], totals[3] / totals[2]);
  report.Metric("total", "tbql_seconds", totals[0]);
  report.Metric("total", "giant_sql_seconds", totals[1]);
  report.Metric("total", "tbql_path_seconds", totals[2]);
  report.Metric("total", "giant_cypher_seconds", totals[3]);

  RunLargeGraphWorkload(&report);
  RunConcurrentHuntWorkload(&report);
  RunStreamingWorkload(&report);
  RunDurabilityWorkload(&report);
  RunTracingOverheadWorkload(&report);
  report.Write();
  return 0;
}
