// threatraptor — command-line interface to the library.
//
//   threatraptor list-cases
//       List the 18 benchmark attack cases.
//   threatraptor demo <case-id>
//       Run the full pipeline on a benchmark case: behavior graph, TBQL,
//       matched events, precision/recall against ground truth.
//   threatraptor extract <oscti.txt>
//       Extract a threat behavior graph + synthesized TBQL from a report.
//   threatraptor gen-log <case-id> <out.jsonl>
//       Export a case's audit log (benign noise + attack) as JSON lines.
//   threatraptor hunt (--log <log.jsonl> | --case <case-id>) --query <tbql>
//       [--query <tbql> ...] [--jobs N]
//       Execute TBQL queries against a log in exact search mode. Multiple
//       --query arguments submit through the concurrent HuntService with
//       up to N hunts in flight (default 1). --stats prints the service's
//       SLO metrics (queue depth, latency quantiles, per-tenant counters,
//       ingest-gate waits) once the hunts finish.
//   threatraptor hunt --follow <log.jsonl> --query <tbql> [--query ...]
//       [--standing] [--idle-ms N]
//       Continuous hunting: tail a growing JSON-lines audit log, ingesting
//       batches through the epoch gate as they arrive. With --standing the
//       queries register as standing hunts and print row deltas per epoch;
//       without it they run once after the stream ends. The stream ends
//       when the file stops growing for N ms (default 2000).
//   threatraptor fuzzy (--log <log.jsonl> | --case <case-id>) --query <tbql>
//       Execute a TBQL query in fuzzy (Poirot-alignment) search mode.
//   threatraptor catalog list
//       List the hunt library's built-in ATT&CK technique templates.
//   threatraptor hunt (--log ... | --case ...) --technique <id>
//       [--param name=value ...]
//       Instantiate a catalog technique (parameters fill its IOC slots;
//       missing ones match anything) and run it once.
//
// Durability (hunt command): --data-dir <dir> persists every ingested
// batch through a write-ahead log and checkpoints (--checkpoint-every N
// epochs) into <dir>. --restore hunts over the recovered store with no
// --log/--case. A durable --follow run resumes the tail at the recovered
// byte offset, so restarting it neither skips nor re-ingests records.
//
// Observability (hunt command): --explain-analyze prints each hunt's
// span-tree profile (per-pattern, per-worker timings and counters) after
// its results; --profile-json <file> appends the same profile as one JSON
// line per hunt ("-" prints to stdout). --metrics-export dumps the full
// telemetry registry (admission, gate, standing/MQO, WAL/checkpoint,
// stream-ingest series) as Prometheus text once the hunts finish.
// --slow-hunt-ms N [--slow-hunt-log <path>] appends a JSONL record — span
// tree inlined — for every hunt or standing refresh slower than N ms
// (default log: slow-hunts.jsonl).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "audit/jsonl.h"
#include "audit/parser.h"
#include "engine/explain.h"
#include "cases/cases.h"
#include "huntlib/catalog.h"
#include "obs/profile.h"
#include "stream/event_stream.h"
#include "stream/ingestor.h"
#include "threatraptor.h"

namespace {

using namespace raptor;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  threatraptor list-cases\n"
      "  threatraptor demo <case-id>\n"
      "  threatraptor extract <oscti.txt>\n"
      "  threatraptor gen-log <case-id> <out.jsonl>\n"
      "  threatraptor hunt (--log <log.jsonl> | --case <id> | --restore)\n"
      "      --query <tbql> [--query <tbql> ...] [--jobs N] [--stats]\n"
      "      [--data-dir <dir>] [--checkpoint-every N]\n"
      "      [--explain-analyze] [--profile-json <file|->]\n"
      "      [--metrics-export] [--slow-hunt-ms N] [--slow-hunt-log <path>]\n"
      "  threatraptor hunt --follow <log.jsonl> --query <tbql> [--query ...]\n"
      "      [--standing] [--idle-ms N] [--stats] [--data-dir <dir>]\n"
      "      [--checkpoint-every N] [--explain-analyze] [--metrics-export]\n"
      "  threatraptor fuzzy (--log <log.jsonl> | --case <id>) --query "
      "<tbql>\n"
      "  threatraptor catalog list\n"
      "  threatraptor hunt (--log <log.jsonl> | --case <id> | --restore)\n"
      "      --technique <id> [--param name=value ...]\n"
      "  threatraptor explain --query <tbql>\n");
  return 2;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int ListCases() {
  std::printf("%-22s %s\n", "id", "name");
  for (const cases::AttackCase& c : cases::AllCases()) {
    std::printf("%-22s %s\n", c.id.c_str(), c.name.c_str());
  }
  return 0;
}

Result<std::unique_ptr<ThreatRaptor>> LoadFromCase(const std::string& id) {
  const cases::AttackCase* c = cases::FindCase(id);
  if (c == nullptr) return Status::NotFound("unknown case: " + id);
  auto tr = std::make_unique<ThreatRaptor>();
  RAPTOR_RETURN_NOT_OK(tr->IngestSyscalls(cases::BuildCaseLog(*c)));
  return tr;
}

Result<std::unique_ptr<ThreatRaptor>> LoadFromJsonl(const std::string& path) {
  auto content = ReadFile(path);
  if (!content.ok()) return content.status();
  auto records = audit::ParseJsonlRecords(content.value());
  if (!records.ok()) return records.status();
  auto tr = std::make_unique<ThreatRaptor>();
  RAPTOR_RETURN_NOT_OK(tr->IngestSyscalls(records.value()));
  return tr;
}

int CatalogList() {
  std::printf("%-8s %-20s %-8s %-7s %s\n", "id", "tactic", "severity",
              "dialect", "name");
  for (const huntlib::Technique& t : huntlib::AllTechniques()) {
    const char* dialect =
        t.dialect == service::QueryDialect::kTbql
            ? "tbql"
            : t.dialect == service::QueryDialect::kCypher ? "cypher" : "sql";
    std::string slots;
    for (const huntlib::IocSlot& slot : t.ioc_slots) {
      slots += slots.empty() ? "  [" : " ";
      slots += slot.param;
    }
    if (!slots.empty()) slots += "]";
    std::printf("%-8s %-20s %-8s %-7s %s%s\n", t.id.c_str(),
                huntlib::TacticName(t.tactic),
                huntlib::SeverityName(t.severity), dialect, t.name.c_str(),
                slots.c_str());
  }
  return 0;
}

int Demo(const std::string& id) {
  const cases::AttackCase* c = cases::FindCase(id);
  if (c == nullptr) {
    std::fprintf(stderr, "unknown case: %s (try list-cases)\n", id.c_str());
    return 1;
  }
  auto tr = LoadFromCase(id);
  if (!tr.ok()) {
    std::fprintf(stderr, "%s\n", tr.status().ToString().c_str());
    return 1;
  }
  std::printf("case: %s (%s)\n", c->id.c_str(), c->name.c_str());
  std::printf("store: %zu entities, %zu events\n\n",
              tr.value()->store()->entity_count(),
              tr.value()->store()->event_count());
  std::printf("OSCTI report:\n%s\n\n", c->oscti_text.c_str());
  auto outcome = tr.value()->HuntWithOsctiText(c->oscti_text);
  if (!outcome.ok()) {
    std::fprintf(stderr, "hunt failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  std::printf("threat behavior graph:\n%s\n",
              outcome.value().extraction.graph.ToString().c_str());
  std::printf("synthesized TBQL query:\n%s\n\n",
              outcome.value().synthesis.tbql_text.c_str());
  std::printf("matched records:\n%s\n",
              outcome.value().report.results.ToString().c_str());
  auto gt = cases::GroundTruthEventIds(*c, *tr.value()->store());
  cases::PrScore score =
      cases::ScoreEvents(outcome.value().report.matched_event_ids, gt);
  std::printf("events: found %zu, ground truth %zu -> precision %zu/%zu, "
              "recall %zu/%zu\n",
              score.tp + score.fp, gt.size(), score.tp, score.tp + score.fp,
              score.tp, score.tp + score.fn);
  return 0;
}

int Extract(const std::string& path) {
  auto content = ReadFile(path);
  if (!content.ok()) {
    std::fprintf(stderr, "%s\n", content.status().ToString().c_str());
    return 1;
  }
  extraction::ThreatBehaviorExtractor extractor;
  auto result = extractor.Extract(content.value());
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("IOCs (%zu):\n", result.value().iocs.size());
  for (const extraction::IocEntity& e : result.value().iocs) {
    std::printf("  [%s] %s\n", nlp::IocTypeName(e.type), e.text.c_str());
  }
  std::printf("\nthreat behavior graph:\n%s\n",
              result.value().graph.ToString().c_str());
  synthesis::QuerySynthesizer synthesizer;
  auto syn = synthesizer.Synthesize(result.value().graph);
  if (syn.ok()) {
    std::printf("synthesized TBQL query:\n%s\n",
                syn.value().tbql_text.c_str());
  } else {
    std::printf("query synthesis: %s\n", syn.status().ToString().c_str());
  }
  return 0;
}

int GenLog(const std::string& id, const std::string& out_path) {
  const cases::AttackCase* c = cases::FindCase(id);
  if (c == nullptr) {
    std::fprintf(stderr, "unknown case: %s\n", id.c_str());
    return 1;
  }
  std::string jsonl = audit::RecordsToJsonl(cases::BuildCaseLog(*c));
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write: %s\n", out_path.c_str());
    return 1;
  }
  out << jsonl;
  std::printf("wrote %zu bytes to %s\n", jsonl.size(), out_path.c_str());
  return 0;
}

struct HuntArgs {
  std::string log_path;
  std::string case_id;
  std::string follow_path;  // continuous mode: tail this JSONL file
  bool standing = false;    // register queries as standing hunts
  long long idle_ms = 2000; // stream ends after this long without growth
  std::string data_dir;     // durable mode: WAL + checkpoints live here
  long long checkpoint_every = 0;  // auto-checkpoint interval in epochs
  bool restore = false;     // hunt over the data dir's recovered store
  bool stats = false;       // print the service's SLO metrics afterwards
  bool explain_analyze = false;  // print each hunt's span-tree profile
  std::string profile_json;      // append profile JSON lines here ("-": stdout)
  bool metrics_export = false;   // dump the telemetry registry (Prometheus)
  long long slow_hunt_ms = -1;   // slow-hunt log threshold (<0: off)
  std::string slow_hunt_log;     // slow-hunt log path (default when ms set)
  std::vector<std::string> queries;
  std::string technique;    // catalog technique id instead of --query
  std::map<std::string, std::string> params;  // --param name=value fills slots
  int jobs = 1;

  const std::string& query() const { return queries.front(); }

  /// Any flag that needs the span tree captured (HuntRequest::profile).
  bool WantProfile() const { return explain_analyze || !profile_json.empty(); }

  persist::DurabilityOptions Durability() const {
    persist::DurabilityOptions d;
    d.data_dir = data_dir;
    if (checkpoint_every > 0) {
      d.snapshot_interval_epochs = static_cast<uint64_t>(checkpoint_every);
    }
    return d;
  }
};

bool ParseHuntArgs(int argc, char** argv, int start, HuntArgs* out) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--log") {
      const char* v = next();
      if (v == nullptr) return false;
      out->log_path = v;
    } else if (arg == "--case") {
      const char* v = next();
      if (v == nullptr) return false;
      out->case_id = v;
    } else if (arg == "--follow") {
      const char* v = next();
      if (v == nullptr) return false;
      out->follow_path = v;
    } else if (arg == "--standing") {
      out->standing = true;
    } else if (arg == "--idle-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      out->idle_ms = std::atoll(v);
      if (out->idle_ms < 0) return false;
    } else if (arg == "--data-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      out->data_dir = v;
    } else if (arg == "--checkpoint-every") {
      const char* v = next();
      if (v == nullptr) return false;
      out->checkpoint_every = std::atoll(v);
      if (out->checkpoint_every < 1) return false;
    } else if (arg == "--restore") {
      out->restore = true;
    } else if (arg == "--stats") {
      out->stats = true;
    } else if (arg == "--explain-analyze") {
      out->explain_analyze = true;
    } else if (arg == "--profile-json") {
      const char* v = next();
      if (v == nullptr) return false;
      out->profile_json = v;
    } else if (arg == "--metrics-export") {
      out->metrics_export = true;
    } else if (arg == "--slow-hunt-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      out->slow_hunt_ms = std::atoll(v);
      if (out->slow_hunt_ms < 0) return false;
    } else if (arg == "--slow-hunt-log") {
      const char* v = next();
      if (v == nullptr) return false;
      out->slow_hunt_log = v;
    } else if (arg == "--query") {
      const char* v = next();
      if (v == nullptr) return false;
      out->queries.emplace_back(v);
    } else if (arg == "--technique") {
      const char* v = next();
      if (v == nullptr) return false;
      out->technique = v;
    } else if (arg == "--param") {
      const char* v = next();
      if (v == nullptr) return false;
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr || eq == v) return false;
      out->params[std::string(v, eq)] = std::string(eq + 1);
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr) return false;
      out->jobs = std::atoi(v);
      if (out->jobs < 1) return false;
    } else {
      return false;
    }
  }
  if (out->standing && out->follow_path.empty()) return false;
  if (out->restore && out->data_dir.empty()) return false;
  if (!out->slow_hunt_log.empty() && out->slow_hunt_ms < 0) return false;
  if (out->checkpoint_every > 0 && out->data_dir.empty()) return false;
  // A catalog technique stands in for --query; mixing both (or passing
  // --param without a technique) is rejected.
  if (!out->technique.empty() && !out->queries.empty()) return false;
  if (!out->params.empty() && out->technique.empty()) return false;
  if (!out->technique.empty() && !out->follow_path.empty()) return false;
  return (!out->log_path.empty() || !out->case_id.empty() ||
          !out->follow_path.empty() || out->restore) &&
         (!out->queries.empty() || !out->technique.empty());
}

Result<std::unique_ptr<ThreatRaptor>> LoadForHunt(const HuntArgs& args) {
  if (!args.data_dir.empty()) {
    RAPTOR_ASSIGN_OR_RETURN(std::unique_ptr<ThreatRaptor> tr,
                            ThreatRaptor::Open(args.Durability()));
    if (!args.log_path.empty()) {
      auto content = ReadFile(args.log_path);
      if (!content.ok()) return content.status();
      RAPTOR_ASSIGN_OR_RETURN(std::vector<audit::SyscallRecord> records,
                              audit::ParseJsonlRecords(content.value()));
      RAPTOR_RETURN_NOT_OK(tr->IngestSyscalls(records));
    } else if (!args.case_id.empty()) {
      const cases::AttackCase* c = cases::FindCase(args.case_id);
      if (c == nullptr) {
        return Status::NotFound("unknown case: " + args.case_id);
      }
      RAPTOR_RETURN_NOT_OK(tr->IngestSyscalls(cases::BuildCaseLog(*c)));
    } else if (tr->store() == nullptr) {
      return Status::NotFound("nothing to restore from " + args.data_dir);
    }
    return tr;
  }
  return args.log_path.empty() ? LoadFromCase(args.case_id)
                               : LoadFromJsonl(args.log_path);
}

int PrintHuntReport(const engine::ExecReport& report) {
  std::printf("%s", report.results.ToString(50).c_str());
  std::printf("\n%zu rows in %.1f ms; data queries executed:\n",
              report.results.rows.size(), report.seconds * 1e3);
  for (const std::string& q : report.executed_queries) {
    std::printf("  %s\n", q.c_str());
  }
  return 0;
}

/// --explain-analyze / --profile-json: render one hunt's captured span
/// tree. JSON appends one line per hunt so multi-query invocations and
/// standing refreshes produce a JSONL stream; "-" prints to stdout.
int EmitProfile(const HuntArgs& args, const obs::TraceSpan* profile) {
  if (profile == nullptr) return 0;
  if (args.explain_analyze) {
    std::printf("--- explain analyze\n%s",
                obs::RenderProfileText(*profile).c_str());
  }
  if (!args.profile_json.empty()) {
    std::string json = obs::RenderProfileJson(*profile);
    if (args.profile_json == "-") {
      std::printf("%s\n", json.c_str());
    } else {
      std::ofstream out(args.profile_json, std::ios::app);
      if (!out) {
        std::fprintf(stderr, "cannot write: %s\n", args.profile_json.c_str());
        return 1;
      }
      out << json << "\n";
    }
  }
  return 0;
}

/// --slow-hunt-ms: attach the JSONL slow-hunt log to `service` (which
/// forces span capture on every hunt and standing refresh it runs).
void MaybeAttachSlowLog(service::HuntService* service, const HuntArgs& args) {
  if (service == nullptr || args.slow_hunt_ms < 0) return;
  const std::string& path =
      args.slow_hunt_log.empty() ? "slow-hunts.jsonl" : args.slow_hunt_log;
  service->ConfigureSlowLog(path, args.slow_hunt_ms * 1000);
}

/// `hunt --stats`: the service's SLO metrics snapshot, printed after the
/// hunts finish so the histograms cover every query of the invocation.
void PrintServiceMetrics(const service::HuntService::Metrics& m) {
  std::printf("--- service metrics\n");
  std::printf("queue depth %zu, running %zu (cost %.2f / budget %.2f), "
              "workers %zu\n",
              m.queue_depth, m.running, m.running_cost, m.cost_budget,
              m.workers);
  std::printf("epoch %llu (max standing lag %llu), standing hunts %zu\n",
              static_cast<unsigned long long>(m.epoch),
              static_cast<unsigned long long>(m.epoch_lag), m.standing);
  std::printf("ingest gate: %zu acquires, %.3f s total wait, %.3f s max, "
              "%zu consecutive\n",
              m.gate_acquires, m.gate_wait_seconds_total,
              m.gate_wait_seconds_max, m.consecutive_ingests);
  auto latency = [](const char* name,
                    const service::HuntService::LatencySummary& h) {
    std::printf("%s: n=%zu p50=%.2fms p90=%.2fms p99=%.2fms mean=%.2fms "
                "max=%.2fms\n",
                name, h.count, h.p50_micros / 1e3, h.p90_micros / 1e3,
                h.p99_micros / 1e3, h.mean_micros / 1e3, h.max_micros / 1e3);
  };
  latency("hunt latency", m.hunt_latency);
  latency("queue wait  ", m.queue_wait);
  std::printf("tenants: %zu distinct, %zu tracked\n", m.distinct_tenants,
              m.tracked_tenants);
  for (const service::HuntService::TenantMetrics& t : m.tenants) {
    std::printf("  %-12s w=%d cap=%zu queued=%zu running=%zu "
                "submitted=%zu completed=%zu rejected=%zu cancelled=%zu "
                "timed_out=%zu failed=%zu qps=%.2f\n",
                t.tenant.empty() ? "(default)" : t.tenant.c_str(), t.weight,
                t.max_queued, t.queued, t.running, t.submitted, t.completed,
                t.rejected, t.cancelled, t.timed_out, t.failed, t.qps);
  }
}

/// Continuous hunting: tail a JSONL audit log, ingesting through the epoch
/// gate; queries either stand (deltas print per epoch) or run once at the
/// end of the stream.
int FollowHunt(const HuntArgs& args) {
  std::unique_ptr<ThreatRaptor> owned;
  if (!args.data_dir.empty()) {
    auto opened = ThreatRaptor::Open(args.Durability());
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    owned = std::move(opened).value();
  } else {
    owned = std::make_unique<ThreatRaptor>();
  }
  ThreatRaptor& tr = *owned;
  // Bootstrap an empty store (unless recovery restored one) so the
  // service and schemas exist before the first standing refresh.
  if (tr.store() == nullptr) {
    if (Status boot = tr.IngestSyscalls({}); !boot.ok()) {
      std::fprintf(stderr, "%s\n", boot.ToString().c_str());
      return 1;
    }
  }
  service::HuntService* service = tr.hunt_service();
  MaybeAttachSlowLog(service, args);

  std::vector<service::StandingHandle> handles;
  if (args.standing) {
    for (size_t i = 0; i < args.queries.size(); ++i) {
      service::HuntRequest request;
      request.text = args.queries[i];
      request.profile = args.WantProfile();
      service::StandingSink sink;
      size_t qidx = i;
      sink.on_alert = [qidx, &args](const service::StandingUpdate& update) {
        std::printf("[epoch %llu] query %zu (%s): +%zu rows (%zu total%s)\n",
                    static_cast<unsigned long long>(update.epoch), qidx + 1,
                    args.queries[qidx].c_str(), update.delta.row_count(),
                    update.total_rows,
                    update.incremental ? ", incremental" : "");
        auto cursor = update.cursor();
        while (const std::vector<sql::Value>* row = cursor.Next()) {
          std::string line;
          for (const sql::Value& v : *row) {
            if (!line.empty()) line += " | ";
            line += v.ToString();
          }
          std::printf("  %s\n", line.c_str());
        }
        EmitProfile(args, update.profile.get());
      };
      sink.on_error = [qidx](const Status& status) {
        std::fprintf(stderr, "standing query %zu failed: %s\n", qidx + 1,
                     status.ToString().c_str());
      };
      handles.push_back(
          service->SubmitStanding(std::move(request), std::move(sink)));
    }
  }

  stream::JsonlTailOptions topts;
  if (tr.durable()) {
    // Resume the tail after the last batch the WAL/snapshot persisted; a
    // restarted follow neither skips nor re-ingests records.
    if (auto off = tr.restored_stream_offset(args.follow_path)) {
      topts.start_offset = static_cast<size_t>(*off);
      std::printf("resuming %s at byte %llu\n", args.follow_path.c_str(),
                  static_cast<unsigned long long>(*off));
    }
  }
  stream::JsonlTailSource source(args.follow_path, topts);
  stream::IngestorOptions iopts;
  iopts.idle_give_up_micros = args.idle_ms * 1000;
  iopts.finish = [&] { return tr.FlushIngest(); };
  stream::StreamIngestor ingestor(
      &source,
      [&](const std::vector<audit::SyscallRecord>& records) {
        if (!tr.durable()) return tr.IngestSyscalls(records);
        return tr.IngestSyscalls(records, args.follow_path,
                                 source.committed_offset());
      },
      iopts);
  std::printf("following %s (stop after %lld ms idle)...\n",
              args.follow_path.c_str(), args.idle_ms);
  ingestor.Start();
  ingestor.WaitEnd();
  stream::IngestorStats stats = ingestor.stats();
  if (!stats.error.ok()) {
    std::fprintf(stderr, "stream failed: %s\n",
                 stats.error.ToString().c_str());
    return 1;
  }
  for (service::StandingHandle& h : handles) {
    h.WaitEpoch(service->epoch());
  }
  std::printf("stream ended: %zu batches, %zu records, %llu epochs; "
              "store has %zu entities, %zu events\n",
              stats.batches, stats.records,
              static_cast<unsigned long long>(service->epoch()),
              tr.store()->entity_count(), tr.store()->event_count());
  // --metrics-export: the facade registry (service + durability series)
  // merged with the tail ingestor's stream counters.
  auto emit_metrics = [&] {
    if (!args.metrics_export) return;
    obs::MetricsRegistry registry;
    tr.CollectMetrics(&registry);
    ingestor.CollectMetrics(&registry);
    std::printf("%s", registry.Render(obs::MetricsFormat::kPrometheus).c_str());
  };
  // Final checkpoint + detach persistence (prints WAL/snapshot totals).
  auto close_durable = [&](int rc) {
    if (!tr.durable()) return rc;
    persist::DurabilityStats ds = tr.durability_stats();
    if (Status st = tr.Close(); !st.ok()) {
      std::fprintf(stderr, "close failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("durability: %llu WAL records (%llu bytes), "
                "%llu checkpoints (+1 on close)\n",
                static_cast<unsigned long long>(ds.wal_records),
                static_cast<unsigned long long>(ds.wal_bytes),
                static_cast<unsigned long long>(ds.checkpoints));
    return rc;
  };
  if (args.standing) {
    for (size_t i = 0; i < handles.size(); ++i) {
      std::printf("query %zu delivered %zu rows across %llu epochs\n", i + 1,
                  handles[i].total_rows(),
                  static_cast<unsigned long long>(
                      handles[i].delivered_epoch()));
    }
    if (args.stats) PrintServiceMetrics(tr.service_metrics());
    emit_metrics();
    return close_durable(0);
  }
  // One-shot mode: run the queries against the fully-ingested store.
  int rc = 0;
  for (const std::string& q : args.queries) {
    std::printf("=== %s\n", q.c_str());
    service::HuntRequest request;
    request.text = q;
    request.dialect = service::QueryDialect::kTbql;
    request.profile = args.WantProfile();
    auto response = service->Run(std::move(request));
    if (!response.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   response.status().ToString().c_str());
      rc = 1;
      continue;
    }
    PrintHuntReport(response.value().report);
    if (EmitProfile(args, response.value().profile.get()) != 0) rc = 1;
  }
  if (args.stats) PrintServiceMetrics(tr.service_metrics());
  emit_metrics();
  return close_durable(rc);
}

int Hunt(const HuntArgs& args) {
  if (!args.follow_path.empty()) return FollowHunt(args);
  auto tr = LoadForHunt(args);
  if (!tr.ok()) {
    std::fprintf(stderr, "%s\n", tr.status().ToString().c_str());
    return 1;
  }
  auto close_durable = [&](int rc) {
    if (!tr.value()->durable()) return rc;
    if (Status st = tr.value()->Close(); !st.ok()) {
      std::fprintf(stderr, "close failed: %s\n", st.ToString().c_str());
      return 1;
    }
    return rc;
  };
  MaybeAttachSlowLog(tr.value()->hunt_service(), args);
  if (!args.technique.empty()) {
    const huntlib::Technique* t = huntlib::FindTechnique(args.technique);
    if (t != nullptr) {
      std::printf("=== %s %s (%s)\n", t->id.c_str(), t->name.c_str(),
                  huntlib::Instantiate(*t, args.params).c_str());
    }
    auto response = tr.value()->HuntTechnique(args.technique, args.params);
    if (!response.ok()) {
      std::fprintf(stderr, "hunt failed: %s\n",
                   response.status().ToString().c_str());
      return close_durable(1);
    }
    int rc = 0;
    if (response.value().dialect == service::QueryDialect::kTbql) {
      rc = PrintHuntReport(response.value().report);
    } else {
      std::string header;
      for (const std::string& col : response.value().columns) {
        if (!header.empty()) header += " | ";
        header += col;
      }
      std::printf("%s\n", header.c_str());
      size_t rows = 0;
      auto cursor = response.value().cursor();
      while (const std::vector<sql::Value>* row = cursor.Next()) {
        std::string line;
        for (const sql::Value& v : *row) {
          if (!line.empty()) line += " | ";
          line += v.ToString();
        }
        std::printf("%s\n", line.c_str());
        ++rows;
      }
      std::printf("%zu rows in %.1f ms\n", rows,
                  response.value().seconds * 1e3);
    }
    if (args.stats) PrintServiceMetrics(tr.value()->service_metrics());
    if (args.metrics_export) {
      std::printf("%s", tr.value()->ExportMetrics().c_str());
    }
    return close_durable(rc);
  }
  if (args.queries.size() == 1 && args.jobs <= 1) {
    // Through the facade's service (not the thin Hunt wrapper) so the
    // captured span tree rides back on the response.
    service::HuntRequest request;
    request.text = args.query();
    request.dialect = service::QueryDialect::kTbql;
    request.profile = args.WantProfile();
    auto response = tr.value()->hunt_service()->Run(std::move(request));
    if (!response.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   response.status().ToString().c_str());
      return close_durable(1);
    }
    int rc = PrintHuntReport(response.value().report);
    if (rc == 0) rc = EmitProfile(args, response.value().profile.get());
    if (args.stats) PrintServiceMetrics(tr.value()->service_metrics());
    if (args.metrics_export) {
      std::printf("%s", tr.value()->ExportMetrics().c_str());
    }
    return close_durable(rc);
  }
  // Multiple queries (or an explicit --jobs): submit everything through
  // the hunt service and let up to `jobs` hunts run concurrently; results
  // print in submission order regardless of completion order.
  service::HuntServiceOptions opts;
  opts.max_concurrent = static_cast<size_t>(args.jobs);
  service::HuntService service(tr.value()->store(), opts);
  MaybeAttachSlowLog(&service, args);
  std::vector<service::HuntTicket> tickets;
  tickets.reserve(args.queries.size());
  for (const std::string& q : args.queries) {
    service::HuntRequest request;
    request.text = q;
    request.profile = args.WantProfile();
    tickets.push_back(service.Submit(std::move(request)));
  }
  int rc = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    std::printf("=== query %zu/%zu: %s\n", i + 1, tickets.size(),
                args.queries[i].c_str());
    const Status& status = tickets[i].Wait();
    if (!status.ok()) {
      std::fprintf(stderr, "query failed: %s\n", status.ToString().c_str());
      rc = 1;
      continue;
    }
    PrintHuntReport(tickets[i].response().report);
    if (EmitProfile(args, tickets[i].response().profile.get()) != 0) rc = 1;
  }
  if (args.stats) PrintServiceMetrics(service.metrics());
  if (args.metrics_export) {
    // The hunts ran on this invocation-local service; export its series
    // (the facade's service only saw the ingest).
    obs::MetricsRegistry registry;
    service.CollectMetrics(&registry);
    std::printf("%s", registry.Render(obs::MetricsFormat::kPrometheus).c_str());
  }
  return close_durable(rc);
}

int Fuzzy(const HuntArgs& args) {
  auto tr = LoadForHunt(args);
  if (!tr.ok()) {
    std::fprintf(stderr, "%s\n", tr.status().ToString().c_str());
    return 1;
  }
  engine::FuzzyOptions opts;
  opts.score_threshold = 0.5;
  auto report = tr.value()->HuntFuzzy(args.query(), opts);
  if (!report.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("alignments accepted: %zu (considered %zu)%s\n",
              report.value().alignments.size(),
              report.value().candidate_alignments_considered,
              report.value().timed_out ? " [search budget expired]" : "");
  std::printf("%s", report.value().results.ToString(50).c_str());
  return 0;
}

int Explain(const std::string& query) {
  auto plan = engine::ExplainPlanText(query);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", plan.value().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "list-cases") return ListCases();
  if (cmd == "demo" && argc == 3) return Demo(argv[2]);
  if (cmd == "extract" && argc == 3) return Extract(argv[2]);
  if (cmd == "gen-log" && argc == 4) return GenLog(argv[2], argv[3]);
  if (cmd == "explain" && argc == 4 && std::strcmp(argv[2], "--query") == 0) {
    return Explain(argv[3]);
  }
  if (cmd == "catalog" && argc == 3 && std::strcmp(argv[2], "list") == 0) {
    return CatalogList();
  }
  if (cmd == "hunt" || cmd == "fuzzy") {
    HuntArgs args;
    if (!ParseHuntArgs(argc, argv, 2, &args)) return Usage();
    if (cmd == "fuzzy" && !args.technique.empty()) return Usage();
    return cmd == "hunt" ? Hunt(args) : Fuzzy(args);
  }
  return Usage();
}
