#include "layers.h"

#include <algorithm>

#include "audit/parser.h"
#include "cases/cases.h"
#include "engine/executor.h"
#include "harness.h"
#include "storage/reduction/reduction.h"
#include "tbql/analyzer.h"
#include "tbql/parser.h"
#include "threatraptor.h"

namespace raptorbench {

using raptor::Status;
using raptor::obs::ScopedSpan;
using raptor::obs::TraceSpan;

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

std::string RowKey(const std::vector<std::string>& row) {
  std::string key;
  for (const std::string& cell : row) {
    key += cell;
    key += '\x1f';
  }
  return key;
}

std::string RowKey(const std::vector<raptor::sql::Value>& row) {
  std::string key;
  for (const raptor::sql::Value& cell : row) {
    key += cell.ToString();
    key += '\x1f';
  }
  return key;
}

void Canonicalize(RowSet* rows) { std::sort(rows->begin(), rows->end()); }

void CorruptReference(RowSet* rows) {
  if (rows->empty()) {
    rows->push_back("corrupted reference row");
  } else {
    rows->pop_back();
  }
}

void ReportEngineLayers(const LayerSamples& samples, RunResult* out) {
  out->Layer("engine.execute_ms", Median(samples.execute_ms), "ms");
  out->Layer("engine.rows", Mean(samples.rows_per_hunt), "rows");
  out->Layer("storage.sql_ms", Median(samples.sql_ms), "ms");
  out->Layer("storage.cypher_ms", Median(samples.cypher_ms), "ms");
  out->Layer("storage.rows_per_query", Mean(samples.rows_per_query), "rows");
  out->Layer("tbql.parse_analyze_ms", Median(samples.parse_analyze_ms), "ms");
  out->Layer("extraction.extract_ms", Median(samples.extract_ms), "ms");
  out->Layer("extraction.iocs", static_cast<double>(samples.iocs), "count");
  out->Layer("extraction.relations", static_cast<double>(samples.relations),
             "count");
  out->Layer("synthesis.synthesize_ms", Median(samples.synthesize_ms), "ms");
}

DirectRun RunDirectTbql(const raptor::storage::AuditStore& store,
                        const std::string& text, TraceSpan* trace,
                        LayerSamples* samples) {
  DirectRun out;
  raptor::Result<raptor::tbql::TbqlQuery> parsed =
      raptor::Status::Internal("unparsed");
  {
    ScopedSpan span(trace, "tbql.parse_analyze");
    parsed = raptor::tbql::ParseTbql(text);
    if (parsed.ok()) {
      auto analyzed = raptor::tbql::Analyze(parsed.value());
      if (!analyzed.ok()) parsed = analyzed.status();
    }
    if (span.get() != nullptr) {
      span.get()->Finish();
      samples->parse_analyze_ms.push_back(span.get()->seconds() * 1e3);
    }
  }
  if (!parsed.ok()) {
    out.status = parsed.status();
    return out;
  }
  raptor::engine::TbqlExecutor executor(&store);
  raptor::Result<raptor::engine::ExecReport> report =
      raptor::Status::Internal("not executed");
  {
    ScopedSpan span(trace, "engine.execute");
    report = executor.Execute(parsed.value());
    if (span.get() != nullptr) {
      span.get()->Finish();
      samples->execute_ms.push_back(span.get()->seconds() * 1e3);
    }
  }
  if (!report.ok()) {
    out.status = report.status();
    return out;
  }
  out.data_queries = report.value().executed_queries.size();
  for (const auto& row : report.value().results.rows) {
    out.rows.push_back(RowKey(row));
  }
  Canonicalize(&out.rows);
  if (trace == nullptr) return out;
  samples->rows_per_hunt.push_back(static_cast<double>(out.rows.size()));
  for (const std::string& q : report.value().executed_queries) {
    if (StartsWith(q, "MATCH")) {
      DirectRun replay = RunDirectCypher(store, q, trace, samples);
      if (!replay.status.ok()) out.status = replay.status;
    } else {
      ScopedSpan span(trace, "storage.sql");
      auto rs = store.relational().Query(q);
      span.get()->Finish();
      samples->sql_ms.push_back(span.get()->seconds() * 1e3);
      if (!rs.ok()) {
        out.status = rs.status();
      } else {
        samples->rows_per_query.push_back(
            static_cast<double>(rs.value().rows.size()));
      }
    }
  }
  return out;
}

DirectRun RunDirectCypher(const raptor::storage::AuditStore& store,
                          const std::string& text, TraceSpan* trace,
                          LayerSamples* samples) {
  DirectRun out;
  ScopedSpan span(trace, "storage.cypher");
  auto rs = store.graph().Query(text);
  if (span.get() != nullptr) {
    span.get()->Finish();
    samples->cypher_ms.push_back(span.get()->seconds() * 1e3);
  }
  if (!rs.ok()) {
    out.status = rs.status();
    return out;
  }
  out.data_queries = 1;
  for (const auto& row : rs.value().rows) out.rows.push_back(RowKey(row));
  Canonicalize(&out.rows);
  if (trace != nullptr) {
    samples->rows_per_query.push_back(static_cast<double>(out.rows.size()));
  }
  return out;
}

raptor::Result<std::vector<CaseQuery>> SynthesizeCaseQueries(
    TraceSpan* trace, LayerSamples* samples) {
  raptor::ThreatRaptor tr;
  std::vector<CaseQuery> out;
  for (const raptor::cases::AttackCase& c : raptor::cases::AllCases()) {
    CaseQuery q;
    q.case_id = c.id;
    auto start = Clock::now();
    auto extraction = [&] {
      ScopedSpan span(trace, "extraction.extract");
      return tr.ExtractBehaviorGraph(c.oscti_text);
    }();
    samples->extract_ms.push_back(SecondsSince(start) * 1e3);
    if (!extraction.ok()) return extraction.status();
    samples->iocs += extraction.value().iocs.size();
    samples->relations += extraction.value().graph.edges().size();
    start = Clock::now();
    auto synthesis = [&] {
      ScopedSpan span(trace, "synthesis.synthesize");
      return tr.SynthesizeQuery(extraction.value().graph);
    }();
    samples->synthesize_ms.push_back(SecondsSince(start) * 1e3);
    if (!synthesis.ok()) return synthesis.status();
    q.tbql_text = synthesis.value().tbql_text;
    q.path_text =
        raptor::engine::ToLength1PathQuery(synthesis.value().query).ToString();
    out.push_back(std::move(q));
  }
  return out;
}

void ReportIngestLayers(const std::vector<raptor::audit::SyscallRecord>& records,
                        SpanRoots* roots, RunResult* out) {
  std::shared_ptr<TraceSpan> root = TraceSpan::Root("ingest_layers");
  roots->push_back(root);
  raptor::audit::ParsedLog log;
  {
    ScopedSpan span(root.get(), "audit.parse");
    raptor::audit::AuditLogParser parser;
    if (Status st = parser.Parse(records, &log); !st.ok()) {
      out->Fail("ingest layers: " + st.ToString());
      return;
    }
    span.get()->Finish();
    out->Layer("audit.parse_ms", span.get()->seconds() * 1e3, "ms");
  }
  {
    ScopedSpan span(root.get(), "storage.reduce");
    raptor::storage::ReductionStats stats;
    raptor::storage::ReduceEvents(log.events,
                                  raptor::storage::ReductionOptions{}, &stats);
    span.get()->Finish();
    out->Layer("storage.reduce_ms", span.get()->seconds() * 1e3, "ms");
    out->Layer("storage.reduction_ratio", stats.reduction_ratio(), "ratio");
  }
  raptor::storage::AuditStore store;
  {
    ScopedSpan span(root.get(), "storage.append");
    if (Status st = store.Append(log); !st.ok()) {
      out->Fail("ingest layers: " + st.ToString());
      return;
    }
    span.get()->Finish();
    out->Layer("storage.append_ms", span.get()->seconds() * 1e3, "ms");
  }
  root->Finish();
}

}  // namespace raptorbench
