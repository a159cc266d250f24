// Direct calls into single layers, outside the service: the reference
// executions every output check compares against, and (in the traced run)
// the per-layer spans the self-time table and the per-layer metrics are
// read from. Each helper opens one span per layer call under `trace` when
// it is non-null.
#pragma once

#include <string>
#include <vector>

#include "audit/syscall.h"
#include "common/status.h"
#include "harness.h"
#include "obs/trace.h"
#include "storage/relational/value.h"
#include "storage/store.h"

namespace raptorbench {

/// Canonical, order-free form of a result: one string per row, sorted.
using RowSet = std::vector<std::string>;
std::string RowKey(const std::vector<std::string>& row);
std::string RowKey(const std::vector<raptor::sql::Value>& row);
void Canonicalize(RowSet* rows);

/// Drop or add one row, so the reference no longer matches a correct
/// result (the --corrupt-reference test hook).
void CorruptReference(RowSet* rows);

/// Per-call samples the traced run turns into per-layer metrics.
struct LayerSamples {
  std::vector<double> parse_analyze_ms;
  std::vector<double> execute_ms;
  std::vector<double> sql_ms;
  std::vector<double> cypher_ms;
  std::vector<double> rows_per_query;
  std::vector<double> rows_per_hunt;
  std::vector<double> extract_ms;
  std::vector<double> synthesize_ms;
  size_t iocs = 0;
  size_t relations = 0;
};

/// Report the engine, storage, tbql, extraction and synthesis per-layer
/// metrics from the samples a traced run collected.
void ReportEngineLayers(const LayerSamples& samples, RunResult* out);

/// One case's CTI report turned into a hunt: the synthesized TBQL text and
/// its engine::ToLength1PathQuery form (which runs on the graph backend).
struct CaseQuery {
  std::string case_id;
  std::string tbql_text;
  std::string path_text;
};

/// ThreatRaptor::ExtractBehaviorGraph + SynthesizeQuery over every case
/// report (spans "extraction.extract" and "synthesis.synthesize").
raptor::Result<std::vector<CaseQuery>> SynthesizeCaseQueries(
    raptor::obs::TraceSpan* trace, LayerSamples* samples);

struct DirectRun {
  raptor::Status status;
  RowSet rows;
  size_t data_queries = 0;
};

/// TBQL text through tbql::ParseTbql/Analyze and a cache-free
/// engine::TbqlExecutor::Execute. With `trace`, each data query the engine
/// reports executing is replayed on its own against the relational or graph
/// backend, so storage time shows without the engine around it.
DirectRun RunDirectTbql(const raptor::storage::AuditStore& store,
                        const std::string& text, raptor::obs::TraceSpan* trace,
                        LayerSamples* samples);

/// Cypher text straight on the graph backend (no result cache).
DirectRun RunDirectCypher(const raptor::storage::AuditStore& store,
                          const std::string& text,
                          raptor::obs::TraceSpan* trace, LayerSamples* samples);

/// Report the ingest per-layer metrics for `records`, each layer called on
/// its own under a new root appended to `roots`: AuditLogParser::Parse,
/// storage::ReduceEvents, then AuditStore::Append into a fresh store
/// (Append runs its own reduction pass again).
void ReportIngestLayers(const std::vector<raptor::audit::SyscallRecord>& records,
                        SpanRoots* roots, RunResult* out);

}  // namespace raptorbench
