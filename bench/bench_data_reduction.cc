// Ablation of the paper's Sec III-B data reduction: reduction ratio as a
// function of the merge threshold. The paper experimented with several
// thresholds and chose 1 second.
#include <cstdio>

#include "audit/parser.h"
#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "storage/reduction/reduction.h"

using namespace raptor;

int main() {
  // Measure across the union of all case logs.
  audit::ParsedLog log;
  audit::AuditLogParser parser;
  for (const cases::AttackCase& c : cases::AllCases()) {
    Status st = parser.Parse(cases::BuildCaseLog(c), &log);
    if (!st.ok()) {
      std::fprintf(stderr, "parse failure: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  bench::BenchReport report("data_reduction");
  report.Param("input_events", static_cast<long long>(log.events.size()));
  std::printf(
      "Data reduction (Sec III-B): merged event count vs merge threshold "
      "(%zu input events)\n\n",
      log.events.size());
  TablePrinter table({"Threshold", "Output events", "Reduction ratio",
                      "Space saved"});
  const struct {
    const char* label;
    audit::Timestamp us;
  } kThresholds[] = {
      {"0 (off)", 0},          {"10 ms", 10'000},
      {"100 ms", 100'000},     {"1 sec (paper)", 1'000'000},
      {"10 sec", 10'000'000},  {"60 sec", 60'000'000},
  };
  for (const auto& t : kThresholds) {
    storage::ReductionOptions opts;
    opts.merge_threshold_us = t.us;
    storage::ReductionStats stats;
    auto reduced = storage::ReduceEvents(log.events, opts, &stats);
    table.AddRow({t.label, std::to_string(reduced.size()),
                  StrFormat("%.3f", stats.reduction_ratio()),
                  FormatPercent(1.0 - stats.reduction_ratio())});
    std::string label = "threshold_us_" + std::to_string(t.us);
    report.Metric(label, "output_events", static_cast<double>(reduced.size()));
    report.Metric(label, "reduction_ratio", stats.reduction_ratio());
  }
  table.Print();
  report.Write();
  std::printf(
      "\nLarger thresholds merge more aggressively but risk merging "
      "semantically distinct accesses; 1 second preserves per-step events "
      "in all 18 attack scripts while removing syscall-level bursts.\n");
  return 0;
}
