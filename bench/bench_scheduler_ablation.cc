// Scheduler ablation of the paper's Sec III-F execution plan (the
// scheduling and propagation behind Table VIII's TBQL columns): TBQL
// execution time with (a) full scheduling + constraint propagation,
// (b) textual pattern order + propagation, (c) scheduling without
// propagation, and (d) neither — isolating where the plan wins.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

using namespace raptor;

int main() {
  int scale = bench::NoiseScale();
  int rounds = bench::Rounds(5);
  std::printf(
      "Scheduler ablation: TBQL execution time (seconds, best of %d, noise "
      "scale %dx)\n\n",
      rounds, scale);
  TablePrinter table({"Case", "sched+prop", "order+prop", "sched only",
                      "naive"});
  bench::BenchReport report("scheduler_ablation");
  report.Param("scale", scale);
  report.Param("rounds", rounds);
  const char* kConfigNames[] = {"sched_prop", "order_prop", "sched_only",
                                "naive"};
  const struct {
    bool sched;
    bool prop;
  } kConfigs[] = {{true, true}, {false, true}, {true, false}, {false, false}};

  double totals[4] = {0, 0, 0, 0};
  for (const char* id : {"data_leak", "password_crack", "vpnfilter",
                         "tc_theia_2", "tc_trace_1"}) {
    const cases::AttackCase* c = cases::FindCase(id);
    auto tr = bench::LoadCase(*c, scale);
    auto ext = tr->ExtractBehaviorGraph(c->oscti_text);
    synthesis::QuerySynthesizer synthesizer;
    auto syn = synthesizer.Synthesize(ext.value().graph);
    engine::TbqlExecutor executor(tr->store());

    std::vector<std::string> row{c->id};
    for (int cfg = 0; cfg < 4; ++cfg) {
      engine::ExecOptions opts;
      opts.use_scheduler = kConfigs[cfg].sched;
      opts.propagate_constraints = kConfigs[cfg].prop;
      double best = 1e18;
      Stopwatch sw;
      for (int i = 0; i < rounds; ++i) {
        sw.Restart();
        (void)executor.Execute(syn.value().query, opts);
        best = std::min(best, sw.ElapsedSeconds());
      }
      totals[cfg] += best;
      row.push_back(StrFormat("%.4f", best));
      report.Metric(c->id, std::string(kConfigNames[cfg]) + "_seconds", best);
    }
    table.AddRow(std::move(row));
  }
  table.AddRow({"Total", StrFormat("%.4f", totals[0]),
                StrFormat("%.4f", totals[1]), StrFormat("%.4f", totals[2]),
                StrFormat("%.4f", totals[3])});
  table.Print();
  for (int cfg = 0; cfg < 4; ++cfg) {
    report.Metric("total", std::string(kConfigNames[cfg]) + "_seconds",
                  totals[cfg]);
  }
  report.Write();
  std::printf(
      "\nConstraint propagation is the dominant win (it turns later data "
      "queries into index probes); pruning-score scheduling decides which "
      "pattern pays the initial scan.\n");
  return 0;
}
