// Table IX (RQ4): execution time of ThreatRaptor's fuzzy search mode
// (exhaustive Poirot-style alignment) versus Poirot (first acceptable
// alignment), split into loading / preprocessing / searching time.
//
// A second section measures the graph-backend primitive fuzzy alignment
// leans on — variable-length path expansion — on a synthetic large
// provenance graph (BENCH_LARGE_NODES / BENCH_LARGE_EDGES, default
// 100k/500k), typed so the per-type adjacency groups prune every hop.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "tests/fixtures/synthetic_graph.h"

using namespace raptor;

namespace {

/// Variable-length typed expansion on a synthetic large graph: the DFS the
/// matcher runs for `-[*1..3]->` patterns, where the per-type groups prune
/// every hop of the expansion rather than just the final edge filter.
void RunLargeGraphVarlenWorkload(bench::BenchReport* report) {
  fixtures::SyntheticGraphSpec spec;
  // >= 2 so both node populations are non-empty (Rng::Uniform needs n > 0).
  spec.nodes = std::max(2LL, bench::EnvLong("BENCH_LARGE_NODES", 100'000));
  spec.edges = bench::EnvLong("BENCH_LARGE_EDGES", 500'000);
  // A small population of seed processes over a large entity pool, so the
  // measurement is dominated by the DFS expansion work, not seed scanning.
  // Clamped so tiny BENCH_LARGE_NODES overrides still leave file nodes.
  spec.proc_count = std::min(1000LL, spec.nodes / 2);
  spec.global_name_index = true;  // one "/n<i>" namespace over all nodes
  spec.file_prop = "name";
  spec.file_prefix = "/n";
  spec.edges_proc_to_file = false;  // uniform src/dst over all nodes

  std::printf(
      "\nLarge-graph variable-length expansion: %lld nodes, %lld edges, %d "
      "edge types\n",
      spec.nodes, spec.edges, spec.edge_types);

  graphdb::GraphDatabase db;
  Rng rng(7);
  fixtures::SyntheticGraph sg =
      fixtures::BuildSyntheticGraph(db.graph(), spec, rng);

  // Typed variable-length expansion (the per-type groups prune every hop
  // of the DFS; an untyped `*1..3` would scan the full adjacency anyway)
  // combined with a propagated-id-sized IN filter on the endpoint, which
  // the matcher evaluates for every admissible node the DFS reaches.
  const int n_in_list = 2048;
  std::string query = "MATCH (p:proc)-[:op3*1..3]->(f:file) WHERE f.name IN [" +
                      fixtures::RandomFileNameInList(spec, sg, rng, n_in_list) +
                      "] RETURN DISTINCT f.name";

  int rounds = bench::Rounds(5);
  std::vector<double> times;
  size_t rows = 0, edges_traversed = 0;
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
    rows = rs.value().rows.size();
    edges_traversed = stats.edges_traversed;
  }
  std::printf("  typed expansion: %s s (%zu rows, %zu edges traversed)\n",
              bench::MeanStd(times).c_str(), rows, edges_traversed);

  report->Param("large_nodes", spec.nodes);
  report->Param("large_edges", spec.edges);
  report->Param("large_in_list", n_in_list);
  report->Metric("varlen_expansion", "typed_seconds", bench::Mean(times));
}

}  // namespace

int main() {
  int scale = bench::NoiseScale(4);
  bench::BenchReport report("fuzzy_search");
  report.Param("scale", scale);
  std::printf(
      "Table IX: fuzzy search mode vs Poirot, execution time in seconds "
      "(noise scale %dx)\n\n",
      scale);
  TablePrinter table({"Case", "Fuzzy load", "Fuzzy preproc", "Fuzzy search",
                      "Fuzzy total", "Poirot load", "Poirot preproc",
                      "Poirot search", "Poirot total", "Alignments"});
  for (const cases::AttackCase& c : cases::AllCases()) {
    auto tr = bench::LoadCase(c, scale);
    auto ext = tr->ExtractBehaviorGraph(c.oscti_text);
    auto syn = tr->SynthesizeQuery(ext.value().graph);
    if (!syn.ok()) {
      table.AddRow({c.id, "synthesis error"});
      continue;
    }
    const tbql::TbqlQuery& query = syn.value().query;

    engine::FuzzyOptions fuzzy_opts;
    fuzzy_opts.exhaustive = true;  // ThreatRaptor-Fuzzy
    auto fuzzy = tr->HuntFuzzy(syn.value().tbql_text, fuzzy_opts);

    engine::FuzzyOptions poirot_opts;
    poirot_opts.exhaustive = false;  // Poirot: first acceptable alignment
    engine::FuzzyMatcher matcher(tr->store());
    auto poirot = matcher.Search(query, poirot_opts);

    if (!fuzzy.ok() || !poirot.ok()) {
      table.AddRow({c.id, "error"});
      continue;
    }
    const auto& ft = fuzzy.value().timings;
    const auto& pt = poirot.value().timings;
    std::string fuzzy_search = FormatSeconds(ft.searching_seconds);
    if (fuzzy.value().timed_out) fuzzy_search.insert(0, ">");
    report.Metric(c.id, "fuzzy_total_seconds", ft.total());
    report.Metric(c.id, "poirot_total_seconds", pt.total());
    table.AddRow({c.id, FormatSeconds(ft.loading_seconds),
                  FormatSeconds(ft.preprocessing_seconds),
                  fuzzy_search,
                  FormatSeconds(ft.total()),
                  FormatSeconds(pt.loading_seconds),
                  FormatSeconds(pt.preprocessing_seconds),
                  FormatSeconds(pt.searching_seconds),
                  FormatSeconds(pt.total()),
                  StrFormat("%zu/%zu", fuzzy.value().alignments.size(),
                            poirot.value().alignments.size())});
  }
  table.Print();
  std::printf(
      "\nThreatRaptor-Fuzzy additionally performs an exhaustive alignment "
      "search, so it generally runs at least as long as Poirot; both are "
      "far slower than the exact search mode (Table VIII).\n");

  RunLargeGraphVarlenWorkload(&report);
  report.Write();
  return 0;
}
