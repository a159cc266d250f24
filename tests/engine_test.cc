#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "audit/parser.h"
#include "engine/compiler.h"
#include "engine/executor.h"
#include "storage/store.h"
#include "tbql/analyzer.h"
#include "tbql/parser.h"

namespace raptor::engine {
namespace {

using audit::EventOp;

/// A hand-built store with a small known event chain plus decoys:
///   bash -start-> tar; tar -read-> /etc/passwd; tar -write-> /tmp/out.tar;
///   scp -send-> 9.9.9.9; decoy process reads an unrelated file.
class EngineTest : public ::testing::Test {
 protected:
  static audit::SyscallRecord Rec(audit::Timestamp ts, const char* syscall,
                                  const char* exe, long long pid) {
    audit::SyscallRecord r;
    r.ts = ts;
    r.duration = 10;
    r.syscall = syscall;
    r.exe = exe;
    r.pid = pid;
    return r;
  }

  void SetUp() override {
    std::vector<audit::SyscallRecord> recs;
    {
      auto r = Rec(1'000'000, "execve", "/bin/bash", 10);
      r.target_exe = "/bin/tar";
      r.target_pid = 11;
      recs.push_back(r);
    }
    {
      auto r = Rec(2'000'000, "read", "/bin/tar", 11);
      r.path = "/etc/passwd";
      r.ret = 1000;
      recs.push_back(r);
    }
    {
      auto r = Rec(4'000'000, "write", "/bin/tar", 11);
      r.path = "/tmp/out.tar";
      r.ret = 2000;
      recs.push_back(r);
    }
    {
      auto r = Rec(6'000'000, "sendto", "/usr/bin/scp", 12);
      r.src_ip = "10.0.0.5";
      r.src_port = 40000;
      r.dst_ip = "9.9.9.9";
      r.dst_port = 22;
      r.protocol = "tcp";
      r.ret = 4096;
      recs.push_back(r);
    }
    {
      auto r = Rec(3'000'000, "read", "/usr/bin/vim", 13);
      r.path = "/home/user/notes.txt";
      r.ret = 64;
      recs.push_back(r);
    }
    audit::ParsedLog log;
    audit::AuditLogParser parser;
    ASSERT_TRUE(parser.Parse(recs, &log).ok());
    ASSERT_TRUE(store_.Load(log).ok());
  }

  ExecReport Run(const char* query, ExecOptions opts = {}) {
    TbqlExecutor executor(&store_);
    auto report = executor.ExecuteText(query, opts);
    EXPECT_TRUE(report.ok()) << query << " -> " << report.status().ToString();
    return report.ok() ? std::move(report).value() : ExecReport{};
  }

  storage::AuditStore store_;
};

TEST_F(EngineTest, SingleEventPattern) {
  auto report = Run(
      "proc p[\"%tar%\"] read file f[\"%passwd%\"] return p, f");
  ASSERT_EQ(report.results.rows.size(), 1u);
  EXPECT_EQ(report.results.rows[0][0], "/bin/tar");
  EXPECT_EQ(report.results.rows[0][1], "/etc/passwd");
}

TEST_F(EngineTest, TemporalChainHonored) {
  auto ok = Run(
      "proc p read file f[\"%passwd%\"] as e1 "
      "proc p write file g[\"%out.tar%\"] as e2 "
      "with e1 before e2 return p, g");
  EXPECT_EQ(ok.results.rows.size(), 1u);
  // Reversed order must not match.
  auto rev = Run(
      "proc p read file f[\"%passwd%\"] as e1 "
      "proc p write file g[\"%out.tar%\"] as e2 "
      "with e2 before e1 return p, g");
  EXPECT_TRUE(rev.results.rows.empty());
}

TEST_F(EngineTest, TemporalGapBounds) {
  // Gap between read(end 2.00001s) and write(start 4s) is ~2 seconds.
  auto inside = Run(
      "proc p read file f[\"%passwd%\"] as e1 proc p write file g as e2 "
      "with e1 before[0-5 sec] e2 return p");
  EXPECT_EQ(inside.results.rows.size(), 1u);
  auto outside = Run(
      "proc p read file f[\"%passwd%\"] as e1 proc p write file g as e2 "
      "with e1 before[0-1 sec] e2 return p");
  EXPECT_TRUE(outside.results.rows.empty());
}

TEST_F(EngineTest, WithinTemporalOperator) {
  // read starts at 2s, write at 4s: distance 2s, symmetric in order.
  auto inside = Run(
      "proc p read file f[\"%passwd%\"] as e1 proc p write file g as e2 "
      "with e2 within[0-3 sec] e1 return p");
  EXPECT_EQ(inside.results.rows.size(), 1u);
  auto outside = Run(
      "proc p read file f[\"%passwd%\"] as e1 proc p write file g as e2 "
      "with e1 within[0-1 sec] e2 return p");
  EXPECT_TRUE(outside.results.rows.empty());
}

TEST_F(EngineTest, AfterOperatorIsBeforeReversed) {
  auto fwd = Run(
      "proc p read file f[\"%passwd%\"] as e1 proc p write file g as e2 "
      "with e2 after e1 return p");
  EXPECT_EQ(fwd.results.rows.size(), 1u);
  auto rev = Run(
      "proc p read file f[\"%passwd%\"] as e1 proc p write file g as e2 "
      "with e1 after e2 return p");
  EXPECT_TRUE(rev.results.rows.empty());
}

TEST_F(EngineTest, EntityIdReuseJoinsAcrossPatterns) {
  // p must be the same process in both patterns: tar reads passwd AND
  // writes out.tar. A query binding the decoy process must not join.
  auto report = Run(
      "proc p read file f[\"%passwd%\"] as e1 "
      "proc p write file g as e2 return distinct p");
  ASSERT_EQ(report.results.rows.size(), 1u);
  EXPECT_EQ(report.results.rows[0][0], "/bin/tar");
}

TEST_F(EngineTest, ProcessStartPattern) {
  auto report = Run("proc p start proc q[\"%tar%\"] return p, q");
  ASSERT_EQ(report.results.rows.size(), 1u);
  EXPECT_EQ(report.results.rows[0][0], "/bin/bash");
}

TEST_F(EngineTest, NetworkPatternWithPortFilter) {
  auto report = Run(
      "proc p send ip i[dstport = 22] return p, i.dstip, i.dstport");
  ASSERT_EQ(report.results.rows.size(), 1u);
  EXPECT_EQ(report.results.rows[0][1], "9.9.9.9");
}

TEST_F(EngineTest, GlobalWindowRestrictsMatches) {
  auto all = Run("proc p read || write file f return p, f");
  auto windowed = Run(
      "from 0 to 2500000 proc p read || write file f return p, f");
  EXPECT_GT(all.results.rows.size(), windowed.results.rows.size());
  ASSERT_EQ(windowed.results.rows.size(), 1u);
  EXPECT_EQ(windowed.results.rows[0][1], "/etc/passwd");
}

TEST_F(EngineTest, LastWindowUsesNewestEvent) {
  // Newest event ends at ~6s; "last 3 sec" covers [3s, 6s], which holds
  // the out.tar write but not the passwd read.
  auto ok = Run("last 3 sec proc p write file f return p, f");
  ASSERT_EQ(ok.results.rows.size(), 1u);
  EXPECT_EQ(ok.results.rows[0][1], "/tmp/out.tar");
  auto excluded = Run("last 3 sec proc p read file f[\"%passwd%\"] "
                      "return p, f");
  EXPECT_TRUE(excluded.results.rows.empty());
}

TEST_F(EngineTest, EventAttributeReturn) {
  auto report = Run(
      "proc p read file f[\"%passwd%\"] as e1 return e1, e1.amount");
  ASSERT_EQ(report.results.rows.size(), 1u);
  EXPECT_EQ(report.results.rows[0][1], "1000");
}

TEST_F(EngineTest, Length1PathEquivalentToEventPattern) {
  auto event = Run("proc p read file f[\"%passwd%\"] return p, f");
  auto path = Run("proc p ->[read] file f[\"%passwd%\"] return p, f");
  EXPECT_EQ(event.results.rows, path.results.rows);
}

TEST_F(EngineTest, MultiHopPathThroughIntermediate) {
  // bash -> tar -> /etc/passwd is a 2-hop forward chain.
  auto report = Run(
      "proc p[\"%bash%\"] ~>(2~2) file f[\"%passwd%\"] return p, f");
  ASSERT_EQ(report.results.rows.size(), 1u);
  EXPECT_EQ(report.results.rows[0][0], "/bin/bash");
}

TEST_F(EngineTest, ZeroMatchPatternDoesNotEmptyResult) {
  auto report = Run(
      "proc p read file f[\"%passwd%\"] as e1 "
      "proc x[\"%nonexistent%\"] write file y[\"%nothing%\"] as e2 "
      "return p, f");
  EXPECT_EQ(report.unmatched_patterns.size(), 1u);
  ASSERT_EQ(report.results.rows.size(), 1u);
  EXPECT_EQ(report.results.rows[0][0], "/bin/tar");
}

/// A delta pass: the floored pattern matches only events above the floor
/// and executes first; under require_all_patterns a pattern that matches
/// nothing ends the pattern DAG. A multi-hop path has no single event to
/// floor.
TEST_F(EngineTest, EventFloorRestrictsOnePatternAndRunsFirst) {
  audit::EventId write_id = 0;
  for (const audit::SystemEvent& ev : store_.events()) {
    if (ev.op == audit::EventOp::kWrite) write_id = ev.id;
  }
  ASSERT_GT(write_id, 0u);
  const char* joined =
      "proc p read file f as e1 proc p write file g as e2 return p, f, g";
  ExecOptions opts;
  opts.require_all_patterns = true;
  opts.event_floor = ExecOptions::EventFloor{1, write_id - 1};
  auto hit = Run(joined, opts);
  ASSERT_EQ(hit.results.rows.size(), 1u);
  EXPECT_EQ(hit.results.rows[0][2], "/tmp/out.tar");
  ASSERT_EQ(hit.executed_queries.size(), 2u);
  EXPECT_NE(hit.executed_queries[0].find(
                "e.id > " + std::to_string(write_id - 1)),
            std::string::npos)
      << hit.executed_queries[0];

  // Nothing above the floor: the floored pattern runs alone and stops the
  // DAG.
  opts.event_floor = ExecOptions::EventFloor{1, write_id};
  auto miss = Run(joined, opts);
  EXPECT_TRUE(miss.results.rows.empty());
  EXPECT_EQ(miss.executed_queries.size(), 1u);
  EXPECT_EQ(miss.unmatched_patterns, std::vector<size_t>{1});

  // A length-1 path floors its edge in Cypher.
  opts.event_floor = ExecOptions::EventFloor{0, write_id - 1};
  auto path = Run("proc p ->[write] file g return p, g", opts);
  ASSERT_EQ(path.results.rows.size(), 1u);
  EXPECT_NE(path.executed_queries[0].find("e.id > "), std::string::npos);

  TbqlExecutor executor(&store_);
  opts.event_floor = ExecOptions::EventFloor{0, 0};
  auto multi_hop = executor.ExecuteText(
      "proc p ~>(2~2) file f return p, f", opts);
  EXPECT_EQ(multi_hop.status().code(), StatusCode::kInvalidArgument);
  opts.event_floor = ExecOptions::EventFloor{2, 0};
  auto out_of_range = executor.ExecuteText(joined, opts);
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
}

/// Run `query` on a fresh store holding only `recs`.
ExecReport RunOnRecords(const std::vector<audit::SyscallRecord>& recs,
                        const char* query) {
  audit::ParsedLog log;
  audit::AuditLogParser parser;
  EXPECT_TRUE(parser.Parse(recs, &log).ok());
  storage::AuditStore store;
  EXPECT_TRUE(store.Load(log).ok());
  TbqlExecutor executor(&store);
  auto report = executor.ExecuteText(query);
  EXPECT_TRUE(report.ok()) << query << " -> " << report.status().ToString();
  return report.ok() ? std::move(report).value() : ExecReport{};
}

audit::SyscallRecord FileRec(audit::Timestamp ts, const char* syscall,
                             const char* exe, long long pid,
                             const char* path) {
  audit::SyscallRecord r;
  r.ts = ts;
  r.duration = 10;
  r.syscall = syscall;
  r.exe = exe;
  r.pid = pid;
  r.path = path;
  r.ret = 100;
  return r;
}

TEST_F(EngineTest, PatternEmptiedByPropagationIsNotExcessive) {
  // bash reads passwd but writes nothing; vim writes /tmp/x. The write
  // pattern matches vim's write unconstrained, so it is not excessive:
  // under p = {bash} it finds nothing, and the hunt must return nothing
  // rather than bash's read joined with an empty g.
  std::vector<audit::SyscallRecord> recs = {
      FileRec(1'000'000, "read", "/bin/bash", 20, "/etc/passwd"),
      FileRec(2'000'000, "write", "/usr/bin/vim", 21, "/tmp/x"),
  };
  for (const char* query :
       {"proc p read file f[\"%passwd%\"] as e1 "
        "proc p write file g as e2 return p, f, g",
        "proc p write file g as e2 "
        "proc p read file f[\"%passwd%\"] as e1 return p, f, g"}) {
    auto report = RunOnRecords(recs, query);
    EXPECT_TRUE(report.results.rows.empty()) << query;
    EXPECT_TRUE(report.unmatched_patterns.empty()) << query;
    // Two data queries plus the emptied pattern's existence check: its
    // unconstrained query, with no propagated IN filter.
    ASSERT_EQ(report.executed_queries.size(), 3u) << query;
    EXPECT_EQ(report.executed_queries[2].find(" IN ("), std::string::npos)
        << report.executed_queries[2];
  }
}

TEST_F(EngineTest, PatternEmptiedByRefilterIsNotExcessive) {
  // e1 matches p1 and p2 reading f1/f2; e2 narrows p to p1 and e3 narrows
  // f to f2, so refilter empties e1 (p1 never read f2). The result must be
  // empty, not e1 dropped as excessive.
  std::vector<audit::SyscallRecord> recs = {
      FileRec(1'000'000, "read", "/bin/p1", 30, "/data/f1"),
      FileRec(2'000'000, "read", "/bin/p2", 31, "/data/f2"),
      FileRec(3'000'000, "write", "/bin/p1", 30, "/tmp/x"),
      FileRec(4'000'000, "read", "/bin/cat", 32, "/data/f2"),
  };
  auto report = RunOnRecords(
      recs,
      "proc p[\"%p%\"] read file f[\"%f%\"] as e1 "
      "proc p write file g[\"%x%\"] as e2 "
      "proc q[\"%cat%\"] read file f as e3 return p, f, g, q");
  EXPECT_TRUE(report.results.rows.empty());
  EXPECT_TRUE(report.unmatched_patterns.empty());
  EXPECT_EQ(report.pattern_match_counts, (std::vector<size_t>{2, 1, 1}));
}

TEST_F(EngineTest, DeepestParsableFilterExecutesOnBothBackends) {
  // 200 '!' is the TBQL nesting cap (199 NOT levels plus a negated value,
  // so the filter means "%tar%"); the compiled SQL and Cypher nest about
  // twice as deep and must still parse.
  std::string filter = "[" + std::string(200, '!') + "\"%tar%\"]";
  for (const std::string& arrow : {std::string("read"),
                                   std::string("->[read]")}) {
    std::string query = "proc p" + filter + " " + arrow +
                        " file f[\"%passwd%\"] return p, f";
    auto report = Run(query.c_str());
    ASSERT_EQ(report.results.rows.size(), 1u) << arrow;
    EXPECT_EQ(report.results.rows[0][0], "/bin/tar");
  }
  std::string too_deep = "proc p[" + std::string(202, '!') +
                         "\"%tar%\"] read file f return p";
  auto rejected = TbqlExecutor(&store_).ExecuteText(too_deep);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kParseError);
}

TEST_F(EngineTest, PatternDependenciesChainSharedEntities) {
  // p links patterns 0 and 1; pattern 2 (distinct process q) is
  // independent of both and may execute concurrently.
  auto q = tbql::ParseTbql(
      "proc p read file f as e1 "
      "proc p write file g as e2 "
      "proc q send ip i as e3 return p");
  ASSERT_TRUE(q.ok());
  auto aq = tbql::Analyze(q.value());
  ASSERT_TRUE(aq.ok());
  std::vector<size_t> order = {0, 1, 2};
  auto deps = PatternDependencies(aq.value(), order);
  ASSERT_EQ(deps.size(), 3u);
  EXPECT_TRUE(deps[0].empty());
  EXPECT_EQ(deps[1], (std::vector<size_t>{0}));
  EXPECT_TRUE(deps[2].empty());
  // The executed report carries the same DAG.
  auto report = Run(
      "proc p read file f as e1 proc p write file g as e2 "
      "proc q send ip i as e3 return p");
  ASSERT_EQ(report.pattern_deps.size(), 3u);
  EXPECT_EQ(report.pattern_deps[1], (std::vector<size_t>{0}));
  EXPECT_TRUE(report.pattern_deps[2].empty());
}

TEST_F(EngineTest, PresetCancelFlagYieldsCancelled) {
  std::atomic<bool> cancel{true};
  ExecOptions opts;
  opts.cancel = &cancel;
  TbqlExecutor executor(&store_);
  auto report =
      executor.ExecuteText("proc p read file f return p, f", opts);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCancelled);
}

TEST_F(EngineTest, ExpiredDeadlineYieldsTimeout) {
  ExecOptions opts;
  opts.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);
  TbqlExecutor executor(&store_);
  auto report =
      executor.ExecuteText("proc p read file f return p, f", opts);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kTimeout);
}

TEST_F(EngineTest, PruningScoreOrdersByConstraints) {
  auto q = tbql::ParseTbql(
      "proc p read file f as e1 "
      "proc p2[\"%tar%\"] write file f2[\"%out%\"] as e2 return p");
  ASSERT_TRUE(q.ok());
  auto aq = tbql::Analyze(q.value());
  ASSERT_TRUE(aq.ok());
  EXPECT_LT(PruningScore(aq.value(), 0), PruningScore(aq.value(), 1));
}

TEST_F(EngineTest, CompilerEmitsSqlForEventPattern) {
  auto q = tbql::ParseTbql(
      "proc p[\"%tar%\"] read file f[\"%passwd%\"] as e1 return p");
  auto aq = tbql::Analyze(q.value());
  auto dq = CompilePattern(aq.value(), 0, {});
  ASSERT_TRUE(dq.ok());
  EXPECT_EQ(dq.value().backend, Backend::kRelational);
  EXPECT_NE(dq.value().text.find("LIKE '%tar%'"), std::string::npos);
  EXPECT_NE(dq.value().text.find("e.op = 'read'"), std::string::npos);
  // The emitted SQL must execute on the relational backend.
  EXPECT_TRUE(store_.relational().Query(dq.value().text).ok());
}

TEST_F(EngineTest, CompilerEmitsCypherForPathPattern) {
  auto q = tbql::ParseTbql(
      "proc p[\"%bash%\"] ~>(1~3)[read] file f return p, f");
  auto aq = tbql::Analyze(q.value());
  auto dq = CompilePattern(aq.value(), 0, {});
  ASSERT_TRUE(dq.ok());
  EXPECT_EQ(dq.value().backend, Backend::kGraph);
  EXPECT_NE(dq.value().text.find("MATCH"), std::string::npos);
  EXPECT_NE(dq.value().text.find("*0..2"), std::string::npos);
  EXPECT_TRUE(store_.graph().Query(dq.value().text).ok());
}

TEST_F(EngineTest, ConstraintInjection) {
  auto q = tbql::ParseTbql("proc p read file f as e1 return p");
  auto aq = tbql::Analyze(q.value());
  EntityConstraints constraints;
  constraints["p"] = {3, 5, 8};
  auto dq = CompilePattern(aq.value(), 0, constraints);
  ASSERT_TRUE(dq.ok());
  // The subject alias in per-pattern SQL is "s".
  EXPECT_NE(dq.value().text.find("s.id IN (3, 5, 8)"), std::string::npos)
      << dq.value().text;
  EXPECT_NE(dq.value().text.find("e.subject IN (3, 5, 8)"), std::string::npos);
}

TEST_F(EngineTest, GiantQueriesAgreeWithScheduledExecution) {
  const char* query =
      "proc p[\"%tar%\"] read file f[\"%passwd%\"] as e1 "
      "proc p write file g[\"%out%\"] as e2 "
      "with e1 before e2 return distinct p, f, g";
  auto parsed = tbql::ParseTbql(query);
  auto aq = tbql::Analyze(parsed.value());
  auto scheduled = Run(query);

  auto sql = CompileGiantSql(aq.value());
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  auto sql_rs = store_.relational().Query(sql.value());
  ASSERT_TRUE(sql_rs.ok()) << sql.value() << " -> "
                           << sql_rs.status().ToString();
  ASSERT_EQ(sql_rs.value().rows.size(), scheduled.results.rows.size());
  EXPECT_EQ(sql_rs.value().rows[0][0].AsText(), "/bin/tar");

  auto cypher = CompileGiantCypher(aq.value());
  ASSERT_TRUE(cypher.ok()) << cypher.status().ToString();
  auto cy_rs = store_.graph().Query(cypher.value());
  ASSERT_TRUE(cy_rs.ok()) << cypher.value() << " -> "
                          << cy_rs.status().ToString();
  ASSERT_EQ(cy_rs.value().rows.size(), scheduled.results.rows.size());
  EXPECT_EQ(cy_rs.value().rows[0][0].AsText(), "/bin/tar");
}

TEST_F(EngineTest, GiantSqlRejectsMultiHopPaths) {
  auto q = tbql::ParseTbql("proc p ~>(1~3) file f return p, f");
  auto aq = tbql::Analyze(q.value());
  EXPECT_FALSE(CompileGiantSql(aq.value()).ok());
  EXPECT_TRUE(CompileGiantCypher(aq.value()).ok());
}

TEST_F(EngineTest, ToLength1PathQueryPreservesSemantics) {
  auto q = tbql::ParseTbql(
      "proc p read file f[\"%passwd%\"] as e1 return distinct p, f");
  tbql::TbqlQuery path_q = ToLength1PathQuery(q.value());
  EXPECT_TRUE(path_q.patterns[0].path.is_path);
  TbqlExecutor executor(&store_);
  auto a = executor.Execute(q.value());
  auto b = executor.Execute(path_q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().results.rows, b.value().results.rows);
}

TEST(EnginePlanTest, DataLeakReadPatternScansUnderOnePercentOfReads) {
  // The data_leak hunt's read pattern (tar reads /etc/passwd) against
  // 20,000 benign reads: 25 processes each read 20 files 40 times, and 5
  // of them read /etc/passwd too. Reduction is off, so none merge. The
  // compiled SQL must reach its one event through the entity indexes and a
  // semi-join, not through the 20,000-row op index.
  std::vector<audit::SyscallRecord> recs;
  audit::Timestamp ts = 1'000'000;
  for (int p = 0; p < 25; ++p) {
    std::string exe = "/usr/bin/app" + std::to_string(p);
    for (int f = 0; f < 20; ++f) {
      std::string path = p < 5 && f == 0 ? std::string("/etc/passwd")
                                         : "/srv/data" + std::to_string(f);
      for (int k = 0; k < 40; ++k) {
        audit::SyscallRecord r;
        r.ts = ts;
        r.duration = 10;
        r.syscall = "read";
        r.exe = exe;
        r.pid = 100 + p;
        r.path = path;
        r.ret = 64;
        recs.push_back(r);
        ts += 1'000;
      }
    }
  }
  audit::SyscallRecord tar;
  tar.ts = ts;
  tar.duration = 10;
  tar.syscall = "read";
  tar.exe = "/bin/tar";
  tar.pid = 99;
  tar.path = "/etc/passwd";
  tar.ret = 1000;
  recs.push_back(tar);
  audit::ParsedLog log;
  ASSERT_TRUE(audit::AuditLogParser().Parse(recs, &log).ok());
  storage::StoreOptions options;
  options.enable_reduction = false;
  storage::AuditStore store(options);
  ASSERT_TRUE(store.Load(log).ok());
  const size_t kReads = 20'001;
  ASSERT_EQ(store.event_count(), kReads);

  TbqlExecutor executor(&store);
  auto report = executor.ExecuteText(
      "proc p[\"%/bin/tar%\"] read file f[\"%/etc/passwd%\"] return p, f");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().results.rows.size(), 1u);
  ASSERT_EQ(report.value().executed_queries.size(), 1u);
  sql::ExecStats stats;
  auto rs = store.relational().QueryBlocks(
      report.value().executed_queries[0], &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().rows.row_count(), 1u);
  EXPECT_LT(stats.base_rows_scanned + stats.index_probe_rows, kReads / 100)
      << report.value().executed_queries[0];
}

}  // namespace
}  // namespace raptor::engine
