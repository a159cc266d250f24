#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/graphdb/cypher_executor.h"
#include "storage/graphdb/cypher_parser.h"
#include "tests/fixtures/synthetic_graph.h"

namespace raptor::graphdb {
namespace {

class GraphDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PropertyGraph& g = db_.graph();
    // Mirror of the Fig. 2 data-leak chain:
    // tar -read-> passwd, tar -write-> upload.tar, bzip2 -read-> upload.tar,
    // bzip2 -write-> upload.tar.bz2, curl -connect-> 192.168.29.128
    tar_ = g.AddNode("proc", {{"exename", Value("/bin/tar")},
                              {"pid", Value(int64_t{100})}});
    passwd_ = g.AddNode("file", {{"name", Value("/etc/passwd")}});
    upload_ = g.AddNode("file", {{"name", Value("/tmp/upload.tar")}});
    bzip2_ = g.AddNode("proc", {{"exename", Value("/bin/bzip2")},
                                {"pid", Value(int64_t{101})}});
    bz2_ = g.AddNode("file", {{"name", Value("/tmp/upload.tar.bz2")}});
    curl_ = g.AddNode("proc", {{"exename", Value("/usr/bin/curl")},
                               {"pid", Value(int64_t{102})}});
    c2_ = g.AddNode("ip", {{"dstip", Value("192.168.29.128")}});

    g.AddEdge(tar_, passwd_, "read", {{"start_time", Value(int64_t{10})},
                                      {"end_time", Value(int64_t{11})}});
    g.AddEdge(tar_, upload_, "write", {{"start_time", Value(int64_t{20})},
                                       {"end_time", Value(int64_t{21})}});
    g.AddEdge(bzip2_, upload_, "read", {{"start_time", Value(int64_t{30})},
                                        {"end_time", Value(int64_t{31})}});
    g.AddEdge(bzip2_, bz2_, "write", {{"start_time", Value(int64_t{40})},
                                      {"end_time", Value(int64_t{41})}});
    g.AddEdge(curl_, c2_, "connect", {{"start_time", Value(int64_t{50})},
                                      {"end_time", Value(int64_t{51})}});
    g.CreateNodeIndex("proc", "exename");
    g.CreateNodeIndex("file", "name");
    g.CreateNodeIndex("ip", "dstip");
  }

  GraphDatabase db_;
  NodeId tar_ = 0, passwd_ = 0, upload_ = 0, bzip2_ = 0, bz2_ = 0, curl_ = 0,
         c2_ = 0;
};

TEST_F(GraphDbTest, SingleEdgeMatch) {
  auto rs = db_.Query(
      "MATCH (p:proc)-[e:read]->(f:file) "
      "WHERE p.exename CONTAINS 'tar' RETURN p.exename, f.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "/bin/tar");
  EXPECT_EQ(rs.value().rows[0][1].AsText(), "/etc/passwd");
}

TEST_F(GraphDbTest, InlinePropSeedsViaIndex) {
  MatchStats stats;
  auto rs = db_.Query(
      "MATCH (p:proc {exename: '/bin/bzip2'})-[e:write]->(f:file) "
      "RETURN f.name",
      &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "/tmp/upload.tar.bz2");
  EXPECT_EQ(stats.seed_candidates, 1u);  // index probe, not a label scan
}

TEST_F(GraphDbTest, SharedVariableAcrossParts) {
  auto rs = db_.Query(
      "MATCH (p1:proc)-[e1:read]->(f1:file {name: '/etc/passwd'}), "
      "(p1)-[e2:write]->(f2:file) RETURN p1.exename, f2.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "/bin/tar");
  EXPECT_EQ(rs.value().rows[0][1].AsText(), "/tmp/upload.tar");
}

TEST_F(GraphDbTest, VariableLengthPathFollowsEdgeDirection) {
  // Edges are oriented subject->object (TBQL path semantics: the final hop
  // is "an event where f is the object"). tar->upload.tar<-bzip2->bz2 mixes
  // directions, so no forward path connects tar to the .bz2 file.
  auto rs = db_.Query(
      "MATCH (p:proc {exename: '/bin/tar'})-[*1..4]->(f:file "
      "{name: '/tmp/upload.tar.bz2'}) RETURN DISTINCT f.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs.value().rows.empty());
}

TEST_F(GraphDbTest, VariableLengthPathThroughIntermediateProcess) {
  // bash -start-> tar -read-> passwd is a forward 2-hop path: the shape the
  // paper describes when OSCTI text omits intermediate processes.
  PropertyGraph& g = db_.graph();
  NodeId bash = g.AddNode("proc", {{"exename", Value("/bin/bash")},
                                   {"pid", Value(int64_t{99})}});
  g.AddEdge(bash, tar_, "start", {{"start_time", Value(int64_t{5})}});
  auto rs = db_.Query(
      "MATCH (p:proc {exename: '/bin/bash'})-[*2..2]->(f:file "
      "{name: '/etc/passwd'}) RETURN DISTINCT f.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "/etc/passwd");
}

TEST_F(GraphDbTest, VariableLengthRespectsMinimum) {
  // Min length 2 excludes the direct tar->passwd edge.
  auto rs = db_.Query(
      "MATCH (p:proc {exename: '/bin/tar'})-[*2..3]->(f:file "
      "{name: '/etc/passwd'}) RETURN f.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs.value().rows.empty());
}

TEST_F(GraphDbTest, TemporalWhereAcrossEdges) {
  auto rs = db_.Query(
      "MATCH (p1:proc)-[e1:read]->(f1:file), (p1)-[e2:write]->(f2:file) "
      "WHERE e1.end_time <= e2.start_time RETURN p1.exename, f1.name, f2.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 2u);  // tar and bzip2 chains
}

TEST_F(GraphDbTest, DistinctAndLimit) {
  auto rs = db_.Query(
      "MATCH (p:proc)-[e]->(o) RETURN DISTINCT p.exename LIMIT 2");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().rows.size(), 2u);
}

TEST_F(GraphDbTest, LimitZeroReturnsNothing) {
  MatchStats stats;
  auto rs = db_.Query("MATCH (p:proc)-[e]->(o) RETURN p.exename LIMIT 0",
                      &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs.value().rows.empty());
  // LIMIT 0 never starts matching at all.
  EXPECT_EQ(stats.seed_candidates, 0u);
}

TEST_F(GraphDbTest, LimitLargerThanResultSet) {
  auto rs = db_.Query("MATCH (p:proc)-[e:read]->(f:file) "
                      "RETURN p.exename LIMIT 100");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().rows.size(), 2u);  // tar and bzip2 reads only
}

TEST_F(GraphDbTest, DistinctLimitCountsPostDedupRows) {
  // tar and bzip2 each have two out-edges and curl one, so in any seed
  // order the first three rows before dedup name at most two procs. A
  // limit counted after dedup returns every distinct exename.
  auto rs = db_.Query(
      "MATCH (p:proc)-[e]->(o) RETURN DISTINCT p.exename LIMIT 3");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  std::vector<std::string> got;
  for (const auto& row : rs.value().rows) got.push_back(row[0].AsText());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::string>{"/bin/bzip2", "/bin/tar",
                                           "/usr/bin/curl"}));
}

TEST_F(GraphDbTest, LimitWithMultiPatternJoin) {
  // Both proc chains (tar, bzip2) satisfy the two-part join; LIMIT 1 must
  // return exactly one of them, fully bound.
  auto full = db_.Query(
      "MATCH (p1:proc)-[e1:read]->(f1:file), (p1)-[e2:write]->(f2:file) "
      "RETURN p1.exename, f2.name");
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full.value().rows.size(), 2u);
  auto limited = db_.Query(
      "MATCH (p1:proc)-[e1:read]->(f1:file), (p1)-[e2:write]->(f2:file) "
      "RETURN p1.exename, f2.name LIMIT 1");
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  ASSERT_EQ(limited.value().rows.size(), 1u);
  bool found = false;
  for (const auto& row : full.value().rows) {
    if (row == limited.value().rows[0]) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(GraphDbTest, LimitStopsSeedIteration) {
  // The search stops after the first complete match: one of the three
  // proc seeds is visited, not all of them.
  MatchStats stats;
  auto rs = db_.Query("MATCH (p:proc)-[e]->(o) RETURN p.exename LIMIT 1",
                      &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(stats.seed_candidates, 1u);
  EXPECT_EQ(stats.rows_emitted, 1u);
}

TEST_F(GraphDbTest, SelectiveSeedsPickSmallestIndexProbe) {
  // Several procs share an exename while pid stays unique; with both props
  // indexed, the pattern lists exename first, but the seed must come from
  // the single-pid bucket, not the 8-node exename bucket.
  PropertyGraph& g = db_.graph();
  for (int i = 0; i < 8; ++i) {
    g.AddNode("proc", {{"exename", Value("/bin/dup")},
                       {"pid", Value(int64_t{500 + i})}});
  }
  g.CreateNodeIndex("proc", "pid");
  EXPECT_EQ(g.ProbeCountNodes("proc", "exename", Value("/bin/dup")), 8u);
  EXPECT_EQ(g.ProbeCountNodes("proc", "pid", Value(int64_t{503})), 1u);
  auto stats = g.GetNodeIndexStats("proc", "exename");
  EXPECT_EQ(stats.entries, 11u);       // 3 fixture procs + 8 dups
  EXPECT_EQ(stats.distinct_keys, 4u);  // tar, bzip2, curl, dup
  EXPECT_EQ(g.GetNodeIndexStats("proc", "nope").entries, 0u);

  const char* q =
      "MATCH (p:proc {exename: '/bin/dup', pid: 503}) RETURN p.pid";
  MatchStats match;
  auto rs = db_.Query(q, &match);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsInt(), 503);
  EXPECT_EQ(match.seed_candidates, 1u);  // pid probe, not the 8 exenames
}

TEST_F(GraphDbTest, StartsWithEndsWith) {
  auto rs = db_.Query(
      "MATCH (f:file) WHERE f.name STARTS WITH '/tmp' AND "
      "f.name ENDS WITH '.bz2' RETURN f.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "/tmp/upload.tar.bz2");
}

TEST_F(GraphDbTest, ParseErrors) {
  EXPECT_FALSE(db_.Query("MATCH (p:proc RETURN p.exename").ok());
  EXPECT_FALSE(db_.Query("MATCH (p:proc) WHERE RETURN p.x").ok());
  EXPECT_FALSE(db_.Query("(p:proc)-[]->(f) RETURN f.name").ok());
}

TEST_F(GraphDbTest, OutOfRangeNumbersAreParseErrors) {
  // Numbers that do not fit their field must come back as a parse error,
  // never as an exception (which aborts the process) or a truncated bound.
  const std::string kQueries[] = {
      "MATCH (p:proc) WHERE p.pid = 99999999999999999999999 RETURN p",
      "MATCH (p:proc) WHERE p.pid < 1" + std::string(400, '0') +
          ".5 RETURN p",
      "MATCH (p:proc)-[*1..99999999999]->(f) RETURN f",
      "MATCH (p:proc) RETURN p LIMIT 99999999999999999999",
  };
  for (const std::string& text : kQueries) {
    auto q = ParseCypher(text);
    ASSERT_FALSE(q.ok()) << text;
    EXPECT_EQ(q.status().code(), StatusCode::kParseError) << text;
  }
}

TEST_F(GraphDbTest, UnboundVariableInReturnFails) {
  auto rs = db_.Query("MATCH (p:proc) RETURN q.exename");
  EXPECT_FALSE(rs.ok());
}

TEST_F(GraphDbTest, RelationshipUniqueness) {
  // A 2-hop cycle over the same edge must not match (edge uniqueness).
  PropertyGraph& g = db_.graph();
  NodeId a = g.AddNode("proc", {{"exename", Value("/bin/loop")}});
  NodeId b = g.AddNode("file", {{"name", Value("/tmp/loop")}});
  g.AddEdge(a, b, "read", {});
  auto rs = db_.Query(
      "MATCH (p:proc {exename: '/bin/loop'})-[*2..2]->(f) RETURN f.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs.value().rows.empty());
}

TEST_F(GraphDbTest, TypedExpansionTouchesOnlyTypedEdges) {
  // The per-type adjacency groups hand the matcher exactly the fixture's
  // two write edges; the reads and the connect are never looked at.
  MatchStats stats;
  auto rs = db_.Query(
      "MATCH (p:proc)-[e:write]->(f:file) RETURN p.exename, f.name", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  std::vector<std::vector<Value>> rows = rs.value().rows;
  std::sort(rows.begin(), rows.end());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsText(), "/bin/bzip2");
  EXPECT_EQ(rows[0][1].AsText(), "/tmp/upload.tar.bz2");
  EXPECT_EQ(rows[1][0].AsText(), "/bin/tar");
  EXPECT_EQ(rows[1][1].AsText(), "/tmp/upload.tar");
  EXPECT_EQ(stats.edges_traversed, 2u);
}

TEST_F(GraphDbTest, TypedExpansionOfAbsentTypeMatchesNothing) {
  auto rs = db_.Query("MATCH (p:proc)-[e:no_such_op]->(o) RETURN p.exename");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs.value().rows.empty());
}

TEST_F(GraphDbTest, InternedLabelsAndTypes) {
  const PropertyGraph& g = db_.graph();
  uint32_t proc = g.LookupLabel("proc");
  uint32_t file = g.LookupLabel("file");
  ASSERT_NE(proc, kNoSymbol);
  ASSERT_NE(file, kNoSymbol);
  EXPECT_NE(proc, file);
  EXPECT_EQ(g.LookupLabel("socket"), kNoSymbol);
  EXPECT_EQ(g.node(tar_).label_id, proc);
  uint32_t read = g.LookupEdgeType("read");
  ASSERT_NE(read, kNoSymbol);
  // Typed adjacency returns exactly the read-edges of tar.
  ASSERT_EQ(g.OutEdges(tar_, read).size(), 1u);
  EXPECT_EQ(g.edge(g.OutEdges(tar_, read)[0]).dst, passwd_);
  EXPECT_TRUE(g.OutEdges(tar_, kNoSymbol).empty());
}

TEST_F(GraphDbTest, InListUsesHashedProbe) {
  auto rs = db_.Query(
      "MATCH (f:file) WHERE f.name IN ['/etc/passwd', '/tmp/upload.tar', "
      "'/no/such'] RETURN f.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  std::vector<std::string> got;
  for (const auto& row : rs.value().rows) got.push_back(row[0].AsText());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got,
            (std::vector<std::string>{"/etc/passwd", "/tmp/upload.tar"}));
}

TEST_F(GraphDbTest, FindPropHeterogeneousLookup) {
  // FindProp takes a string_view and must not require a std::string key.
  const Node& n = db_.graph().node(tar_);
  std::string_view key = "exename";
  const Value* v = n.FindProp(key);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->AsText(), "/bin/tar");
  EXPECT_EQ(n.FindProp("no_such_prop"), nullptr);
}

TEST(ShardedGraphTest, AggregatedNodeIndexStatsStayExact) {
  // Selective seeding ranks access paths by per-value cardinality, so the
  // aggregates must stay exact when an index is split across shards: a
  // value occurring in several shards counts once in distinct_keys, and
  // entries/ProbeCountNodes sum every shard's bucket.
  PropertyGraph g(4);
  ASSERT_EQ(g.shard_count(), 4u);
  // 9 procs sharing one exename land in several shards; 3 unique ones.
  for (int i = 0; i < 9; ++i) {
    g.AddNode("proc", {{"exename", Value("/bin/dup")}});
  }
  for (int i = 0; i < 3; ++i) {
    g.AddNode("proc", {{"exename", Value("/bin/u" + std::to_string(i))}});
  }
  g.AddNode("proc", {});  // no indexed property: not an index entry
  g.CreateNodeIndex("proc", "exename");

  EXPECT_EQ(g.ProbeCountNodes("proc", "exename", Value("/bin/dup")), 9u);
  EXPECT_EQ(g.ProbeCountNodes("proc", "exename", Value("/bin/u1")), 1u);
  auto stats = g.GetNodeIndexStats("proc", "exename");
  EXPECT_EQ(stats.entries, 12u);
  EXPECT_EQ(stats.distinct_keys, 4u);  // dup + u0..u2
  EXPECT_EQ(g.GetNodeIndexStats("proc", "nope").entries, 0u);
  EXPECT_EQ(g.GetNodeIndexStats("proc", "nope").distinct_keys, 0u);

  // Per-shard buckets partition the candidate set: disjoint, complete, and
  // each id owned by the shard it came from.
  size_t found = 0;
  for (size_t s = 0; s < g.shard_count(); ++s) {
    for (NodeId id : g.ProbeNodes("proc", "exename", Value("/bin/dup"), s)) {
      EXPECT_EQ(g.ShardOf(id), s);
      EXPECT_EQ(g.node(id).FindProp("exename")->AsText(), "/bin/dup");
      ++found;
    }
  }
  EXPECT_EQ(found, 9u);
  // Label buckets partition the same way.
  size_t labeled = 0;
  for (size_t s = 0; s < g.shard_count(); ++s) {
    labeled += g.NodesWithLabel("proc", s).size();
  }
  EXPECT_EQ(labeled, 13u);
}

TEST(ShardedGraphTest, SingleShardPreservesLegacyApi) {
  PropertyGraph g(1);
  NodeId a = g.AddNode("proc", {{"exename", Value("/bin/x")}});
  NodeId b = g.AddNode("file", {{"name", Value("/tmp/y")}});
  g.AddEdge(a, b, "write", {});
  g.CreateNodeIndex("proc", "exename");
  EXPECT_EQ(g.shard_count(), 1u);
  EXPECT_EQ(g.NodesWithLabel("proc").size(), 1u);
  EXPECT_EQ(g.ProbeNodes("proc", "exename", Value("/bin/x")).size(), 1u);
  EXPECT_EQ(g.OutEdges(a).size(), 1u);
}

TEST(ShardedGraphTest, ParallelMatchAgreesWithSerial) {
  // A few hundred nodes with planted attack subgraphs: every parallel
  // configuration must return the serial result set (order-normalized),
  // and pushed limits must behave structurally.
  GraphDatabase db(4);
  Rng rng(7);
  fixtures::SyntheticGraphSpec spec;
  spec.nodes = 400;
  spec.edges = 1200;
  spec.edge_types = 4;
  fixtures::SyntheticGraph sg =
      fixtures::BuildSyntheticGraph(db.graph(), spec, rng);
  fixtures::AttackPlants plants =
      fixtures::PlantAttackSubgraphs(db.graph(), spec);
  db.graph().CreateNodeIndex("proc", "exename");
  db.graph().CreateNodeIndex("file", "name");

  auto rows_sorted = [](const GraphResultSet& rs) {
    std::vector<std::string> out;
    for (const auto& row : rs.rows) {
      std::string r;
      for (const Value& v : row) r += v.ToString() + "\x1f";
      out.push_back(std::move(r));
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  const char* queries[] = {
      "MATCH (p:proc)-[e:op1]->(f:file) RETURN p.exename, f.name",
      "MATCH (p:proc)-[r:exfil_read]->(d:file), (p)-[w:exfil_write]->(a:file)"
      " RETURN d.name, a.name",
      "MATCH (p:proc)-[e:op2]->(f:file) RETURN DISTINCT p.exename",
  };
  for (const char* q : queries) {
    db.options() = MatchOptions{};
    db.options().parallel_shards = 1;
    auto serial = db.Query(q);
    ASSERT_TRUE(serial.ok()) << q << ": " << serial.status().ToString();

    db.options() = MatchOptions{};
    db.options().parallel_shards = 4;
    db.options().parallel_min_seeds = 0;
    MatchStats stats;
    auto parallel = db.Query(q, &stats);
    ASSERT_TRUE(parallel.ok()) << q << ": " << parallel.status().ToString();
    EXPECT_EQ(rows_sorted(parallel.value()), rows_sorted(serial.value())) << q;
    // Parallel runs are deterministic for a fixed graph + shard count.
    auto again = db.Query(q);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().rows, parallel.value().rows) << q;
  }

  // Cooperative LIMIT budget: the workers collectively emit exactly the
  // limit, and every returned row comes from the full result.
  db.options() = MatchOptions{};
  db.options().parallel_shards = 1;
  auto full = db.Query("MATCH (p:proc)-[e]->(f:file) RETURN p.exename");
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full.value().rows.size(), 50u);
  std::vector<std::string> full_rows = rows_sorted(full.value());
  db.options() = MatchOptions{};
  db.options().parallel_shards = 4;
  db.options().parallel_min_seeds = 0;
  auto limited =
      db.Query("MATCH (p:proc)-[e]->(f:file) RETURN p.exename LIMIT 50");
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  ASSERT_EQ(limited.value().rows.size(), 50u);
  std::vector<std::string> got = rows_sorted(limited.value());
  EXPECT_TRUE(std::includes(full_rows.begin(), full_rows.end(), got.begin(),
                            got.end()));
  (void)sg;
  (void)plants;
}

TEST_F(GraphDbTest, QueryRoundTrip) {
  const char* text =
      "MATCH (p:proc {exename: '/bin/tar'})-[e:read]->(f:file) "
      "WHERE f.name CONTAINS 'passwd' RETURN DISTINCT p.exename, f.name";
  auto q = ParseCypher(text);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto printed = q.value().ToString();
  auto rs1 = db_.Query(text);
  auto rs2 = db_.Query(printed);
  ASSERT_TRUE(rs1.ok());
  ASSERT_TRUE(rs2.ok()) << printed << " -> " << rs2.status().ToString();
  EXPECT_EQ(rs1.value().rows, rs2.value().rows);
}

TEST(BlockResultTest, ParallelNonDistinctAdoptsWorkerBlocksZeroCopy) {
  GraphDatabase db(4);
  Rng rng(11);
  fixtures::SyntheticGraphSpec spec;
  spec.nodes = 400;
  spec.edges = 1200;
  spec.edge_types = 4;
  fixtures::BuildSyntheticGraph(db.graph(), spec, rng);
  db.graph().CreateNodeIndex("proc", "exename");

  db.options().parallel_min_seeds = 0;
  const char* q = "MATCH (p:proc)-[e:op1]->(f:file) RETURN p.exename, f.name";
  auto blocks = db.QueryBlocks(q);
  ASSERT_TRUE(blocks.ok()) << blocks.status().ToString();
  ASSERT_GT(blocks.value().rows.row_count(), 0u);
  // Non-DISTINCT parallel merge: every row arrives in an adopted worker
  // block — no per-row moves (the ROADMAP zero-copy merge item).
  EXPECT_EQ(blocks.value().rows.pushed_rows(), 0u);
  EXPECT_EQ(blocks.value().rows.adopted_rows(),
            blocks.value().rows.row_count());
  EXPECT_LE(blocks.value().rows.block_count(), db.graph().shard_count());

  // The flattening wrapper sees the same rows in the same order.
  auto flat = db.Query(q);
  ASSERT_TRUE(flat.ok());
  size_t i = 0;
  auto cursor = blocks.value().cursor();
  while (const std::vector<Value>* row = cursor.Next()) {
    ASSERT_LT(i, flat.value().rows.size());
    EXPECT_EQ(*row, flat.value().rows[i]);
    ++i;
  }
  EXPECT_EQ(i, flat.value().rows.size());

  // Streaming DISTINCT re-dedups across shards partition by partition
  // (workers hash-partition their emissions), so the merge adopts whole
  // compacted partition blocks — no per-row pushes, same as non-DISTINCT.
  auto distinct = db.QueryBlocks(
      "MATCH (p:proc)-[e:op2]->(f:file) RETURN DISTINCT p.exename");
  ASSERT_TRUE(distinct.ok());
  ASSERT_GT(distinct.value().rows.row_count(), 0u);
  EXPECT_EQ(distinct.value().rows.pushed_rows(), 0u);
  EXPECT_EQ(distinct.value().rows.adopted_rows(),
            distinct.value().rows.row_count());
}

TEST(BlockResultTest, PresetCancelFlagCancelsQuery) {
  GraphDatabase db(4);
  Rng rng(12);
  fixtures::SyntheticGraphSpec spec;
  spec.nodes = 200;
  spec.edges = 400;
  fixtures::BuildSyntheticGraph(db.graph(), spec, rng);
  std::atomic<bool> cancel{true};
  MatchOptions options = db.options();
  options.cancel = &cancel;
  auto rs = db.QueryBlocks(
      "MATCH (p:proc)-[e]->(f:file) RETURN p.exename", options);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kCancelled);
}

TEST(BlockResultTest, DeadlineBoundsSingleGiantScan) {
  // ROADMAP deadline-overshoot item: a deadline that expires mid-scan must
  // stop INSIDE the storage executor (one poll stride), not after the
  // whole 100k-node scan finishes. The fixture is the bench's 100k-node
  // population with enough edges that a full match takes well beyond the
  // deadline.
  GraphDatabase db(4);
  Rng rng(14);
  fixtures::SyntheticGraphSpec spec;
  spec.nodes = 100'000;
  spec.edges = 150'000;
  fixtures::BuildSyntheticGraph(db.graph(), spec, rng);

  MatchOptions options = db.options();
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  MatchStats stats;
  auto start = std::chrono::steady_clock::now();
  auto rs = db.QueryBlocks("MATCH (p:proc)-[e]->(f:file) RETURN p.exename",
                           options, &stats);
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kTimeout);
  // Overshoot is bounded by the poll stride, not the scan length: far less
  // than a full pass over 50k proc seeds (generous wall-clock margin for
  // loaded CI runners).
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2'000);
  EXPECT_LT(stats.seed_candidates, 50'000u)
      << "scan should stop at a deadline poll, not drain every seed";

  // A comfortable deadline does not fire.
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(5);
  auto ok = db.QueryBlocks(
      "MATCH (p:proc)-[e]->(f:file) RETURN p.exename LIMIT 5", options);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().rows.row_count(), 5u);
}

TEST(BlockResultTest, PreSplitOwnedSeedsMatchSkipScan) {
  // A multi-value IN probe materializes an owned seed union; the parallel
  // driver pre-splits it per shard at plan time. Results must equal the
  // serial run exactly (same rows, same shard-merge order).
  GraphDatabase db(4);
  Rng rng(13);
  fixtures::SyntheticGraphSpec spec;
  spec.nodes = 600;
  spec.edges = 1800;
  spec.edge_types = 3;
  fixtures::SyntheticGraph sg =
      fixtures::BuildSyntheticGraph(db.graph(), spec, rng);
  db.graph().CreateNodeIndex("file", "name");
  std::string q =
      "MATCH (p:proc)-[e:op1]->(f:file) WHERE f.name IN [" +
      fixtures::RandomFileNameInList(spec, sg, rng, 96) +
      "] RETURN p.exename, f.name";

  db.options() = MatchOptions{};
  db.options().parallel_shards = 1;
  auto serial = db.Query(q);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  db.options() = MatchOptions{};
  db.options().parallel_shards = 4;
  db.options().parallel_min_seeds = 0;
  auto parallel = db.Query(q);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  auto normalize = [](const GraphResultSet& rs) {
    std::vector<std::string> out;
    for (const auto& row : rs.rows) {
      std::string r;
      for (const Value& v : row) r += v.ToString() + "\x1f";
      out.push_back(std::move(r));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(normalize(parallel.value()), normalize(serial.value()));
}

}  // namespace
}  // namespace raptor::graphdb
