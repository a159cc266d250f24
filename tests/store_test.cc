// AuditStore invariants: faithful replication of the parsed log into BOTH
// backends (the paper replicates data across PostgreSQL and Neo4j), index
// coverage, and reduction wiring.
#include <gtest/gtest.h>

#include "audit/parser.h"
#include "audit/simulator.h"
#include "storage/store.h"

namespace raptor::storage {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    audit::BenignProfile profile;
    profile.num_processes = 40;
    profile.seed = 2024;
    audit::BenignWorkloadSimulator sim;
    audit::AuditLogParser parser;
    ASSERT_TRUE(parser.Parse(sim.Generate(profile), &log_).ok());
    ASSERT_TRUE(store_.Load(log_).ok());
  }

  audit::ParsedLog log_;
  AuditStore store_;
};

TEST_F(StoreTest, BackendsHoldSameCardinalities) {
  // Relational row counts match graph node/edge counts (replication).
  auto entities = store_.relational().Query("SELECT id FROM entities");
  auto events = store_.relational().Query("SELECT id FROM events");
  ASSERT_TRUE(entities.ok());
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(entities.value().rows.size(), store_.graph().graph().node_count());
  EXPECT_EQ(events.value().rows.size(), store_.graph().graph().edge_count());
  EXPECT_EQ(entities.value().rows.size(), store_.entity_count());
  EXPECT_EQ(events.value().rows.size(), store_.event_count());
}

TEST_F(StoreTest, EveryEventRowHasMatchingGraphEdge) {
  const graphdb::PropertyGraph& g = store_.graph().graph();
  for (const audit::SystemEvent& ev : store_.events()) {
    graphdb::NodeId src = store_.NodeForEntity(ev.subject);
    graphdb::NodeId dst = store_.NodeForEntity(ev.object);
    ASSERT_NE(src, graphdb::kInvalidNode);
    ASSERT_NE(dst, graphdb::kInvalidNode);
    bool found = false;
    for (graphdb::EdgeId eid : g.OutEdges(src)) {
      const graphdb::Edge& e = g.edge(eid);
      auto id = g.EdgeProp(eid, "id");
      if (e.dst == dst && id.has_value() &&
          id->AsInt() == static_cast<int64_t>(ev.id)) {
        EXPECT_EQ(g.EdgeTypeName(e.type_id), audit::EventOpName(ev.op));
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "event " << ev.id << " missing from graph";
  }
}

TEST_F(StoreTest, CrossBackendQueryAgreement) {
  // The same semantic question answered in SQL and Cypher must agree.
  auto sql = store_.relational().Query(
      "SELECT DISTINCT s.exename FROM events e "
      "JOIN entities s ON e.subject = s.id WHERE e.op = 'rename'");
  auto cypher = store_.graph().Query(
      "MATCH (s:proc)-[e:rename]->(o) RETURN DISTINCT s.exename");
  ASSERT_TRUE(sql.ok());
  ASSERT_TRUE(cypher.ok());
  std::set<std::string> sql_names, cy_names;
  for (const auto& row : sql.value().rows) sql_names.insert(row[0].AsText());
  for (const auto& row : cypher.value().rows) {
    cy_names.insert(row[0].AsText());
  }
  EXPECT_EQ(sql_names, cy_names);
}

TEST_F(StoreTest, KeyAttributeIndexesExist) {
  const sql::Table* entities = store_.relational().FindTable("entities");
  ASSERT_NE(entities, nullptr);
  for (const char* col : {"id", "name", "exename", "dstip"}) {
    EXPECT_TRUE(entities->HasIndex(entities->schema().FindColumn(col)))
        << col;
  }
  const graphdb::PropertyGraph& g = store_.graph().graph();
  EXPECT_TRUE(g.HasNodeIndex("file", "name"));
  EXPECT_TRUE(g.HasNodeIndex("proc", "exename"));
  EXPECT_TRUE(g.HasNodeIndex("ip", "dstip"));
}

TEST_F(StoreTest, ReductionShrinksEventCount) {
  EXPECT_LT(store_.event_count(), log_.events.size());
  EXPECT_EQ(store_.reduction_stats().input_events, log_.events.size());

  StoreOptions no_reduction;
  no_reduction.enable_reduction = false;
  AuditStore raw(no_reduction);
  ASSERT_TRUE(raw.Load(log_).ok());
  EXPECT_EQ(raw.event_count(), log_.events.size());
}

TEST_F(StoreTest, DoubleLoadRejected) {
  EXPECT_FALSE(store_.Load(log_).ok());
}

TEST_F(StoreTest, GroupColumnIsEscapedName) {
  // "group" is stored as column "grp"; both must be queryable.
  auto rs = store_.relational().Query(
      "SELECT grp FROM entities WHERE type = 'proc' LIMIT 1");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_FALSE(rs.value().rows.empty());
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "staff");
}

TEST(StoreNowTest, NewestEndTimeTracksAppendEvictAndRestore) {
  // The newest end_time is what TBQL `last N` windows resolve against. Ids
  // follow start_time; the longest-running event is the oldest one, so
  // evicting it must lower the newest end_time.
  StoreOptions options;
  options.enable_reduction = false;
  audit::ParsedLog log;
  audit::EntityId proc = log.entities.InternProcess("/bin/tar", 7);
  audit::EntityId file = log.entities.InternFile("/etc/passwd");
  auto event = [&](audit::Timestamp start, audit::Timestamp end) {
    audit::SystemEvent ev;
    ev.subject = proc;
    ev.object = file;
    ev.start_time = start;
    ev.end_time = end;
    return ev;
  };
  AuditStore store(options);
  EXPECT_EQ(store.newest_end_time(), 0);
  log.events = {event(10, 900), event(20, 100), event(30, 200)};
  ASSERT_TRUE(store.Load(log).ok());
  EXPECT_EQ(store.newest_end_time(), 900);

  log.events = {event(40, 300)};
  ASSERT_TRUE(store.Append(log).ok());
  EXPECT_EQ(store.newest_end_time(), 900);
  log.events = {event(50, 1000)};
  ASSERT_TRUE(store.Append(log).ok());
  EXPECT_EQ(store.newest_end_time(), 1000);

  ASSERT_TRUE(store.EvictEventsThrough(1).ok());  // drops end 900
  EXPECT_EQ(store.newest_end_time(), 1000);
  ASSERT_TRUE(store.EvictEventsThrough(4).ok());
  EXPECT_EQ(store.newest_end_time(), 1000);
  ASSERT_TRUE(store.EvictEventsThrough(5).ok());  // nothing left
  EXPECT_EQ(store.newest_end_time(), 0);

  AuditStore loaded(options);
  log.events = {event(10, 900), event(20, 100), event(30, 200)};
  ASSERT_TRUE(loaded.Load(log).ok());
  ASSERT_TRUE(loaded.EvictEventsThrough(1).ok());
  EXPECT_EQ(loaded.newest_end_time(), 200);
  AuditStore restored(options);
  ASSERT_TRUE(restored.RestoreFrom(loaded.ExportSnapshotState()).ok());
  EXPECT_EQ(restored.newest_end_time(), 200);
}

}  // namespace
}  // namespace raptor::storage
