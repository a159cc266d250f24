#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include "storage/relational/database.h"

namespace raptor::sql {
namespace {

class RelationalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema entities({{"id", ColumnType::kInt64},
                     {"type", ColumnType::kText},
                     {"name", ColumnType::kText},
                     {"pid", ColumnType::kInt64}});
    ASSERT_TRUE(db_.CreateTable("entities", entities).ok());
    Schema events({{"id", ColumnType::kInt64},
                   {"subject", ColumnType::kInt64},
                   {"object", ColumnType::kInt64},
                   {"op", ColumnType::kText},
                   {"start_time", ColumnType::kInt64},
                   {"end_time", ColumnType::kInt64}});
    ASSERT_TRUE(db_.CreateTable("events", events).ok());

    Insert("entities", {Value(int64_t{1}), Value("proc"), Value("/bin/tar"),
                        Value(int64_t{100})});
    Insert("entities", {Value(int64_t{2}), Value("file"), Value("/etc/passwd"),
                        Value(int64_t{0})});
    Insert("entities", {Value(int64_t{3}), Value("file"),
                        Value("/tmp/upload.tar"), Value(int64_t{0})});
    Insert("entities", {Value(int64_t{4}), Value("proc"), Value("/bin/bzip2"),
                        Value(int64_t{101})});

    Insert("events", {Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{2}),
                      Value("read"), Value(int64_t{10}), Value(int64_t{11})});
    Insert("events", {Value(int64_t{2}), Value(int64_t{1}), Value(int64_t{3}),
                      Value("write"), Value(int64_t{20}), Value(int64_t{21})});
    Insert("events", {Value(int64_t{3}), Value(int64_t{4}), Value(int64_t{3}),
                      Value("read"), Value(int64_t{30}), Value(int64_t{31})});
    ASSERT_TRUE(db_.CreateIndex("entities", "name").ok());
    ASSERT_TRUE(db_.CreateIndex("events", "subject").ok());
  }

  void Insert(const std::string& table, Row row) {
    ASSERT_TRUE(db_.Insert(table, std::move(row)).ok());
  }

  Database db_;
};

TEST(SqlParserTest, OutOfRangeNumbersAreParseErrors) {
  // Numbers that do not fit their field must come back as a parse error,
  // never as an exception (which aborts the process). SQL has no
  // variable-length bounds.
  const std::string kQueries[] = {
      "SELECT id FROM t WHERE id = 99999999999999999999999",
      "SELECT id FROM t WHERE score < 1" + std::string(400, '0') + ".5",
      "SELECT id FROM t LIMIT 99999999999999999999",
  };
  for (const std::string& text : kQueries) {
    auto stmt = ParseSelect(text);
    ASSERT_FALSE(stmt.ok()) << text;
    EXPECT_EQ(stmt.status().code(), StatusCode::kParseError) << text;
  }
}

TEST(SqlParserTest, DeepNestingIsAParseError) {
  // Past the nesting cap, NOT and parentheses are a parse error (100k
  // levels would overflow the stack).
  std::string nots;
  for (int i = 0; i < 100'000; ++i) nots += "NOT ";
  const std::string kQueries[] = {
      "SELECT id FROM t WHERE " + nots + "id = 1",
      "SELECT id FROM t WHERE " + std::string(100'000, '(') + "id = 1" +
          std::string(100'000, ')'),
  };
  for (const std::string& text : kQueries) {
    auto stmt = ParseSelect(text);
    ASSERT_FALSE(stmt.ok());
    EXPECT_EQ(stmt.status().code(), StatusCode::kParseError);
    EXPECT_NE(stmt.status().message().find("nesting too deep"),
              std::string::npos)
        << stmt.status().ToString();
  }
}

TEST_F(RelationalTest, SimpleSelect) {
  auto rs = db_.Query("SELECT name FROM entities WHERE type = 'proc'");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().rows.size(), 2u);
}

TEST_F(RelationalTest, LikeFilter) {
  auto rs = db_.Query("SELECT id FROM entities WHERE name LIKE '%passwd%'");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsInt(), 2);
}

TEST_F(RelationalTest, JoinWithOn) {
  auto rs = db_.Query(
      "SELECT s.name, o.name FROM events e "
      "JOIN entities s ON e.subject = s.id "
      "JOIN entities o ON e.object = o.id "
      "WHERE e.op = 'read' AND s.name LIKE '%tar%'");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "/bin/tar");
  EXPECT_EQ(rs.value().rows[0][1].AsText(), "/etc/passwd");
}

TEST_F(RelationalTest, ImplicitJoinWithTemporalConstraint) {
  // Two event aliases with a non-equi temporal predicate, the shape of the
  // paper's giant SQL baseline.
  auto rs = db_.Query(
      "SELECT e1.id, e2.id FROM events e1, events e2, entities f "
      "WHERE e1.object = f.id AND e2.object = f.id "
      "AND f.name = '/tmp/upload.tar' AND e1.end_time <= e2.start_time");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsInt(), 1 + 1);  // event 2 before event 3
  EXPECT_EQ(rs.value().rows[0][1].AsInt(), 3);
}

TEST_F(RelationalTest, InList) {
  auto rs = db_.Query(
      "SELECT id FROM entities WHERE name IN ('/bin/tar', '/bin/bzip2') "
      "ORDER BY id");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 2u);
  EXPECT_EQ(rs.value().rows[0][0].AsInt(), 1);
  EXPECT_EQ(rs.value().rows[1][0].AsInt(), 4);
}

TEST_F(RelationalTest, DistinctAndLimit) {
  auto rs = db_.Query("SELECT DISTINCT op FROM events ORDER BY op LIMIT 1");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "read");
}

TEST_F(RelationalTest, NotLike) {
  auto rs = db_.Query(
      "SELECT id FROM entities WHERE type = 'file' AND name NOT LIKE '%tar%'");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsInt(), 2);
}

TEST_F(RelationalTest, OrAndParens) {
  auto rs = db_.Query(
      "SELECT id FROM entities WHERE (type = 'proc' AND pid = 100) "
      "OR name = '/etc/passwd' ORDER BY id");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 2u);
}

TEST_F(RelationalTest, ParseErrors) {
  EXPECT_FALSE(db_.Query("SELECT FROM entities").ok());
  EXPECT_FALSE(db_.Query("SELECT * FROM nosuch").ok());
  EXPECT_FALSE(db_.Query("SELECT nosuchcol FROM entities").ok());
  EXPECT_FALSE(db_.Query("SELECT 'unterminated FROM entities").ok());
}

TEST_F(RelationalTest, SelectStar) {
  auto rs = db_.Query("SELECT * FROM entities WHERE id = 1");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0].size(), 4u);
}

TEST_F(RelationalTest, IndexProbeUsedForEquality) {
  ExecStats stats;
  auto rs = db_.Query("SELECT id FROM entities WHERE name = '/bin/tar'",
                      &stats);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().rows.size(), 1u);
  // The probe should touch only the matching row, not all four.
  EXPECT_EQ(stats.base_rows_scanned, 1u);
  EXPECT_EQ(stats.index_probe_rows, 1u);
}

TEST_F(RelationalTest, IndexProbeUsedForInList) {
  ExecStats stats;
  auto rs = db_.Query(
      "SELECT id FROM entities WHERE name IN ('/bin/tar', '/bin/bzip2', "
      "'/no/such')",
      &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().rows.size(), 2u);
  // Only the two matching rows are touched — the IN probes the name index.
  EXPECT_EQ(stats.base_rows_scanned, 2u);
  EXPECT_EQ(stats.index_probe_rows, 2u);
}

TEST_F(RelationalTest, ValueHashConsistentWithCompare) {
  ValueHash hash;
  ValueEq eq;
  // int/double coercion: equal by Compare implies equal hashes.
  EXPECT_TRUE(eq(Value(int64_t{1}), Value(1.0)));
  EXPECT_EQ(hash(Value(int64_t{1})), hash(Value(1.0)));
  EXPECT_EQ(hash(Value::Null()), hash(Value::Null()));
  // Numeric and text never compare equal, even when rendered alike.
  EXPECT_FALSE(eq(Value(int64_t{1}), Value("1")));
  // NaN equals itself, sorts below every number, and hashes consistently
  // regardless of payload bits (equality must stay an equivalence relation
  // for the Value-keyed indexes).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(eq(Value(nan), Value(-nan)));
  EXPECT_EQ(hash(Value(nan)), hash(Value(-nan)));
  EXPECT_FALSE(eq(Value(nan), Value(1.0)));
  EXPECT_LT(Value(nan).Compare(Value(-1e300)), 0);
}

TEST_F(RelationalTest, IndexProbeDistinguishesIntFromText) {
  // The old string-keyed index conflated Value(1) and Value("1"); the
  // Value-keyed index must not return int-keyed rows for a text probe.
  // Probing goes through the per-shard buckets (the facade's tables are
  // sharded), whose aggregate count must stay exact.
  const Table* t = db_.FindTable("events");
  ASSERT_NE(t, nullptr);
  int col = t->schema().FindColumn("subject");
  ASSERT_TRUE(t->HasIndex(col));
  EXPECT_EQ(t->ProbeCount(col, Value(int64_t{1})), 2u);
  EXPECT_EQ(t->ProbeCount(col, Value("1")), 0u);
  // Shard buckets hold each matching row exactly once, in its own shard.
  size_t found = 0;
  for (size_t s = 0; s < t->shard_count(); ++s) {
    for (RowId rid : t->Probe(col, Value(int64_t{1}), s)) {
      EXPECT_EQ(t->ShardOf(rid), s);
      EXPECT_EQ(t->row(rid)[col].AsInt(), 1);
      ++found;
    }
  }
  EXPECT_EQ(found, 2u);
}

TEST(ParallelSelectTest, AgreesWithSerialAndHonorsLimitBudget) {
  // A few hundred rows across sharded storage: parallel scans and probe
  // pipelines must return the serial result set (order-normalized), and a
  // pushed LIMIT must emit exactly min(limit, full) rows drawn from the
  // full result.
  Database db(4);
  ASSERT_TRUE(db.CreateTable("t", Schema({{"id", ColumnType::kInt64},
                                          {"name", ColumnType::kText},
                                          {"score", ColumnType::kInt64}}))
                  .ok());
  ASSERT_TRUE(db.CreateTable("u", Schema({{"tid", ColumnType::kInt64},
                                          {"tag", ColumnType::kText}}))
                  .ok());
  static const char* kNames[] = {"/bin/tar", "/bin/cat", "/tmp/x.sh"};
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db.Insert("t", {Value(static_cast<int64_t>(i)),
                                Value(kNames[i % 3]),
                                Value(static_cast<int64_t>(i * 7 % 100))})
                    .ok());
  }
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(db.Insert("u", {Value(static_cast<int64_t>(i * 3 % 400)),
                                Value(i % 2 ? "x" : "y")})
                    .ok());
  }
  ASSERT_TRUE(db.CreateIndex("t", "id").ok());

  auto rows_sorted = [](const ResultSet& rs) {
    std::vector<std::string> out;
    for (const Row& row : rs.rows) {
      std::string r;
      for (const Value& v : row) r += v.ToString() + "\x1f";
      out.push_back(std::move(r));
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  const char* queries[] = {
      "SELECT id FROM t WHERE score > 40",
      "SELECT t.name, u.tag FROM t, u WHERE t.id = u.tid AND t.score > 10",
      "SELECT DISTINCT name FROM t WHERE score > 5",
  };
  for (const char* q : queries) {
    db.options() = SelectOptions{};
    db.options().parallel_shards = 1;
    auto serial = db.Query(q);
    ASSERT_TRUE(serial.ok()) << q << ": " << serial.status().ToString();

    db.options() = SelectOptions{};
    db.options().parallel_shards = 4;
    db.options().parallel_min_rows = 0;
    auto parallel = db.Query(q);
    ASSERT_TRUE(parallel.ok()) << q << ": " << parallel.status().ToString();
    EXPECT_EQ(rows_sorted(parallel.value()), rows_sorted(serial.value())) << q;
    // Parallel runs are deterministic for fixed storage + shard count.
    auto again = db.Query(q);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().rows, parallel.value().rows) << q;
  }

  // Cooperative LIMIT budget across workers.
  db.options() = SelectOptions{};
  db.options().parallel_shards = 1;
  auto full = db.Query("SELECT id FROM t WHERE score > 40");
  ASSERT_TRUE(full.ok());
  std::vector<std::string> full_rows = rows_sorted(full.value());
  ASSERT_GT(full_rows.size(), 60u);
  db.options() = SelectOptions{};
  db.options().parallel_shards = 4;
  db.options().parallel_min_rows = 0;
  auto limited = db.Query("SELECT id FROM t WHERE score > 40 LIMIT 60");
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  ASSERT_EQ(limited.value().rows.size(), 60u);
  std::vector<std::string> got = rows_sorted(limited.value());
  EXPECT_TRUE(std::includes(full_rows.begin(), full_rows.end(), got.begin(),
                            got.end()));
  // DISTINCT + LIMIT under parallel dedup-and-merge stays exact.
  auto dl = db.Query("SELECT DISTINCT name FROM t LIMIT 2");
  ASSERT_TRUE(dl.ok()) << dl.status().ToString();
  EXPECT_EQ(dl.value().rows.size(), 2u);
}

TEST_F(RelationalTest, ShardedRowStorageKeepsGlobalIdsDense) {
  // Row ids are global and dense in insert order even though storage is
  // partitioned; row(id) must address through the owning shard.
  const Table* t = db_.FindTable("entities");
  ASSERT_NE(t, nullptr);
  EXPECT_GT(t->shard_count(), 1u);
  ASSERT_EQ(t->row_count(), 4u);
  int id_col = t->schema().FindColumn("id");
  for (RowId rid = 0; rid < t->row_count(); ++rid) {
    EXPECT_EQ(t->row(rid)[id_col].AsInt(), static_cast<int64_t>(rid) + 1);
  }
}

TEST_F(RelationalTest, SingleShardTablePreservesLegacyApi) {
  // The N=1 case keeps the pre-sharding whole-table accessors.
  Table t("flat", Schema({{"k", ColumnType::kInt64}}), /*shard_count=*/1);
  ASSERT_TRUE(t.Insert({Value(int64_t{7})}).ok());
  ASSERT_TRUE(t.Insert({Value(int64_t{7})}).ok());
  ASSERT_TRUE(t.CreateIndex("k").ok());
  EXPECT_EQ(t.shard_count(), 1u);
  EXPECT_EQ(t.rows().size(), 2u);
  EXPECT_EQ(t.Probe(0, Value(int64_t{7})).size(), 2u);
  EXPECT_EQ(t.ProbeCount(0, Value(int64_t{7})), 2u);
}

TEST_F(RelationalTest, LimitZeroReturnsNothing) {
  ExecStats stats;
  auto rs = db_.Query("SELECT name FROM entities LIMIT 0", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs.value().rows.empty());
  // LIMIT 0 never starts the base scan at all.
  EXPECT_EQ(stats.base_rows_scanned, 0u);
}

TEST_F(RelationalTest, LimitLargerThanResultSet) {
  auto rs = db_.Query("SELECT name FROM entities WHERE type = 'proc' LIMIT 50");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().rows.size(), 2u);
}

TEST_F(RelationalTest, DistinctLimitCountsPostDedupRows) {
  // Event subjects arrive as 1, 1, 4: a limit counted before dedup would
  // stop at the duplicate and emit a single distinct row.
  auto rs = db_.Query("SELECT DISTINCT subject FROM events LIMIT 2");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  std::vector<int64_t> got;
  for (const auto& row : rs.value().rows) got.push_back(row[0].AsInt());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int64_t>{1, 4}));
}

TEST_F(RelationalTest, LimitWithJoin) {
  const char* base =
      "SELECT s.name, o.name FROM events e "
      "JOIN entities s ON e.subject = s.id "
      "JOIN entities o ON e.object = o.id";
  auto full = db_.Query(base);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full.value().rows.size(), 3u);
  auto limited = db_.Query(std::string(base) + " LIMIT 2");
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  ASSERT_EQ(limited.value().rows.size(), 2u);
  for (const auto& row : limited.value().rows) {
    bool found = false;
    for (const auto& frow : full.value().rows) {
      if (row == frow) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(RelationalTest, LimitStopsBaseScan) {
  // The pipeline stops after the first emitted row: one of the four
  // entity rows is scanned.
  ExecStats stats;
  auto rs = db_.Query("SELECT name FROM entities LIMIT 1", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(stats.base_rows_scanned, 1u);
  EXPECT_EQ(stats.rows_emitted, 1u);
}

TEST_F(RelationalTest, OrderByDisablesPushdownButStaysCorrect) {
  auto rs = db_.Query("SELECT name FROM entities ORDER BY name LIMIT 2");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().rows.size(), 2u);
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "/bin/bzip2");
  EXPECT_EQ(rs.value().rows[1][0].AsText(), "/bin/tar");
}

TEST_F(RelationalTest, StatementRoundTrip) {
  const char* sql =
      "SELECT DISTINCT s.name FROM events e JOIN entities s ON e.subject = "
      "s.id WHERE e.op = 'read' ORDER BY s.name LIMIT 5";
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  // Re-parse the printed form; it must execute identically.
  auto printed = stmt.value().ToString();
  auto rs1 = db_.Query(sql);
  auto rs2 = db_.Query(printed);
  ASSERT_TRUE(rs1.ok());
  ASSERT_TRUE(rs2.ok()) << printed << " -> " << rs2.status().ToString();
  EXPECT_EQ(rs1.value().rows.size(), rs2.value().rows.size());
}

TEST(BlockResultTest, ParallelNonDistinctAdoptsWorkerBlocksZeroCopy) {
  Database db(4);
  ASSERT_TRUE(db.CreateTable("t", Schema({{"id", ColumnType::kInt64},
                                          {"name", ColumnType::kText},
                                          {"score", ColumnType::kInt64}}))
                  .ok());
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(db.Insert("t", {Value(static_cast<int64_t>(i)),
                                Value("/data/f" + std::to_string(i)),
                                Value(static_cast<int64_t>(i * 13 % 100))})
                    .ok());
  }
  db.options().parallel_min_rows = 0;

  const char* q = "SELECT id, name FROM t WHERE score > 30";
  auto blocks = db.QueryBlocks(q);
  ASSERT_TRUE(blocks.ok()) << blocks.status().ToString();
  ASSERT_GT(blocks.value().rows.row_count(), 0u);
  // Non-DISTINCT parallel merge: adopted worker blocks only, no per-row
  // moves (the ROADMAP zero-copy merge item).
  EXPECT_EQ(blocks.value().rows.pushed_rows(), 0u);
  EXPECT_EQ(blocks.value().rows.adopted_rows(),
            blocks.value().rows.row_count());
  EXPECT_LE(blocks.value().rows.block_count(), size_t{4});

  // The flattening wrapper sees identical rows in identical order.
  auto flat = db.Query(q);
  ASSERT_TRUE(flat.ok());
  size_t i = 0;
  auto cursor = blocks.value().cursor();
  while (const Row* row = cursor.Next()) {
    ASSERT_LT(i, flat.value().rows.size());
    EXPECT_EQ(*row, flat.value().rows[i]);
    ++i;
  }
  EXPECT_EQ(i, flat.value().rows.size());

  // Streaming DISTINCT re-dedups at the merge partition by partition
  // (workers hash-partition their emissions), then adopts each compacted
  // partition block wholesale — no per-row pushes either.
  auto distinct = db.QueryBlocks("SELECT DISTINCT score FROM t");
  ASSERT_TRUE(distinct.ok());
  ASSERT_GT(distinct.value().rows.row_count(), 0u);
  EXPECT_EQ(distinct.value().rows.pushed_rows(), 0u);
  EXPECT_EQ(distinct.value().rows.adopted_rows(),
            distinct.value().rows.row_count());
}

TEST(BlockResultTest, PresetCancelFlagCancelsQuery) {
  Database db(4);
  ASSERT_TRUE(
      db.CreateTable("t", Schema({{"id", ColumnType::kInt64}})).ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(db.Insert("t", {Value(static_cast<int64_t>(i))}).ok());
  }
  std::atomic<bool> cancel{true};
  SelectOptions options = db.options();
  options.cancel = &cancel;
  auto rs = db.QueryBlocks("SELECT id FROM t", options);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kCancelled);
}

TEST(BlockResultTest, DeadlineBoundsSingleGiantScan) {
  // ROADMAP deadline-overshoot item, relational side: the deadline is
  // polled inside the base-scan loop, so a single giant scan stops within
  // one poll stride of expiry instead of finishing first. 100k rows with
  // a cross-join tail make the full query take well past the deadline.
  Database db(4);
  ASSERT_TRUE(db.CreateTable("big", Schema({{"id", ColumnType::kInt64},
                                            {"name", ColumnType::kText}}))
                  .ok());
  ASSERT_TRUE(
      db.CreateTable("dim", Schema({{"k", ColumnType::kInt64}})).ok());
  for (int i = 0; i < 100'000; ++i) {
    ASSERT_TRUE(db.Insert("big", {Value(static_cast<int64_t>(i)),
                                  Value("/data/f" + std::to_string(i))})
                    .ok());
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.Insert("dim", {Value(static_cast<int64_t>(i))}).ok());
  }

  SelectOptions options = db.options();
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  ExecStats stats;
  auto start = std::chrono::steady_clock::now();
  auto rs = db.QueryBlocks(
      "SELECT b.id, d.k FROM big b, dim d WHERE b.name LIKE '%/data/%'",
      options, &stats);
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kTimeout);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2'000);

  // A comfortable deadline does not fire.
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(5);
  auto ok = db.QueryBlocks("SELECT id FROM big WHERE id < 10", options);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().rows.row_count(), 10u);
}

TEST(BlockResultTest, PreSplitSeedListsMatchSkipScan) {
  // Indexed IN probes materialize a shared seed list; under a pushed LIMIT
  // the parallel driver pre-splits it per shard at plan time. The budgeted
  // result must stay within the full result, and exact without LIMIT.
  Database db(4);
  ASSERT_TRUE(db.CreateTable("t", Schema({{"id", ColumnType::kInt64},
                                          {"grp", ColumnType::kInt64}}))
                  .ok());
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(db.Insert("t", {Value(static_cast<int64_t>(i)),
                                Value(static_cast<int64_t>(i % 10))})
                    .ok());
  }
  ASSERT_TRUE(db.CreateIndex("t", "grp").ok());
  const char* q = "SELECT id FROM t WHERE grp IN (1, 4, 7)";

  db.options() = SelectOptions{};
  db.options().parallel_shards = 1;
  auto serial = db.Query(q);
  ASSERT_TRUE(serial.ok());

  db.options() = SelectOptions{};
  db.options().parallel_shards = 4;
  db.options().parallel_min_rows = 0;
  auto parallel = db.Query(q);
  ASSERT_TRUE(parallel.ok());
  auto normalize = [](const ResultSet& rs) {
    std::vector<int64_t> ids;
    for (const Row& r : rs.rows) ids.push_back(r[0].AsInt());
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  EXPECT_EQ(normalize(parallel.value()), normalize(serial.value()));

  auto limited = db.Query("SELECT id FROM t WHERE grp IN (1, 4, 7) LIMIT 40");
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited.value().rows.size(), 40u);
  std::vector<int64_t> full_ids = normalize(serial.value());
  for (const Row& r : limited.value().rows) {
    EXPECT_TRUE(std::binary_search(full_ids.begin(), full_ids.end(),
                                   r[0].AsInt()));
  }
}

}  // namespace
}  // namespace raptor::sql
