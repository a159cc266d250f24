// Differential testing of both query executors against independent
// brute-force oracles (tests/fixtures/cypher_oracle.h, sql_oracle.h).
//
// The oracles share nothing with the executors but the parsers' ASTs, the
// storage records and Value's comparison semantics: the Cypher oracle
// tries every node id and edge id for every pattern element, enumerates
// variable-length relationships as edge-simple paths and enforces
// relationship uniqueness across the whole MATCH; the SQL oracle filters
// the full cross product of its tables. Neither touches an index, the
// adjacency lists, the frozen columns, pushdown, seed selection or the
// morsel scheduler, so agreement checks all of those at once.
//
// Every query runs on both execution schedules the executors can pick:
// serial (parallel_shards = 1) and morsel work-stealing with morsels of
// three seeds and the fan-out thresholds zeroed, so even these tiny
// fixtures split into several stealable morsels with a shared LIMIT
// budget. The comparisons:
//  * without LIMIT, the result multiset must equal the oracle's exactly
//    (ORDER BY queries with unique keys: the exact sequence);
//  * with LIMIT, the executors may return any qualifying subset (seed
//    order and the morsel race decide which), so the row count must be
//    min(limit, full count), every row must come from the oracle's full
//    result, and DISTINCT rows must be unique; ORDER BY queries must
//    return exactly the oracle's prefix.
//
// The catalog holds hand-written queries (typed / untyped / variable-length
// expansion, joins, IN lists, DISTINCT) plus seeded random WHERE clauses
// over the fixture properties — AND / OR / NOT, IN and NOT IN, string
// operators, cross-kind and NULL literals, cross-variable comparisons —
// on several MATCH / FROM shapes. The graphs also carry planted attack
// subgraphs (a lateral-movement chain and an exfil fan-in,
// tests/fixtures/synthetic_graph.h) whose exact rows are asserted against
// the oracle, catching an oracle that drifts together with the executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "storage/graphdb/cypher_executor.h"
#include "storage/graphdb/cypher_parser.h"
#include "storage/relational/database.h"
#include "storage/relational/sql_parser.h"
#include "tests/fixtures/cypher_oracle.h"
#include "tests/fixtures/sql_oracle.h"
#include "tests/fixtures/synthetic_graph.h"

namespace raptor {
namespace {

/// Row rendering shared by both backends, preserving emission order (for
/// ordered-query comparisons).
std::vector<std::string> RenderRowsOrdered(
    const std::vector<std::vector<sql::Value>>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const sql::Value& v : row) cells.push_back(v.ToString());
    out.push_back(Join(cells, "\x1f"));
  }
  return out;
}

/// Order-normalized rendering for multiset comparisons.
std::vector<std::string> RenderRows(
    const std::vector<std::vector<sql::Value>>& rows) {
  std::vector<std::string> out = RenderRowsOrdered(rows);
  std::sort(out.begin(), out.end());
  return out;
}

/// Multiset containment: every row of `subset` occurs in `full` at least as
/// many times. Both inputs are sorted.
bool IsMultiSubset(const std::vector<std::string>& subset,
                   const std::vector<std::string>& full) {
  std::map<std::string, int> counts;
  for (const std::string& r : full) ++counts[r];
  for (const std::string& r : subset) {
    if (--counts[r] < 0) return false;
  }
  return true;
}

bool AllUnique(const std::vector<std::string>& sorted_rows) {
  return std::adjacent_find(sorted_rows.begin(), sorted_rows.end()) ==
         sorted_rows.end();
}

struct CatalogQuery {
  std::string text;      // base query, no LIMIT clause
  bool distinct;         // query declares DISTINCT
  bool ordered = false;  // ORDER BY with unique keys (SQL only)
};

// 16 crosses the parallel_min_limit default (8): the shared atomic row
// budget actually gates emission there, unlike 1000 which rarely binds.
const long long kLimits[] = {-1, 0, 3, 16, 1000};  // -1 = no LIMIT clause

// Random WHERE clauses per seed and dialect.
constexpr int kRandomQueries = 24;

std::string WithLimit(const CatalogQuery& q, long long limit) {
  if (limit < 0) return q.text;
  return q.text + " LIMIT " + std::to_string(limit);
}

/// Expected rows of a plant-targeted query, rendered like RenderRows.
std::vector<std::string> ExpectedRows(
    std::vector<std::vector<std::string>> rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(Join(row, "\x1f"));
  std::sort(out.begin(), out.end());
  return out;
}

/// Check one executor result against the oracle's un-limited result.
void CheckAgainstOracle(const CatalogQuery& q, long long limit,
                        const std::vector<std::vector<sql::Value>>& got_rows,
                        const std::vector<std::string>& full_ordered,
                        const std::string& where) {
  if (q.ordered) {
    std::vector<std::string> expect = full_ordered;
    if (limit >= 0 && expect.size() > static_cast<size_t>(limit)) {
      expect.resize(static_cast<size_t>(limit));
    }
    EXPECT_EQ(RenderRowsOrdered(got_rows), expect) << where;
    return;
  }
  std::vector<std::string> full = full_ordered;
  std::sort(full.begin(), full.end());
  std::vector<std::string> got = RenderRows(got_rows);
  if (limit < 0) {
    EXPECT_EQ(got, full) << where;
    return;
  }
  EXPECT_EQ(got.size(), std::min<size_t>(static_cast<size_t>(limit),
                                         full.size()))
      << where;
  EXPECT_TRUE(IsMultiSubset(got, full)) << where;
  if (q.distinct) {
    EXPECT_TRUE(AllUnique(got)) << where;
  }
}

// The generators below draw from the Rng in statement order only (never
// twice inside one expression, whose operand order is unspecified), so a
// seed yields the same queries on every compiler.

/// Literal list for IN: text items quoted, numeric items bare.
std::string LiteralList(const std::vector<std::string>& items) {
  std::vector<std::string> out;
  for (const std::string& s : items) {
    bool numeric = std::isdigit(static_cast<unsigned char>(s[0])) != 0;
    out.push_back(numeric ? s : "'" + s + "'");
  }
  return Join(out, ", ");
}

/// Random boolean expression: leaves come from `atom`, inner nodes are
/// AND / OR / NOT, fully parenthesized.
template <class Atom>
std::string RandomBool(Rng& rng, int depth, Atom&& atom) {
  if (depth == 0 || rng.Chance(0.35)) return atom();
  uint64_t kind = rng.Uniform(5);
  std::string lhs = RandomBool(rng, depth - 1, atom);
  if (kind == 4) return "NOT (" + lhs + ")";
  std::string rhs = RandomBool(rng, depth - 1, atom);
  return "(" + lhs + (kind < 2 ? " AND " : " OR ") + rhs + ")";
}

/// A random element of a C array.
template <class T, size_t N>
const T& PickOf(Rng& rng, const T (&items)[N]) {
  return items[rng.Uniform(N)];
}

// --------------------------------------------------------------- Cypher

/// A pattern variable of a random Cypher query shape.
struct CypherVar {
  std::string name;
  enum Kind { kProc, kFile, kAnyNode, kEdge } kind;
};

/// One random comparison over the variables of a shape.
std::string RandomCypherAtom(Rng& rng, const std::vector<CypherVar>& vars) {
  static const char* kProcNames[] = {"/bin/p0",     "/bin/p3",
                                     "/bin/p7",     "/attack/lm1",
                                     "/attack/lm3", "/attack/exfil",
                                     "/bin/zzz"};
  static const char* kFileNames[] = {"/data/f0",     "/data/f2",
                                     "/data/f5",     "/data/f11",
                                     "/secret/doc2", "/attack/upload.tgz",
                                     "/data/none"};
  static const char* kFragments[] = {"1", "2", "/bin", "/data", "/attack",
                                     "doc", ".tgz", "f1", "p", "lm"};
  static const char* kCmp[] = {"=", "<>", "<", "<=", ">", ">="};
  static const char* kStrOps[] = {"CONTAINS", "STARTS WITH", "ENDS WITH"};
  const CypherVar& v = vars[rng.Uniform(vars.size())];
  uint64_t shape = rng.Uniform(7);
  std::string op = PickOf(rng, kCmp);
  if (v.kind == CypherVar::kEdge) {
    std::string ref = v.name + (rng.Chance(0.5) ? ".start_time" : ".end_time");
    uint64_t n = rng.Uniform(210);
    switch (shape % 4) {
      case 0:  // cross-variable temporal order
        for (const CypherVar& w : vars) {
          if (w.kind == CypherVar::kEdge && w.name != v.name) {
            return ref + " <= " + w.name + ".start_time";
          }
        }
        return ref + " >= 0";
      case 1:  // double literal: the row-path fallback
        return ref + " " + op + " " + std::to_string(n) + ".5";
      case 2:
        return ref + " IN [" + std::to_string(n % 5 * 10) + ", " +
               std::to_string(100 + n % 6) + ", 200]";
      default:
        return ref + " " + op + " " + std::to_string(n);
    }
  }
  bool proc = v.kind == CypherVar::kProc ||
              (v.kind == CypherVar::kAnyNode && rng.Chance(0.5));
  bool swap_prop = rng.Chance(0.05);  // the other label's key: always NULL
  std::string ref = v.name + ((proc != swap_prop) ? ".exename" : ".name");
  auto name = [&] {
    return std::string(proc ? PickOf(rng, kProcNames)
                            : PickOf(rng, kFileNames));
  };
  switch (shape) {
    case 0:
    case 1:
      return ref + " " + op + " '" + name() + "'";
    case 2: {
      std::string str_op = PickOf(rng, kStrOps);
      return ref + " " + str_op + " '" + PickOf(rng, kFragments) + "'";
    }
    case 3: {
      std::vector<std::string> items;
      for (uint64_t i = 0, n = 1 + rng.Uniform(4); i < n; ++i) {
        items.push_back(name());
      }
      if (rng.Chance(0.2)) items.push_back("7");  // mixed-kind list
      std::string in = rng.Chance(0.25) ? " NOT IN [" : " IN [";
      return ref + in + LiteralList(items) + "]";
    }
    case 4: {  // cross-variable comparison
      const CypherVar& w = vars[rng.Uniform(vars.size())];
      if (w.kind == CypherVar::kEdge || w.name == v.name) {
        return ref + " = NULL";
      }
      std::string wprop = w.kind == CypherVar::kFile ? ".name" : ".exename";
      return ref + " " + op + " " + w.name + wprop;
    }
    case 5:  // text vs int: a constant verdict per kind
      return ref + " " + op + " " + std::to_string(rng.Uniform(50));
    default:  // bare variable: the node id
      return v.name + " <> " + std::to_string(rng.Uniform(40));
  }
}

CatalogQuery RandomCypherQuery(Rng& rng) {
  using V = CypherVar;
  std::string match;
  std::vector<CypherVar> vars;
  std::vector<std::string> returns;
  std::string inline_p;
  if (rng.Chance(0.2)) {
    inline_p = " {exename: '/bin/p" + std::to_string(rng.Uniform(8)) + "'}";
  }
  uint64_t shape = rng.Uniform(7);
  std::string lo = std::to_string(rng.Uniform(2));  // varlen bounds
  std::string hi = std::to_string(1 + rng.Uniform(3));
  switch (shape) {
    case 0:
      match = "MATCH (p:proc" + inline_p + ")-[e]->(f:file)";
      vars = {{"p", V::kProc}, {"f", V::kFile}, {"e", V::kEdge}};
      returns = {"p.exename", "f.name", "e.start_time"};
      break;
    case 1:
      match = "MATCH (p:proc" + inline_p + ")-[e:op" + hi + "]->(f:file)";
      vars = {{"p", V::kProc}, {"f", V::kFile}, {"e", V::kEdge}};
      returns = {"p.exename", "f.name", "f"};
      break;
    case 2:
      match = "MATCH (p:proc)-[*" + lo + ".." + hi + "]->(f)";
      vars = {{"p", V::kProc}, {"f", V::kAnyNode}};
      returns = {"p.exename", "f.name", "f.exename"};
      break;
    case 3:
      match = "MATCH (p:proc)-[e1]->(f:file), (p)-[e2]->(g:file)";
      vars = {{"p", V::kProc}, {"f", V::kFile}, {"g", V::kFile},
              {"e1", V::kEdge}, {"e2", V::kEdge}};
      returns = {"p.exename", "f.name", "g.name"};
      break;
    case 4:
      match = "MATCH (f:file)";
      vars = {{"f", V::kFile}};
      returns = {"f.name", "f"};
      break;
    case 5:
      match = "MATCH (a:proc)-[:lm_hop*" + lo + ".." + hi + "]->(b:proc)";
      vars = {{"a", V::kProc}, {"b", V::kProc}};
      returns = {"a.exename", "b.exename"};
      break;
    default:
      match = "MATCH (p:proc)-[r]->(d:file), (q:proc)-[w]->(d)";
      vars = {{"p", V::kProc}, {"q", V::kProc}, {"d", V::kFile},
              {"r", V::kEdge}, {"w", V::kEdge}};
      returns = {"p.exename", "q.exename", "d.name"};
      break;
  }
  CatalogQuery q;
  q.distinct = rng.Chance(0.3);
  std::vector<std::string> items;
  for (const std::string& r : returns) {
    if (items.empty() || rng.Chance(0.5)) items.push_back(r);
  }
  std::string where =
      RandomBool(rng, 3, [&] { return RandomCypherAtom(rng, vars); });
  q.text = match + " WHERE " + where + " RETURN " +
           (q.distinct ? "DISTINCT " : "") + Join(items, ", ");
  return q;
}

class CypherDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CypherDifferentialTest, SerialAndMorselMatchOracle) {
  uint64_t seed = GetParam();
  Rng rng(seed);

  fixtures::SyntheticGraphSpec spec;
  spec.nodes = 16 + 8 * static_cast<long long>(seed % 3);
  spec.edges = spec.nodes * 3;
  spec.edge_types = 4;
  graphdb::GraphDatabase db;
  fixtures::BuildSyntheticGraph(db.graph(), spec, rng);
  fixtures::AttackPlantSpec plant_spec;
  fixtures::AttackPlants plants =
      fixtures::PlantAttackSubgraphs(db.graph(), spec, plant_spec);
  ASSERT_EQ(plants.lateral_procs.size(), 5u);
  ASSERT_EQ(plants.exfil_docs.size(), 6u);
  // Randomize index availability so both probe and scan seeding run.
  if (seed % 2 == 0) db.graph().CreateNodeIndex("proc", "exename");
  if (seed % 3 != 1) db.graph().CreateNodeIndex("file", "name");

  std::vector<CatalogQuery> catalog = {
      {"MATCH (p:proc)-[e:op1]->(f:file) RETURN p.exename, f.name", false},
      {"MATCH (p:proc {exename: '/bin/p1'})-[e]->(f:file) RETURN f.name",
       false},
      {"MATCH (f:file) WHERE f.name IN ['/data/f0', '/data/f3', '/data/f7', "
       "'/data/none'] RETURN f.name",
       false},
      {"MATCH (p:proc)-[e:op2]->(f:file) RETURN DISTINCT p.exename", true},
      {"MATCH (p:proc)-[e]->(f:file) WHERE f.name CONTAINS '1' "
       "RETURN p.exename, f.name",
       false},
      {"MATCH (p:proc)-[*1..3]->(f:file) RETURN DISTINCT f.name", true},
      {"MATCH (p:proc)-[e1:op0]->(f:file), (p)-[e2:op1]->(g:file) "
       "RETURN p.exename, g.name",
       false},
      {"MATCH (p:proc) WHERE p.exename IN ['/bin/p0', '/bin/p2', '/bin/p4'] "
       "RETURN DISTINCT p.exename",
       true},
      // Plant-targeted queries: expected rows asserted exactly below.
      {"MATCH (a:proc)-[e:lm_hop]->(b:proc) RETURN a.exename, b.exename",
       false},
      {"MATCH (a:proc {exename: '/attack/lm0'})-[e:lm_hop*1..4]->(b:proc) "
       "RETURN b.exename",
       false},
      {"MATCH (p:proc)-[r:exfil_read]->(d:file), "
       "(p)-[w:exfil_write]->(a:file) RETURN p.exename, d.name, a.name",
       false},
  };
  const size_t kPlanted = 8;  // catalog[8..10]

  // Known-plant expectations: the result of each plant-targeted query is
  // fully determined by the planted subgraphs, independent of the random
  // background graph.
  std::vector<std::vector<std::string>> lm_edges, lm_reach, exfil_rows;
  for (int i = 0; i < plant_spec.lateral_hops; ++i) {
    lm_edges.push_back({"/attack/lm" + std::to_string(i),
                        "/attack/lm" + std::to_string(i + 1)});
  }
  for (int i = 1; i <= plant_spec.lateral_hops; ++i) {
    lm_reach.push_back({"/attack/lm" + std::to_string(i)});
  }
  for (int i = 0; i < plant_spec.exfil_docs; ++i) {
    exfil_rows.push_back({"/attack/exfil", "/secret/doc" + std::to_string(i),
                          "/attack/upload.tgz"});
  }
  const std::vector<std::string> planted[] = {
      ExpectedRows(lm_edges), ExpectedRows(lm_reach),
      ExpectedRows(exfil_rows)};

  for (int i = 0; i < kRandomQueries; ++i) {
    catalog.push_back(RandomCypherQuery(rng));
  }

  fixtures::CypherOracle oracle(db.graph());
  size_t nonempty_random = 0;
  for (size_t qi = 0; qi < catalog.size(); ++qi) {
    const CatalogQuery& q = catalog[qi];
    auto parsed = graphdb::ParseCypher(q.text);
    ASSERT_TRUE(parsed.ok()) << q.text << ": " << parsed.status().ToString();
    auto full_rs = oracle.Run(parsed.value());
    ASSERT_TRUE(full_rs.ok()) << q.text << ": " << full_rs.status().ToString();
    std::vector<std::string> full = RenderRowsOrdered(full_rs.value());
    if (qi >= kPlanted && qi < kPlanted + 3) {
      EXPECT_EQ(RenderRows(full_rs.value()), planted[qi - kPlanted]) << q.text;
    }
    if (qi >= catalog.size() - kRandomQueries && !full.empty()) {
      ++nonempty_random;
    }

    for (long long limit : kLimits) {
      std::string text = WithLimit(q, limit);
      for (bool morsel : {false, true}) {
        graphdb::MatchOptions opts;
        opts.parallel_shards = morsel ? 4 : 1;
        opts.morsel_size = 3;
        opts.parallel_min_seeds = 0;  // fan out even on these tiny graphs
        opts.parallel_min_limit = 0;
        db.options() = opts;
        auto rs = db.Query(text);
        ASSERT_TRUE(rs.ok()) << text << ": " << rs.status().ToString();
        CheckAgainstOracle(q, limit, rs.value().rows, full,
                           text + (morsel ? " [morsel]" : " [serial]"));
      }
    }
  }
  // Guard against a degenerate generator: most random queries must match
  // something, or agreement on empty results would prove little.
  EXPECT_GE(nonempty_random, static_cast<size_t>(kRandomQueries / 3));
  db.options() = graphdb::MatchOptions{};
}

INSTANTIATE_TEST_SUITE_P(Seeds, CypherDifferentialTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u));

// ------------------------------------------------------------------ SQL

/// One random comparison over columns of t (id, name, score) and/or
/// u (id, tid, tag); `qualify` prefixes the alias (multi-table queries).
std::string RandomSqlAtom(Rng& rng, bool use_t, bool use_u, bool qualify) {
  static const char* kNames[] = {"/bin/tar", "/bin/cat", "/tmp/x.sh",
                                 "/etc/passwd", "/none"};
  static const char* kTags[] = {"x", "y", "z", "w"};
  static const char* kLikes[] = {"%tar%", "/bin/%", "%.sh", "_bin%", "%"};
  static const char* kCmp[] = {"=", "<>", "!=", "<", "<=", ">", ">="};
  bool t = use_t && (!use_u || rng.Chance(0.6));
  std::string pre = qualify ? (t ? "t." : "u.") : "";
  bool first_int = rng.Chance(0.5);
  std::string int_col = pre + (t ? (first_int ? "score" : "id")
                                 : (first_int ? "tid" : "id"));
  std::string text_col = pre + (t ? "name" : "tag");
  auto text_lit = [&] {
    return std::string(t ? PickOf(rng, kNames) : PickOf(rng, kTags));
  };
  uint64_t bound = t ? 100 : 40;
  uint64_t shape = rng.Uniform(10);
  std::string op = PickOf(rng, kCmp);
  std::string n = std::to_string(rng.Uniform(bound));
  switch (shape) {
    case 0:
    case 1:
      return int_col + " " + op + " " + n;
    case 2:  // literal on the left (mirrored compare)
      return n + " " + op + " " + int_col;
    case 3:  // double / NULL literal: the row-path fallback
      return int_col + " " + op + " " +
             (rng.Chance(0.7) ? n + ".5" : std::string("NULL"));
    case 4:
      return text_col + " " + op + " '" + text_lit() + "'";
    case 5:  // cross-kind compare folds to a constant per column kind
      if (rng.Chance(0.5)) return text_col + " " + op + " 5";
      return int_col + " " + op + " '" + text_lit() + "'";
    case 6: {
      std::string like = rng.Chance(0.3) ? " NOT LIKE '" : " LIKE '";
      return text_col + like + PickOf(rng, kLikes) + "'";
    }
    case 7: {
      bool ints = rng.Chance(0.5);
      std::vector<std::string> items;
      for (uint64_t i = 0, k = 1 + rng.Uniform(4); i < k; ++i) {
        items.push_back(ints ? std::to_string(rng.Uniform(bound))
                             : text_lit());
      }
      if (rng.Chance(0.15)) items.push_back(ints ? "x" : "3");  // mixed
      std::string in = rng.Chance(0.25) ? " NOT IN (" : " IN (";
      return (ints ? int_col : text_col) + in + LiteralList(items) + ")";
    }
    case 8: {  // arithmetic
      std::string add = std::to_string(rng.Uniform(20));
      return int_col + " + " + add + " " + op + " " + n;
    }
    default:  // cross-table (non-equi) compare, or two columns of one table
      if (use_t && use_u) return "t.score " + op + " u.id";
      return int_col + " " + op + " " + pre + (t ? "score" : "id");
  }
}

CatalogQuery RandomSqlQuery(Rng& rng) {
  CatalogQuery q;
  q.distinct = false;
  bool use_t = true, use_u = true, qualify = true;
  std::string head, tail;
  uint64_t shape = rng.Uniform(8);
  switch (shape) {
    case 0:
      use_u = qualify = false;
      head = "SELECT id, name, score FROM t WHERE ";
      break;
    case 1:
      head = "SELECT t.id, u.tag FROM t, u WHERE t.id = u.tid AND ";
      break;
    case 2:
      use_u = qualify = false;
      q.distinct = true;
      head = "SELECT DISTINCT name FROM t WHERE ";
      break;
    case 3:
      head = "SELECT t.name, u.tag, u.id FROM t JOIN u ON t.id = u.tid "
             "WHERE ";
      break;
    case 4:
      head = "SELECT t.id, u.id FROM t, u WHERE ";
      break;
    case 5:
      q.distinct = true;
      head = "SELECT DISTINCT u.tag, t.name FROM u, t WHERE u.tid = t.id AND ";
      break;
    case 6:
      use_t = qualify = false;
      head = "SELECT * FROM u WHERE ";
      break;
    default:
      use_u = qualify = false;
      q.ordered = true;  // id breaks every score tie
      head = "SELECT id, score FROM t WHERE ";
      tail = " ORDER BY score DESC, id";
      break;
  }
  std::string where = RandomBool(
      rng, 3, [&] { return RandomSqlAtom(rng, use_t, use_u, qualify); });
  q.text = head + where + tail;
  return q;
}

class SqlDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlDifferentialTest, SerialAndMorselMatchOracle) {
  uint64_t seed = GetParam();
  Rng rng(seed * 977 + 13);

  sql::Database db;
  ASSERT_TRUE(db.CreateTable("t", sql::Schema({{"id", sql::ColumnType::kInt64},
                                               {"name", sql::ColumnType::kText},
                                               {"score",
                                                sql::ColumnType::kInt64}}))
                  .ok());
  ASSERT_TRUE(db.CreateTable("u", sql::Schema({{"id", sql::ColumnType::kInt64},
                                               {"tid", sql::ColumnType::kInt64},
                                               {"tag", sql::ColumnType::kText}}))
                  .ok());
  static const char* kNames[] = {"/bin/tar", "/bin/cat", "/tmp/x.sh",
                                 "/etc/passwd"};
  static const char* kTags[] = {"x", "y", "z"};
  const int t_rows = 30 + static_cast<int>(seed % 3) * 10;
  for (int i = 0; i < t_rows; ++i) {
    ASSERT_TRUE(db.Insert("t", {sql::Value(static_cast<int64_t>(i)),
                                sql::Value(kNames[rng.Uniform(4)]),
                                sql::Value(static_cast<int64_t>(
                                    rng.Uniform(100)))})
                    .ok());
  }
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(db.Insert("u", {sql::Value(static_cast<int64_t>(i)),
                                sql::Value(static_cast<int64_t>(
                                    rng.Uniform(t_rows))),
                                sql::Value(kTags[rng.Uniform(3)])})
                    .ok());
  }
  if (seed % 2 == 0) {
    ASSERT_TRUE(db.CreateIndex("t", "name").ok());
  }
  if (seed % 3 != 1) {
    ASSERT_TRUE(db.CreateIndex("u", "tid").ok());
  }

  std::vector<CatalogQuery> catalog = {
      {"SELECT id FROM t WHERE score > 40", false},
      {"SELECT DISTINCT name FROM t", true},
      {"SELECT id FROM t WHERE name IN ('/bin/tar', '/tmp/x.sh', '/none')",
       false},
      {"SELECT t.id, u.tag FROM t, u WHERE t.id = u.tid", false},
      {"SELECT t.id, u.tag FROM t, u WHERE t.id = u.tid AND u.tag = 'x' "
       "AND t.score > 20",
       false},
      {"SELECT DISTINCT u.tag FROM t, u WHERE t.id = u.tid", true},
      {"SELECT id FROM t ORDER BY id DESC", false, /*ordered=*/true},
      {"SELECT name, score FROM t WHERE score > 10 AND name LIKE '/bin/%'",
       false},
  };
  for (int i = 0; i < kRandomQueries; ++i) {
    catalog.push_back(RandomSqlQuery(rng));
  }

  fixtures::SqlOracle oracle(db);
  size_t nonempty_random = 0;
  for (size_t qi = 0; qi < catalog.size(); ++qi) {
    const CatalogQuery& q = catalog[qi];
    auto parsed = sql::ParseSelect(q.text);
    ASSERT_TRUE(parsed.ok()) << q.text << ": " << parsed.status().ToString();
    auto full_rs = oracle.Run(parsed.value());
    ASSERT_TRUE(full_rs.ok()) << q.text << ": " << full_rs.status().ToString();
    std::vector<std::string> full = RenderRowsOrdered(full_rs.value());
    if (qi >= catalog.size() - kRandomQueries && !full.empty()) {
      ++nonempty_random;
    }

    for (long long limit : kLimits) {
      std::string text = WithLimit(q, limit);
      for (bool morsel : {false, true}) {
        sql::SelectOptions opts;
        opts.parallel_shards = morsel ? 4 : 1;
        opts.morsel_size = 3;
        opts.parallel_min_rows = 0;  // fan out even on these tiny tables
        opts.parallel_min_limit = 0;
        db.options() = opts;
        auto rs = db.Query(text);
        ASSERT_TRUE(rs.ok()) << text << ": " << rs.status().ToString();
        CheckAgainstOracle(q, limit, rs.value().rows, full,
                           text + (morsel ? " [morsel]" : " [serial]"));
      }
    }
  }
  EXPECT_GE(nonempty_random, static_cast<size_t>(kRandomQueries / 3));
  db.options() = sql::SelectOptions{};
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlDifferentialTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace raptor
