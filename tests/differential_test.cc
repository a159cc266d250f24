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
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "audit/parser.h"
#include "cases/cases.h"
#include "common/rng.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "storage/graphdb/cypher_executor.h"
#include "storage/graphdb/cypher_parser.h"
#include "storage/relational/database.h"
#include "storage/relational/sql_parser.h"
#include "synthesis/synthesizer.h"
#include "threatraptor.h"
#include "tests/fixtures/cypher_oracle.h"
#include "tests/fixtures/sql_oracle.h"
#include "tests/fixtures/synthetic_graph.h"
#include "tests/fixtures/tbql_oracle.h"

namespace raptor {
namespace {

/// A cell rendered with its kind, so NULL, the text 'NULL', the int 1 and
/// the text '1' all differ.
std::string TypedCell(const sql::Value& v) {
  if (v.is_null()) return "NULL";
  if (v.is_int()) return "i:" + v.ToString();
  if (v.is_double()) return "d:" + v.ToString();
  return "'" + v.AsText() + "'";
}

/// Row rendering shared by both backends, preserving emission order (for
/// ordered-query comparisons).
std::vector<std::string> RenderRowsOrdered(
    const std::vector<std::vector<sql::Value>>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const sql::Value& v : row) cells.push_back(TypedCell(v));
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

/// Expected rows of a plant-targeted query (all text cells), rendered like
/// RenderRows.
std::vector<std::string> ExpectedRows(
    std::vector<std::vector<std::string>> rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (auto& row : rows) {
    for (std::string& cell : row) cell = TypedCell(sql::Value(cell));
    out.push_back(Join(row, "\x1f"));
  }
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

/// Run every catalog query, with each LIMIT of kLimits, on both schedules
/// against the SQL oracle; returns each query's full (un-limited) oracle
/// row count. Leaves db's options at their defaults.
std::vector<size_t> CheckSqlCatalog(sql::Database& db,
                                    const std::vector<CatalogQuery>& catalog) {
  fixtures::SqlOracle oracle(db);
  std::vector<size_t> full_rows;
  for (const CatalogQuery& q : catalog) {
    auto parsed = sql::ParseSelect(q.text);
    EXPECT_TRUE(parsed.ok()) << q.text << ": " << parsed.status().ToString();
    if (!parsed.ok()) return full_rows;
    auto full_rs = oracle.Run(parsed.value());
    EXPECT_TRUE(full_rs.ok()) << q.text << ": " << full_rs.status().ToString();
    if (!full_rs.ok()) return full_rows;
    std::vector<std::string> full = RenderRowsOrdered(full_rs.value());
    full_rows.push_back(full.size());

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
        EXPECT_TRUE(rs.ok()) << text << ": " << rs.status().ToString();
        if (!rs.ok()) continue;
        CheckAgainstOracle(q, limit, rs.value().rows, full,
                           text + (morsel ? " [morsel]" : " [serial]"));
      }
    }
  }
  db.options() = sql::SelectOptions{};
  return full_rows;
}

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

  std::vector<size_t> full_rows = CheckSqlCatalog(db, catalog);
  ASSERT_EQ(full_rows.size(), catalog.size());
  size_t nonempty_random = 0;
  for (size_t qi = catalog.size() - kRandomQueries; qi < catalog.size(); ++qi) {
    if (full_rows[qi] > 0) ++nonempty_random;
  }
  EXPECT_GE(nonempty_random, static_cast<size_t>(kRandomQueries / 3));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlDifferentialTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u));

TEST(SqlLikeTest, LikeEdgeCasesMatchOracle) {
  // LIKE / NOT LIKE runs through the string kernel: memoized per
  // dictionary id on string slices, per cell on int and kMixed slices;
  // both must agree with the oracle. Over four shards (row id & 3): `name`
  // holds NULL cells in shard 1 only (that slice demotes to kMixed, where
  // NULL reads as the text "NULL", while shard 0 stores the real text
  // "NULL"); `m` mixes ints and
  // strings in shards 0 and 1 (kMixed) but holds only strings in shards 2
  // and 3; `num` is an int column.
  sql::Database db(4);
  ASSERT_TRUE(db.CreateTable("t", sql::Schema({{"id", sql::ColumnType::kInt64},
                                               {"name", sql::ColumnType::kText},
                                               {"m", sql::ColumnType::kText},
                                               {"num",
                                                sql::ColumnType::kInt64}}))
                  .ok());
  static const char* kNames[] = {"/bin/tar", "/bin/cat", "/bin/tap",
                                 "/etc/passwd", "NULL", "nullable"};
  for (int i = 0; i < 48; ++i) {
    sql::Value name = (i % 4 == 1 && i % 3 == 0)
                          ? sql::Value()
                          : sql::Value(kNames[(i * 5) % 6]);
    sql::Value m = (i % 4 < 2 && i % 5 == 0)
                       ? sql::Value(static_cast<int64_t>(40 + i))
                       : sql::Value("x" + std::to_string(i % 7));
    ASSERT_TRUE(db.Insert("t", {sql::Value(static_cast<int64_t>(i)), name, m,
                                sql::Value(static_cast<int64_t>(i * 7 % 50))})
                    .ok());
  }
  std::vector<CatalogQuery> catalog;
  for (const char* like : {" LIKE ", " NOT LIKE "}) {
    for (const char* where : {
             "name%s'%%UL%%'",      // matches NULL cells and the text NULL
             "name%s'N_LL'",        // '_' wildcard
             "name%s'/bin/ta_'",    // '_' wildcard, dictionary strings
             "name%s'%%zzz%%'",     // matches no dictionary string
             "name%s'/bin/tar'",    // no wildcard
             "name%s'%%'",          // everything, NULL included
             "num%s'1%%'",          // int column: row path
             "m%s'%%4%%'",          // kMixed and string slices
             "m%s'x_'",             // kMixed and string slices
             "'/bin/tar'%sname",    // literal on the left: row path
             "'%%a%%'%sname",       // the column as the pattern
         }) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), where, like);
      catalog.push_back({std::string("SELECT id, name FROM t WHERE ") + buf,
                         false});
    }
  }
  catalog.push_back(
      {"SELECT DISTINCT name FROM t WHERE name NOT LIKE '%bin%' AND "
       "m LIKE 'x%'",  // NULL and the text 'NULL' are distinct rows
       true});
  catalog.push_back(
      {"SELECT a.id, b.id FROM t a, t b WHERE a.num = b.num AND "
       "a.name LIKE '%UL%' AND b.m NOT LIKE 'x1'",
       false});
  std::vector<size_t> full_rows = CheckSqlCatalog(db, catalog);
  ASSERT_EQ(full_rows.size(), catalog.size());
  // The fixture exercises both verdicts: NULL cells match '%UL%', and the
  // dictionary-miss pattern matches nothing.
  EXPECT_GT(full_rows[0], 0u);
  EXPECT_EQ(full_rows[3], 0u);
  // The string slices of `name` answer LIKE from the column.
  sql::ExecStats stats;
  ASSERT_TRUE(db.Query(catalog[0].text, &stats).ok());
  EXPECT_GT(stats.columnar_filter_rows, 0u);
}

/// Event/entity tables shaped like the audit store's (`ent` ~ entities,
/// `ev` ~ events) with the same indexes, for the access-order and
/// semi-join seeding shapes: 12 procs, 24 files, 240 events; proc 3 reads
/// and writes /etc/passwd, and other procs read it too.
void BuildEventEntityTables(sql::Database* db) {
  using sql::ColumnType;
  ASSERT_TRUE(db->CreateTable("ent", sql::Schema({{"id", ColumnType::kInt64},
                                                  {"type", ColumnType::kText},
                                                  {"name", ColumnType::kText}}))
                  .ok());
  ASSERT_TRUE(db->CreateTable("ev", sql::Schema({{"id", ColumnType::kInt64},
                                                 {"subject", ColumnType::kInt64},
                                                 {"object", ColumnType::kInt64},
                                                 {"op", ColumnType::kText}}))
                  .ok());
  for (const char* col : {"id", "type", "name"}) {
    ASSERT_TRUE(db->CreateIndex("ent", col).ok());
  }
  for (const char* col : {"subject", "object", "op"}) {
    ASSERT_TRUE(db->CreateIndex("ev", col).ok());
  }
  for (int i = 0; i < 36; ++i) {
    bool proc = i < 12;
    std::string name = proc ? "/usr/bin/p" + std::to_string(i)
                            : "/data/f" + std::to_string(i);
    if (i == 3) name = "/bin/tar";
    if (i == 20) name = "/etc/passwd";
    ASSERT_TRUE(db->Insert("ent", {sql::Value(static_cast<int64_t>(i)),
                                   sql::Value(proc ? "proc" : "file"),
                                   sql::Value(name)})
                    .ok());
  }
  static const char* kOps[] = {"read", "write", "read", "execute"};
  for (int i = 0; i < 240; ++i) {
    int subject = (i * 7) % 12;
    int object = 12 + (i * 5) % 24;
    ASSERT_TRUE(db->Insert("ev", {sql::Value(static_cast<int64_t>(i)),
                                  sql::Value(static_cast<int64_t>(subject)),
                                  sql::Value(static_cast<int64_t>(object)),
                                  sql::Value(kOps[i % 4])})
                    .ok());
  }
}

TEST(SqlAccessOrderTest, EventEntityJoinsMatchOracle) {
  // Aliases materialize in ascending index-probe count and may be seeded
  // by a semi-join from a materialized partner; the pipeline still walks
  // FROM order. The most selective alias sits last in FROM.
  sql::Database db(4);
  BuildEventEntityTables(&db);
  const std::string head =
      "SELECT e.id, s.name, o.name FROM ev e, ent s, ent o WHERE "
      "e.subject = s.id AND e.object = o.id AND s.type = 'proc' AND "
      "o.type = 'file' AND e.op = 'read' AND ";
  std::vector<CatalogQuery> catalog = {
      {head + "o.name LIKE '%passwd%'", false},
      {head + "o.name IN ('/etc/passwd', '/data/f13')", false},
      {head + "s.name LIKE '%tar%' AND o.name LIKE '%passwd%'", false},
      // The most selective alias comes out empty: by index, then by filter.
      {head + "o.name = '/etc/shadow'", false},
      {head + "o.name LIKE '%shadow%'", false},
      {"SELECT e.id, e.op FROM ev e JOIN ent s ON e.subject = s.id JOIN ent "
       "o ON o.id = e.object WHERE s.name = '/bin/tar' AND o.type = 'file' "
       "AND e.id > s.id",
       false},
      {"SELECT DISTINCT s.name FROM ev e, ent s, ent o WHERE e.subject = "
       "s.id AND e.object = o.id AND o.name = '/etc/passwd'",
       true},
      // Text join keys: the semi-join probes a's name index with strings.
      {"SELECT a.id, b.id FROM ent a, ent b WHERE a.name = b.name AND "
       "b.type = 'proc' AND b.id < 5",
       false},
  };
  std::vector<size_t> full_rows = CheckSqlCatalog(db, catalog);
  ASSERT_EQ(full_rows.size(), catalog.size());
  EXPECT_GT(full_rows[0], 0u);
  EXPECT_EQ(full_rows[3], 0u);
  EXPECT_EQ(full_rows[4], 0u);

  // The shapes really seed by semi-join: the first query seeds e from o's
  // one file; its LIMIT form seeds the lazy first table the same way.
  for (const char* limit : {"", " LIMIT 2"}) {
    sql::ExecStats stats;
    auto rs = db.Query(catalog[0].text + limit, &stats);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_GT(stats.semijoin_seed_rows, 0u) << limit;
    EXPECT_LT(stats.semijoin_seed_rows, 60u) << limit;
  }
}

// ------------------------------------------------- string predicates

/// Check every query of a Cypher catalog, serial and morsel at every LIMIT
/// of kLimits, against the oracle; returns each query's full row count.
std::vector<size_t> CheckCypherCatalog(
    graphdb::GraphDatabase& db, const std::vector<CatalogQuery>& catalog) {
  fixtures::CypherOracle oracle(db.graph());
  std::vector<size_t> full_rows;
  for (const CatalogQuery& q : catalog) {
    auto parsed = graphdb::ParseCypher(q.text);
    EXPECT_TRUE(parsed.ok()) << q.text << ": " << parsed.status().ToString();
    if (!parsed.ok()) return full_rows;
    auto full_rs = oracle.Run(parsed.value());
    EXPECT_TRUE(full_rs.ok()) << q.text << ": " << full_rs.status().ToString();
    if (!full_rs.ok()) return full_rows;
    std::vector<std::string> full = RenderRowsOrdered(full_rs.value());
    full_rows.push_back(full.size());
    for (long long limit : kLimits) {
      std::string text = WithLimit(q, limit);
      for (bool morsel : {false, true}) {
        graphdb::MatchOptions opts;
        opts.parallel_shards = morsel ? 4 : 1;
        opts.morsel_size = 3;
        opts.parallel_min_seeds = 0;
        opts.parallel_min_limit = 0;
        db.options() = opts;
        auto rs = db.Query(text);
        EXPECT_TRUE(rs.ok()) << text << ": " << rs.status().ToString();
        if (!rs.ok()) continue;
        CheckAgainstOracle(q, limit, rs.value().rows, full,
                           text + (morsel ? " [morsel]" : " [serial]"));
      }
    }
  }
  db.options() = graphdb::MatchOptions{};
  return full_rows;
}

/// One traced serial run: the `plan` span's note and counters.
struct PlanProbe {
  std::string note;  // the graph plan's `seed` / the SQL plan's `access`
  int64_t seed_candidates = 0;
  int64_t dict_strings_checked = 0;
  int64_t index_probe_rows = 0;
  size_t rows = 0;
};

PlanProbe ProbePlan(const obs::TraceSpan& root, const char* note_key) {
  PlanProbe probe;
  for (const auto& child : root.children()) {
    if (child->name() != "plan") continue;
    for (const auto& [key, value] : child->notes()) {
      if (key == note_key) probe.note = value;
    }
    probe.seed_candidates = child->counter("seed_candidates");
    probe.dict_strings_checked = child->counter("dict_strings_checked");
    probe.index_probe_rows = child->counter("index_probe_rows");
  }
  return probe;
}

PlanProbe ProbeCypher(const graphdb::GraphDatabase& db,
                      const std::string& text) {
  auto root = obs::TraceSpan::Root("query");
  graphdb::MatchOptions opts;
  opts.parallel_shards = 1;
  opts.trace = root.get();
  auto rs = db.QueryBlocks(text, opts);
  EXPECT_TRUE(rs.ok()) << text << ": " << rs.status().ToString();
  PlanProbe probe = ProbePlan(*root, "seed");
  if (rs.ok()) probe.rows = rs.value().rows.row_count();
  return probe;
}

PlanProbe ProbeSql(const sql::Database& db, const std::string& text) {
  auto root = obs::TraceSpan::Root("query");
  sql::SelectOptions opts;
  opts.parallel_shards = 1;
  opts.trace = root.get();
  auto rs = db.QueryBlocks(text, opts);
  EXPECT_TRUE(rs.ok()) << text << ": " << rs.status().ToString();
  PlanProbe probe = ProbePlan(*root, "access");
  if (rs.ok()) probe.rows = rs.value().rows.row_count();
  return probe;
}

// The string-predicate edge cases both backends decide through one kernel
// (storage/string_predicate.h): an absent cell, an explicit NULL, the
// text 'NULL', an empty needle, the needle 'UL' (true on absent cells,
// which read as "NULL"), a dictionary miss, an int column, a kMixed
// column, an unlabeled node, a needle matching half the dictionary, and a
// dictionary larger than the label bucket.
//
// Graph over four shards: 36 procs, 4 per exename over 8 exenames (one is
// the text "NULL"), 4 more without one; a kMixed `m` (ints and strings)
// and an int `pid`. 40 files share the `name` dictionary with 2 socks, so
// the sock bucket is smaller than its dictionary. 8 ips, two of which hold
// an explicit NULL dstip (their slices demote to kMixed).
void BuildStringGraph(graphdb::GraphDatabase* db) {
  using graphdb::PropertyMap;
  using graphdb::Value;
  graphdb::PropertyGraph& g = db->graph();
  static const char* kExe[] = {"/bin/tar",   "/bin/cat", "/usr/bin/tail",
                               "/sbin/init", "NULL",     "/srv/x1",
                               "/srv/x2",    "/srv/x3"};
  std::vector<graphdb::NodeId> procs, files;
  for (int i = 0; i < 40; ++i) {
    PropertyMap props{{"pid", Value(static_cast<int64_t>(100 + i))}};
    if (i < 32) props.emplace("exename", Value(kExe[i % 8]));
    props.emplace("m", i % 3 == 0 ? Value(static_cast<int64_t>(i))
                                  : Value("m" + std::to_string(i % 5)));
    procs.push_back(g.AddNode("proc", std::move(props)));
  }
  for (int i = 0; i < 40; ++i) {
    files.push_back(
        g.AddNode("file", {{"name", Value("/data/f" + std::to_string(i))}}));
  }
  for (int i = 0; i < 2; ++i) {
    g.AddNode("sock", {{"name", Value("/run/s" + std::to_string(i))}});
  }
  for (int i = 0; i < 8; ++i) {
    g.AddNode("ip", {{"dstip", i == 1 || i == 6
                                   ? Value()
                                   : Value("10.0.0." + std::to_string(i))}});
  }
  for (int i = 0; i < 80; ++i) {
    g.AddEdge(procs[i % 40], files[(i * 7) % 40], "read",
              {{"amount", Value(static_cast<int64_t>(i))}});
  }
  g.CreateNodeIndex("proc", "exename");
  g.CreateNodeIndex("file", "name");
  g.CreateNodeIndex("sock", "name");
  g.CreateNodeIndex("ip", "dstip");
}

TEST(StringPredicateTest, CypherEdgeCasesMatchOracle) {
  graphdb::GraphDatabase db(4);
  BuildStringGraph(&db);
  const std::vector<CatalogQuery> catalog = {
      // 0: half the dictionary (4 of 8 exenames) — a dictionary seek.
      {"MATCH (p:proc) WHERE p.exename CONTAINS 'bin' RETURN p.exename",
       false},
      // 1: 'UL' holds on the text "NULL" and on every absent cell.
      {"MATCH (p:proc) WHERE p.exename CONTAINS 'UL' RETURN p.pid", false},
      // 2: an empty needle holds everywhere, absent cells included.
      {"MATCH (p:proc) WHERE p.exename STARTS WITH '' RETURN p.pid", false},
      // 3: a dictionary miss — the seek finds no string.
      {"MATCH (p:proc) WHERE p.exename ENDS WITH 'zzz' RETURN p.pid", false},
      // 4: the text 'NULL' by equality and by IN.
      {"MATCH (p:proc) WHERE p.exename = 'NULL' RETURN p.pid", false},
      {"MATCH (p:proc) WHERE p.exename IN ['NULL', '/bin/cat', 'none'] "
       "RETURN p.exename",
       false},
      // 6: negations, absent cells included.
      {"MATCH (p:proc) WHERE NOT (p.exename CONTAINS 'bin') RETURN p.pid",
       false},
      {"MATCH (p:proc) WHERE p.exename <> '/bin/tar' RETURN p.pid", false},
      // 8: an int column and a kMixed column.
      {"MATCH (p:proc) WHERE p.pid CONTAINS '13' RETURN p.pid", false},
      {"MATCH (p:proc) WHERE p.m STARTS WITH '3' RETURN p.pid, p.m", false},
      {"MATCH (p:proc) WHERE p.m IN ['m1', 'm2'] RETURN p.m", false},
      // 11: an unlabeled node.
      {"MATCH (n) WHERE n.exename ENDS WITH 'tar' RETURN n.exename", false},
      // 12: a dictionary larger than the label bucket.
      {"MATCH (s:sock) WHERE s.name CONTAINS '/' RETURN s.name", false},
      // 13: explicit NULL cells (kMixed slices) and the 'NULL' rendering.
      {"MATCH (i:ip) WHERE i.dstip CONTAINS '10.' RETURN i.dstip", false},
      {"MATCH (i:ip) WHERE i.dstip CONTAINS 'UL' RETURN i.dstip", false},
      // 15: inline text / int properties, and a seek on a path's endpoint.
      {"MATCH (p:proc {exename: 'NULL'}) RETURN p.pid", false},
      {"MATCH (p:proc {pid: 103}) RETURN p.exename", false},
      {"MATCH (p:proc)-[e:read]->(f:file) WHERE p.exename STARTS WITH '/srv' "
       "AND f.name ENDS WITH '1' RETURN p.exename, f.name, e.amount",
       false},
      {"MATCH (p:proc) WHERE p.exename CONTAINS 'bin' RETURN DISTINCT "
       "p.exename",
       true},
  };
  std::vector<size_t> full_rows = CheckCypherCatalog(db, catalog);
  ASSERT_EQ(full_rows.size(), catalog.size());
  EXPECT_EQ(full_rows[0], 16u);
  EXPECT_EQ(full_rows[1], 12u);  // 4 'NULL' texts + 8 absent cells
  EXPECT_EQ(full_rows[2], 40u);
  EXPECT_EQ(full_rows[3], 0u);
  EXPECT_EQ(full_rows[14], 2u);  // the two explicit NULLs

  // When the seek is taken: a seekable positive filter on an indexed,
  // all-string column whose dictionary is smaller than the label bucket.
  PlanProbe seek = ProbeCypher(db, catalog[0].text);
  EXPECT_EQ(seek.note, "p:dict(exename,4)");
  EXPECT_EQ(seek.seed_candidates, 16);
  EXPECT_EQ(seek.dict_strings_checked, 8);
  EXPECT_EQ(seek.rows, 16u);
  PlanProbe miss = ProbeCypher(db, catalog[3].text);
  EXPECT_EQ(miss.note, "p:dict(exename,0)");
  EXPECT_EQ(miss.seed_candidates, 0);
  // And when not: true on absent cells, an empty needle, an int column, a
  // negation, a kMixed slice, an unlabeled node, a large dictionary.
  for (size_t qi : {1, 2, 6, 8, 13}) {
    PlanProbe scan = ProbeCypher(db, catalog[qi].text);
    EXPECT_EQ(scan.note, qi == 13 ? "i:label" : "p:label") << qi;
    EXPECT_EQ(scan.seed_candidates, qi == 13 ? 8 : 40) << qi;
  }
  PlanProbe unlabeled = ProbeCypher(db, catalog[11].text);
  EXPECT_EQ(unlabeled.note, "n:scan");
  EXPECT_EQ(unlabeled.seed_candidates, 90);
  PlanProbe big_dict = ProbeCypher(db, catalog[12].text);
  EXPECT_EQ(big_dict.note, "s:label");
  EXPECT_EQ(big_dict.seed_candidates, 2);
  EXPECT_EQ(big_dict.dict_strings_checked, 2);
}

TEST(StringPredicateTest, SqlEdgeCasesMatchOracle) {
  // `ent` holds only strings in `name` (indexed; the seek applies); `t`
  // holds NULL cells in one shard (a kMixed slice), the text 'NULL', an
  // int column and a kMixed column.
  sql::Database db(4);
  ASSERT_TRUE(db.CreateTable("ent", sql::Schema({{"id", sql::ColumnType::kInt64},
                                                 {"name", sql::ColumnType::kText}}))
                  .ok());
  ASSERT_TRUE(db.CreateTable("t", sql::Schema({{"id", sql::ColumnType::kInt64},
                                               {"name", sql::ColumnType::kText},
                                               {"num", sql::ColumnType::kInt64},
                                               {"m", sql::ColumnType::kText}}))
                  .ok());
  ASSERT_TRUE(db.CreateIndex("ent", "name").ok());
  ASSERT_TRUE(db.CreateIndex("t", "name").ok());
  static const char* kNames[] = {"/bin/tar",   "/bin/cat", "/usr/bin/tail",
                                 "/sbin/init", "NULL",     "/srv/x1",
                                 "/srv/x2",    "/srv/x3"};
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db.Insert("ent", {sql::Value(static_cast<int64_t>(i)),
                                  sql::Value(kNames[i % 8])})
                    .ok());
    sql::Value name = i % 4 == 1 && i % 3 == 0 ? sql::Value()
                                               : sql::Value(kNames[i % 8]);
    sql::Value m = i % 3 == 0 ? sql::Value(static_cast<int64_t>(i))
                              : sql::Value("m" + std::to_string(i % 5));
    ASSERT_TRUE(db.Insert("t", {sql::Value(static_cast<int64_t>(i)), name,
                                sql::Value(static_cast<int64_t>(100 + i)), m})
                    .ok());
  }
  std::vector<CatalogQuery> catalog;
  for (const char* table : {"ent", "t"}) {
    for (const char* where : {
             "name LIKE '%bin%'",         // half the dictionary
             "name LIKE '%UL%'",          // the text 'NULL' and NULL cells
             "name LIKE '%'",             // an empty needle
             "name LIKE '%zzz%'",         // a dictionary miss
             "name = 'NULL'",             // the text 'NULL'
             "name IN ('NULL', '/bin/cat', 'none')",
             "name NOT LIKE '%bin%'",     // negated, NULL cells included
             "NOT (name = '/bin/tar')",
             "name <> '/bin/tar'",
         }) {
      catalog.push_back({std::string("SELECT id, name FROM ") + table +
                             " WHERE " + where,
                         false});
    }
  }
  catalog.push_back({"SELECT id FROM t WHERE num LIKE '%13'", false});
  catalog.push_back({"SELECT id FROM t WHERE num LIKE 113", false});
  catalog.push_back({"SELECT id, m FROM t WHERE m LIKE '3%'", false});
  catalog.push_back({"SELECT id, m FROM t WHERE m IN ('m1', 'm2')", false});
  catalog.push_back({"SELECT DISTINCT name FROM t WHERE name LIKE 'N%'", true});
  std::vector<size_t> full_rows = CheckSqlCatalog(db, catalog);
  ASSERT_EQ(full_rows.size(), catalog.size());
  EXPECT_EQ(full_rows[0], 20u);
  EXPECT_EQ(full_rows[3], 0u);
  EXPECT_EQ(full_rows[catalog.size() - 1], 2u);  // NULL and 'NULL' differ

  // The seek on an all-string indexed column, and a dictionary miss.
  PlanProbe seek = ProbeSql(db, catalog[0].text);
  EXPECT_EQ(seek.note, "ent=dict(name,4)");
  EXPECT_EQ(seek.index_probe_rows, 20);
  EXPECT_EQ(seek.rows, 20u);
  PlanProbe miss = ProbeSql(db, catalog[3].text);
  EXPECT_EQ(miss.note, "ent=dict(name,0)");
  EXPECT_EQ(miss.index_probe_rows, 0);
  // No seek: true on NULL cells, an empty needle, a negation, and any
  // predicate on `t`, whose NULL cells demote a slice to kMixed.
  for (size_t qi : {1, 2, 6, 9, 18}) {
    PlanProbe scan = ProbeSql(db, catalog[qi].text);
    EXPECT_EQ(scan.note, qi < 9 ? "ent=scan" : "t=scan") << qi;
    EXPECT_EQ(scan.index_probe_rows, 0) << qi;
  }
}


// ------------------------------------------------------------ range access

/// `col > k` / `col >= k` on a column whose int cells ascend in row order
/// seeds from the row suffix a binary search finds: `ev.id` ascends
/// strictly, `ev.grp` with duplicates; `ev.op` is indexed, so the
/// cheaper of the op bucket and the range wins. Every shape must equal
/// the oracle serial, morsel and under each LIMIT, and the plan note must
/// name `range(col)` exactly where the range skips rows.
TEST(SqlRangeAccessTest, AscendingColumnsMatchOracle) {
  sql::Database db(4);
  BuildEventEntityTables(&db);
  ASSERT_TRUE(db.CreateTable("r", sql::Schema({{"id", sql::ColumnType::kInt64},
                                               {"grp", sql::ColumnType::kInt64},
                                               {"op", sql::ColumnType::kText}}))
                  .ok());
  ASSERT_TRUE(db.CreateIndex("r", "op").ok());
  static const char* kOps[] = {"read", "write", "read", "execute"};
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(db.Insert("r", {sql::Value(static_cast<int64_t>(10 + i)),
                                sql::Value(static_cast<int64_t>(i / 4)),
                                sql::Value(kOps[i % 4])})
                    .ok());
  }
  struct Shape {
    const char* where;
    const char* note;  // expected plan note
    size_t rows;
  } shapes[] = {
      {"id > 40", "r=range(id)", 29},        // k inside the range
      {"id >= 40", "r=range(id)", 30},
      {"40 < id", "r=range(id)", 29},        // mirrored
      {"id > 5", "r=scan", 60},              // k below: nothing to skip
      {"id >= 10", "r=scan", 60},
      {"id > 69", "r=range(id)", 0},         // k above the range
      {"id > 1000", "r=range(id)", 0},
      {"grp >= 10", "r=range(grp)", 20},     // duplicates at the boundary
      {"grp > 10", "r=range(grp)", 16},
      {"NOT (id > 40)", "r=scan", 31},       // negated: no range
      {"id < 40", "r=scan", 30},             // below-bounds are not served
      {"id > 40 AND op = 'execute'", "r=index(op)", 8},  // 15 < 29
      {"id > 62 AND op = 'read'", "r=range(id)", 3},    // 7 < 30
  };
  std::vector<CatalogQuery> catalog;
  for (const Shape& shape : shapes) {
    catalog.push_back(
        {std::string("SELECT id, grp, op FROM r WHERE ") + shape.where, false});
  }
  // The event side of a join, as a TBQL delta pass compiles it.
  catalog.push_back(
      {"SELECT e.id, s.name FROM ev e JOIN ent s ON e.subject = s.id "
       "WHERE e.id > 230 AND s.type = 'proc'",
       false});
  std::vector<size_t> full_rows = CheckSqlCatalog(db, catalog);
  ASSERT_EQ(full_rows.size(), catalog.size());
  for (size_t i = 0; i < std::size(shapes); ++i) {
    SCOPED_TRACE(shapes[i].where);
    EXPECT_EQ(full_rows[i], shapes[i].rows);
    PlanProbe probe = ProbeSql(db, catalog[i].text);
    EXPECT_EQ(probe.note, shapes[i].note);
    EXPECT_EQ(probe.rows, shapes[i].rows);
  }
  EXPECT_EQ(full_rows.back(), 9u);
  EXPECT_EQ(ProbeSql(db, catalog.back().text).note,
            "e=range(id) s=semijoin(id)");

  // One out-of-order insert ends the column's ascent for good: the same
  // shapes fall back to their other paths and still match the oracle.
  ASSERT_TRUE(db.Insert("r", {sql::Value(static_cast<int64_t>(50)),
                              sql::Value(static_cast<int64_t>(0)),
                              sql::Value("read")})
                  .ok());
  std::vector<CatalogQuery> after = {catalog[0], catalog[7], catalog[12]};
  full_rows = CheckSqlCatalog(db, after);
  ASSERT_EQ(full_rows.size(), after.size());
  EXPECT_EQ(full_rows[0], 30u);
  EXPECT_EQ(full_rows[1], 20u);
  EXPECT_EQ(ProbeSql(db, after[0].text).note, "r=scan");
  EXPECT_EQ(ProbeSql(db, after[1].text).note, "r=scan");
  EXPECT_EQ(ProbeSql(db, after[2].text).note, "r=index(op)");
}

// ----------------------------------------------------------------- TBQL

/// Counts across a batch of TBQL checks: queries that returned rows, and
/// the two shapes the excessive-pattern rule must get right — a
/// non-excessive pattern emptied by propagation (its existence check finds
/// events) or by refilter.
struct TbqlTally {
  size_t queries = 0;
  size_t with_rows = 0;
  size_t emptied_by_propagation = 0;
  size_t emptied_by_refilter = 0;
};

std::vector<std::string> RenderTbqlRows(
    const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(Join(row, "\x1f"));
  std::sort(out.begin(), out.end());
  return out;
}

/// Check one engine report for `query` against the TBQL oracle on `store`:
/// the row multiset and the excessive patterns must be equal, and when
/// rows exist the matched events must lie between the oracle's bounds.
void CheckTbql(fixtures::TbqlOracle& oracle, const tbql::TbqlQuery& query,
               const engine::ExecReport& report, TbqlTally* tally) {
  std::string where = query.ToString();
  auto answer = oracle.Run(query);
  ASSERT_TRUE(answer.ok()) << where << " -> " << answer.status().ToString();
  const fixtures::TbqlOracle::Answer& want = answer.value();
  EXPECT_EQ(RenderTbqlRows(report.results.rows), RenderTbqlRows(want.rows))
      << where;
  EXPECT_EQ(report.unmatched_patterns, want.unmatched_patterns) << where;
  std::set<long long> got(report.matched_event_ids.begin(),
                          report.matched_event_ids.end());
  if (!want.rows.empty()) {
    for (long long ev : want.row_events) {
      EXPECT_TRUE(got.count(ev)) << where << ": row event " << ev;
    }
    for (long long ev : got) {
      EXPECT_TRUE(want.consistent_events.count(ev))
          << where << ": matched event " << ev
          << " has an entity no other pattern matched";
    }
  }
  ++tally->queries;
  if (!want.rows.empty()) ++tally->with_rows;
  for (size_t i = 0; i < query.patterns.size(); ++i) {
    if (std::count(want.unmatched_patterns.begin(),
                    want.unmatched_patterns.end(), i) != 0) {
      continue;
    }
    if (report.pattern_match_counts[i] == 0) {
      ++tally->emptied_by_propagation;
    } else if (i < want.pattern_events.size() &&
               !want.pattern_events[i].empty() &&
               std::none_of(want.pattern_events[i].begin(),
                            want.pattern_events[i].end(),
                            [&](long long ev) { return got.count(ev); })) {
      ++tally->emptied_by_refilter;
    }
  }
}

/// Execute `text` on `store` with the engine and check it.
void CheckTbqlText(const storage::AuditStore& store,
                   fixtures::TbqlOracle& oracle, const std::string& text,
                   TbqlTally* tally) {
  auto query = tbql::ParseTbql(text);
  ASSERT_TRUE(query.ok()) << text << " -> " << query.status().ToString();
  auto report = engine::TbqlExecutor(&store).Execute(query.value());
  ASSERT_TRUE(report.ok()) << text << " -> " << report.status().ToString();
  CheckTbql(oracle, query.value(), report.value(), tally);
}

audit::SyscallRecord TbqlRec(audit::Timestamp ts, const char* syscall,
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

std::unique_ptr<storage::AuditStore> StoreFromRecords(
    const std::vector<audit::SyscallRecord>& recs) {
  audit::ParsedLog log;
  audit::AuditLogParser parser;
  EXPECT_TRUE(parser.Parse(recs, &log).ok());
  auto store = std::make_unique<storage::AuditStore>();
  EXPECT_TRUE(store->Load(log).ok());
  return store;
}

/// The engine suite's chain: bash starts tar, tar reads /etc/passwd and
/// writes /tmp/out.tar, scp sends to 9.9.9.9, vim reads a decoy file.
std::unique_ptr<storage::AuditStore> ChainStore() {
  std::vector<audit::SyscallRecord> recs = {
      TbqlRec(2'000'000, "read", "/bin/tar", 11, "/etc/passwd"),
      TbqlRec(4'000'000, "write", "/bin/tar", 11, "/tmp/out.tar"),
      TbqlRec(3'000'000, "read", "/usr/bin/vim", 13, "/home/user/notes.txt"),
  };
  audit::SyscallRecord start = TbqlRec(1'000'000, "execve", "/bin/bash", 10,
                                       "");
  start.target_exe = "/bin/tar";
  start.target_pid = 11;
  recs.push_back(start);
  audit::SyscallRecord send = TbqlRec(6'000'000, "sendto", "/usr/bin/scp", 12,
                                      "");
  send.src_ip = "10.0.0.5";
  send.src_port = 40000;
  send.dst_ip = "9.9.9.9";
  send.dst_port = 22;
  send.protocol = "tcp";
  send.ret = 4096;
  recs.push_back(send);
  return StoreFromRecords(recs);
}

/// A case's log with a tiny benign workload, small enough for the
/// brute-force oracles.
std::unique_ptr<ThreatRaptor> SmallCase(const cases::AttackCase& c) {
  cases::AttackCase small = c;
  small.benign.num_processes = 2;
  small.benign.mean_records_per_process = 3;
  auto tr = std::make_unique<ThreatRaptor>();
  EXPECT_TRUE(tr->IngestSyscalls(cases::BuildCaseLog(small)).ok());
  return tr;
}

TEST(TbqlDifferentialTest, HandWrittenQueriesMatchOracle) {
  TbqlTally tally;
  auto chain = ChainStore();
  fixtures::TbqlOracle chain_oracle(*chain);
  for (const char* q : {
           "proc p[\"%tar%\"] read file f[\"%passwd%\"] return p, f",
           "proc p read file f[\"%passwd%\"] as e1 "
           "proc p write file g[\"%out%\"] as e2 "
           "with e1 before e2 return distinct p, f, g",
           "proc p read file f[\"%passwd%\"] as e1 "
           "proc p write file g as e2 with e2 before e1 return p, g",
           "proc p read file f[\"%passwd%\"] as e1 proc p write file g as e2 "
           "with e1 before[0-5 sec] e2 return p",
           "proc p read file f[\"%passwd%\"] as e1 proc p write file g as e2 "
           "with e2 within[0-3 sec] e1 return p, e1.amount, e2.start_time",
           "proc p read file f[\"%passwd%\"] as e1 proc p write file g as e2 "
           "with e1 after e2 return p",
           "proc p read file f[\"%passwd%\"] as e1 "
           "proc x[\"%nonexistent%\"] write file y[\"%nothing%\"] as e2 "
           "return p, f, y",
           "proc p[\"%nonexistent%\"] read file f as e1 "
           "proc p write file g as e2 return p",
           "proc p start proc q[\"%tar%\"] as e1 proc q read file f as e2 "
           "proc q write file g as e3 with e1 before e2, e2 before e3 "
           "return p, q, f, g",
           "proc p send ip i[dstport = 22] return p, i.dstip, i.dstport",
           "proc p read || write file f return p, f",
           "from 0 to 2500000 proc p read || write file f return p, f",
           "last 3 sec proc p write file f return p, f",
           "proc p ->[read] file f[\"%passwd%\"] return p, f",
           "proc p[\"%bash%\"] ~>(2~2) file f[\"%passwd%\"] return p, f",
           "proc p read file f as e1 proc q read file g as e2 "
           "with e1.amount < e2.amount return p, f, q, g",
           "proc p read file f as e1 proc p write file g as e2 "
           "proc q send ip i as e3 return p, q",
       }) {
    CheckTbqlText(*chain, chain_oracle, q, &tally);
  }

  // Repro shapes: a pattern emptied by propagation (bash reads passwd but
  // only vim writes), and a pattern emptied by refilter (p1 never read f2).
  auto propagated = StoreFromRecords({
      TbqlRec(1'000'000, "read", "/bin/bash", 20, "/etc/passwd"),
      TbqlRec(2'000'000, "write", "/usr/bin/vim", 21, "/tmp/x"),
  });
  for (const char* q :
       {"proc p read file f[\"%passwd%\"] as e1 "
        "proc p write file g as e2 return p, f, g",
        "proc p write file g as e2 "
        "proc p read file f[\"%passwd%\"] as e1 return p, f, g"}) {
    fixtures::TbqlOracle oracle(*propagated);
    CheckTbqlText(*propagated, oracle, q, &tally);
  }
  auto refiltered = StoreFromRecords({
      TbqlRec(1'000'000, "read", "/bin/p1", 30, "/data/f1"),
      TbqlRec(2'000'000, "read", "/bin/p2", 31, "/data/f2"),
      TbqlRec(3'000'000, "write", "/bin/p1", 30, "/tmp/x"),
      TbqlRec(4'000'000, "read", "/bin/cat", 32, "/data/f2"),
  });
  fixtures::TbqlOracle refiltered_oracle(*refiltered);
  CheckTbqlText(*refiltered, refiltered_oracle,
                "proc p[\"%p%\"] read file f[\"%f%\"] as e1 "
                "proc p write file g[\"%x%\"] as e2 "
                "proc q[\"%cat%\"] read file f as e3 return p, f, g, q",
                &tally);
  EXPECT_GE(tally.emptied_by_propagation, 2u);
  EXPECT_GE(tally.emptied_by_refilter, 1u);

  auto leak = SmallCase(*cases::FindCase("data_leak"));
  fixtures::TbqlOracle leak_oracle(*leak->store());
  for (const char* q : {
           "proc p read file f as e1 proc p write file g as e2 "
           "with e1 before e2 return distinct p, f, g",
           "proc p read || write file f return distinct p, f",
           "proc p start proc q as e1 proc q read file f as e2 "
           "with e1 before e2 return distinct p, q, f",
           "proc p ~>(1~3) file f return distinct p, f",
       }) {
    CheckTbqlText(*leak->store(), leak_oracle, q, &tally);
  }
  EXPECT_GE(tally.with_rows, tally.queries / 2);
}

TEST(TbqlDifferentialTest, ServiceHuntsMatchOracle) {
  // Patterns chained through a shared process, and two independent pairs
  // plus a dependent third, run through HuntService::Run.
  ThreatRaptorOptions options;
  options.store.enable_reduction = false;
  ThreatRaptor tr(options);
  audit::ParsedLog log;
  audit::Timestamp ts = 1'000'000;
  for (int i = 0; i < 6; ++i) {
    audit::EntityId p =
        log.entities.InternProcess("/bin/svc" + std::to_string(i), 100 + i);
    for (int j = 0; j < 10; ++j) {
      audit::SystemEvent ev;
      ev.id = log.events.size() + 1;
      ev.subject = p;
      ev.object = log.entities.InternFile("/data/d" + std::to_string(i) +
                                          "_" + std::to_string(j));
      ev.op = audit::EventOp::kRead;
      ev.start_time = ts;
      ev.end_time = ts + 10;
      ts += 100;
      log.events.push_back(ev);
    }
  }
  ASSERT_TRUE(tr.IngestParsedLog(log).ok());
  TbqlTally tally;
  fixtures::TbqlOracle oracle(*tr.store());
  for (const char* q : {
           "proc p read file f[\"%_3%\"] as e1 proc p read file g[\"%_8%\"] "
           "as e2 with e1 before e2 return distinct p, f, g",
           "proc a read file x[\"%d2_%\"] as e1 proc b read file y[\"%d5_%\"] "
           "as e2 proc a read file z[\"%_9%\"] as e3 return distinct a, b, z",
       }) {
    service::HuntRequest request;
    request.text = q;
    request.dialect = service::QueryDialect::kTbql;
    auto response = tr.hunt_service()->Run(std::move(request));
    ASSERT_TRUE(response.ok()) << q << " -> " << response.status().ToString();
    auto query = tbql::ParseTbql(q);
    ASSERT_TRUE(query.ok());
    CheckTbql(oracle, query.value(), response.value().report, &tally);
  }
  EXPECT_EQ(tally.with_rows, 2u);
}

TEST(TbqlDifferentialTest, CaseHuntsMatchOracle) {
  TbqlTally tally;
  for (const cases::AttackCase& c : cases::AllCases()) {
    auto tr = SmallCase(c);
    auto extraction = tr->ExtractBehaviorGraph(c.oscti_text);
    ASSERT_TRUE(extraction.ok()) << c.id;
    auto synthesized =
        synthesis::QuerySynthesizer().Synthesize(extraction.value().graph);
    ASSERT_TRUE(synthesized.ok()) << c.id;
    const tbql::TbqlQuery& query = synthesized.value().query;
    fixtures::TbqlOracle oracle(*tr->store());
    for (const tbql::TbqlQuery& q :
         {tbql::ParseTbql(query.ToString()).value(),
          engine::ToLength1PathQuery(query)}) {
      auto report = engine::TbqlExecutor(tr->store()).Execute(q);
      ASSERT_TRUE(report.ok()) << c.id << ": " << report.status().ToString();
      CheckTbql(oracle, q, report.value(), &tally);
    }
  }
  EXPECT_GE(tally.with_rows, tally.queries / 2);
}

/// A small random store: five processes (two share /bin/sh), six files,
/// network flows to two destinations; random file, start and network
/// events one second apart with random amounts.
std::unique_ptr<storage::AuditStore> RandomTbqlStore(Rng& rng) {
  static const char* kExes[] = {"/bin/sh", "/bin/sh", "/bin/tar",
                                "/usr/bin/curl", "/tmp/mal"};
  static const char* kFiles[] = {"/etc/passwd", "/etc/shadow", "/tmp/x",
                                 "/tmp/out.tar", "/home/u/doc",
                                 "/var/log/syslog"};
  static const char* kIps[] = {"1.2.3.4", "5.6.7.8"};
  audit::ParsedLog log;
  std::vector<audit::EntityId> procs;
  for (size_t i = 0; i < 5; ++i) {
    procs.push_back(log.entities.InternProcess(kExes[i], 100 + i));
  }
  std::vector<audit::EntityId> files;
  for (const char* f : kFiles) files.push_back(log.entities.InternFile(f));
  for (int k = 0; k < 36; ++k) {
    audit::SystemEvent ev;
    ev.id = log.events.size() + 1;
    ev.subject = procs[rng.Uniform(procs.size())];
    uint64_t kind = rng.Uniform(10);
    if (kind < 6) {
      static const audit::EventOp kFileOps[] = {
          audit::EventOp::kRead, audit::EventOp::kWrite,
          audit::EventOp::kExecute};
      ev.op = PickOf(rng, kFileOps);
      ev.object = files[rng.Uniform(files.size())];
      ev.object_type = audit::EntityType::kFile;
    } else if (kind < 8) {
      ev.op = audit::EventOp::kStart;
      ev.object = procs[rng.Uniform(procs.size())];
      ev.object_type = audit::EntityType::kProcess;
    } else {
      static const audit::EventOp kNetOps[] = {audit::EventOp::kConnect,
                                               audit::EventOp::kSend,
                                               audit::EventOp::kRecv};
      ev.op = PickOf(rng, kNetOps);
      std::string dst = PickOf(rng, kIps);
      int dport = rng.Chance(0.5) ? 22 : 443;
      ev.object = log.entities.InternNetwork("10.0.0.1", 40000 + k, dst,
                                             dport, "tcp");
      ev.object_type = audit::EntityType::kNetwork;
    }
    ev.start_time = (1 + k) * 1'000'000LL + rng.UniformRange(0, 400'000);
    ev.end_time = ev.start_time + rng.UniformRange(1, 300'000);
    ev.amount = rng.UniformRange(0, 5000);
    log.events.push_back(ev);
  }
  storage::StoreOptions options;
  options.enable_reduction = false;
  auto store = std::make_unique<storage::AuditStore>(options);
  EXPECT_TRUE(store->Load(log).ok());
  return store;
}

/// A random 1-3 pattern TBQL query over RandomTbqlStore's vocabulary.
/// Entity ids are drawn from small per-type pools, so patterns often share
/// entities; patterns get event ids e0.. and may carry temporal and
/// attribute relations.
std::string RandomTbqlQuery(Rng& rng) {
  static const char* kProcFilters[] = {"", "", "[\"%sh%\"]", "[\"%tar%\"]",
                                       "[\"%/bin/%\"]", "[pid = 101]",
                                       "[\"%curl%\"]", "[!\"%mal%\"]"};
  static const char* kFileFilters[] = {"", "", "[\"%etc%\"]",
                                       "[\"%/tmp/%\"]", "[\"%passwd%\"]",
                                       "[name in (\"/tmp/x\", \"/home/u/doc\")]"};
  static const char* kIpFilters[] = {"", "[\"1.2.3.4\"]", "[dstport = 22]"};
  static const char* kFileOps[] = {"read", "write", "execute", "read || write",
                                   "!read"};
  static const char* kNetOps[] = {"connect", "send", "recv", "send || recv"};
  static const char* kProcVars[] = {"p", "p", "q", "r"};
  static const char* kFileVars[] = {"f", "f", "g"};
  static const char* kIpVars[] = {"i", "j"};
  std::vector<std::string> patterns, procs, objects, events;
  std::set<std::string> filtered;  // each entity id carries one filter
  auto entity = [&](const char* type, const char* var, const char* filter) {
    std::string out = std::string(type) + " " + var;
    if (*filter != '\0' && filtered.insert(var).second) out += filter;
    return out;
  };
  size_t n = 1 + rng.Uniform(3);
  for (size_t k = 0; k < n; ++k) {
    const char* subj = PickOf(rng, kProcVars);
    procs.push_back(subj);
    std::string text = entity("proc", subj, PickOf(rng, kProcFilters)) + " ";
    uint64_t kind = rng.Uniform(10);
    std::string op, obj;
    if (kind < 6) {
      op = PickOf(rng, kFileOps);
      const char* var = PickOf(rng, kFileVars);
      obj = entity("file", var, PickOf(rng, kFileFilters));
      objects.push_back(var);
    } else if (kind < 8) {
      op = "start";
      const char* var = PickOf(rng, kProcVars);
      obj = entity("proc", var, PickOf(rng, kProcFilters));
      objects.push_back(var);
    } else {
      op = PickOf(rng, kNetOps);
      const char* var = PickOf(rng, kIpVars);
      obj = entity("ip", var, PickOf(rng, kIpFilters));
      objects.push_back(var);
    }
    uint64_t path = rng.Uniform(10);
    bool multi_hop = false;
    if (path == 0) {
      text += "->[" + op + "] " + obj;
    } else if (path == 1) {
      text += "~>(1~2)[" + op + "] " + obj;
      multi_hop = true;
    } else {
      text += op + " " + obj;
    }
    std::string id = "e" + std::to_string(k);
    text += " as " + id;
    if (!multi_hop) events.push_back(id);
    patterns.push_back(text);
  }
  std::vector<std::string> rels;
  if (events.size() >= 2 && rng.Chance(0.6)) {
    static const char* kTemporal[] = {"before", "after", "before[0-10 sec]",
                                      "within[0-8 sec]", "after[1-20 sec]"};
    size_t a = rng.Uniform(events.size());
    size_t b = (a + 1 + rng.Uniform(events.size() - 1)) % events.size();
    rels.push_back(events[a] + " " + PickOf(rng, kTemporal) + " " +
                   events[b]);
  }
  if (rng.Chance(0.2) && !events.empty()) {
    static const char* kCmp[] = {"<", ">=", "!="};
    std::string a = rng.Pick(events);
    std::string b = rng.Pick(events);
    rels.push_back(a + ".amount " + PickOf(rng, kCmp) + " " + b + ".amount");
  } else if (rng.Chance(0.15)) {
    std::string a = rng.Pick(procs);
    std::string b = rng.Pick(procs);
    rels.push_back(a + ".pid <= " + b + ".pid");
  }
  std::vector<std::string> returns;
  std::set<std::string> seen;
  for (const std::string& v : procs) {
    if (seen.insert(v).second && (returns.empty() || rng.Chance(0.6))) {
      returns.push_back(v);
    }
  }
  for (const std::string& v : objects) {
    if (seen.insert(v).second && rng.Chance(0.6)) returns.push_back(v);
  }
  if (!events.empty() && rng.Chance(0.25)) {
    static const char* kEventAttrs[] = {"", ".amount", ".start_time", ".op"};
    std::string event = rng.Pick(events);
    returns.push_back(event + PickOf(rng, kEventAttrs));
  }
  std::string window = rng.Chance(0.1) ? "from 0 to 20000000 " : "";
  std::string with = rels.empty() ? "" : " with " + Join(rels, ", ");
  return window + Join(patterns, " ") + with + " return " +
         (rng.Chance(0.5) ? "distinct " : "") + Join(returns, ", ");
}

TEST(TbqlDifferentialTest, RandomQueriesMatchOracle) {
  constexpr int kStores = 8;
  constexpr int kQueriesPerStore = 50;
  TbqlTally tally;
  for (int seed = 0; seed < kStores; ++seed) {
    Rng rng(1000 + seed);
    auto store = RandomTbqlStore(rng);
    fixtures::TbqlOracle oracle(*store);
    for (int k = 0; k < kQueriesPerStore; ++k) {
      std::string text = RandomTbqlQuery(rng);
      auto query = tbql::ParseTbql(text);
      ASSERT_TRUE(query.ok()) << text << " -> " << query.status().ToString();
      if (!tbql::Analyze(query.value()).ok()) continue;  // e.g. p as proc+file
      CheckTbqlText(*store, oracle, text, &tally);
    }
  }
  EXPECT_GE(tally.queries, static_cast<size_t>(kStores * kQueriesPerStore / 2));
  EXPECT_GE(tally.with_rows * 3, tally.queries);
  EXPECT_GE(tally.emptied_by_propagation, 1u);
  EXPECT_GE(tally.emptied_by_refilter, 1u);
}

/// A length-1 path is the event pattern on the graph backend, filters
/// included: each event pattern and its ToLength1PathQuery form return
/// equal rows and matched events on one store, with event filters and
/// global attribute filters over the attributes the graph stores on its
/// edges. Any other event attribute, and an event filter on a multi-hop
/// path, is Unsupported instead of dropped.
TEST(TbqlDifferentialTest, PathFormKeepsEventFilters) {
  Rng rng(4242);
  auto store = RandomTbqlStore(rng);
  fixtures::TbqlOracle oracle(*store);
  engine::TbqlExecutor executor(store.get());
  struct Case {
    const char* filtered;
    const char* unfiltered;
  } cases[] = {
      {"proc p read file f as e[amount > 2500] return p, f, e.amount",
       "proc p read file f as e return p, f, e.amount"},
      {"amount > 2500 proc p read || write file f return distinct p, f",
       "proc p read || write file f return distinct p, f"},
      {"proc p read file f as e1[amount > 3000 && op = \"read\"] "
       "proc p write file g as e2 return distinct p, f, g",
       "proc p read file f as e1 proc p write file g as e2 "
       "return distinct p, f, g"},
      {"start_time >= 12000000 proc p read file f as e[amount <= 4000] "
       "return p, f",
       "proc p read file f as e return p, f"},
      {"proc p write file f as e[id > 20] return p, f",
       "proc p write file f as e return p, f"},
  };
  TbqlTally tally;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.filtered);
    auto query = tbql::ParseTbql(c.filtered);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    auto events = executor.Execute(query.value());
    ASSERT_TRUE(events.ok()) << events.status().ToString();
    auto paths = executor.Execute(engine::ToLength1PathQuery(query.value()));
    ASSERT_TRUE(paths.ok()) << paths.status().ToString();
    EXPECT_EQ(RenderTbqlRows(paths.value().results.rows),
              RenderTbqlRows(events.value().results.rows));
    EXPECT_EQ(paths.value().matched_event_ids,
              events.value().matched_event_ids);
    CheckTbql(oracle, query.value(), events.value(), &tally);
    // The filter really filters.
    auto all = executor.ExecuteText(c.unfiltered);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    EXPECT_FALSE(events.value().results.rows.empty());
    EXPECT_LT(events.value().matched_event_ids.size(),
              all.value().matched_event_ids.size());
  }
  for (const char* text : {
           "proc p ->[read] file f as e[failure_code = 0] return p, f",
           "failure_code = 0 proc p ->[read] file f return p, f",
           "proc p ->[read] file f as e[\"x\"] return p, f",
           "proc p ~>(1~3)[read] file f as e[amount > 10] return p, f",
           "amount > 10 proc p ~>(2~3) file f return p, f",
       }) {
    auto report = executor.ExecuteText(text);
    ASSERT_FALSE(report.ok()) << text;
    EXPECT_EQ(report.status().code(), StatusCode::kUnsupported)
        << text << ": " << report.status().ToString();
  }
}

TEST(TbqlDifferentialTest, OpDisjunctionIsAnIndexAccess) {
  // `read || write` compiles to `e.op IN (...)`, an index access path for
  // the events alias, and returns the TBQL oracle's rows.
  auto tr = SmallCase(*cases::FindCase("data_leak"));
  fixtures::TbqlOracle oracle(*tr->store());
  for (const char* text : {"proc p read || write file f return p, f",
                           "proc p ->[read || write] file f return p, f"}) {
    auto query = tbql::ParseTbql(text);
    ASSERT_TRUE(query.ok()) << text;
    auto root = obs::TraceSpan::Root("hunt");
    engine::ExecOptions opts;
    opts.trace = root.get();
    auto report = engine::TbqlExecutor(tr->store()).Execute(query.value(), opts);
    ASSERT_TRUE(report.ok()) << text << ": " << report.status().ToString();
    auto want = oracle.Run(query.value());
    ASSERT_TRUE(want.ok()) << text;
    EXPECT_FALSE(want.value().rows.empty()) << text;
    EXPECT_EQ(RenderTbqlRows(report.value().results.rows),
              RenderTbqlRows(want.value().rows))
        << text;
    for (const std::string& q : report.value().executed_queries) {
      EXPECT_NE(q.find("op IN "), std::string::npos) << q;
    }
    std::vector<const obs::TraceSpan*> stack = {root.get()};
    std::string access;
    while (!stack.empty()) {
      const obs::TraceSpan* span = stack.back();
      stack.pop_back();
      for (const auto& child : span->children()) stack.push_back(child.get());
      if (span->name() != "plan") continue;
      for (const auto& [key, value] : span->notes()) {
        if (key == "access") access = value;
      }
    }
    if (std::string(text).find("->") == std::string::npos) {
      EXPECT_TRUE(access.find("e=index(") != std::string::npos ||
                  access.find("e=semijoin(") != std::string::npos)
          << access;
    }
  }
}

}  // namespace
}  // namespace raptor
