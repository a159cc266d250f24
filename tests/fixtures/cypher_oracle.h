// Brute-force Cypher reference evaluator for the differential tests.
//
// Deliberately independent of the executor: it reuses only the parser's
// AST, the graph's node/edge records (visited by dense id, never through
// the adjacency lists, label buckets, property indexes or frozen columns)
// and Value's comparison semantics. It enumerates
//  * node assignments by trying every node id for every pattern node and
//    every edge id for every fixed-length relationship, checking labels,
//    types, inline properties and repeated variables by string compare;
//  * variable-length relationships as every edge-simple path whose length
//    lies in [min, max] (an unbounded max uses the same cap as the
//    executor), with every hop checked against the type and properties;
//  * relationship uniqueness across the whole MATCH: no edge is used
//    twice by one binding, whatever part or path it sits in;
// then evaluates the whole WHERE on each complete binding, projects
// RETURN, applies DISTINCT (first occurrence wins) and truncates to LIMIT.
// It is slow by design — tests keep graphs small.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "storage/graphdb/cypher_ast.h"
#include "storage/graphdb/graph.h"

namespace raptor::fixtures {

class CypherOracle {
 public:
  using Row = std::vector<sql::Value>;

  explicit CypherOracle(const graphdb::PropertyGraph& graph,
                        int unbounded_varlen_cap = 8)
      : graph_(graph), cap_(unbounded_varlen_cap) {}

  Result<std::vector<Row>> Run(const graphdb::CypherQuery& query) {
    query_ = &query;
    rows_.clear();
    error_ = Status::OK();
    nodes_.clear();
    edges_.clear();
    used_.clear();
    MatchPart(0);
    RAPTOR_RETURN_NOT_OK(error_);
    std::vector<Row> out;
    std::unordered_set<Row, sql::ValueRowHash, sql::ValueRowEq> seen;
    for (Row& row : rows_) {
      if (query.distinct && !seen.insert(row).second) continue;
      out.push_back(std::move(row));
    }
    if (query.limit >= 0 && out.size() > static_cast<size_t>(query.limit)) {
      out.resize(static_cast<size_t>(query.limit));
    }
    return out;
  }

 private:
  using NodeId = graphdb::NodeId;
  using EdgeId = graphdb::EdgeId;

  static bool PropsMatch(const graphdb::PropertyMap& props,
                         const std::vector<graphdb::PropConstraint>& want) {
    for (const graphdb::PropConstraint& pc : want) {
      auto it = props.find(pc.key);
      if (it == props.end() || it->second.Compare(pc.value) != 0) return false;
    }
    return true;
  }

  bool EdgeMatches(EdgeId id, const graphdb::RelPattern& rel) const {
    const graphdb::Edge& e = graph_.edge(id);
    return (rel.type.empty() || e.type == rel.type) &&
           PropsMatch(e.props, rel.props) &&
           std::find(used_.begin(), used_.end(), id) == used_.end();
  }

  /// Bind `pat` to node `id` (if it matches) and continue with `next`;
  /// the binding is restored afterwards.
  template <class Next>
  void WithNode(const graphdb::NodePattern& pat, NodeId id, Next&& next) {
    const graphdb::Node& n = graph_.node(id);
    if (!pat.label.empty() && n.label != pat.label) return;
    if (!PropsMatch(n.props, pat.props)) return;
    if (pat.var.empty()) return next();
    auto it = nodes_.find(pat.var);
    if (it != nodes_.end()) {
      if (it->second == id) next();
      return;
    }
    nodes_[pat.var] = id;
    next();
    nodes_.erase(pat.var);
  }

  void MatchPart(size_t p) {
    if (!error_.ok()) return;
    if (p == query_->patterns.size()) return Emit();
    const graphdb::PatternPart& part = query_->patterns[p];
    if (part.nodes.empty()) {
      error_ = Status::InvalidArgument("empty pattern part");
      return;
    }
    for (NodeId id = 0; id < graph_.node_count(); ++id) {
      WithNode(part.nodes[0], id, [&] { MatchRel(p, 0, id); });
    }
  }

  /// Pattern node `k` of part `p` is bound to `at`; match relationship k.
  void MatchRel(size_t p, size_t k, NodeId at) {
    const graphdb::PatternPart& part = query_->patterns[p];
    if (k == part.rels.size()) return MatchPart(p + 1);
    const graphdb::RelPattern& rel = part.rels[k];
    if (rel.varlen) {
      int max_len = rel.max_len >= 0 ? rel.max_len : cap_;
      Walk(p, k, at, 0, std::max(0, rel.min_len), max_len);
      return;
    }
    for (EdgeId e = 0; e < graph_.edge_count(); ++e) {
      if (graph_.edge(e).src != at || !EdgeMatches(e, rel)) continue;
      auto bound = edges_.find(rel.var);
      if (!rel.var.empty() && bound != edges_.end() && bound->second != e) {
        continue;
      }
      bool fresh = !rel.var.empty() && bound == edges_.end();
      if (fresh) edges_[rel.var] = e;
      used_.push_back(e);
      NodeId dst = graph_.edge(e).dst;
      WithNode(part.nodes[k + 1], dst, [&] { MatchRel(p, k + 1, dst); });
      used_.pop_back();
      if (fresh) edges_.erase(rel.var);
    }
  }

  /// Edge-simple path enumeration for variable-length relationship k.
  void Walk(size_t p, size_t k, NodeId at, int depth, int min_len,
            int max_len) {
    const graphdb::PatternPart& part = query_->patterns[p];
    if (depth >= min_len) {
      WithNode(part.nodes[k + 1], at, [&] { MatchRel(p, k + 1, at); });
    }
    if (depth >= max_len) return;
    for (EdgeId e = 0; e < graph_.edge_count(); ++e) {
      if (graph_.edge(e).src != at || !EdgeMatches(e, part.rels[k])) continue;
      used_.push_back(e);
      Walk(p, k, graph_.edge(e).dst, depth + 1, min_len, max_len);
      used_.pop_back();
    }
  }

  void Emit() {
    if (query_->where != nullptr) {
      auto keep = Eval(*query_->where);
      if (!keep.ok()) {
        error_ = keep.status();
        return;
      }
      if (!Truthy(keep.value())) return;
    }
    Row row;
    for (const graphdb::CypherReturnItem& item : query_->items) {
      auto v = Eval(*item.expr);
      if (!v.ok()) {
        error_ = v.status();
        return;
      }
      row.push_back(std::move(v).value());
    }
    rows_.push_back(std::move(row));
  }

  static bool Truthy(const sql::Value& v) {
    if (v.is_null()) return false;
    if (v.is_int()) return v.AsInt() != 0;
    if (v.is_double()) return v.AsDouble() != 0.0;
    return !v.AsText().empty();
  }

  static sql::Value Bool(bool b) { return sql::Value(int64_t{b ? 1 : 0}); }

  Result<sql::Value> Eval(const graphdb::CypherExpr& e) const {
    using K = graphdb::CypherExprKind;
    using Op = graphdb::CypherBinaryOp;
    switch (e.kind) {
      case K::kLiteral:
        return e.literal;
      case K::kVarRef:
      case K::kPropRef: {
        const graphdb::PropertyMap* props = nullptr;
        uint64_t id = 0;
        if (auto n = nodes_.find(e.var); n != nodes_.end()) {
          id = n->second;
          props = &graph_.node(id).props;
        } else if (auto r = edges_.find(e.var); r != edges_.end()) {
          id = r->second;
          props = &graph_.edge(id).props;
        } else {
          return Status::NotFound("unbound variable: " + e.var);
        }
        if (e.kind == K::kVarRef) return sql::Value(static_cast<int64_t>(id));
        auto it = props->find(e.prop);
        return it == props->end() ? sql::Value::Null() : it->second;
      }
      case K::kNot: {
        auto v = Eval(*e.lhs);
        if (!v.ok()) return v.status();
        return Bool(!Truthy(v.value()));
      }
      case K::kInList: {
        auto v = Eval(*e.lhs);
        if (!v.ok()) return v.status();
        bool found = false;
        for (const sql::Value& item : e.in_list) {
          found = found || v.value().Compare(item) == 0;
        }
        return Bool(found != e.negated);
      }
      case K::kBinary:
        break;
    }
    auto l = Eval(*e.lhs);
    if (!l.ok()) return l.status();
    if (e.op == Op::kAnd && !Truthy(l.value())) return Bool(false);
    if (e.op == Op::kOr && Truthy(l.value())) return Bool(true);
    auto r = Eval(*e.rhs);
    if (!r.ok()) return r.status();
    const sql::Value& a = l.value();
    const sql::Value& b = r.value();
    int c = a.Compare(b);
    switch (e.op) {
      case Op::kAnd:
      case Op::kOr: return Bool(Truthy(b));
      case Op::kEq: return Bool(c == 0);
      case Op::kNe: return Bool(c != 0);
      case Op::kLt: return Bool(c < 0);
      case Op::kLe: return Bool(c <= 0);
      case Op::kGt: return Bool(c > 0);
      case Op::kGe: return Bool(c >= 0);
      case Op::kContains:
        return Bool(a.ToString().find(b.ToString()) != std::string::npos);
      case Op::kStartsWith: return Bool(StartsWith(a.ToString(), b.ToString()));
      case Op::kEndsWith: return Bool(EndsWith(a.ToString(), b.ToString()));
      case Op::kAdd:
      case Op::kSub: {
        bool add = e.op == Op::kAdd;
        if (a.is_double() || b.is_double()) {
          return sql::Value(add ? a.AsDouble() + b.AsDouble()
                                : a.AsDouble() - b.AsDouble());
        }
        return sql::Value(add ? a.AsInt() + b.AsInt() : a.AsInt() - b.AsInt());
      }
    }
    return Status::Internal("unknown cypher operator");
  }

  const graphdb::PropertyGraph& graph_;
  int cap_;
  const graphdb::CypherQuery* query_ = nullptr;
  std::map<std::string, NodeId> nodes_;
  std::map<std::string, EdgeId> edges_;
  std::vector<EdgeId> used_;  // every edge the current binding occupies
  std::vector<Row> rows_;
  Status error_ = Status::OK();
};

}  // namespace raptor::fixtures
