#include "storage/graphdb/cypher_executor.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <unordered_set>
#include <vector>

#include "common/deadline.h"
#include "common/small_vector.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "storage/columnar.h"
#include "storage/graphdb/cypher_parser.h"
#include "storage/shard_parallel.h"
#include "storage/string_predicate.h"
#include "storage/subresult_cache.h"

namespace raptor::graphdb {

namespace {

constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

/// Interned variable slots, built once per query: every node/edge variable
/// across all pattern parts maps to a dense id, so the frame binding can
/// hold bound entities in flat vectors instead of string-keyed maps.
struct VarTable {
  StringInterner nodes;
  StringInterner edges;
};

/// Flat binding frame keyed on interned slots. The streaming pipeline
/// threads exactly one frame through the whole search (bind on descent,
/// unbind on backtrack), and the inline small-vector storage makes frame
/// setup allocation-free for typical variable counts.
struct Binding {
  SmallVector<NodeId, 8> nodes;       // node slot -> id, kInvalidNode unbound
  SmallVector<EdgeId, 8> edges;       // edge slot -> id, kInvalidEdge unbound
  SmallVector<EdgeId, 16> used_edges;  // LIFO stack of in-use edges

  explicit Binding(const VarTable& vars) {
    nodes.assign(vars.nodes.size(), kInvalidNode);
    edges.assign(vars.edges.size(), kInvalidEdge);
  }
};

/// One inline property constraint `{key: literal}` compiled against the
/// frozen columns: a text literal decides through the shared string kernel
/// (storage/string_predicate.h), an int literal compares int cells in
/// place, and any other literal compares whole cells. The constraint
/// holds only on a present cell.
struct ColPred {
  ColPred(const PropertyGraph& graph, const PropConstraint& pc)
      : prop_id(graph.LookupPropName(pc.key)), lit(&pc.value) {
    if (pc.value.is_text()) {
      text.emplace(storage::StringPredicate::Op::kEq,
                   std::vector<std::string>{pc.value.AsText()},
                   graph.PropDict(prop_id));
    }
  }

  uint32_t prop_id;
  const Value* lit;
  std::optional<storage::StringPredicate> text;  // text literals
  /// The pattern's (shard × label / type) slices, indexed by shard; empty
  /// when the pattern names no label / type.
  SmallVector<const storage::Column*, 4> cols;

  /// `pos` is the candidate's dense bucket offset (label_pos / type_pos).
  bool Matches(const storage::Column* col, size_t pos) const {
    if (text.has_value()) return text->OnCell(col, pos);
    if (col == nullptr || col->kind() == storage::Column::Kind::kString) {
      return false;  // absent, or a text cell against a non-text literal
    }
    if (lit->is_int() && col->kind() == storage::Column::Kind::kInt64) {
      int64_t v;
      return col->IntAt(pos, &v) && v == lit->AsInt();
    }
    Value v;
    return col->CellAt(pos, &v) && v.Compare(*lit) == 0;
  }
};

/// A single-variable WHERE conjunct, applied as soon as its variable binds
/// (the predicate pushdown real graph databases perform; without it a
/// multi-pattern MATCH would enumerate the full cross product first).
/// `var.prop op 'text'` (op `=`, `<>`, CONTAINS, STARTS WITH, ENDS WITH,
/// or IN over a text list, under any number of NOTs) decides through the
/// shared string kernel; anything else evaluates through CypherEvaluator.
struct PushedFilter {
  const CypherExpr* expr = nullptr;
  std::string_view prop;  // the property a `var.prop op literal` reads
  uint32_t prop_id = kNoSymbol;
  // The index probes BestSeedPath ranks: `prop = literal` (any literal)
  // and a positive `prop IN [...]`.
  const Value* index_eq = nullptr;
  const std::vector<Value>* index_in = nullptr;
  std::optional<storage::StringPredicate> strings;
  bool negate = false;
};

PushedFilter CompilePushedFilter(const CypherExpr& f,
                                 const PropertyGraph& graph) {
  using StrOp = storage::StringPredicate::Op;
  PushedFilter out;
  out.expr = &f;
  const CypherExpr* e = &f;
  bool negate = false;
  while (e->kind == CypherExprKind::kNot) {
    negate = !negate;
    e = e->lhs.get();
  }
  const CypherExpr* prop = nullptr;
  const Value* lit = nullptr;
  if (e->kind == CypherExprKind::kInList &&
      e->lhs->kind == CypherExprKind::kPropRef) {
    prop = e->lhs.get();
    negate = negate != e->negated;
    if (!negate) out.index_in = &e->in_list;
  } else if (e->kind == CypherExprKind::kBinary &&
             e->lhs->kind == CypherExprKind::kPropRef &&
             e->rhs->kind == CypherExprKind::kLiteral) {
    prop = e->lhs.get();
    lit = &e->rhs->literal;
  } else if (e->kind == CypherExprKind::kBinary &&
             (e->op == CypherBinaryOp::kEq || e->op == CypherBinaryOp::kNe) &&
             e->lhs->kind == CypherExprKind::kLiteral &&
             e->rhs->kind == CypherExprKind::kPropRef) {
    prop = e->rhs.get();
    lit = &e->lhs->literal;
  } else {
    return out;
  }
  out.prop = prop->prop;
  out.prop_id = graph.LookupPropName(prop->prop);
  if (lit != nullptr && e->op == CypherBinaryOp::kEq && !negate) {
    out.index_eq = lit;
  }
  std::vector<std::string> needles;
  StrOp op = StrOp::kEq;
  if (lit == nullptr) {  // IN: an all-text, non-empty list
    for (const Value& v : e->in_list) {
      if (!v.is_text()) return out;
      needles.push_back(v.AsText());
    }
    if (needles.empty()) return out;
    op = StrOp::kIn;
  } else {
    if (!lit->is_text()) return out;
    needles.push_back(lit->AsText());
    switch (e->op) {
      case CypherBinaryOp::kNe: negate = !negate; [[fallthrough]];
      case CypherBinaryOp::kEq: op = StrOp::kEq; break;
      case CypherBinaryOp::kContains: op = StrOp::kContains; break;
      case CypherBinaryOp::kStartsWith: op = StrOp::kStartsWith; break;
      case CypherBinaryOp::kEndsWith: op = StrOp::kEndsWith; break;
      default: return out;
    }
  }
  out.negate = negate;
  out.strings.emplace(op, std::move(needles), graph.PropDict(out.prop_id));
  return out;
}

/// Pushed-down filters by variable name.
using PushdownFilters =
    std::unordered_map<std::string, std::vector<PushedFilter>>;

const std::vector<PushedFilter>* FiltersOf(const PushdownFilters& pushdown,
                                           const std::string& var) {
  if (var.empty()) return nullptr;
  auto it = pushdown.find(var);
  return it == pushdown.end() ? nullptr : &it->second;
}

/// A node or relationship pattern resolved against the graph: its label /
/// type (the entity's bucket) to the interned id, its variable to the
/// query's slot, its inline properties to ColPreds over the per-(shard ×
/// bucket) columns, and its pushed-down WHERE filters attached, so
/// candidate checks compare integers instead of strings. Typed expansion
/// uses a relationship's bucket id to select the per-type adjacency group.
template <class Pattern>
struct Resolved {
  static constexpr bool kNode = std::is_same_v<Pattern, NodePattern>;

  const Pattern* pat = nullptr;
  bool has_bucket = false;         // the pattern names a label / type
  uint32_t bucket_id = kNoSymbol;  // kNoSymbol: absent, matches nothing
  uint32_t var_slot = kNoSymbol;   // kNoSymbol: anonymous
  std::vector<ColPred> col_preds;
  const std::vector<PushedFilter>* filters = nullptr;  // null: none

  /// Entity `id`'s bucket and its position there.
  static std::pair<uint32_t, size_t> Locate(const PropertyGraph& graph,
                                            uint64_t id) {
    if constexpr (kNode) {
      const Node& n = graph.node(id);
      return {n.label_id, n.label_pos};
    } else {
      const Edge& e = graph.edge(id);
      return {e.type_id, e.type_pos};
    }
  }

  /// Property `prop_id`'s slice of `bucket` in `shard`.
  static const storage::Column* Slice(const PropertyGraph& graph,
                                      size_t shard, uint32_t bucket,
                                      uint32_t prop_id) {
    return kNode ? graph.NodeColumn(shard, bucket, prop_id)
                 : graph.EdgeColumn(shard, bucket, prop_id);
  }

  bool Matches(uint64_t id, const PropertyGraph& graph) const {
    auto [bucket, pos] = Locate(graph, id);
    if (has_bucket && bucket != bucket_id) return false;
    size_t shard = graph.ShardOf(id);
    for (const ColPred& cp : col_preds) {
      const storage::Column* col =
          has_bucket ? cp.cols[shard] : Slice(graph, shard, bucket, cp.prop_id);
      if (!cp.Matches(col, pos)) return false;
    }
    return true;
  }
};

using ResolvedNode = Resolved<NodePattern>;
using ResolvedRel = Resolved<RelPattern>;

template <class Pattern>
Resolved<Pattern> ResolvePattern(const PropertyGraph& graph,
                                 const VarTable& vars,
                                 const PushdownFilters& pushdown,
                                 const Pattern& pat) {
  constexpr bool kNode = Resolved<Pattern>::kNode;
  Resolved<Pattern> r;
  r.pat = &pat;
  const std::string* bucket;
  if constexpr (kNode) {
    bucket = &pat.label;
  } else {
    bucket = &pat.type;
  }
  if (!bucket->empty()) {
    r.has_bucket = true;
    r.bucket_id = kNode ? graph.LookupLabel(*bucket)
                        : graph.LookupEdgeType(*bucket);
  }
  if (!pat.var.empty()) {
    r.var_slot = (kNode ? vars.nodes : vars.edges).Lookup(pat.var);
  }
  for (const PropConstraint& pc : pat.props) {
    ColPred& cp = r.col_preds.emplace_back(graph, pc);
    for (size_t s = 0; r.has_bucket && s < graph.shard_count(); ++s) {
      cp.cols.push_back(Resolved<Pattern>::Slice(graph, s, r.bucket_id,
                                                 cp.prop_id));
    }
  }
  r.filters = FiltersOf(pushdown, pat.var);
  return r;
}

// ---- Binding operations --------------------------------------------------

bool NodeBound(const Binding& b, const ResolvedNode& rn) {
  return rn.var_slot != kNoSymbol && b.nodes[rn.var_slot] != kInvalidNode;
}

/// Precondition: NodeBound(b, rn).
NodeId BoundNode(const Binding& b, const ResolvedNode& rn) {
  return b.nodes[rn.var_slot];
}

bool EdgeBound(const Binding& b, const ResolvedRel& rr) {
  return rr.var_slot != kNoSymbol && b.edges[rr.var_slot] != kInvalidEdge;
}

/// Precondition: EdgeBound(b, rr).
EdgeId BoundEdge(const Binding& b, const ResolvedRel& rr) {
  return b.edges[rr.var_slot];
}

/// How selective a node pattern is, for choosing the search seed.
int ConstraintScore(const ResolvedNode& rn, const Binding& binding) {
  if (NodeBound(binding, rn)) return 100;
  int score = 0;
  if (!rn.pat->label.empty()) ++score;
  score += 2 * static_cast<int>(rn.pat->props.size());
  return score;
}

/// Evaluate a WHERE / RETURN expression against a (possibly partially)
/// bound row. Property reads go through the frozen columns.
class CypherEvaluator {
 public:
  CypherEvaluator(const PropertyGraph& graph, const VarTable& vars)
      : graph_(graph), vars_(vars) {}

  Result<Value> Eval(const CypherExpr& e, const Binding& b) const {
    switch (e.kind) {
      case CypherExprKind::kLiteral:
        return e.literal;
      case CypherExprKind::kVarRef: {
        NodeId nid;
        if (LookupNodeVar(b, e, &nid)) {
          return Value(static_cast<int64_t>(nid));
        }
        EdgeId eid;
        if (LookupEdgeVar(b, e, &eid)) {
          return Value(static_cast<int64_t>(eid));
        }
        return Status::NotFound("unbound variable: " + e.var);
      }
      case CypherExprKind::kPropRef: {
        NodeId nid;
        // An absent property reads as NULL.
        Value v;
        if (LookupNodeVar(b, e, &nid)) {
          const Node& node = graph_.node(nid);
          const storage::Column* col = graph_.NodeColumn(
              graph_.ShardOf(nid), node.label_id, SlotsFor(e).prop_id);
          if (col != nullptr) col->CellAt(node.label_pos, &v);
          return v;
        }
        EdgeId eid;
        if (LookupEdgeVar(b, e, &eid)) {
          const Edge& edge = graph_.edge(eid);
          const storage::Column* col = graph_.EdgeColumn(
              graph_.ShardOf(eid), edge.type_id, SlotsFor(e).prop_id);
          if (col != nullptr) col->CellAt(edge.type_pos, &v);
          return v;
        }
        return Status::NotFound("unbound variable: " + e.var);
      }
      case CypherExprKind::kNot: {
        auto inner = Eval(*e.lhs, b);
        if (!inner.ok()) return inner.status();
        return Value(static_cast<int64_t>(!Truthy(inner.value())));
      }
      case CypherExprKind::kInList: {
        auto lhs = Eval(*e.lhs, b);
        if (!lhs.ok()) return lhs.status();
        bool found = in_sets_.Get(e).count(lhs.value()) > 0;
        return Value(static_cast<int64_t>(e.negated ? !found : found));
      }
      case CypherExprKind::kBinary: {
        if (e.op == CypherBinaryOp::kAnd || e.op == CypherBinaryOp::kOr) {
          auto l = Eval(*e.lhs, b);
          if (!l.ok()) return l.status();
          bool lt = Truthy(l.value());
          if (e.op == CypherBinaryOp::kAnd && !lt) {
            return Value(static_cast<int64_t>(0));
          }
          if (e.op == CypherBinaryOp::kOr && lt) {
            return Value(static_cast<int64_t>(1));
          }
          auto r = Eval(*e.rhs, b);
          if (!r.ok()) return r.status();
          return Value(static_cast<int64_t>(Truthy(r.value())));
        }
        auto l = Eval(*e.lhs, b);
        if (!l.ok()) return l.status();
        auto r = Eval(*e.rhs, b);
        if (!r.ok()) return r.status();
        if (e.op == CypherBinaryOp::kAdd || e.op == CypherBinaryOp::kSub) {
          if (l.value().is_double() || r.value().is_double()) {
            double x = l.value().AsDouble(), y = r.value().AsDouble();
            return Value(e.op == CypherBinaryOp::kAdd ? x + y : x - y);
          }
          int64_t x = l.value().AsInt(), y = r.value().AsInt();
          return Value(e.op == CypherBinaryOp::kAdd ? x + y : x - y);
        }
        return Value(static_cast<int64_t>(Compare(e.op, l.value(), r.value())));
      }
    }
    return Status::Internal("unreachable cypher expr kind");
  }

  static bool Truthy(const Value& v) {
    if (v.is_null()) return false;
    if (v.is_int()) return v.AsInt() != 0;
    if (v.is_double()) return v.AsDouble() != 0.0;
    return !v.AsText().empty();
  }

  static bool Compare(CypherBinaryOp op, const Value& l, const Value& r) {
    switch (op) {
      case CypherBinaryOp::kEq: return l.Compare(r) == 0;
      case CypherBinaryOp::kNe: return l.Compare(r) != 0;
      case CypherBinaryOp::kLt: return l.Compare(r) < 0;
      case CypherBinaryOp::kLe: return l.Compare(r) <= 0;
      case CypherBinaryOp::kGt: return l.Compare(r) > 0;
      case CypherBinaryOp::kGe: return l.Compare(r) >= 0;
      case CypherBinaryOp::kContains:
        return l.ToString().find(r.ToString()) != std::string::npos;
      case CypherBinaryOp::kStartsWith:
        return StartsWith(l.ToString(), r.ToString());
      case CypherBinaryOp::kEndsWith:
        return EndsWith(l.ToString(), r.ToString());
      default:
        return false;
    }
  }

 private:
  /// Interned slots of an expression's variable (and, for kPropRef, the
  /// graph's interned property-name id), resolved once per expr node and
  /// cached by pointer: repeated evaluations (one per result row) pay a
  /// pointer-hash probe instead of re-hashing the names.
  struct VarSlots {
    uint32_t node_slot = kNoSymbol;
    uint32_t edge_slot = kNoSymbol;
    uint32_t prop_id = kNoSymbol;
  };
  const VarSlots& SlotsFor(const CypherExpr& e) const {
    auto it = slots_.find(&e);
    if (it == slots_.end()) {
      it = slots_
               .emplace(&e, VarSlots{vars_.nodes.Lookup(e.var),
                                     vars_.edges.Lookup(e.var),
                                     graph_.LookupPropName(e.prop)})
               .first;
    }
    return it->second;
  }

  bool LookupNodeVar(const Binding& b, const CypherExpr& e,
                     NodeId* out) const {
    uint32_t slot = SlotsFor(e).node_slot;
    if (slot == kNoSymbol || b.nodes[slot] == kInvalidNode) return false;
    *out = b.nodes[slot];
    return true;
  }
  bool LookupEdgeVar(const Binding& b, const CypherExpr& e,
                     EdgeId* out) const {
    uint32_t slot = SlotsFor(e).edge_slot;
    if (slot == kNoSymbol || b.edges[slot] == kInvalidEdge) return false;
    *out = b.edges[slot];
    return true;
  }

  const PropertyGraph& graph_;
  const VarTable& vars_;
  sql::InListCache<CypherExpr> in_sets_;
  mutable std::unordered_map<const CypherExpr*, VarSlots> slots_;
};

/// Split an AND-tree into conjuncts.
void SplitConjuncts(const CypherExpr* e, std::vector<const CypherExpr*>* out) {
  if (e == nullptr) return;
  if (e->kind == CypherExprKind::kBinary && e->op == CypherBinaryOp::kAnd) {
    SplitConjuncts(e->lhs.get(), out);
    SplitConjuncts(e->rhs.get(), out);
  } else {
    out->push_back(e);
  }
}

void CollectVars(const CypherExpr& e, std::unordered_set<std::string>* vars) {
  switch (e.kind) {
    case CypherExprKind::kPropRef:
    case CypherExprKind::kVarRef:
      vars->insert(e.var);
      break;
    case CypherExprKind::kBinary:
      CollectVars(*e.lhs, vars);
      CollectVars(*e.rhs, vars);
      break;
    case CypherExprKind::kNot:
      CollectVars(*e.lhs, vars);
      break;
    case CypherExprKind::kInList:
      CollectVars(*e.lhs, vars);
      break;
    case CypherExprKind::kLiteral:
      break;
  }
}

/// One start-node access path of a labeled pattern: an indexed property
/// probed with an inline / WHERE equality literal, a WHERE IN list, or the
/// dictionary strings a string filter accepts (the dictionary seek), with
/// the exact candidate count summed over every shard (per value for IN and
/// the seek: an upper bound on the deduplicated union).
struct SeedPath {
  std::string_view prop;
  const Value* eq = nullptr;
  const std::vector<Value>* multi = nullptr;
  std::vector<Value> seek;
  bool is_seek = false;
  size_t count = static_cast<size_t>(-1);  // -1: no path, a label scan
};

/// Access-path ranking for the start node of a chain, shared by the
/// matcher (SelectSeeds) and the admission estimate (EstimateSeedCount):
/// competing index probes — indexed inline properties and indexed WHERE
/// equality / IN filters — rank by ProbeCountNodes without materializing
/// anything, and the cheapest wins; then each seekable string filter on an
/// indexed property whose every shard slice is string-typed or absent
/// (storage/string_predicate.h) walks its dictionary, but only while the
/// dictionary is smaller than the cheapest path so far (the label bucket
/// without one), and wins when its summed probe counts are smaller still.
/// `interrupted` is polled during the walk; nullopt when it fired.
/// Precondition: `pat` is labeled.
template <class Interrupted>
std::optional<SeedPath> BestSeedPath(const NodePattern& pat,
                                     const std::vector<PushedFilter>* filters,
                                     const PropertyGraph& graph,
                                     Interrupted&& interrupted) {
  SeedPath best;
  auto offer = [&](std::string_view prop, const Value* eq,
                   const std::vector<Value>* multi) {
    if ((eq == nullptr && multi == nullptr) ||
        !graph.HasNodeIndex(pat.label, prop)) {
      return;
    }
    size_t count = 0;
    if (eq != nullptr) {
      count = graph.ProbeCountNodes(pat.label, prop, *eq);
    } else {
      for (const Value& v : *multi) {
        count += graph.ProbeCountNodes(pat.label, prop, v);
      }
    }
    if (count < best.count) best = SeedPath{prop, eq, multi, {}, false, count};
  };
  for (const PropConstraint& pc : pat.props) offer(pc.key, &pc.value, nullptr);
  if (filters == nullptr) return best;
  for (const PushedFilter& pf : *filters) {
    offer(pf.prop, pf.index_eq, pf.index_in);
  }
  uint32_t label_id = graph.LookupLabel(pat.label);
  for (const PushedFilter& pf : *filters) {
    if (!pf.strings.has_value() || pf.negate || !pf.strings->Seekable() ||
        !graph.HasNodeIndex(pat.label, pf.prop)) {
      continue;
    }
    bool seekable = true;
    for (size_t s = 0; s < graph.shard_count() && seekable; ++s) {
      seekable = storage::StringPredicate::SeekableSlice(
          graph.NodeColumn(s, label_id, pf.prop_id));
    }
    if (!seekable) continue;
    auto seek = pf.strings->SeekBelow(
        std::min(best.count, graph.LabelCount(pat.label)), interrupted,
        [&](const Value& key) {
          return graph.ProbeCountNodes(pat.label, pf.prop, key);
        });
    if (seek.has_value()) {
      best = SeedPath{pf.prop, nullptr, nullptr, std::move(seek->keys), true,
                      seek->count};
    } else if (interrupted()) {
      return std::nullopt;
    }
  }
  return best;
}

/// Start-node candidates for one chain: either per-shard non-owning spans
/// (index buckets or label buckets, one per storage shard, iterated lazily
/// so LIMIT pushdown can stop early without materializing the tail), an
/// owned list (bound variable, multi-value probe unions), or a full node
/// scan. The per-shard layout is what lets the morsel scheduler carve each
/// shard's seeds into positional ranges.
struct SeedSet {
  SmallVector<const std::vector<NodeId>*, 8> spans;  // indexed by shard
  std::vector<NodeId> owned;                         // owning storage
  /// Plan-time split of `owned` into per-shard sub-lists (order preserved
  /// within each shard). Built once by the morsel scheduler so each morsel
  /// walks a slice of its shard's seeds instead of skip-scanning the whole
  /// list.
  std::vector<std::vector<NodeId>> owned_by_shard;
  bool full_scan = false;
  /// The access path taken, for the plan span: `var:dict(prop,n)`,
  /// `var:index(prop)`, `var:label`, `var:scan` or `var:bound`.
  std::string access;

  size_t SeedCount(const PropertyGraph& graph) const {
    if (full_scan) return graph.node_count();
    if (!spans.empty()) {
      size_t n = 0;
      for (const std::vector<NodeId>* span : spans) n += span->size();
      return n;
    }
    return owned.size();
  }

  void SplitOwnedByShard(const PropertyGraph& graph) {
    if (owned.empty() || !owned_by_shard.empty()) return;
    owned_by_shard.resize(graph.shard_count());
    for (NodeId id : owned) owned_by_shard[graph.ShardOf(id)].push_back(id);
  }
};

/// Terminal stage of the streaming pipeline: evaluates residual WHERE
/// conjuncts, projects RETURN items, applies DISTINCT through an
/// incremental seen-set, and signals a stop once LIMIT rows exist. The
/// limit is enforced either locally (`local_cap`: the serial matcher, and
/// parallel DISTINCT workers whose merged seen-sets re-dedup at the
/// barrier) or through a shared atomic budget (`shared_claimed`/
/// `shared_cap`: parallel non-DISTINCT workers claim one slot per emitted
/// row, so the fleet never emits more than the limit in total).
class RowSink {
 public:
  /// `partition_distinct` hash-partitions DISTINCT emissions into
  /// rs->parts so the parallel merge can adopt whole compacted blocks
  /// (storage/shard_parallel.h); off, rows stream into rs->rows.
  RowSink(const CypherQuery& query, const CypherEvaluator& eval,
          const std::vector<const CypherExpr*>& residual, bool distinct,
          bool partition_distinct, size_t local_cap,
          std::atomic<size_t>* shared_claimed, size_t shared_cap,
          MatchStats* stats, storage::WorkerRows* rs)
      : query_(query),
        eval_(eval),
        residual_(residual),
        distinct_(distinct),
        partition_distinct_(partition_distinct),
        local_cap_(local_cap),
        shared_claimed_(shared_claimed),
        shared_cap_(shared_cap),
        stats_(stats),
        rs_(rs) {
    if (partition_distinct_) rs_->EnableDistinctPartitions();
  }

  /// False stops the search: either LIMIT is satisfied or evaluation
  /// failed (check error() afterwards).
  bool operator()(const Binding& binding) {
    if (stats_ != nullptr) ++stats_->bindings_emitted;
    for (const CypherExpr* c : residual_) {
      auto cond = eval_.Eval(*c, binding);
      if (!cond.ok()) {
        error_ = cond.status();
        return false;
      }
      if (!CypherEvaluator::Truthy(cond.value())) return true;
    }
    std::vector<Value> row;
    row.reserve(query_.items.size());
    for (const CypherReturnItem& item : query_.items) {
      auto v = eval_.Eval(*item.expr, binding);
      if (!v.ok()) {
        error_ = v.status();
        return false;
      }
      row.push_back(std::move(v).value());
    }
    if (distinct_ && !seen_.insert(row).second) return true;
    if (shared_claimed_ != nullptr &&
        shared_claimed_->fetch_add(1, std::memory_order_relaxed) >=
            shared_cap_) {
      return false;  // budget exhausted by other workers; drop the row
    }
    if (partition_distinct_) {
      rs_->parts[storage::DistinctPartitionOf(row)].push_back(std::move(row));
    } else {
      rs_->rows.push_back(std::move(row));
    }
    ++emitted_;
    if (stats_ != nullptr) ++stats_->rows_emitted;
    return emitted_ < local_cap_;
  }

  const Status& error() const { return error_; }

 private:
  const CypherQuery& query_;
  const CypherEvaluator& eval_;
  const std::vector<const CypherExpr*>& residual_;
  bool distinct_;
  bool partition_distinct_;
  size_t local_cap_;
  size_t emitted_ = 0;
  std::atomic<size_t>* shared_claimed_;
  size_t shared_cap_;
  MatchStats* stats_;
  storage::WorkerRows* rs_;
  Status error_ = Status::OK();
  std::unordered_set<std::vector<Value>, sql::ValueRowHash, sql::ValueRowEq>
      seen_;
};

/// The streaming matcher: drives all pattern parts depth-first, calling
/// `sink(binding)` once per complete query binding. Every traversal method
/// returns true to continue and false to stop the whole search (LIMIT
/// pushdown); after a stop the binding contents are unspecified.
class Matcher {
 public:
  Matcher(const PropertyGraph& graph, const MatchOptions& options,
          const PushdownFilters& pushdown, const CypherEvaluator& eval,
          MatchStats* stats, RowSink& sink)
      : graph_(graph),
        options_(options),
        pushdown_(pushdown),
        eval_(eval),
        stats_(stats),
        sink_(sink),
        deadline_(options.deadline) {}

  /// The chain being matched, with every label / edge type resolved to its
  /// interned id once up front instead of per candidate.
  struct ResolvedPart {
    std::vector<ResolvedNode> nodes;
    std::vector<ResolvedRel> rels;
  };

  /// A pattern part prepared for repeated matching: the forward and
  /// reversed chains with labels/types resolved once, reused across every
  /// binding the part extends.
  struct PreparedPart {
    const PatternPart* fwd = nullptr;
    PatternPart rev;
    ResolvedPart resolved_fwd;
    ResolvedPart resolved_rev;
  };

  Status PrepareParts(const std::vector<PatternPart>& parts,
                      const VarTable& vars) {
    own_parts_.reserve(parts.size());
    for (const PatternPart& part : parts) {
      if (part.nodes.empty()) {
        return Status::InvalidArgument("empty pattern part");
      }
      PreparedPart pp;
      pp.fwd = &part;
      pp.rev = Reverse(part);
      pp.resolved_fwd = Resolve(part, vars);
      pp.resolved_rev = Resolve(pp.rev, vars);
      own_parts_.push_back(std::move(pp));
    }
    parts_ = &own_parts_;
    return Status::OK();
  }

  /// Reuse another matcher's prepared parts (immutable after PrepareParts)
  /// instead of re-resolving the query: the parallel driver prepares once
  /// and shares across all morsel workers. `other` must outlive this
  /// matcher.
  void SharePreparedParts(const Matcher& other) { parts_ = other.parts_; }

  /// Match every part against `binding`; false if the sink stopped early.
  bool Run(Binding& binding) { return MatchFrom(0, binding); }

  /// Restrict top-level (part 0) seed iteration to the half-open
  /// sub-range [lo, hi) of one shard's seed list (seed-list positions, not
  /// node ids): one work-stealing morsel.
  void RestrictTopSeedsToMorsel(int shard, size_t lo, size_t hi) {
    seed_shard_ = shard;
    morsel_lo_ = lo;
    morsel_hi_ = hi;
  }

  /// Cooperative LIMIT cancellation: once `claimed` reaches `cap`, the
  /// top-level seed loop stops even if this worker never emitted a row.
  void SetSharedRowBudget(const std::atomic<size_t>* claimed, size_t cap) {
    shared_claimed_ = claimed;
    shared_cap_ = cap;
  }

  /// Materialize the top-level seed set once, mirroring MatchFrom's
  /// direction choice on the (empty) top-level binding. The parallel
  /// driver sizes its fan-out threshold on the result (SeedCount) and
  /// shares it across every morsel (SetTopSeeds), so a multi-value
  /// probe union is built a single time instead of once per worker.
  /// Precondition: PrepareParts succeeded and parts are non-empty.
  SeedSet PlanTopSeeds(const Binding& binding) {
    return SelectSeeds(TopSeedNode(binding), binding);
  }

  /// Use a precomputed seed set for part 0 instead of re-deriving it.
  /// `seeds` must come from PlanTopSeeds on an identically-prepared
  /// matcher (the direction choice is deterministic on the empty binding)
  /// and must outlive this matcher's Run.
  void SetTopSeeds(const SeedSet* seeds) { shared_top_seeds_ = seeds; }

 private:
  /// Choose a part's search direction: seed from the more-constrained
  /// endpoint. The single authority for both the matcher (MatchFrom) and
  /// the parallel driver's seed plan (TopSeedNode) — they must agree or
  /// workers would iterate seeds for the wrong chain endpoint.
  const ResolvedPart& ChooseDirection(const PreparedPart& pp,
                                      const Binding& binding) const {
    int fwd = ConstraintScore(pp.resolved_fwd.nodes.front(), binding);
    int bwd = ConstraintScore(pp.resolved_fwd.nodes.back(), binding);
    return bwd > fwd ? pp.resolved_rev : pp.resolved_fwd;
  }

  /// The seed node of part 0 under MatchFrom's direction choice.
  const ResolvedNode& TopSeedNode(const Binding& binding) const {
    return ChooseDirection((*parts_)[0], binding).nodes[0];
  }

  bool MatchFrom(size_t part_idx, Binding& binding) {
    if (part_idx == parts_->size()) return sink_(binding);
    const PreparedPart& pp = (*parts_)[part_idx];
    const ResolvedPart& rp = ChooseDirection(pp, binding);
    return MatchChainFrom(rp, /*reversed=*/&rp == &pp.resolved_rev, part_idx,
                          binding);
  }

  static PatternPart Reverse(const PatternPart& part) {
    PatternPart rev;
    rev.nodes.assign(part.nodes.rbegin(), part.nodes.rend());
    rev.rels.assign(part.rels.rbegin(), part.rels.rend());
    return rev;
  }

  ResolvedPart Resolve(const PatternPart& part, const VarTable& vars) const {
    ResolvedPart rp;
    rp.nodes.reserve(part.nodes.size());
    rp.rels.reserve(part.rels.size());
    for (const NodePattern& n : part.nodes) {
      rp.nodes.push_back(ResolvePattern(graph_, vars, pushdown_, n));
    }
    for (const RelPattern& r : part.rels) {
      rp.rels.push_back(ResolvePattern(graph_, vars, pushdown_, r));
    }
    return rp;
  }

  /// The pushed-down filters of a just-bound node / edge variable. A
  /// string filter decides on the entity's cell of its property; an
  /// evaluation error reads as false.
  template <class Pattern>
  bool PassesFilters(const Resolved<Pattern>& r, uint64_t id,
                     const Binding& binding) const {
    if (r.filters == nullptr) return true;
    auto [bucket, pos] = Resolved<Pattern>::Locate(graph_, id);
    for (const PushedFilter& f : *r.filters) {
      if (f.strings.has_value()) {
        const storage::Column* col = Resolved<Pattern>::Slice(
            graph_, graph_.ShardOf(id), bucket, f.prop_id);
        if (f.strings->OnCell(col, pos) == f.negate) return false;
        continue;
      }
      auto v = eval_.Eval(*f.expr, binding);
      if (!v.ok() || !CypherEvaluator::Truthy(v.value())) return false;
    }
    return true;
  }

  /// Access-path selection for the chain's start node (BestSeedPath).
  /// Candidates still pass through ResolvedNode::Matches and the pushed
  /// filters at visit time, so the winning probe needs no re-filtering
  /// here, and single-value probes stay lazily iterated per-shard spans.
  SeedSet SelectSeeds(const ResolvedNode& rnode, const Binding& binding) {
    const NodePattern& pat = *rnode.pat;
    SeedSet seeds;
    seeds.access = pat.var + ":";
    if (NodeBound(binding, rnode)) {
      seeds.owned.push_back(BoundNode(binding, rnode));
      seeds.access += "bound";
      return seeds;
    }
    if (pat.label.empty()) {
      seeds.full_scan = true;
      seeds.access += "scan";
      return seeds;
    }
    auto best = BestSeedPath(pat, rnode.filters, graph_, [&] {
      return (options_.cancel != nullptr &&
              options_.cancel->load(std::memory_order_relaxed)) ||
             deadline_.Expired();
    });
    if (!best.has_value()) return seeds;  // interrupted: no seeds
    if (best->count == static_cast<size_t>(-1)) {
      for (size_t s = 0; s < graph_.shard_count(); ++s) {
        seeds.spans.push_back(&graph_.NodesWithLabel(pat.label, s));
      }
      seeds.access += "label";
      return seeds;
    }
    seeds.access += best->is_seek ? "dict(" + std::string(best->prop) + "," +
                                        std::to_string(best->seek.size()) + ")"
                                  : "index(" + std::string(best->prop) + ")";
    if (best->eq != nullptr) {
      for (size_t s = 0; s < graph_.shard_count(); ++s) {
        seeds.spans.push_back(
            &graph_.ProbeNodes(pat.label, best->prop, *best->eq, s));
      }
    } else {
      for (const Value& v : best->is_seek ? best->seek : *best->multi) {
        for (size_t s = 0; s < graph_.shard_count(); ++s) {
          for (NodeId id : graph_.ProbeNodes(pat.label, best->prop, v, s)) {
            seeds.owned.push_back(id);
          }
        }
      }
      std::sort(seeds.owned.begin(), seeds.owned.end());
      seeds.owned.erase(std::unique(seeds.owned.begin(), seeds.owned.end()),
                        seeds.owned.end());
    }
    return seeds;
  }

  bool MatchChainFrom(const ResolvedPart& rp, bool reversed, size_t part_idx,
                      Binding& binding) {
    const ResolvedNode& rseed = rp.nodes[0];
    SeedSet local_seeds;
    // Part 0 of a parallel worker reuses the driver's precomputed seed set
    // (same direction choice on the empty binding) instead of re-deriving
    // — in particular re-materializing a multi-value probe union.
    const SeedSet* shared =
        part_idx == 0 && shared_top_seeds_ != nullptr ? shared_top_seeds_
                                                      : nullptr;
    if (shared == nullptr) local_seeds = SelectSeeds(rseed, binding);
    const SeedSet& seeds = shared != nullptr ? *shared : local_seeds;
    // Bind/unbind the seed variable in place: Extend() restores the binding
    // on backtrack, so the whole search threads one binding with no copies.
    bool bindable = !rseed.pat->var.empty() && !NodeBound(binding, rseed);
    bool keep_going = true;
    // Incremental standing hunts restrict part-0 seeds to the caller's
    // dirty-node set; deeper parts always see the whole graph.
    const std::unordered_set<NodeId>* seed_filter =
        part_idx == 0 ? options_.top_seed_filter : nullptr;
    auto visit = [&](NodeId seed) {
      if (seed_filter != nullptr && seed_filter->count(seed) == 0) return true;
      if (stats_ != nullptr) ++stats_->seed_candidates;
      if (!rseed.Matches(seed, graph_)) return true;
      if (bindable) {
        binding.nodes[rseed.var_slot] = seed;
        if (!PassesFilters(rseed, seed, binding)) return true;
      }
      return Extend(rp, reversed, part_idx, 0, seed, binding);
    };
    // A morsel only walks its slice of one shard's top-level seeds; deeper
    // parts (and the serial matcher) walk every shard in order. The shared
    // LIMIT budget is also polled here, so a morsel that yields no matches
    // stops scanning as soon as its siblings fill the limit instead of
    // draining its seeds for nothing. A cancellation
    // flag (HuntService tickets) is polled at the same points, at every
    // part level, so cancelled queries stop at seed granularity.
    bool top = part_idx == 0;
    int only_shard = top ? seed_shard_ : -1;
    auto budget_spent = [&] {
      if (options_.cancel != nullptr &&
          options_.cancel->load(std::memory_order_relaxed)) {
        return true;
      }
      if (deadline_.Expired()) return true;
      return top && shared_claimed_ != nullptr &&
             shared_claimed_->load(std::memory_order_relaxed) >= shared_cap_;
    };
    if (seeds.full_scan) {
      // The start/stride walk relies on storage::ShardLayout's documented
      // round-robin low-bits assignment (dense ids, power-of-two shard
      // count); a layout change must update it alongside ShardOf. A
      // restricted walk iterates the shard's k-th seed (id = shard +
      // k * stride), so a morsel's [lo, hi) positions map directly.
      if (only_shard >= 0) {
        NodeId stride = graph_.shard_count();
        for (size_t k = morsel_lo_; k < morsel_hi_ && keep_going; ++k) {
          NodeId id = static_cast<NodeId>(only_shard) + k * stride;
          if (id >= graph_.node_count()) break;
          keep_going = !budget_spent() && visit(id);
        }
      } else {
        for (NodeId id = 0; id < graph_.node_count() && keep_going; ++id) {
          keep_going = !budget_spent() && visit(id);
        }
      }
    } else if (!seeds.spans.empty()) {
      for (size_t s = 0; s < seeds.spans.size() && keep_going; ++s) {
        if (only_shard >= 0 && s != static_cast<size_t>(only_shard)) continue;
        const std::vector<NodeId>& span = *seeds.spans[s];
        size_t begin = 0, end = span.size();
        if (only_shard >= 0) {
          begin = std::min(morsel_lo_, end);
          end = std::min(morsel_hi_, end);
        }
        for (size_t i = begin; i < end; ++i) {
          keep_going = !budget_spent() && visit(span[i]);
          if (!keep_going) break;
        }
      }
    } else if (only_shard >= 0) {
      // Plan-time per-shard sub-list (SeedSet::SplitOwnedByShard): this
      // worker's seeds only, no skip-scan over the shared union. An empty
      // union carves no morsels, so the split always exists here.
      const std::vector<NodeId>& list = seeds.owned_by_shard[only_shard];
      size_t begin = std::min(morsel_lo_, list.size());
      size_t end = std::min(morsel_hi_, list.size());
      for (size_t i = begin; i < end; ++i) {
        keep_going = !budget_spent() && visit(list[i]);
        if (!keep_going) break;
      }
    } else {
      for (NodeId id : seeds.owned) {
        keep_going = !budget_spent() && visit(id);
        if (!keep_going) break;
      }
    }
    if (bindable) binding.nodes[rseed.var_slot] = kInvalidNode;
    return keep_going;
  }

  /// Edges to expand from `node` for relationship `rrel`: the per-type
  /// adjacency group when the pattern is typed (touching only matching
  /// edges), the full list otherwise.
  const std::vector<EdgeId>& ExpansionEdges(NodeId node, bool reversed,
                                            const ResolvedRel& rrel) const {
    if (rrel.has_bucket) {
      return reversed ? graph_.InEdges(node, rrel.bucket_id)
                      : graph_.OutEdges(node, rrel.bucket_id);
    }
    return reversed ? graph_.InEdges(node) : graph_.OutEdges(node);
  }

  /// We are standing at `node`, having matched rp.nodes[idx]; match
  /// rp.rels[idx] and continue — into the next pattern part (and finally
  /// the sink) once this chain is exhausted.
  bool Extend(const ResolvedPart& rp, bool reversed, size_t part_idx,
              size_t idx, NodeId node, Binding& binding) {
    if (idx == rp.rels.size()) return MatchFrom(part_idx + 1, binding);
    const ResolvedRel& rrel = rp.rels[idx];
    const RelPattern& rel = *rrel.pat;
    const ResolvedNode& next_rnode = rp.nodes[idx + 1];

    if (!rel.varlen) {
      for (EdgeId eid : ExpansionEdges(node, reversed, rrel)) {
        if (stats_ != nullptr) ++stats_->edges_traversed;
        const Edge& e = graph_.edge(eid);
        if (!rrel.Matches(eid, graph_)) continue;
        if (Contains(binding.used_edges, eid)) continue;
        if (!rel.var.empty() && EdgeBound(binding, rrel) &&
            BoundEdge(binding, rrel) != eid) {
          continue;
        }
        NodeId next = reversed ? e.src : e.dst;
        if (!AdmitNode(next, next_rnode, binding)) continue;

        // Bind, check pushed-down filters, recurse, unbind.
        bool node_was_new = BindNode(next_rnode, next, binding);
        bool edge_was_new = false;
        if (!rel.var.empty() && !EdgeBound(binding, rrel)) {
          binding.edges[rrel.var_slot] = eid;
          edge_was_new = true;
        }
        binding.used_edges.push_back(eid);
        bool pass =
            (!node_was_new || PassesFilters(next_rnode, next, binding)) &&
            (!edge_was_new || PassesFilters(rrel, eid, binding));
        bool keep_going = true;
        if (pass) {
          keep_going = Extend(rp, reversed, part_idx, idx + 1, next, binding);
        }
        binding.used_edges.pop_back();
        if (edge_was_new) binding.edges[rrel.var_slot] = kInvalidEdge;
        if (node_was_new) binding.nodes[next_rnode.var_slot] = kInvalidNode;
        if (!keep_going) return false;
      }
      return true;
    }

    // Variable-length expansion: bounded DFS. Type/prop constraints apply to
    // every hop (Neo4j semantics); the endpoint must match next_rnode.
    int max_len =
        rel.max_len >= 0 ? rel.max_len : options_.unbounded_varlen_cap;
    int min_len = std::max(0, rel.min_len);
    return VarlenDfs(rp, reversed, part_idx, idx, min_len, max_len, node,
                     /*depth=*/0, binding);
  }

  /// One level of the bounded variable-length DFS (a plain recursive member
  /// instead of a per-call std::function: seed loops over large graphs call
  /// this tens of thousands of times).
  bool VarlenDfs(const ResolvedPart& rp, bool reversed, size_t part_idx,
                 size_t idx, int min_len, int max_len, NodeId cur, int depth,
                 Binding& binding) {
    const ResolvedRel& rrel = rp.rels[idx];
    const ResolvedNode& next_rnode = rp.nodes[idx + 1];
    if (depth >= min_len && AdmitNode(cur, next_rnode, binding) &&
        // A zero-length path may only close when start==end is allowed.
        (depth > 0 || min_len == 0)) {
      bool node_was_new = BindNode(next_rnode, cur, binding);
      bool keep_going = true;
      if (!node_was_new || PassesFilters(next_rnode, cur, binding)) {
        keep_going = Extend(rp, reversed, part_idx, idx + 1, cur, binding);
      }
      if (node_was_new) binding.nodes[next_rnode.var_slot] = kInvalidNode;
      if (!keep_going) return false;
    }
    if (depth == max_len) return true;
    for (EdgeId eid : ExpansionEdges(cur, reversed, rrel)) {
      if (stats_ != nullptr) ++stats_->edges_traversed;
      const Edge& e = graph_.edge(eid);
      if (!rrel.Matches(eid, graph_)) continue;
      if (Contains(binding.used_edges, eid)) continue;
      binding.used_edges.push_back(eid);
      bool keep_going = VarlenDfs(rp, reversed, part_idx, idx, min_len,
                                  max_len, reversed ? e.src : e.dst,
                                  depth + 1, binding);
      binding.used_edges.pop_back();
      if (!keep_going) return false;
    }
    return true;
  }

  bool AdmitNode(NodeId id, const ResolvedNode& rnode,
                 const Binding& binding) const {
    if (!rnode.Matches(id, graph_)) return false;
    if (NodeBound(binding, rnode) && BoundNode(binding, rnode) != id) {
      return false;
    }
    return true;
  }

  /// Returns true if this call introduced the binding (caller must unbind).
  bool BindNode(const ResolvedNode& rnode, NodeId id,
                Binding& binding) const {
    if (rnode.pat->var.empty()) return false;
    if (NodeBound(binding, rnode)) return false;
    binding.nodes[rnode.var_slot] = id;
    return true;
  }

  const PropertyGraph& graph_;
  const MatchOptions& options_;
  const PushdownFilters& pushdown_;
  const CypherEvaluator& eval_;
  MatchStats* stats_;
  RowSink& sink_;
  std::vector<PreparedPart> own_parts_;
  // Either &own_parts_ (after PrepareParts) or a sharing matcher's parts
  // (SharePreparedParts); immutable once matching starts.
  const std::vector<PreparedPart>* parts_ = &own_parts_;
  int seed_shard_ = -1;  // -1: walk every shard (serial matcher)
  // Morsel sub-range of the restricted shard's seed list (positions, not
  // ids).
  size_t morsel_lo_ = 0;
  size_t morsel_hi_ = static_cast<size_t>(-1);
  const SeedSet* shared_top_seeds_ = nullptr;  // driver-owned part-0 seeds
  const std::atomic<size_t>* shared_claimed_ = nullptr;
  size_t shared_cap_ = 0;
  DeadlinePoller deadline_;  // polled with the cancel flag / LIMIT budget
};

/// Split WHERE into single-variable conjuncts, compiled and pushed into
/// matching, and residual conjuncts (appended to `residual`, evaluated on
/// complete bindings).
PushdownFilters SplitWhere(const CypherQuery& query,
                           const PropertyGraph& graph,
                           std::vector<const CypherExpr*>* residual) {
  std::vector<const CypherExpr*> conjuncts;
  SplitConjuncts(query.where.get(), &conjuncts);
  PushdownFilters pushdown;
  for (const CypherExpr* c : conjuncts) {
    std::unordered_set<std::string> cvars;
    CollectVars(*c, &cvars);
    if (cvars.size() == 1) {
      pushdown[*cvars.begin()].push_back(CompilePushedFilter(*c, graph));
    } else {
      residual->push_back(c);
    }
  }
  return pushdown;
}

/// Morsel-driven work-stealing execution: each shard's top-level seed list
/// is carved into fixed-size morsels (MatchOptions::morsel_size seed
/// positions) laid out shard-major on per-worker work-stealing deques
/// (common/thread_pool.h WorkStealingQueues). A worker pops its own deque
/// front-first and steals one morsel from the back of a victim when it
/// drains, so a skewed shard's seeds spread over the whole fleet. Each
/// morsel streams into its own sink/result; the merge walks morsels in
/// carve order, so the result is independent of which worker ran which
/// morsel.
Status RunMorselParallel(const CypherQuery& query, const PropertyGraph& graph,
                         const MatchOptions& options, MatchStats* stats,
                         const VarTable& vars, const PushdownFilters& pushdown,
                         const std::vector<const CypherExpr*>& residual,
                         const Matcher& prepared,
                         const SeedSet& top_seeds, GraphBlockResult* result) {
  size_t n_shards = graph.shard_count();
  // Per-shard seed-list lengths under the same iteration scheme
  // MatchChainFrom uses (full-scan positions, span offsets, or the
  // pre-split owned sub-lists).
  std::vector<size_t> counts(n_shards, 0);
  for (size_t s = 0; s < n_shards; ++s) {
    if (top_seeds.full_scan) {
      counts[s] = storage::StrideCount(graph.node_count(), s, n_shards);
    } else if (!top_seeds.spans.empty()) {
      counts[s] = top_seeds.spans[s]->size();
    } else if (!top_seeds.owned_by_shard.empty()) {
      counts[s] = top_seeds.owned_by_shard[s].size();
    }
  }

  std::vector<storage::Morsel> morsels =
      storage::CarveMorsels(counts, options.morsel_size);
  if (morsels.empty()) return Status::OK();
  std::vector<storage::MorselRun> runs(morsels.size());
  storage::ShardRowBudget budget(query.distinct, query.limit);

  size_t workers = std::min<size_t>(
      static_cast<size_t>(options.parallel_shards), morsels.size());
  WorkStealingQueues queues(morsels.size(), workers);
  std::vector<MatchStats> worker_stats(workers);

  ThreadPool::Shared().ParallelFor(workers, workers, [&](size_t w) {
    auto scan_start = obs::TraceSpan::Clock::now();
    MatchStats* ws = &worker_stats[w];
    // Per-worker evaluator (mutable IN-list / slot caches); per-morsel
    // sink + matcher so every morsel owns its rows and error status.
    CypherEvaluator eval(graph, vars);
    bool stolen = false;
    for (size_t m = queues.Next(w, &stolen); m != WorkStealingQueues::kDone;
         m = queues.Next(w, &stolen)) {
      ++ws->morsels_executed;
      if (stolen) ++ws->morsels_stolen;
      storage::MorselRun& run = runs[m];
      RowSink sink(query, eval, residual, query.distinct,
                   /*partition_distinct=*/query.distinct, budget.local_cap,
                   budget.shared_claimed(), budget.shared_cap, ws, &run.rs);
      Matcher matcher(graph, options, pushdown, eval, ws, sink);
      matcher.SharePreparedParts(prepared);
      matcher.SetTopSeeds(&top_seeds);
      matcher.RestrictTopSeedsToMorsel(static_cast<int>(morsels[m].shard),
                                       morsels[m].lo, morsels[m].hi);
      if (budget.shared) {
        matcher.SetSharedRowBudget(&budget.claimed, budget.shared_cap);
      }
      Binding binding(vars);
      matcher.Run(binding);
      run.error = sink.error();
      if (!run.error.ok()) break;  // merge surfaces it; stop this worker
    }
    if (options.trace != nullptr) {
      obs::TraceSpan* span =
          options.trace->AddChild("morsel_worker[" + std::to_string(w) + "]");
      span->SetWindow(scan_start, obs::TraceSpan::Clock::now());
      span->Set("seeds_visited", static_cast<int64_t>(ws->seed_candidates));
      span->Set("edges_traversed",
                static_cast<int64_t>(ws->edges_traversed));
      span->Set("rows_emitted", static_cast<int64_t>(ws->rows_emitted));
      span->Set("morsels_executed",
                static_cast<int64_t>(ws->morsels_executed));
      span->Set("morsels_stolen", static_cast<int64_t>(ws->morsels_stolen));
    }
  });

  for (const MatchStats& ws : worker_stats) {
    if (stats == nullptr) break;
    stats->seed_candidates += ws.seed_candidates;
    stats->edges_traversed += ws.edges_traversed;
    stats->bindings_emitted += ws.bindings_emitted;
    stats->rows_emitted += ws.rows_emitted;
    stats->morsels_executed += ws.morsels_executed;
    stats->morsels_stolen += ws.morsels_stolen;
  }
  return storage::MergeShardRuns(runs, query.distinct, &result->rows);
}

Result<GraphBlockResult> RunPipeline(
    const CypherQuery& query, const PropertyGraph& graph,
    const MatchOptions& options, MatchStats* stats, const VarTable& vars,
    const PushdownFilters& pushdown,
    const std::vector<const CypherExpr*>& residual,
    const CypherEvaluator& eval) {
  GraphBlockResult result;
  for (const CypherReturnItem& item : query.items) {
    result.columns.push_back(item.alias.empty() ? item.expr->ToString()
                                                : item.alias);
  }

  // LIMIT stops the search once enough (post-DISTINCT) rows exist.
  bool limited = query.limit >= 0;
  size_t local_cap =
      limited ? static_cast<size_t>(query.limit) : static_cast<size_t>(-1);

  MatchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  const MatchStats before = *stats;
  storage::WorkerRows serial_rs;
  RowSink sink(query, eval, residual, query.distinct,
               /*partition_distinct=*/false, local_cap,
               /*shared_claimed=*/nullptr, /*shared_cap=*/0, stats,
               &serial_rs);
  Matcher matcher(graph, options, pushdown, eval, stats, sink);
  // Structural validation always runs, so LIMIT 0 reports the same
  // malformed-pattern errors as any other query; only the search itself
  // is skipped (runtime evaluation errors are suppressed past a satisfied
  // limit, and 0 is satisfied up front).
  RAPTOR_RETURN_NOT_OK(matcher.PrepareParts(query.patterns, vars));
  // The plan span: the top-level seed access path, and the seed visits
  // and dictionary strings the whole search spent.
  obs::ScopedSpan plan_span(options.trace, "plan");
  if (query.limit != 0 && !query.patterns.empty()) {
    Binding binding(vars);
    // The top-level seed set is materialized once here and shared by the
    // serial matcher or every morsel worker. Fan out over morsels only
    // when it can pay off: a sharded graph, more than one worker allowed,
    // no small LIMIT (the serial early-exit path finishes those in a
    // handful of seed visits), and a seed set big enough to amortize
    // dispatch.
    SeedSet top_seeds = matcher.PlanTopSeeds(binding);
    obs::Note(plan_span.get(), "seed", top_seeds.access);
    obs::Finish(plan_span.get());
    bool parallel =
        options.parallel_shards > 1 && graph.shard_count() > 1 &&
        !(limited &&
          query.limit < static_cast<long long>(options.parallel_min_limit)) &&
        top_seeds.SeedCount(graph) >=
            static_cast<size_t>(std::max(0, options.parallel_min_seeds));
    if (parallel) {
      // Pre-split any materialized seed union (multi-value probes, bound
      // vars) into per-shard sub-lists so workers skip the skip-scan.
      top_seeds.SplitOwnedByShard(graph);
      RAPTOR_RETURN_NOT_OK(RunMorselParallel(query, graph, options, stats,
                                             vars, pushdown, residual, matcher,
                                             top_seeds, &result));
    } else {
      matcher.SetTopSeeds(&top_seeds);
      matcher.Run(binding);
      RAPTOR_RETURN_NOT_OK(sink.error());
      result.rows.Adopt(std::move(serial_rs.rows));
    }
  }
  if (plan_span.get() != nullptr) {
    size_t checked = 0;
    for (const auto& [var, filters] : pushdown) {
      for (const PushedFilter& f : filters) {
        if (f.strings.has_value()) checked += f.strings->strings_checked();
      }
    }
    plan_span.get()->Set("seed_candidates",
                         static_cast<int64_t>(stats->seed_candidates -
                                              before.seed_candidates));
    plan_span.get()->Set("dict_strings_checked",
                         static_cast<int64_t>(checked));
  }
  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("cypher query cancelled");
  }
  if (DeadlinePoller(options.deadline).ExpiredNow()) {
    return Status::Timeout("cypher query deadline exceeded");
  }
  // Parallel DISTINCT workers each cap at the limit, so the merge can hold
  // more rows than it (storage/shard_parallel.h).
  if (limited && result.rows.row_count() > static_cast<size_t>(query.limit)) {
    result.rows.Truncate(static_cast<size_t>(query.limit));
  }
  return result;
}

}  // namespace

std::string GraphResultSet::ToString(size_t max_rows) const {
  std::string out = Join(columns, " | ") + "\n";
  size_t n = std::min(max_rows, rows.size());
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string> cells;
    cells.reserve(rows[i].size());
    for (const Value& v : rows[i]) cells.push_back(v.ToString());
    out += Join(cells, " | ") + "\n";
  }
  if (rows.size() > n) {
    out += StrFormat("... (%zu more rows)\n", rows.size() - n);
  }
  return out;
}

Result<GraphBlockResult> ExecuteCypherBlocks(const CypherQuery& query,
                                             const PropertyGraph& graph,
                                             const MatchOptions& options,
                                             MatchStats* stats) {
  // Intern every pattern variable into a dense slot up front; the frame
  // binding and the evaluator resolve variables through this table.
  VarTable vars;
  std::unordered_set<std::string> varlen_vars;
  for (const PatternPart& part : query.patterns) {
    for (const NodePattern& n : part.nodes) {
      if (!n.var.empty()) vars.nodes.Intern(n.var);
    }
    for (const RelPattern& r : part.rels) {
      if (!r.var.empty()) vars.edges.Intern(r.var);
      if (!r.var.empty() && r.varlen) varlen_vars.insert(r.var);
    }
  }
  // A variable-length relationship binds no single edge, so a WHERE
  // condition on its variable has nothing to test: refuse it rather than
  // drop it.
  if (query.where != nullptr && !varlen_vars.empty()) {
    std::unordered_set<std::string> where_vars;
    CollectVars(*query.where, &where_vars);
    for (const std::string& v : where_vars) {
      if (varlen_vars.count(v) != 0) {
        return Status::InvalidArgument(
            "WHERE references variable-length relationship '" + v +
            "', which binds no single edge");
      }
    }
  }

  CypherEvaluator eval(graph, vars);

  std::vector<const CypherExpr*> residual;
  PushdownFilters pushdown = SplitWhere(query, graph, &residual);
  return RunPipeline(query, graph, options, stats, vars, pushdown, residual,
                     eval);
}

Result<GraphResultSet> ExecuteCypher(const CypherQuery& query,
                                     const PropertyGraph& graph,
                                     const MatchOptions& options,
                                     MatchStats* stats) {
  auto blocks = ExecuteCypherBlocks(query, graph, options, stats);
  if (!blocks.ok()) return blocks.status();
  GraphResultSet result;
  result.columns = std::move(blocks.value().columns);
  result.rows = blocks.value().rows.Flatten();
  return result;
}

Result<GraphResultSet> GraphDatabase::Query(std::string_view cypher,
                                            MatchStats* stats) const {
  auto query = ParseCypher(cypher);
  if (!query.ok()) return query.status();
  return ExecuteCypher(query.value(), graph_, options_, stats);
}

Result<GraphResultSet> GraphDatabase::Execute(const CypherQuery& query,
                                              MatchStats* stats) const {
  return ExecuteCypher(query, graph_, options_, stats);
}

Result<GraphBlockResult> GraphDatabase::QueryBlocks(std::string_view cypher,
                                                    MatchStats* stats) const {
  return QueryBlocks(cypher, options_, stats);
}

namespace {

/// Cache key for a memoized execution: the query text plus every option
/// that can change the result rows or their order (parallel merge order
/// depends on morsel geometry and the serial/morsel choice, varlen
/// expansion on the cap). Cancel, deadline, and the cache pointer itself
/// are deliberately excluded — they never change a successful result.
std::string SubresultCacheKey(std::string_view cypher,
                              const MatchOptions& o) {
  std::string key(cypher);
  key += '\x1f';
  key += std::to_string(o.unbounded_varlen_cap) + ',' +
         std::to_string(o.morsel_size) + ',' +
         std::to_string(o.parallel_shards) + ',' +
         std::to_string(o.parallel_min_seeds) + ',' +
         std::to_string(o.parallel_min_limit);
  return key;
}

}  // namespace

Result<GraphBlockResult> GraphDatabase::QueryBlocks(
    std::string_view cypher, const MatchOptions& options,
    MatchStats* stats) const {
  auto query = ParseCypher(cypher);
  if (!query.ok()) return query.status();
  // Shared-subresult hook (multi-query optimization): memoize full-scan
  // executions only. Seed-filtered (incremental) runs would poison the
  // cache with partial results, and parallel LIMIT row-claiming races the
  // shared budget, so both bypass it.
  if (options.result_cache != nullptr && options.top_seed_filter == nullptr &&
      query.value().limit < 0) {
    std::string key = SubresultCacheKey(cypher, options);
    if (auto cached = options.result_cache->Lookup(key)) {
      obs::Add(options.trace, "subresult_cache_hits", 1);
      return *cached;
    }
    obs::Add(options.trace, "subresult_cache_misses", 1);
    auto result = ExecuteCypherBlocks(query.value(), graph_, options, stats);
    if (result.ok()) {
      options.result_cache->Insert(
          key, std::make_shared<const GraphBlockResult>(result.value()));
    }
    return result;
  }
  return ExecuteCypherBlocks(query.value(), graph_, options, stats);
}

namespace {

/// Seed-cardinality estimate for `pat` as a chain start: the count of
/// the access path SelectSeeds would take (BestSeedPath), the label bucket
/// when nothing beats it, the whole graph when unlabeled.
double EstimateSeedCount(const NodePattern& pat, const PropertyGraph& graph,
                         const PushdownFilters& pushdown) {
  if (pat.label.empty()) return static_cast<double>(graph.node_count());
  auto best = BestSeedPath(pat, FiltersOf(pushdown, pat.var), graph,
                           [] { return false; });
  if (best->count != static_cast<size_t>(-1)) {
    return static_cast<double>(best->count);
  }
  return static_cast<double>(graph.LabelCount(pat.label));
}

}  // namespace

double EstimateCypherCost(const CypherQuery& query, const PropertyGraph& graph,
                          const MatchOptions& options) {
  // The same pushdown split ExecuteCypherBlocks performs before matching.
  std::vector<const CypherExpr*> residual;
  PushdownFilters pushdown = SplitWhere(query, graph, &residual);

  double total = 0.0;
  for (const PatternPart& part : query.patterns) {
    if (part.nodes.empty()) continue;
    double radius = 0.0;
    for (const RelPattern& r : part.rels) {
      int hops = 1;
      if (r.varlen) {
        hops = r.max_len < 0 ? options.unbounded_varlen_cap : r.max_len;
      }
      radius += static_cast<double>(std::max(hops, 1));
    }
    // The matcher seeds from whichever chain end is cheaper (ChooseDirection
    // re-resolves per binding; on the empty binding it is this static rank).
    double fwd = EstimateSeedCount(part.nodes.front(), graph, pushdown);
    double rev = EstimateSeedCount(part.nodes.back(), graph, pushdown);
    total += std::min(fwd, rev) * (1.0 + radius);
  }
  return total;
}

double GraphDatabase::EstimateCost(std::string_view cypher) const {
  auto query = ParseCypher(cypher);
  if (!query.ok()) return 0.0;
  return EstimateCypherCost(query.value(), graph_, options_);
}

}  // namespace raptor::graphdb
