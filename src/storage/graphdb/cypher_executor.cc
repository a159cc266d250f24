#include "storage/graphdb/cypher_executor.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
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

/// One inline property constraint compiled against the frozen columnar
/// storage. The literal is resolved once (int value or dictionary id) and
/// each shard's (label/type × prop) column is classified into a scan mode,
/// so the per-candidate check is an integer compare against a column cell
/// instead of a PropertyMap probe + Value::Compare.
struct ColPred {
  enum class Mode : uint8_t {
    kRow,    // column can't represent the compare exactly; use the row path
    kNever,  // no cell of this shard's bucket can ever match the literal
    kInt,    // int column: cell present && cell == int_lit
    kDict,   // string column: cell dictionary id == dict_lit
  };
  struct PerShard {
    Mode mode = Mode::kRow;
    const storage::Column* col = nullptr;  // kInt / kDict only
  };

  const PropConstraint* pc = nullptr;  // row-path fallback source
  int64_t int_lit = 0;
  uint32_t dict_lit = storage::kNullDictId;
  SmallVector<PerShard, 4> shards;

  /// `pos` is the candidate's dense bucket offset (label_pos / type_pos).
  bool Matches(size_t shard, size_t pos, const Node* row_node,
               const Edge* row_edge) const {
    const PerShard& ps = shards[shard];
    switch (ps.mode) {
      case Mode::kNever:
        return false;
      case Mode::kInt: {
        int64_t v;
        return ps.col->IntAt(pos, &v) && v == int_lit;
      }
      case Mode::kDict:
        return ps.col->DictAt(pos) == dict_lit;
      case Mode::kRow: {
        const Value* v = row_node != nullptr ? row_node->FindProp(pc->key)
                                             : row_edge->FindProp(pc->key);
        return v != nullptr && v->Compare(pc->value) == 0;
      }
    }
    return false;
  }
};

/// Classify one constraint against one shard's column. The literal kinds
/// the columns represent exactly are int and text; doubles and NULLs keep
/// the row path (a double literal can numerically equal an int cell under
/// Value::Compare). A missing column means no row of the bucket carries
/// the property, and a kind mismatch (text literal vs int column and vice
/// versa) can never compare equal — both are kNever. A text literal absent
/// from the property's global dictionary (dict_lit == kNullDictId, which
/// doubles as the absent-cell sentinel) also matches nothing and must
/// never be id-compared against cells.
ColPred::PerShard ClassifyColumn(const storage::Column* col,
                                 const Value& lit, uint32_t dict_lit) {
  ColPred::PerShard ps;
  if (col == nullptr) {
    ps.mode = ColPred::Mode::kNever;
    return ps;
  }
  if (!col->usable() || (!lit.is_int() && !lit.is_text())) {
    ps.mode = ColPred::Mode::kRow;
    return ps;
  }
  if (col->kind() == storage::Column::Kind::kInt64) {
    ps.mode = lit.is_int() ? ColPred::Mode::kInt : ColPred::Mode::kNever;
  } else {  // kString
    ps.mode = lit.is_text() && dict_lit != storage::kNullDictId
                  ? ColPred::Mode::kDict
                  : ColPred::Mode::kNever;
  }
  ps.col = col;
  return ps;
}

/// A node pattern with its label resolved to the graph's interned id and
/// its variable to the query's slot, so candidate checks compare integers
/// instead of strings. When the label is known, inline property
/// constraints additionally compile to ColPreds over the frozen
/// per-(shard × label) columns; unlabeled patterns probe the PropertyMap.
struct ResolvedNode {
  const NodePattern* pat = nullptr;
  bool has_label = false;
  bool columnar = false;          // col_preds cover every constraint
  uint32_t label_id = kNoSymbol;  // kNoSymbol: label absent, matches nothing
  uint32_t var_slot = kNoSymbol;  // kNoSymbol: anonymous node
  std::vector<ColPred> col_preds;

  bool Matches(const Node& node, const PropertyGraph& graph) const {
    if (has_label && node.label_id != label_id) return false;
    if (columnar) {
      size_t shard = graph.ShardOf(node.id);
      for (const ColPred& cp : col_preds) {
        if (!cp.Matches(shard, node.label_pos, &node, nullptr)) return false;
      }
      return true;
    }
    for (const PropConstraint& pc : pat->props) {
      const Value* v = node.FindProp(pc.key);
      if (v == nullptr || v->Compare(pc.value) != 0) return false;
    }
    return true;
  }
};

/// A relationship pattern with its type resolved to the interned id; typed
/// expansion uses the id to select the per-type adjacency group directly.
/// Inline property constraints compile to ColPreds over the per-(shard ×
/// edge type) columns when the type is known.
struct ResolvedRel {
  const RelPattern* pat = nullptr;
  bool has_type = false;
  bool columnar = false;
  uint32_t type_id = kNoSymbol;
  uint32_t var_slot = kNoSymbol;
  std::vector<ColPred> col_preds;

  bool Matches(const Edge& edge, const PropertyGraph& graph) const {
    if (has_type && edge.type_id != type_id) return false;
    if (columnar) {
      size_t shard = graph.ShardOf(edge.id);
      for (const ColPred& cp : col_preds) {
        if (!cp.Matches(shard, edge.type_pos, nullptr, &edge)) return false;
      }
      return true;
    }
    for (const PropConstraint& pc : pat->props) {
      const Value* v = edge.FindProp(pc.key);
      if (v == nullptr || v->Compare(pc.value) != 0) return false;
    }
    return true;
  }
};

ColPred CompileColPred(const PropertyGraph& graph, const PropConstraint& pc,
                       bool node_side, uint32_t bucket_id) {
  ColPred cp;
  cp.pc = &pc;
  uint32_t prop_id = graph.LookupPropName(pc.key);
  if (pc.value.is_int()) cp.int_lit = pc.value.AsInt();
  if (pc.value.is_text()) {
    cp.dict_lit = graph.LookupPropDict(prop_id, pc.value.AsText());
  }
  for (size_t s = 0; s < graph.shard_count(); ++s) {
    const storage::Column* col = node_side
                                     ? graph.NodeColumn(s, bucket_id, prop_id)
                                     : graph.EdgeColumn(s, bucket_id, prop_id);
    cp.shards.push_back(ClassifyColumn(col, pc.value, cp.dict_lit));
  }
  return cp;
}

ResolvedNode ResolveNode(const PropertyGraph& graph, const VarTable& vars,
                         const NodePattern& pat) {
  ResolvedNode r;
  r.pat = &pat;
  if (!pat.label.empty()) {
    r.has_label = true;
    r.label_id = graph.LookupLabel(pat.label);
  }
  if (!pat.var.empty()) r.var_slot = vars.nodes.Lookup(pat.var);
  // Columnar constraints need a known label (the column buckets are per
  // label); an unknown label matches nothing regardless.
  if (r.has_label && r.label_id != kNoSymbol) {
    r.columnar = true;
    r.col_preds.reserve(pat.props.size());
    for (const PropConstraint& pc : pat.props) {
      r.col_preds.push_back(
          CompileColPred(graph, pc, /*node_side=*/true, r.label_id));
    }
  }
  return r;
}

ResolvedRel ResolveRel(const PropertyGraph& graph, const VarTable& vars,
                       const RelPattern& pat) {
  ResolvedRel r;
  r.pat = &pat;
  if (!pat.type.empty()) {
    r.has_type = true;
    r.type_id = graph.LookupEdgeType(pat.type);
  }
  if (!pat.var.empty()) r.var_slot = vars.edges.Lookup(pat.var);
  if (r.has_type && r.type_id != kNoSymbol) {
    r.columnar = true;
    r.col_preds.reserve(pat.props.size());
    for (const PropConstraint& pc : pat.props) {
      r.col_preds.push_back(
          CompileColPred(graph, pc, /*node_side=*/false, r.type_id));
    }
  }
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
        if (LookupNodeVar(b, e, &nid)) {
          const Node& node = graph_.node(nid);
          return ColumnarProp(
              e, graph_.NodeColumn(graph_.ShardOf(nid), node.label_id,
                                   SlotsFor(e).prop_id),
              node.label_pos, [&] { return node.FindProp(e.prop); });
        }
        EdgeId eid;
        if (LookupEdgeVar(b, e, &eid)) {
          const Edge& edge = graph_.edge(eid);
          return ColumnarProp(
              e, graph_.EdgeColumn(graph_.ShardOf(eid), edge.type_id,
                                   SlotsFor(e).prop_id),
              edge.type_pos, [&] { return edge.FindProp(e.prop); });
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

  /// Property read through a frozen column: a missing column means no
  /// entity of the bucket carries the property (NULL), and absent cells
  /// are NULL; a demoted (kMixed) column defers to `row_prop` so doubles
  /// and null-valued properties keep exact row semantics.
  template <class RowProp>
  Result<Value> ColumnarProp(const CypherExpr& e, const storage::Column* col,
                             size_t pos, RowProp&& row_prop) const {
    if (col == nullptr) return Value::Null();
    if (col->kind() == storage::Column::Kind::kInt64) {
      int64_t v;
      return col->IntAt(pos, &v) ? Value(v) : Value::Null();
    }
    if (col->kind() == storage::Column::Kind::kString) {
      uint32_t d = col->DictAt(pos);
      if (d == storage::kNullDictId) return Value::Null();
      return Value(std::string(graph_.PropDictName(SlotsFor(e).prop_id, d)));
    }
    const Value* v = row_prop();
    return v != nullptr ? *v : Value::Null();
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

/// Single-variable WHERE conjuncts, applied as soon as their variable binds
/// (the predicate pushdown real graph databases perform; without it a
/// multi-pattern MATCH would enumerate the full cross product first).
using PushdownFilters =
    std::unordered_map<std::string, std::vector<const CypherExpr*>>;

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
      rp.nodes.push_back(ResolveNode(graph_, vars, n));
    }
    for (const RelPattern& r : part.rels) {
      rp.rels.push_back(ResolveRel(graph_, vars, r));
    }
    return rp;
  }

  /// Evaluate the pushed-down filters of `var` on the binding.
  bool PassesFilters(const std::string& var, const Binding& binding) const {
    if (var.empty()) return true;
    auto it = pushdown_.find(var);
    if (it == pushdown_.end()) return true;
    for (const CypherExpr* f : it->second) {
      auto v = eval_.Eval(*f, binding);
      if (!v.ok() || !CypherEvaluator::Truthy(v.value())) return false;
    }
    return true;
  }

  /// Access-path selection for the chain's start node. Competing index
  /// probes (inline properties and indexed WHERE equality / IN filters) are
  /// ranked by exact per-value cardinality (summed over every storage
  /// shard, so the ranking stays exact on sharded graphs) and the cheapest
  /// wins. Candidates still
  /// pass through ResolvedNode::Matches at visit time, so the winning
  /// probe needs no re-filtering here, and single-value probes stay lazily
  /// iterated per-shard spans.
  SeedSet SelectSeeds(const ResolvedNode& rnode, const Binding& binding) {
    const NodePattern& pat = *rnode.pat;
    SeedSet seeds;
    if (NodeBound(binding, rnode)) {
      seeds.owned.push_back(BoundNode(binding, rnode));
      return seeds;
    }
    if (pat.label.empty()) {
      seeds.full_scan = true;
      return seeds;
    }

    // One probe-able access path: an indexed property plus the value(s) an
    // equality / IN constraint allows for it. Ranking uses ProbeCountNodes
    // (a per-shard bucket-size sum) without materializing anything; only
    // the winner's buckets become seed spans.
    struct Option {
      std::string_view prop;
      const Value* eq = nullptr;
      const std::vector<Value>* multi = nullptr;
      size_t count = 0;
    };
    SmallVector<Option, 4> options;
    for (const PropConstraint& pc : pat.props) {
      if (!graph_.HasNodeIndex(pat.label, pc.key)) continue;
      Option o;
      o.prop = pc.key;
      o.eq = &pc.value;
      o.count = graph_.ProbeCountNodes(pat.label, pc.key, pc.value);
      options.push_back(o);
    }
    // Index seek from WHERE predicates (Neo4j-style): an indexed equality /
    // IN filter on this variable beats a label scan.
    if (!pat.var.empty()) {
      auto fit = pushdown_.find(pat.var);
      if (fit != pushdown_.end()) {
        for (const CypherExpr* f : fit->second) {
          Option o;
          if (f->kind == CypherExprKind::kBinary &&
              f->op == CypherBinaryOp::kEq &&
              f->lhs->kind == CypherExprKind::kPropRef &&
              f->rhs->kind == CypherExprKind::kLiteral) {
            o.prop = f->lhs->prop;
            o.eq = &f->rhs->literal;
          } else if (f->kind == CypherExprKind::kInList && !f->negated &&
                     f->lhs->kind == CypherExprKind::kPropRef) {
            o.prop = f->lhs->prop;
            o.multi = &f->in_list;
          }
          if (o.prop.empty() || !graph_.HasNodeIndex(pat.label, o.prop)) {
            continue;
          }
          if (o.eq != nullptr) {
            o.count = graph_.ProbeCountNodes(pat.label, o.prop, *o.eq);
          } else {
            for (const Value& v : *o.multi) {
              o.count += graph_.ProbeCountNodes(pat.label, o.prop, v);
            }
          }
          options.push_back(o);
        }
      }
    }

    if (!options.empty()) {
      const Option* best = &options[0];
      for (const Option& o : options) {
        if (o.count < best->count) best = &o;
      }
      if (best->eq != nullptr) {
        for (size_t s = 0; s < graph_.shard_count(); ++s) {
          seeds.spans.push_back(
              &graph_.ProbeNodes(pat.label, best->prop, *best->eq, s));
        }
      } else {
        for (const Value& v : *best->multi) {
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
    for (size_t s = 0; s < graph_.shard_count(); ++s) {
      seeds.spans.push_back(&graph_.NodesWithLabel(pat.label, s));
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
      if (!rseed.Matches(graph_.node(seed), graph_)) return true;
      if (bindable) {
        binding.nodes[rseed.var_slot] = seed;
        if (!PassesFilters(rseed.pat->var, binding)) return true;
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
    if (rrel.has_type) {
      return reversed ? graph_.InEdges(node, rrel.type_id)
                      : graph_.OutEdges(node, rrel.type_id);
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
        if (!rrel.Matches(e, graph_)) continue;
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
            (!node_was_new || PassesFilters(next_rnode.pat->var, binding)) &&
            (!edge_was_new || PassesFilters(rel.var, binding));
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
      if (!node_was_new || PassesFilters(next_rnode.pat->var, binding)) {
        keep_going = Extend(rp, reversed, part_idx, idx + 1, cur, binding);
      }
      if (node_was_new) binding.nodes[next_rnode.var_slot] = kInvalidNode;
      if (!keep_going) return false;
    }
    if (depth == max_len) return true;
    for (EdgeId eid : ExpansionEdges(cur, reversed, rrel)) {
      if (stats_ != nullptr) ++stats_->edges_traversed;
      const Edge& e = graph_.edge(eid);
      if (!rrel.Matches(e, graph_)) continue;
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
    if (!rnode.Matches(graph_.node(id), graph_)) return false;
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
      // Seeds of shard s are ids s, s + n, s + 2n, ... below node_count.
      counts[s] = graph.node_count() > s
                      ? (graph.node_count() - 1 - s) / n_shards + 1
                      : 0;
    } else if (!top_seeds.spans.empty()) {
      counts[s] = top_seeds.spans[s]->size();
    } else if (!top_seeds.owned_by_shard.empty()) {
      counts[s] = top_seeds.owned_by_shard[s].size();
    }
  }

  struct Morsel {
    int shard;
    size_t lo, hi;
  };
  std::vector<Morsel> morsels;
  size_t morsel_size = static_cast<size_t>(std::max(1, options.morsel_size));
  for (size_t s = 0; s < n_shards; ++s) {
    for (size_t lo = 0; lo < counts[s]; lo += morsel_size) {
      morsels.push_back({static_cast<int>(s), lo,
                         std::min(lo + morsel_size, counts[s])});
    }
  }
  if (morsels.empty()) return Status::OK();

  struct MorselRun {
    storage::WorkerRows rs;
    Status error = Status::OK();
  };
  std::vector<MorselRun> runs(morsels.size());
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
      MorselRun& run = runs[m];
      RowSink sink(query, eval, residual, query.distinct,
                   /*partition_distinct=*/query.distinct, budget.local_cap,
                   budget.shared_claimed(), budget.shared_cap, ws, &run.rs);
      Matcher matcher(graph, options, pushdown, eval, ws, sink);
      matcher.SharePreparedParts(prepared);
      matcher.SetTopSeeds(&top_seeds);
      matcher.RestrictTopSeedsToMorsel(morsels[m].shard, morsels[m].lo,
                                       morsels[m].hi);
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
  if (query.limit != 0) {
    Binding binding(vars);
    // Fan out over morsels only when it can pay off: a sharded graph, more
    // than one worker allowed, no small LIMIT (the serial early-exit path
    // finishes those in a handful of seed visits), and a seed set big
    // enough to amortize dispatch. The set is materialized once here and
    // shared by every worker; when the threshold rejects it, the set was
    // by definition small and the serial matcher re-derives it cheaply.
    bool parallel =
        !query.patterns.empty() && options.parallel_shards > 1 &&
        graph.shard_count() > 1 &&
        !(limited &&
          query.limit < static_cast<long long>(options.parallel_min_limit));
    SeedSet top_seeds;
    if (parallel) {
      top_seeds = matcher.PlanTopSeeds(binding);
      parallel = top_seeds.SeedCount(graph) >=
                 static_cast<size_t>(std::max(0, options.parallel_min_seeds));
    }
    if (parallel) {
      // Pre-split any materialized seed union (multi-value probes, bound
      // vars) into per-shard sub-lists so workers skip the skip-scan.
      top_seeds.SplitOwnedByShard(graph);
      RAPTOR_RETURN_NOT_OK(RunMorselParallel(query, graph, options, stats,
                                             vars, pushdown, residual, matcher,
                                             top_seeds, &result));
    } else {
      matcher.Run(binding);
      RAPTOR_RETURN_NOT_OK(sink.error());
      result.rows.Adopt(std::move(serial_rs.rows));
    }
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
  for (const PatternPart& part : query.patterns) {
    for (const NodePattern& n : part.nodes) {
      if (!n.var.empty()) vars.nodes.Intern(n.var);
    }
    for (const RelPattern& r : part.rels) {
      if (!r.var.empty()) vars.edges.Intern(r.var);
    }
  }

  CypherEvaluator eval(graph, vars);

  // Split WHERE into single-variable conjuncts (pushed into matching) and
  // residual conjuncts (evaluated on complete bindings).
  std::vector<const CypherExpr*> conjuncts;
  SplitConjuncts(query.where.get(), &conjuncts);
  PushdownFilters pushdown;
  std::vector<const CypherExpr*> residual;
  for (const CypherExpr* c : conjuncts) {
    std::unordered_set<std::string> cvars;
    CollectVars(*c, &cvars);
    if (cvars.size() == 1) {
      pushdown[*cvars.begin()].push_back(c);
    } else {
      residual.push_back(c);
    }
  }

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

/// Seed-cardinality estimate for `pat` as a chain start: the cheapest
/// probe-able access path among indexed inline properties and single-var
/// WHERE equality / IN filters (the exact rank SelectSeeds computes), the
/// label bucket when nothing probes, the whole graph when unlabeled.
double EstimateSeedCount(
    const NodePattern& pat, const PropertyGraph& graph,
    const std::vector<const CypherExpr*>* var_filters) {
  if (pat.label.empty()) return static_cast<double>(graph.node_count());
  size_t best = static_cast<size_t>(-1);
  for (const PropConstraint& pc : pat.props) {
    if (!graph.HasNodeIndex(pat.label, pc.key)) continue;
    best = std::min(best, graph.ProbeCountNodes(pat.label, pc.key, pc.value));
  }
  if (var_filters != nullptr) {
    for (const CypherExpr* f : *var_filters) {
      std::string_view prop;
      size_t count = 0;
      if (f->kind == CypherExprKind::kBinary && f->op == CypherBinaryOp::kEq &&
          f->lhs->kind == CypherExprKind::kPropRef &&
          f->rhs->kind == CypherExprKind::kLiteral &&
          graph.HasNodeIndex(pat.label, f->lhs->prop)) {
        prop = f->lhs->prop;
        count = graph.ProbeCountNodes(pat.label, prop, f->rhs->literal);
      } else if (f->kind == CypherExprKind::kInList && !f->negated &&
                 f->lhs->kind == CypherExprKind::kPropRef &&
                 graph.HasNodeIndex(pat.label, f->lhs->prop)) {
        prop = f->lhs->prop;
        for (const Value& v : f->in_list) {
          count += graph.ProbeCountNodes(pat.label, prop, v);
        }
      } else {
        continue;
      }
      best = std::min(best, count);
    }
  }
  if (best != static_cast<size_t>(-1)) return static_cast<double>(best);
  size_t labeled = 0;
  for (size_t s = 0; s < graph.shard_count(); ++s) {
    labeled += graph.NodesWithLabel(pat.label, s).size();
  }
  return static_cast<double>(labeled);
}

}  // namespace

double EstimateCypherCost(const CypherQuery& query, const PropertyGraph& graph,
                          const MatchOptions& options) {
  // Single-variable WHERE conjuncts indexed by variable — the same pushdown
  // split ExecuteCypherBlocks performs before matching.
  std::vector<const CypherExpr*> conjuncts;
  SplitConjuncts(query.where.get(), &conjuncts);
  std::unordered_map<std::string, std::vector<const CypherExpr*>> pushdown;
  for (const CypherExpr* c : conjuncts) {
    std::unordered_set<std::string> cvars;
    CollectVars(*c, &cvars);
    if (cvars.size() == 1) pushdown[*cvars.begin()].push_back(c);
  }
  auto filters_for = [&](const NodePattern& pat)
      -> const std::vector<const CypherExpr*>* {
    if (pat.var.empty()) return nullptr;
    auto it = pushdown.find(pat.var);
    return it == pushdown.end() ? nullptr : &it->second;
  };

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
    double fwd = EstimateSeedCount(part.nodes.front(), graph,
                                   filters_for(part.nodes.front()));
    double rev = EstimateSeedCount(part.nodes.back(), graph,
                                   filters_for(part.nodes.back()));
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
