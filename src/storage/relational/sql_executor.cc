#include "storage/relational/sql_executor.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/deadline.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "storage/shard_parallel.h"
#include "storage/string_predicate.h"

namespace raptor::sql {

namespace {

struct BoundColumn {
  int alias_idx = -1;
  int col_idx = -1;
};

/// Resolves alias.column references against the FROM/JOIN alias list.
class Binder {
 public:
  Binder(const std::vector<std::string>& aliases,
         const std::vector<const Table*>& tables)
      : aliases_(aliases), tables_(tables) {}

  Result<BoundColumn> Resolve(const Expr& col) const {
    BoundColumn out;
    if (!col.table.empty()) {
      for (size_t i = 0; i < aliases_.size(); ++i) {
        if (aliases_[i] == col.table) {
          out.alias_idx = static_cast<int>(i);
          break;
        }
      }
      if (out.alias_idx < 0) {
        return Status::NotFound("unknown table alias: " + col.table);
      }
      out.col_idx = tables_[out.alias_idx]->schema().FindColumn(col.column);
      if (out.col_idx < 0) {
        return Status::NotFound("no column " + col.column + " in " +
                                col.table);
      }
      return out;
    }
    // Unqualified: must be unambiguous across tables.
    for (size_t i = 0; i < tables_.size(); ++i) {
      int c = tables_[i]->schema().FindColumn(col.column);
      if (c >= 0) {
        if (out.alias_idx >= 0) {
          return Status::InvalidArgument("ambiguous column: " + col.column);
        }
        out.alias_idx = static_cast<int>(i);
        out.col_idx = c;
      }
    }
    if (out.alias_idx < 0) {
      return Status::NotFound("unknown column: " + col.column);
    }
    return out;
  }

  size_t alias_count() const { return aliases_.size(); }
  const Table* table(size_t i) const { return tables_[i]; }
  const std::string& alias(size_t i) const { return aliases_[i]; }

 private:
  const std::vector<std::string>& aliases_;
  const std::vector<const Table*>& tables_;
};

using Tuple = std::vector<RowId>;  // one RowId per alias; SIZE_MAX = unbound

constexpr RowId kUnbound = static_cast<RowId>(-1);

/// Expression evaluator over a (possibly partially bound) tuple.
class Evaluator {
 public:
  Evaluator(const Binder& binder) : binder_(binder) {}

  Result<Value> Eval(const Expr& e, const Tuple& tuple) const {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return e.literal;
      case ExprKind::kColumnRef: {
        auto bc = binder_.Resolve(e);
        if (!bc.ok()) return bc.status();
        RowId rid = tuple[bc.value().alias_idx];
        if (rid == kUnbound) {
          return Status::Internal("column evaluated before alias bound: " +
                                  e.ToString());
        }
        return binder_.table(bc.value().alias_idx)
            ->Cell(rid, bc.value().col_idx);
      }
      case ExprKind::kUnaryNot: {
        auto inner = Eval(*e.lhs, tuple);
        if (!inner.ok()) return inner.status();
        return Value(static_cast<int64_t>(!Truthy(inner.value())));
      }
      case ExprKind::kInList: {
        auto lhs = Eval(*e.lhs, tuple);
        if (!lhs.ok()) return lhs.status();
        // Hashed-set probe instead of the old O(list) scan per row.
        bool found = in_sets_.Get(e).count(lhs.value()) > 0;
        return Value(static_cast<int64_t>(e.negated ? !found : found));
      }
      case ExprKind::kBinary: {
        if (e.op == BinaryOp::kAnd) {
          auto l = Eval(*e.lhs, tuple);
          if (!l.ok()) return l.status();
          if (!Truthy(l.value())) return Value(static_cast<int64_t>(0));
          auto r = Eval(*e.rhs, tuple);
          if (!r.ok()) return r.status();
          return Value(static_cast<int64_t>(Truthy(r.value())));
        }
        if (e.op == BinaryOp::kOr) {
          auto l = Eval(*e.lhs, tuple);
          if (!l.ok()) return l.status();
          if (Truthy(l.value())) return Value(static_cast<int64_t>(1));
          auto r = Eval(*e.rhs, tuple);
          if (!r.ok()) return r.status();
          return Value(static_cast<int64_t>(Truthy(r.value())));
        }
        auto l = Eval(*e.lhs, tuple);
        if (!l.ok()) return l.status();
        auto r = Eval(*e.rhs, tuple);
        if (!r.ok()) return r.status();
        if (e.op == BinaryOp::kAdd || e.op == BinaryOp::kSub) {
          if (l.value().is_double() || r.value().is_double()) {
            double a = l.value().AsDouble(), b = r.value().AsDouble();
            return Value(e.op == BinaryOp::kAdd ? a + b : a - b);
          }
          int64_t a = l.value().AsInt(), b = r.value().AsInt();
          return Value(e.op == BinaryOp::kAdd ? a + b : a - b);
        }
        return Value(static_cast<int64_t>(Compare(e.op, l.value(), r.value())));
      }
    }
    return Status::Internal("unreachable expr kind");
  }

  static bool Truthy(const Value& v) {
    if (v.is_null()) return false;
    if (v.is_int()) return v.AsInt() != 0;
    if (v.is_double()) return v.AsDouble() != 0.0;
    return !v.AsText().empty();
  }

  static bool Compare(BinaryOp op, const Value& l, const Value& r) {
    switch (op) {
      case BinaryOp::kEq: return l.Compare(r) == 0;
      case BinaryOp::kNe: return l.Compare(r) != 0;
      case BinaryOp::kLt: return l.Compare(r) < 0;
      case BinaryOp::kLe: return l.Compare(r) <= 0;
      case BinaryOp::kGt: return l.Compare(r) > 0;
      case BinaryOp::kGe: return l.Compare(r) >= 0;
      case BinaryOp::kLike: return Like(l, r);
      case BinaryOp::kNotLike: return !Like(l, r);
      default: return false;
    }
  }

  /// LIKE over the operands' text renderings (NULL reads as "NULL");
  /// text operands match in place, without a copy.
  static bool Like(const Value& l, const Value& r) {
    if (l.is_text() && r.is_text()) return LikeMatch(l.AsText(), r.AsText());
    return LikeMatch(l.ToString(), r.ToString());
  }

 private:
  const Binder& binder_;
  InListCache<Expr> in_sets_;
};

/// A single-table filter compiled against the table's frozen columnar
/// storage (table.h / storage/columnar.h). Compilation recognizes, under
/// any number of NOTs:
///  * text-literal string predicates — `col = 'text'` (either side),
///    `col <> 'text'`, `col [NOT] LIKE 'text'`, `col [NOT] IN ('a', ...)` —
///    decided by the shared string kernel (storage/string_predicate.h) on
///    every shard, whatever the slice's kind;
///  * `col op int` (op mirrored for `int op col`), non-negated int IN
///    lists, and text range compares, on shards whose slice is usable.
/// Anything else — and every (shard, predicate) pair the frozen column
/// cannot represent exactly (kMixed slices, double or NULL literals) —
/// keeps Mode::kEval and runs through the row-path Evaluator unchanged.
/// Modes bind per shard because column kinds can diverge across shards of
/// a loosely-typed table.
///
/// Semantics mirror Value::Compare exactly: cross-kind comparisons fold
/// to per-shard constants (numeric sorts before text, so an int cell is
/// always < a text literal), string range predicates compare dictionary
/// names (same sign as Value's text ordering), and an absent cell behaves
/// as NULL (smaller than every non-null literal, equal to nothing).
class ColumnPredicate {
 public:
  /// Compile `f`, a single-table filter of `alias_idx`. Always returns a
  /// predicate; unrecognized shapes leave every shard on Mode::kEval.
  static ColumnPredicate Compile(const Expr& f, const Binder& binder,
                                 int alias_idx) {
    ColumnPredicate p;
    const Table& table = *binder.table(alias_idx);
    p.shards_.resize(table.shard_count());
    const Expr* e = &f;
    while (e->kind == ExprKind::kUnaryNot) {
      p.negate_ = !p.negate_;
      e = e->lhs.get();
    }
    BinaryOp op = BinaryOp::kEq;
    const Expr* colref = nullptr;
    const Value* lit = nullptr;
    bool in_list = false;
    if (e->kind == ExprKind::kBinary) {
      switch (e->op) {
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
        case BinaryOp::kLike:
        case BinaryOp::kNotLike:
          break;
        default:
          return p;
      }
      if (e->lhs->kind == ExprKind::kColumnRef &&
          e->rhs->kind == ExprKind::kLiteral) {
        colref = e->lhs.get();
        lit = &e->rhs->literal;
        op = e->op;
      } else if (e->rhs->kind == ExprKind::kColumnRef &&
                 e->lhs->kind == ExprKind::kLiteral &&
                 e->op != BinaryOp::kLike && e->op != BinaryOp::kNotLike) {
        colref = e->rhs.get();
        lit = &e->lhs->literal;
        op = Mirror(e->op);
      } else {
        return p;
      }
    } else if (e->kind == ExprKind::kInList &&
               e->lhs->kind == ExprKind::kColumnRef) {
      colref = e->lhs.get();
      in_list = true;
    } else {
      return p;
    }
    auto bc = binder.Resolve(*colref);
    if (!bc.ok() || bc.value().alias_idx != alias_idx) return p;
    int col_idx = bc.value().col_idx;
    p.col_idx_ = col_idx;
    p.op_ = op;
    // The index probes BestAccessPath ranks: an equality with any literal
    // and a positive IN list.
    if (!p.negate_ && in_list && !e->negated) p.index_in_ = &e->in_list;
    if (!p.negate_ && !in_list && op == BinaryOp::kEq) p.index_eq_ = lit;
    // The range access path: `col > int` / `col >= int` (mirrored forms
    // included) on a column whose cells ascend in row order.
    if (!p.negate_ && !in_list && lit->is_int() &&
        (op == BinaryOp::kGt || op == BinaryOp::kGe)) {
      p.range_floor_ = lit->AsInt();
    }
    // Text-literal string predicates: the shared kernel, on every shard.
    using StrOp = storage::StringPredicate::Op;
    std::vector<std::string> needles;
    std::optional<StrOp> str_op;
    if (in_list) {
      bool all_text = !e->in_list.empty();
      for (const Value& v : e->in_list) {
        all_text = all_text && v.is_text();
        needles.push_back(v.ToString());
      }
      if (all_text) {
        str_op = StrOp::kIn;
        p.negate_ = p.negate_ != e->negated;
      }
    } else if (lit->is_text() && (op == BinaryOp::kEq || op == BinaryOp::kNe ||
                                  op == BinaryOp::kLike ||
                                  op == BinaryOp::kNotLike)) {
      needles.push_back(lit->AsText());
      bool like = op == BinaryOp::kLike || op == BinaryOp::kNotLike;
      str_op = like ? StrOp::kLike : StrOp::kEq;
      p.negate_ = p.negate_ != (op == BinaryOp::kNe || op == BinaryOp::kNotLike);
    }
    if (str_op.has_value()) {
      p.strings_.emplace(*str_op, std::move(needles),
                         &table.ColumnDict(col_idx));
      for (size_t s = 0; s < table.shard_count(); ++s) {
        p.shards_[s] = {Mode::kStr, &table.ColumnSlice(s, col_idx)};
      }
      return p;
    }
    if (op == BinaryOp::kLike || op == BinaryOp::kNotLike) return p;
    bool lit_int = false;
    if (in_list) {
      // A NOT IN or a list that is not all-int stays on the row path.
      if (e->negated) return p;
      for (const Value& v : e->in_list) {
        if (!v.is_int()) return p;
        p.int_set_.insert(v.AsInt());
      }
      lit_int = true;
    } else if (lit->is_int()) {
      p.int_lit_ = lit->AsInt();
      lit_int = true;
    } else if (lit->is_text()) {
      p.str_lit_ = lit->AsText();  // a range compare
    } else {
      return p;  // double / NULL literal: row path per shard
    }
    for (size_t s = 0; s < table.shard_count(); ++s) {
      const storage::Column& col = table.ColumnSlice(s, col_idx);
      PerShard& ps = p.shards_[s];
      ps.col = &col;
      if (!col.usable()) continue;  // kMixed (or empty shard): row path
      bool col_int = col.kind() == storage::Column::Kind::kInt64;
      if (in_list) {
        // An int list never Compare-equals a text cell.
        ps.mode = col_int ? Mode::kIntIn : Mode::kNever;
      } else if (lit_int) {
        // Text cells sort after every numeric literal.
        ps.mode = col_int ? Mode::kIntCmp : ConstMode(op, /*cell_cmp=*/1);
      } else {
        // Int cells sort before every text literal.
        ps.mode = col_int ? ConstMode(op, /*cell_cmp=*/-1) : Mode::kStrCmp;
      }
    }
    return p;
  }

  /// True when shard `shard` evaluates through the column fast path;
  /// false means the caller must Eval the original expression.
  bool compiled(size_t shard) const {
    return shards_[shard].mode != Mode::kEval;
  }

  /// Row-semantics verdict for the cell at `pos` of `shard`.
  /// Precondition: compiled(shard).
  bool Matches(size_t shard, size_t pos) const {
    return Decide(shards_[shard], pos) != negate_;
  }

  /// The string kernel of a string predicate that a dictionary seek can
  /// serve exactly (positive, false on absent cells, on a column whose
  /// every slice is string-typed or empty); nullptr otherwise.
  const storage::StringPredicate* Seekable() const {
    if (!strings_.has_value() || negate_ || !strings_->Seekable()) {
      return nullptr;
    }
    for (const PerShard& ps : shards_) {
      if (!storage::StringPredicate::SeekableSlice(ps.col)) return nullptr;
    }
    return &*strings_;
  }

  int col_idx() const { return col_idx_; }  // -1: not a column filter
  const Value* index_eq() const { return index_eq_; }
  const std::vector<Value>* index_in() const { return index_in_; }
  /// The literal of a positive `col > int` / `col >= int` filter (the
  /// range access path's bound); nullopt for every other shape.
  std::optional<int64_t> range_floor() const { return range_floor_; }
  bool range_inclusive() const { return op_ == BinaryOp::kGe; }

 private:
  enum class Mode : uint8_t {
    kEval,    // not compiled for this shard: row-path Evaluator
    kNever,   // constant false (kind mismatch)
    kAlways,  // constant true (kind mismatch under Ne/ordering)
    kIntCmp,  // int column `op` int literal
    kIntIn,   // int column IN hashed int set
    kStrCmp,  // string column `op` text literal via dictionary names
    kStr,     // text-literal string predicate: the shared kernel
  };

  struct PerShard {
    Mode mode = Mode::kEval;
    const storage::Column* col = nullptr;
  };

  /// The verdict before negation.
  bool Decide(const PerShard& ps, size_t pos) const {
    switch (ps.mode) {
      case Mode::kNever:
        return false;
      case Mode::kAlways:
        return true;
      case Mode::kIntCmp: {
        int64_t v = 0;
        // Absent cell = NULL, smaller than any non-null literal.
        if (!ps.col->IntAt(pos, &v)) return CmpHolds(op_, -1);
        return CmpHolds(op_, v < int_lit_ ? -1 : (v > int_lit_ ? 1 : 0));
      }
      case Mode::kIntIn: {
        int64_t v = 0;
        if (!ps.col->IntAt(pos, &v)) return false;
        return int_set_.count(v) > 0;
      }
      case Mode::kStrCmp: {
        uint32_t id = ps.col->DictAt(pos);
        if (id == storage::kNullDictId) return CmpHolds(op_, -1);  // NULL
        int r = ps.col->DictName(id).compare(str_lit_);
        return CmpHolds(op_, r < 0 ? -1 : (r > 0 ? 1 : 0));
      }
      case Mode::kStr:
        return strings_->OnCell(ps.col, pos);
      case Mode::kEval:
        break;
    }
    return false;
  }

  /// `lit op col` rewritten as `col Mirror(op) lit`.
  static BinaryOp Mirror(BinaryOp op) {
    switch (op) {
      case BinaryOp::kLt: return BinaryOp::kGt;
      case BinaryOp::kLe: return BinaryOp::kGe;
      case BinaryOp::kGt: return BinaryOp::kLt;
      case BinaryOp::kGe: return BinaryOp::kLe;
      default: return op;  // kEq / kNe are symmetric
    }
  }

  /// Does `cell op lit` hold given the sign of Compare(cell, lit)?
  static bool CmpHolds(BinaryOp op, int c) {
    switch (op) {
      case BinaryOp::kEq: return c == 0;
      case BinaryOp::kNe: return c != 0;
      case BinaryOp::kLt: return c < 0;
      case BinaryOp::kLe: return c <= 0;
      case BinaryOp::kGt: return c > 0;
      case BinaryOp::kGe: return c >= 0;
      default: return false;
    }
  }

  /// Fold a comparison whose sign is the same for every cell of the shard
  /// (cross-kind compares) into a constant mode.
  static Mode ConstMode(BinaryOp op, int cell_cmp) {
    return CmpHolds(op, cell_cmp) ? Mode::kAlways : Mode::kNever;
  }

  int col_idx_ = -1;
  const Value* index_eq_ = nullptr;
  const std::vector<Value>* index_in_ = nullptr;
  std::optional<int64_t> range_floor_;
  BinaryOp op_ = BinaryOp::kEq;
  bool negate_ = false;  // an odd number of NOTs / a negated operator
  int64_t int_lit_ = 0;
  std::string_view str_lit_;  // borrowed from the statement's literal
  std::unordered_set<int64_t> int_set_;
  std::optional<storage::StringPredicate> strings_;
  std::vector<PerShard> shards_;
};

/// Apply alias `a`'s single-table filters to the row bound at `tuple[a]`,
/// in conjunct order: each through its compiled column check where the
/// row's shard has one (entry f of `compiled` compiles filters[f]; same
/// verdict), else through the Evaluator.
Result<bool> PassesFilters(const std::vector<const Expr*>& filters,
                           const std::vector<ColumnPredicate>& compiled,
                           const Table& table, size_t a, const Tuple& tuple,
                           const Evaluator& eval, ExecStats* stats) {
  size_t shard = table.ShardOf(tuple[a]);
  size_t pos = table.LocalOf(tuple[a]);
  for (size_t f = 0; f < filters.size(); ++f) {
    if (compiled[f].compiled(shard)) {
      if (stats != nullptr) ++stats->columnar_filter_rows;
      if (!compiled[f].Matches(shard, pos)) return false;
      continue;
    }
    auto v = eval.Eval(*filters[f], tuple);
    if (!v.ok()) return v.status();
    if (!Evaluator::Truthy(v.value())) return false;
  }
  return true;
}

/// Which aliases an expression references.
void CollectAliases(const Expr& e, const Binder& binder,
                    std::set<int>* aliases) {
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      auto bc = binder.Resolve(e);
      if (bc.ok()) aliases->insert(bc.value().alias_idx);
      break;
    }
    case ExprKind::kBinary:
      CollectAliases(*e.lhs, binder, aliases);
      CollectAliases(*e.rhs, binder, aliases);
      break;
    case ExprKind::kUnaryNot:
      CollectAliases(*e.lhs, binder, aliases);
      break;
    case ExprKind::kInList:
      CollectAliases(*e.lhs, binder, aliases);
      break;
    case ExprKind::kLiteral:
      break;
  }
}

/// Split an expression into AND-ed conjuncts (ownership stays with caller).
void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->op == BinaryOp::kAnd) {
    SplitConjuncts(e->lhs.get(), out);
    SplitConjuncts(e->rhs.get(), out);
  } else {
    out->push_back(e);
  }
}

struct Conjunct {
  const Expr* expr;
  std::set<int> aliases;
  bool applied = false;
};

/// An access path of one alias: its cheapest indexed `col = literal` or
/// non-negated `col IN (...)` conjunct, a range (the row-id suffix whose
/// cells pass `col > k` / `col >= k` on an ascending column), or a
/// dictionary seek (the strings of an indexed column's dictionary that a
/// string predicate accepts, storage/string_predicate.h), with the exact
/// candidate count summed over every shard (for IN and the seek, the
/// per-value counts: an upper bound on the deduplicated union).
struct AccessPath {
  int col_idx = -1;  // -1: no conjunct serves as an access path
  const Value* eq = nullptr;
  const std::vector<Value>* in = nullptr;
  std::vector<Value> seek;  // dictionary seek: the accepted strings
  bool is_seek = false;
  size_t count = static_cast<size_t>(-1);
  bool is_range = false;
  RowId range_first = 0;  // range: rows [range_first, row_count) pass
};

/// Rank the index probes among an alias's compiled single-table filters by
/// Table::ProbeCount (no materialization) and return the cheapest — the
/// same cheapest-access-path choice the graph matcher makes through
/// ProbeCountNodes. A range on an ascending column competes with its exact
/// suffix length, taken only when it skips at least one row. Then offer
/// each filter's dictionary seek: walked only while its dictionary is
/// smaller than the cheapest path so far (a full scan without one),
/// polling `interrupted`; a fired poll returns nullopt.
template <class Interrupted>
std::optional<AccessPath> BestAccessPath(
    const std::vector<ColumnPredicate>& compiled, const Table& table,
    Interrupted&& interrupted) {
  AccessPath best;
  for (const ColumnPredicate& cp : compiled) {
    if (cp.col_idx() < 0 || !table.HasIndex(cp.col_idx())) continue;
    AccessPath path;
    path.col_idx = cp.col_idx();
    path.eq = cp.index_eq();
    path.in = cp.index_in();
    if (path.eq != nullptr) {
      path.count = table.ProbeCount(path.col_idx, *path.eq);
    } else if (path.in != nullptr) {
      path.count = 0;
      for (const Value& v : *path.in) {
        path.count += table.ProbeCount(path.col_idx, v);
      }
    }
    if (path.count < best.count) best = path;
  }
  for (const ColumnPredicate& cp : compiled) {
    if (!cp.range_floor().has_value() || !table.Ascending(cp.col_idx())) {
      continue;
    }
    RowId first = table.FirstRowAbove(cp.col_idx(), *cp.range_floor(),
                                      cp.range_inclusive());
    size_t count = table.row_count() - first;
    if (first > 0 && count < best.count) {
      best = AccessPath{};
      best.col_idx = cp.col_idx();
      best.is_range = true;
      best.range_first = first;
      best.count = count;
    }
  }
  for (const ColumnPredicate& cp : compiled) {
    const storage::StringPredicate* strings = cp.Seekable();
    if (strings == nullptr || !table.HasIndex(cp.col_idx())) continue;
    auto seek = strings->SeekBelow(
        std::min(best.count, table.row_count()), interrupted,
        [&](const Value& key) { return table.ProbeCount(cp.col_idx(), key); });
    if (seek.has_value()) {
      best = AccessPath{cp.col_idx(), nullptr, nullptr, std::move(seek->keys),
                        true, seek->count};
    } else if (interrupted()) {
      return std::nullopt;
    }
  }
  return best;
}

/// Rows visited to produce an alias's seed: its best index probe (capped
/// at the table size), or a full scan without one.
size_t AccessCost(const AccessPath& path, const Table& table) {
  return std::min(path.count, table.row_count());
}

/// Hash-join build storage: per-key row ids chained through fixed-size
/// chunks allocated from one arena, instead of one heap vector per key.
/// Appends preserve insertion order (head/tail chain), so probe iteration
/// visits row ids exactly as the per-key vectors used to.
class RowIdChunks {
 public:
  static constexpr uint32_t kNone = static_cast<uint32_t>(-1);

  struct Ref {
    uint32_t head = kNone;
    uint32_t tail = kNone;
  };

  void Append(Ref& ref, RowId rid) {
    if (ref.tail == kNone || chunks_[ref.tail].count == kChunkRows) {
      uint32_t c = static_cast<uint32_t>(chunks_.size());
      chunks_.emplace_back();
      if (ref.tail == kNone) {
        ref.head = c;
      } else {
        chunks_[ref.tail].next = c;
      }
      ref.tail = c;
    }
    Chunk& chunk = chunks_[ref.tail];
    chunk.rows[chunk.count++] = rid;
  }

  /// Invoke fn(rid) over the chain in insertion order; stops and returns
  /// false as soon as fn returns false.
  template <class Fn>
  bool ForEach(const Ref& ref, Fn&& fn) const {
    for (uint32_t c = ref.head; c != kNone; c = chunks_[c].next) {
      const Chunk& chunk = chunks_[c];
      for (uint32_t i = 0; i < chunk.count; ++i) {
        if (!fn(chunk.rows[i])) return false;
      }
    }
    return true;
  }

 private:
  static constexpr uint32_t kChunkRows = 8;

  struct Chunk {
    RowId rows[kChunkRows];
    uint32_t count = 0;
    uint32_t next = kNone;
  };

  std::vector<Chunk> chunks_;
};

/// One level of the left-deep join pipeline, planned before execution:
/// equi-join keys against already-bound aliases (with the hash table built
/// on the level's filtered candidates as chunked candidate blocks), plus
/// the residual conjuncts that become fully bound once this level binds.
struct JoinLevel {
  std::vector<std::pair<BoundColumn, BoundColumn>> keys;  // (new, old)
  std::unordered_map<std::vector<Value>, RowIdChunks::Ref, ValueRowHash,
                     ValueRowEq>
      build;
  RowIdChunks build_rows;
  std::vector<const Expr*> ready;
};

/// The streaming executor: threads one tuple through the join levels
/// depth-first and emits projected rows as they complete, so LIMIT can stop
/// the whole pipeline — including the first table's base scan — early.
/// Every method returns true to continue and false to stop (limit reached
/// or evaluation error; check `error` afterwards).
class TuplePipeline {
 public:
  TuplePipeline(const SelectStmt& stmt, const Binder& binder,
                const Evaluator& eval, const std::vector<JoinLevel>& levels,
                const std::vector<std::vector<RowId>>& candidates,
                const std::vector<const Expr*>& projected, bool has_star,
                bool distinct, bool partition_distinct, size_t local_cap,
                ExecStats* stats, storage::WorkerRows* rs)
      : stmt_(stmt),
        binder_(binder),
        eval_(eval),
        levels_(levels),
        candidates_(candidates),
        projected_(projected),
        has_star_(has_star),
        distinct_(distinct),
        partition_distinct_(partition_distinct),
        local_cap_(local_cap),
        stats_(stats),
        rs_(rs) {
    // Parallel DISTINCT workers hash-partition their emissions so the
    // merge can re-dedup partition-by-partition and adopt whole blocks
    // (storage/shard_parallel.h).
    if (partition_distinct_) rs_->EnableDistinctPartitions();
  }

  /// Restrict the first table's iteration to one morsel: the half-open
  /// positional range [lo, hi) of storage shard `shard` — the k-th row of
  /// the shard's start/stride walk, or the k-th entry of its pre-split
  /// seed/candidate sub-list (SetLazyFirstTable / SetFirstCandidates must
  /// then hand this shard's list). The morsel scheduler runs one pipeline per
  /// morsel.
  void RestrictFirstTableToMorsel(size_t shard, size_t shard_count, size_t lo,
                                  size_t hi) {
    shard_ = static_cast<int64_t>(shard);
    shard_count_ = shard_count;
    morsel_lo_ = lo;
    morsel_hi_ = hi;
  }

  /// Cooperative LIMIT cancellation shared by all parallel workers: every
  /// emitted row claims one slot; the scan stops once `cap` are claimed.
  void SetSharedRowBudget(std::atomic<size_t>* claimed, size_t cap) {
    shared_claimed_ = claimed;
    shared_cap_ = cap;
  }

  /// Cooperative query cancellation (HuntService tickets): polled with the
  /// shared LIMIT budget at every first-table row visit.
  void SetCancelFlag(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  /// Deadline polled at the same points (amortized clock reads).
  void SetDeadline(
      std::optional<std::chrono::steady_clock::time_point> deadline) {
    deadline_ = DeadlinePoller(deadline);
  }

  /// Replace candidates[0] with this morsel's per-shard sub-list (the
  /// non-lazy parallel path).
  void SetFirstCandidates(const std::vector<RowId>* cand0) {
    first_candidates_ = cand0;
  }

  /// Defer the first table's filtering into the pipeline: scan `seed`
  /// (or all `row_count` rows when scan_all) lazily, applying `filters`
  /// inline, so an early stop skips the tail of the base scan. `compiled`
  /// holds the filters' columnar fast paths (entry i compiles filters[i]);
  /// a filter whose entry is not compiled for a row's shard Evals in the
  /// same position of the conjunct order.
  void SetLazyFirstTable(const std::vector<RowId>* seed, bool scan_all,
                         RowId row_count,
                         const std::vector<const Expr*>* filters,
                         const std::vector<ColumnPredicate>* compiled) {
    lazy0_seed_ = seed;
    lazy0_scan_all_ = scan_all;
    lazy0_row_count_ = row_count;
    lazy0_filters_ = filters;
    compiled0_ = compiled;
  }

  void Run() {
    Tuple tuple(levels_.size(), kUnbound);
    EmitFrom(0, tuple);
  }

  const Status& error() const { return error_; }

 private:
  bool EmitFrom(size_t a, Tuple& t) {
    if (a == levels_.size()) return EmitRow(t);
    const JoinLevel& level = levels_[a];
    if (!level.keys.empty()) {
      // Hash join: probe the level's build table with the bound aliases.
      key_scratch_.clear();
      key_scratch_.reserve(level.keys.size());
      for (const auto& [nc, oc] : level.keys) {
        key_scratch_.push_back(
            binder_.table(oc.alias_idx)->Cell(t[oc.alias_idx], oc.col_idx));
      }
      auto it = level.build.find(key_scratch_);
      if (it == level.build.end()) return true;
      return level.build_rows.ForEach(
          it->second, [&](RowId rid) { return BindAndDescend(a, rid, t); });
    }
    if (a == 0 && (lazy0_seed_ != nullptr || lazy0_scan_all_)) {
      return ScanFirstTable(t);
    }
    // Cross product with the filtered candidates (a morsel walks its
    // slice of the plan-time per-shard sub-list).
    if (a == 0 && first_candidates_ != nullptr) {
      size_t end = std::min(morsel_hi_, first_candidates_->size());
      for (size_t i = morsel_lo_; i < end; ++i) {
        if (BudgetSpent()) return false;
        if (!BindAndDescend(a, (*first_candidates_)[i], t)) return false;
      }
      return true;
    }
    for (RowId rid : candidates_[a]) {
      if (a == 0 && BudgetSpent()) return false;
      if (!BindAndDescend(a, rid, t)) return false;
    }
    return true;
  }

  /// True once the shared LIMIT budget has been drained by any worker, the
  /// query has been cancelled, or its deadline has passed.
  bool BudgetSpent() {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      return true;
    }
    if (deadline_.Expired()) return true;
    return shared_claimed_ != nullptr &&
           shared_claimed_->load(std::memory_order_relaxed) >= shared_cap_;
  }

  bool ScanFirstTable(Tuple& t) {
    bool keep_going = true;
    const Table* table0 = binder_.table(0);
    auto visit = [&](RowId rid) {
      if (BudgetSpent()) return false;
      if (stats_ != nullptr) ++stats_->base_rows_scanned;
      t[0] = rid;
      auto pass = PassesFilters(*lazy0_filters_, *compiled0_, *table0, 0, t,
                                eval_, stats_);
      if (!pass.ok()) error_ = pass.status();
      bool cont = pass.ok() && (!pass.value() || Descend(0, t));
      t[0] = kUnbound;
      return cont;
    };
    if (lazy0_scan_all_) {
      if (shard_ >= 0) {
        // k-indexed walk of this shard's rows (rid = shard + k * stride,
        // mirroring storage::ShardLayout's documented round-robin low-bits
        // assignment — a layout change must update this alongside
        // ShardLayout::ShardOf), so a morsel range restricts by position
        // within the shard.
        for (size_t k = morsel_lo_; k < morsel_hi_ && keep_going; ++k) {
          RowId rid = static_cast<RowId>(shard_) + k * shard_count_;
          if (rid >= lazy0_row_count_) break;
          keep_going = visit(rid);
        }
      } else {
        for (RowId rid = 0; rid < lazy0_row_count_ && keep_going; ++rid) {
          keep_going = visit(rid);
        }
      }
    } else {
      // The whole seed list (serial), or a morsel's slice of its shard's
      // pre-split sub-list.
      size_t end = std::min(morsel_hi_, lazy0_seed_->size());
      for (size_t i = morsel_lo_; i < end; ++i) {
        keep_going = visit((*lazy0_seed_)[i]);
        if (!keep_going) break;
      }
    }
    return keep_going;
  }

  bool BindAndDescend(size_t a, RowId rid, Tuple& t) {
    t[a] = rid;
    bool cont = Descend(a, t);
    t[a] = kUnbound;
    return cont;
  }

  /// `t[a]` just bound: count it, apply the conjuncts that became fully
  /// bound at this level, and continue to the next one.
  bool Descend(size_t a, Tuple& t) {
    if (stats_ != nullptr) ++stats_->join_output_tuples;
    for (const Expr* e : levels_[a].ready) {
      auto v = eval_.Eval(*e, t);
      if (!v.ok()) {
        error_ = v.status();
        return false;
      }
      if (!Evaluator::Truthy(v.value())) return true;
    }
    return EmitFrom(a + 1, t);
  }

  bool EmitRow(const Tuple& t) {
    Row row;
    if (has_star_) {
      for (size_t a = 0; a < levels_.size(); ++a) {
        const Table* table = binder_.table(a);
        for (size_t c = 0; c < table->schema().size(); ++c) {
          row.push_back(table->Cell(t[a], static_cast<int>(c)));
        }
      }
    }
    for (const Expr* e : projected_) {
      auto v = eval_.Eval(*e, t);
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
      size_t part = storage::DistinctPartitionOf(row);
      rs_->parts[part].push_back(std::move(row));
    } else {
      rs_->rows.push_back(std::move(row));
    }
    if (stats_ != nullptr) ++stats_->rows_emitted;
    ++emitted_;
    return emitted_ < local_cap_;
  }

  const SelectStmt& stmt_;
  const Binder& binder_;
  const Evaluator& eval_;
  const std::vector<JoinLevel>& levels_;
  const std::vector<std::vector<RowId>>& candidates_;
  const std::vector<const Expr*>& projected_;
  bool has_star_;
  bool distinct_;
  bool partition_distinct_;
  size_t local_cap_;
  size_t emitted_ = 0;     // rows this pipeline kept (vs. local_cap_)
  int64_t shard_ = -1;     // morsel shard; -1: whole table (serial)
  size_t shard_count_ = 1;
  size_t morsel_lo_ = 0;   // positional first-table range [lo, hi)
  size_t morsel_hi_ = static_cast<size_t>(-1);
  std::atomic<size_t>* shared_claimed_ = nullptr;
  size_t shared_cap_ = 0;
  const std::atomic<bool>* cancel_ = nullptr;
  DeadlinePoller deadline_;
  const std::vector<RowId>* first_candidates_ = nullptr;
  const std::vector<ColumnPredicate>* compiled0_ = nullptr;
  ExecStats* stats_;
  storage::WorkerRows* rs_;
  const std::vector<RowId>* lazy0_seed_ = nullptr;
  bool lazy0_scan_all_ = false;
  RowId lazy0_row_count_ = 0;
  const std::vector<const Expr*>* lazy0_filters_ = nullptr;
  Status error_ = Status::OK();
  std::unordered_set<Row, ValueRowHash, ValueRowEq> seen_;
  std::vector<Value> key_scratch_;
};

}  // namespace

std::string ResultSet::ToString(size_t max_rows) const {
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

Result<BlockResultSet> ExecuteSelectBlocks(const SelectStmt& stmt,
                                           const Catalog& catalog,
                                           const SelectOptions& options,
                                           ExecStats* stats) {
  ExecStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  // Bind all table refs (FROM list then JOINs, left-deep order).
  std::vector<std::string> aliases;
  std::vector<const Table*> tables;
  auto bind_table = [&](const TableRef& ref) -> Status {
    const Table* t = catalog.FindTable(ref.table);
    if (t == nullptr) return Status::NotFound("unknown table: " + ref.table);
    for (const std::string& a : aliases) {
      if (a == ref.effective_alias()) {
        return Status::InvalidArgument("duplicate alias: " + a);
      }
    }
    aliases.push_back(ref.effective_alias());
    tables.push_back(t);
    return Status::OK();
  };
  for (const TableRef& ref : stmt.from) RAPTOR_RETURN_NOT_OK(bind_table(ref));
  for (const JoinClause& j : stmt.joins) RAPTOR_RETURN_NOT_OK(bind_table(j.table));

  Binder binder(aliases, tables);
  Evaluator eval(binder);

  // Gather conjuncts from WHERE and all JOIN ... ON clauses.
  std::vector<const Expr*> raw_conjuncts;
  SplitConjuncts(stmt.where.get(), &raw_conjuncts);
  for (const JoinClause& j : stmt.joins) {
    SplitConjuncts(j.on.get(), &raw_conjuncts);
  }
  std::vector<Conjunct> conjuncts;
  conjuncts.reserve(raw_conjuncts.size());
  for (const Expr* e : raw_conjuncts) {
    Conjunct c;
    c.expr = e;
    CollectAliases(*e, binder, &c.aliases);
    conjuncts.push_back(std::move(c));
  }

  size_t n_aliases = aliases.size();

  // LIMIT stops the pipeline early (it counts post-DISTINCT rows, since
  // the dedup streams); ORDER BY must see every row, so it disables that.
  bool early_limit = stmt.limit >= 0 && stmt.order_by.empty();

  // --- Base-table filtering -------------------------------------------------
  // For each alias, gather its single-table conjuncts, pick a seed (its
  // cheapest index probe, or a semi-join probe from a smaller join partner)
  // and filter the seed into the alias's candidate list. With LIMIT pushed
  // down, the first table's filtering is deferred into the pipeline so its
  // scan stops early; the other tables always materialize (hash-join build
  // sides and cross products iterate them repeatedly).
  obs::ScopedSpan plan_span(options.trace, "plan");
  // The plan phase's counters: its increments of *stats (an interrupted
  // plan still reports what it scanned).
  const ExecStats before_plan = *stats;
  std::vector<std::vector<const Expr*>> filters(n_aliases);
  for (size_t a = 0; a < n_aliases; ++a) {
    for (Conjunct& c : conjuncts) {
      if (c.aliases.size() == 1 && *c.aliases.begin() == static_cast<int>(a)) {
        filters[a].push_back(c.expr);
        c.applied = true;
      }
    }
  }
  // Compile each single-table filter against the frozen columnar storage
  // once per query; entries stay parallel to filters[a] so a predicate a
  // shard cannot serve falls back to Eval in the same conjunct position.
  std::vector<std::vector<ColumnPredicate>> compiled(n_aliases);
  for (size_t a = 0; a < n_aliases; ++a) {
    compiled[a].reserve(filters[a].size());
    for (const Expr* f : filters[a]) {
      compiled[a].push_back(
          ColumnPredicate::Compile(*f, binder, static_cast<int>(a)));
    }
  }
  // Top-level equi-join conjuncts `x.col = y.col2` between two aliases: the
  // semi-join seeding candidates, and the hash-join keys below.
  struct EquiJoin {
    BoundColumn l, r;
    Conjunct* conjunct;
  };
  std::vector<EquiJoin> equi_joins;
  for (Conjunct& c : conjuncts) {
    const Expr& e = *c.expr;
    if (c.aliases.size() != 2 || e.kind != ExprKind::kBinary ||
        e.op != BinaryOp::kEq || e.lhs->kind != ExprKind::kColumnRef ||
        e.rhs->kind != ExprKind::kColumnRef) {
      continue;
    }
    auto l = binder.Resolve(*e.lhs);
    auto r = binder.Resolve(*e.rhs);
    if (l.ok() && r.ok()) equi_joins.push_back({l.value(), r.value(), &c});
  }
  // Materialize in ascending access cost (ties in FROM order), so a small
  // alias seeds its larger join partners and one that filters to nothing
  // ends the query before the expensive ones are touched. A lazy first
  // table never materializes: it plans last, seeded from all the others.
  // The pipeline still walks FROM order, so the result is unchanged.
  // The plan loops poll cancellation and the deadline like the scan does.
  DeadlinePoller plan_deadline(options.deadline);
  auto interrupted = [&] {
    return (options.cancel != nullptr &&
            options.cancel->load(std::memory_order_relaxed)) ||
           plan_deadline.Expired();
  };
  auto interrupt_status = [&] {
    return options.cancel != nullptr &&
                   options.cancel->load(std::memory_order_relaxed)
               ? Status::Cancelled("sql query cancelled")
               : Status::Timeout("sql query deadline exceeded");
  };
  bool lazy0 = early_limit && n_aliases > 0;
  std::vector<AccessPath> paths(n_aliases);
  std::vector<size_t> cost(n_aliases);
  std::vector<size_t> order(n_aliases);
  for (size_t a = 0; a < n_aliases; ++a) {
    auto path = BestAccessPath(compiled[a], *tables[a], interrupted);
    if (!path.has_value()) return interrupt_status();
    paths[a] = std::move(*path);
    cost[a] = AccessCost(paths[a], *tables[a]);
    order[a] = a;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    bool lazy_x = lazy0 && x == 0, lazy_y = lazy0 && y == 0;
    if (lazy_x != lazy_y) return lazy_y;
    return cost[x] < cost[y];
  });
  std::vector<std::vector<RowId>> candidates(n_aliases);
  std::vector<char> materialized(n_aliases, 0);
  // Per alias: its access path for the plan span's note ("skipped" when
  // an earlier alias emptied the input).
  std::vector<std::string> access(n_aliases, "skipped");
  auto column_name = [&](size_t a, int col) {
    return tables[a]->schema().column(col).name;
  };
  std::vector<RowId> lazy0_seed;
  bool lazy0_scan_all = false;
  // Every join is inner, so an alias left with no candidate row empties the
  // result: the remaining aliases and the pipeline are skipped.
  bool empty_input = false;
  for (size_t a : order) {
    if (empty_input) break;
    const Table* table = tables[a];
    // Semi-join seeding: an indexed join column `a.col = b.col2` whose
    // partner b is already materialized probes a's index with b's distinct
    // keys when those probes fetch fewer rows than a's own access path.
    int sj_col = -1;
    std::unordered_set<Value, ValueHash, ValueEq> sj_keys;
    size_t sj_count = cost[a];
    for (const EquiJoin& ej : equi_joins) {
      for (const auto& [mine, other] :
           {std::pair{ej.l, ej.r}, std::pair{ej.r, ej.l}}) {
        if (mine.alias_idx != static_cast<int>(a) ||
            !materialized[other.alias_idx] || !table->HasIndex(mine.col_idx)) {
          continue;
        }
        const Table* partner = tables[other.alias_idx];
        std::unordered_set<Value, ValueHash, ValueEq> keys;
        size_t count = 0;
        for (RowId rid : candidates[other.alias_idx]) {
          if (interrupted()) return interrupt_status();
          Value key = partner->Cell(rid, other.col_idx);
          if (!keys.insert(key).second) continue;
          count += table->ProbeCount(mine.col_idx, key);
          if (count >= sj_count) break;
        }
        if (count < sj_count) {
          sj_count = count;
          sj_col = mine.col_idx;
          sj_keys = std::move(keys);
        }
      }
    }
    // The seed: semi-join probes, else the alias's own cheapest index probe
    // (the union of its per-shard buckets), re-sorted into global row order.
    // Buckets are disjoint across shards and across distinct keys; IN
    // probes additionally dedup across values. No seed: a full scan.
    std::vector<RowId> seed;
    bool seeded = true;
    auto probe_into_seed = [&](int col, const Value& key) {
      for (size_t s = 0; s < table->shard_count(); ++s) {
        const std::vector<RowId>& bucket = table->Probe(col, key, s);
        seed.insert(seed.end(), bucket.begin(), bucket.end());
      }
    };
    if (sj_col >= 0) {
      for (const Value& key : sj_keys) {
        if (interrupted()) return interrupt_status();
        probe_into_seed(sj_col, key);
      }
      stats->semijoin_seed_rows += seed.size();
      access[a] = "semijoin(" + column_name(a, sj_col) + ")";
    } else if (paths[a].col_idx >= 0) {
      const AccessPath& path = paths[a];
      if (path.is_range) {
        seed.reserve(path.count);
        for (RowId rid = path.range_first; rid < table->row_count(); ++rid) {
          seed.push_back(rid);
        }
      } else if (path.eq != nullptr) {
        probe_into_seed(path.col_idx, *path.eq);
      } else {
        for (const Value& v : path.is_seek ? path.seek : *path.in) {
          probe_into_seed(path.col_idx, v);
        }
      }
      stats->index_probe_rows += seed.size();
      const std::string col = column_name(a, path.col_idx);
      access[a] = path.is_range ? "range(" + col + ")"
                  : path.is_seek
                      ? "dict(" + col + "," + std::to_string(path.seek.size()) +
                            ")"
                      : "index(" + col + ")";
    } else {
      seeded = false;
      access[a] = "scan";
    }
    if (seeded) {
      std::sort(seed.begin(), seed.end());
      seed.erase(std::unique(seed.begin(), seed.end()), seed.end());
    }
    if (lazy0 && a == 0) {
      lazy0_scan_all = !seeded;
      lazy0_seed = std::move(seed);
      empty_input = seeded && lazy0_seed.empty();
      continue;
    }
    // Apply all single-table filters, through the compiled column check
    // where one is available for the row's shard.
    Tuple probe(n_aliases, kUnbound);
    std::vector<RowId>& out = candidates[a];
    size_t n_seed = seeded ? seed.size() : table->row_count();
    out.reserve(n_seed);
    for (size_t i = 0; i < n_seed; ++i) {
      if (interrupted()) return interrupt_status();
      RowId rid = seeded ? seed[i] : i;
      ++stats->base_rows_scanned;
      probe[a] = rid;
      auto pass = PassesFilters(filters[a], compiled[a], *table, a, probe,
                                eval, stats);
      if (!pass.ok()) return pass.status();
      if (pass.value()) out.push_back(rid);
    }
    materialized[a] = 1;
    empty_input = out.empty();
  }
  if (plan_span.get() != nullptr) {
    obs::TraceSpan* span = plan_span.get();
    auto delta = [&](size_t ExecStats::*counter) {
      return static_cast<int64_t>(stats->*counter - before_plan.*counter);
    };
    span->Set("base_rows_scanned", delta(&ExecStats::base_rows_scanned));
    span->Set("index_probe_rows", delta(&ExecStats::index_probe_rows));
    span->Set("semijoin_seed_rows", delta(&ExecStats::semijoin_seed_rows));
    span->Set("columnar_filter_rows", delta(&ExecStats::columnar_filter_rows));
    std::string note;
    for (size_t a = 0; a < n_aliases; ++a) {
      note += (a == 0 ? "" : " ") + aliases[a] + "=" + access[a];
    }
    span->Note("access", note);
  }

  // --- Join planning (left-deep, FROM order) --------------------------------
  // Classify the remaining conjuncts level by level: equi-join keys against
  // already-bound aliases (hash-join build tables constructed up front from
  // the filtered candidates), and residual conjuncts applied at the first
  // level where all their aliases are bound.
  std::vector<JoinLevel> levels(n_aliases);
  std::set<int> bound;
  for (size_t a = 0; a < n_aliases; ++a) {
    // Equi-join conjuncts linking alias `a` to already-bound aliases:
    // colref(a) = colref(bound).
    auto is_new = [&](const BoundColumn& b) {
      return b.alias_idx == static_cast<int>(a);
    };
    auto is_bound = [&](const BoundColumn& b) {
      return bound.count(b.alias_idx) > 0;
    };
    for (const EquiJoin& ej : equi_joins) {
      if (ej.conjunct->applied) continue;
      if (is_new(ej.l) && is_bound(ej.r)) {
        levels[a].keys.emplace_back(ej.l, ej.r);
        ej.conjunct->applied = true;
      } else if (is_new(ej.r) && is_bound(ej.l)) {
        levels[a].keys.emplace_back(ej.r, ej.l);
        ej.conjunct->applied = true;
      }
    }
    bound.insert(static_cast<int>(a));
    // Residual conjuncts that become fully bound at this level (e.g.
    // temporal constraints between two event aliases).
    for (Conjunct& c : conjuncts) {
      if (c.applied) continue;
      bool ready = true;
      for (int al : c.aliases) {
        if (!bound.count(al)) {
          ready = false;
          break;
        }
      }
      if (ready) {
        levels[a].ready.push_back(c.expr);
        c.applied = true;
      }
    }
  }
  for (size_t a = 0; a < n_aliases; ++a) {
    if (levels[a].keys.empty()) continue;
    const Table* table = tables[a];
    std::vector<Value> key_vals;
    for (RowId rid : candidates[a]) {
      if (interrupted()) return interrupt_status();
      key_vals.clear();
      key_vals.reserve(levels[a].keys.size());
      for (const auto& [nc, oc] : levels[a].keys) {
        key_vals.push_back(table->Cell(rid, nc.col_idx));
      }
      levels[a].build_rows.Append(levels[a].build[key_vals], rid);
    }
  }
  obs::Finish(plan_span.get());

  // --- Projection setup -----------------------------------------------------
  BlockResultSet result;
  std::vector<const Expr*> projected;
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      for (size_t a = 0; a < n_aliases; ++a) {
        for (size_t c = 0; c < tables[a]->schema().size(); ++c) {
          result.columns.push_back(aliases[a] + "." +
                                   tables[a]->schema().column(c).name);
        }
      }
    } else {
      result.columns.push_back(item.alias.empty() ? item.expr->ToString()
                                                  : item.alias);
      projected.push_back(item.expr.get());
    }
  }
  bool has_star = std::any_of(stmt.items.begin(), stmt.items.end(),
                              [](const SelectItem& i) { return i.star; });

  // --- Streaming scan / join / emit pipeline --------------------------------
  size_t local_cap =
      early_limit ? static_cast<size_t>(stmt.limit) : static_cast<size_t>(-1);
  // Fan the base scan (and with it the whole probe pipeline) out over the
  // first table's shards only when it can pay off: a sharded table, more
  // than one worker allowed, a scan large enough to amortize dispatch, and
  // no small pushed LIMIT (the serial early-exit path finishes those in a
  // handful of row visits).
  size_t scan_size = n_aliases == 0 ? 0
                     : lazy0 ? (lazy0_scan_all ? tables[0]->row_count()
                                               : lazy0_seed.size())
                             : candidates[0].size();
  size_t n_shards = n_aliases == 0 ? 1 : tables[0]->shard_count();
  bool parallel =
      options.parallel_shards > 1 && n_shards > 1 &&
      scan_size >= static_cast<size_t>(std::max(0, options.parallel_min_rows)) &&
      !(early_limit &&
        stmt.limit < static_cast<long long>(options.parallel_min_limit));
  if (!(early_limit && stmt.limit == 0) && !empty_input) {
    if (!parallel) {
      // The serial pipeline's own span: its lazy first-table scan and its
      // emitted rows, as a morsel worker's span reports them.
      obs::ScopedSpan pipeline_span(options.trace, "pipeline");
      const ExecStats before_pipeline = *stats;
      storage::WorkerRows serial_rs;
      TuplePipeline pipeline(stmt, binder, eval, levels, candidates, projected,
                             has_star, stmt.distinct,
                             /*partition_distinct=*/false, local_cap, stats,
                             &serial_rs);
      if (lazy0) {
        pipeline.SetLazyFirstTable(lazy0_scan_all ? nullptr : &lazy0_seed,
                                   lazy0_scan_all, tables[0]->row_count(),
                                   &filters[0], &compiled[0]);
      }
      pipeline.SetCancelFlag(options.cancel);
      pipeline.SetDeadline(options.deadline);
      pipeline.Run();
      obs::Set(pipeline_span.get(), "base_rows_scanned",
               static_cast<int64_t>(stats->base_rows_scanned -
                                    before_pipeline.base_rows_scanned));
      obs::Set(pipeline_span.get(), "rows_emitted",
               static_cast<int64_t>(stats->rows_emitted -
                                    before_pipeline.rows_emitted));
      RAPTOR_RETURN_NOT_OK(pipeline.error());
      result.rows.Adopt(std::move(serial_rs.rows));
    } else {
      // Pre-split the shared first-table iteration lists (index seed or
      // filtered candidates) into per-shard sub-lists at plan time, so
      // each morsel walks a slice of its shard's own list instead of
      // skip-scanning the whole one. Order within a shard is preserved.
      std::vector<std::vector<RowId>> first_by_shard;
      const std::vector<RowId>* first_list =
          lazy0 ? (lazy0_scan_all ? nullptr : &lazy0_seed)
                : (n_aliases > 0 ? &candidates[0] : nullptr);
      if (first_list != nullptr) {
        first_by_shard.resize(n_shards);
        for (RowId rid : *first_list) {
          first_by_shard[rid & (n_shards - 1)].push_back(rid);
        }
      }
      // LIMIT policy (shared atomic claims vs per-morsel caps merged with a
      // re-dedup): see storage/shard_parallel.h.
      storage::ShardRowBudget budget(stmt.distinct,
                                     early_limit ? stmt.limit : -1);
      // Morsels: fixed-size positional chunks of each shard's iteration
      // space (the k-th row of the shard's start/stride walk, or the k-th
      // entry of its pre-split list), ordered shard-major on per-worker
      // work-stealing deques so a skewed shard's rows spread across the
      // fleet. The merge walks morsels in carve order, so the result is
      // identical for a fixed plan regardless of the steal schedule.
      RowId row_count = tables[0]->row_count();
      std::vector<size_t> counts(n_shards);
      for (size_t s = 0; s < n_shards; ++s) {
        counts[s] = first_list != nullptr
                        ? first_by_shard[s].size()
                        : storage::StrideCount(row_count, s, n_shards);
      }
      std::vector<storage::Morsel> morsels =
          storage::CarveMorsels(counts, options.morsel_size);
      std::vector<storage::MorselRun> runs(morsels.size());
      if (!morsels.empty()) {
        size_t workers = std::min<size_t>(
            static_cast<size_t>(options.parallel_shards), morsels.size());
        WorkStealingQueues queues(morsels.size(), workers);
        std::vector<ExecStats> worker_stats(workers);
        ThreadPool::Shared().ParallelFor(workers, workers, [&](size_t w) {
          auto scan_start = obs::TraceSpan::Clock::now();
          // Evaluator IN-list caches are mutable, so every worker owns one
          // (shared across its morsels).
          Evaluator worker_eval(binder);
          ExecStats* ws = &worker_stats[w];
          bool stolen = false;
          for (size_t m = queues.Next(w, &stolen);
               m != WorkStealingQueues::kDone; m = queues.Next(w, &stolen)) {
            ++ws->morsels_executed;
            if (stolen) ++ws->morsels_stolen;
            const storage::Morsel& mo = morsels[m];
            TuplePipeline pipeline(stmt, binder, worker_eval, levels,
                                   candidates, projected, has_star,
                                   stmt.distinct,
                                   /*partition_distinct=*/stmt.distinct,
                                   budget.local_cap, ws, &runs[m].rs);
            if (lazy0) {
              pipeline.SetLazyFirstTable(
                  lazy0_scan_all ? nullptr : &first_by_shard[mo.shard],
                  lazy0_scan_all, row_count, &filters[0], &compiled[0]);
            } else if (first_list != nullptr) {
              pipeline.SetFirstCandidates(&first_by_shard[mo.shard]);
            }
            pipeline.RestrictFirstTableToMorsel(mo.shard, n_shards, mo.lo,
                                                mo.hi);
            pipeline.SetCancelFlag(options.cancel);
            pipeline.SetDeadline(options.deadline);
            if (budget.shared) {
              pipeline.SetSharedRowBudget(&budget.claimed, budget.shared_cap);
            }
            pipeline.Run();
            runs[m].error = pipeline.error();
            if (!runs[m].error.ok()) break;
          }
          if (options.trace != nullptr) {
            obs::TraceSpan* span = options.trace->AddChild(
                "morsel_worker[" + std::to_string(w) + "]");
            span->SetWindow(scan_start, obs::TraceSpan::Clock::now());
            span->Set("base_rows_scanned",
                      static_cast<int64_t>(ws->base_rows_scanned));
            span->Set("index_probe_rows",
                      static_cast<int64_t>(ws->index_probe_rows));
            span->Set("rows_emitted", static_cast<int64_t>(ws->rows_emitted));
            span->Set("columnar_filter_rows",
                      static_cast<int64_t>(ws->columnar_filter_rows));
            span->Set("morsels_executed",
                      static_cast<int64_t>(ws->morsels_executed));
            span->Set("morsels_stolen",
                      static_cast<int64_t>(ws->morsels_stolen));
          }
        });
        for (const ExecStats& ws : worker_stats) {
          stats->base_rows_scanned += ws.base_rows_scanned;
          stats->index_probe_rows += ws.index_probe_rows;
          stats->join_output_tuples += ws.join_output_tuples;
          stats->rows_emitted += ws.rows_emitted;
          stats->columnar_filter_rows += ws.columnar_filter_rows;
          stats->morsels_executed += ws.morsels_executed;
          stats->morsels_stolen += ws.morsels_stolen;
        }
      }
      RAPTOR_RETURN_NOT_OK(
          storage::MergeShardRuns(runs, stmt.distinct, &result.rows));
    }
  }
  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("sql query cancelled");
  }
  if (DeadlinePoller(options.deadline).ExpiredNow()) {
    return Status::Timeout("sql query deadline exceeded");
  }

  // --- ORDER BY / DISTINCT / LIMIT -------------------------------------------
  if (!stmt.order_by.empty()) {
    // Evaluate order keys against result rows is not possible (rows are
    // projected); instead sort tuples is gone. Re-evaluate on result rows by
    // matching the order expr to a projected column where possible.
    std::vector<int> key_cols;
    std::vector<bool> desc;
    for (const OrderItem& o : stmt.order_by) {
      std::string txt = o.expr->ToString();
      int col = -1;
      for (size_t c = 0; c < result.columns.size(); ++c) {
        if (result.columns[c] == txt) {
          col = static_cast<int>(c);
          break;
        }
      }
      if (col < 0) {
        return Status::Unsupported("ORDER BY must reference a selected column: " +
                                   txt);
      }
      key_cols.push_back(col);
      desc.push_back(o.descending);
    }
    // Sorting needs random access over every row: flatten the blocks, sort,
    // and re-adopt as one block.
    std::vector<Row> rows = result.rows.Flatten();
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const Row& a, const Row& b) {
                       for (size_t k = 0; k < key_cols.size(); ++k) {
                         int cmp = a[key_cols[k]].Compare(b[key_cols[k]]);
                         if (cmp != 0) return desc[k] ? cmp > 0 : cmp < 0;
                       }
                       return false;
                     });
    result.rows.Adopt(std::move(rows));
  }
  if (stmt.limit >= 0 &&
      result.rows.row_count() > static_cast<size_t>(stmt.limit)) {
    result.rows.Truncate(static_cast<size_t>(stmt.limit));
  }
  return result;
}

Result<ResultSet> ExecuteSelect(const SelectStmt& stmt, const Catalog& catalog,
                                const SelectOptions& options,
                                ExecStats* stats) {
  auto blocks = ExecuteSelectBlocks(stmt, catalog, options, stats);
  if (!blocks.ok()) return blocks.status();
  ResultSet result;
  result.columns = std::move(blocks.value().columns);
  result.rows = blocks.value().rows.Flatten();
  return result;
}

double EstimateSelectCost(const SelectStmt& stmt, const Catalog& catalog) {
  // Mirror the executor's binding pass, but tolerate unknown tables: an
  // alias we cannot bind estimates as zero rows rather than erroring (the
  // real run will report the error; admission only needs a price).
  std::vector<std::string> aliases;
  std::vector<const Table*> tables;
  auto bind_table = [&](const TableRef& ref) {
    const Table* t = catalog.FindTable(ref.table);
    if (t == nullptr) return;
    aliases.push_back(ref.effective_alias());
    tables.push_back(t);
  };
  for (const TableRef& ref : stmt.from) bind_table(ref);
  for (const JoinClause& j : stmt.joins) bind_table(j.table);
  if (tables.empty()) return 0.0;

  Binder binder(aliases, tables);
  std::vector<const Expr*> raw_conjuncts;
  SplitConjuncts(stmt.where.get(), &raw_conjuncts);
  for (const JoinClause& j : stmt.joins) {
    SplitConjuncts(j.on.get(), &raw_conjuncts);
  }

  size_t n_aliases = aliases.size();
  // Per alias: the access cost the executor ranks its aliases by — the
  // cheapest probe-able eq/IN conjunct's or dictionary seek's cardinality,
  // or the full row count when nothing probes.
  std::vector<double> est(n_aliases, 0.0);
  for (size_t a = 0; a < n_aliases; ++a) {
    std::vector<ColumnPredicate> compiled;
    compiled.reserve(raw_conjuncts.size());
    for (const Expr* f : raw_conjuncts) {
      compiled.push_back(
          ColumnPredicate::Compile(*f, binder, static_cast<int>(a)));
    }
    auto path = BestAccessPath(compiled, *tables[a], [] { return false; });
    est[a] = static_cast<double>(AccessCost(*path, *tables[a]));
  }

  // An upper bound: the FROM-order driving alias is priced at its own
  // access cost threaded through the whole left-deep pipeline (scaled by
  // the join depth), and every later alias pays its own filter scan once
  // (hash builds). The executor's access-ordered materialization and
  // semi-join seeding only shrink the seeds it visits. Join-selectivity-blind,
  // cheap and monotone in the inputs.
  double cost = est[0] * static_cast<double>(n_aliases);
  for (size_t a = 1; a < n_aliases; ++a) cost += est[a];
  return cost;
}

}  // namespace raptor::sql
