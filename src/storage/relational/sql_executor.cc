#include "storage/relational/sql_executor.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/deadline.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "storage/shard_parallel.h"

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
            ->row(rid)[bc.value().col_idx];
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
      case BinaryOp::kLike: return LikeMatch(l.ToString(), r.ToString());
      case BinaryOp::kNotLike: return !LikeMatch(l.ToString(), r.ToString());
      default: return false;
    }
  }

 private:
  const Binder& binder_;
  InListCache<Expr> in_sets_;
};

/// A single-table filter compiled against the table's frozen columnar
/// storage (table.h / storage/columnar.h). Compilation recognizes
/// `col op literal`, `literal op col` (op mirrored), and non-negated
/// `col IN (...)` with a type-homogeneous list; anything else — and every
/// (shard, predicate) pair the frozen column cannot represent exactly
/// (kMixed columns, double or NULL literals) — keeps Mode::kEval and runs
/// through the row-path Evaluator unchanged. Modes bind per shard because
/// column kinds can diverge across shards of a loosely-typed table.
///
/// Semantics mirror Value::Compare exactly: cross-kind comparisons fold
/// to per-shard constants (numeric sorts before text, so an int cell is
/// always < a text literal), a string literal absent from the column's
/// dictionary can never equal a cell, string range predicates compare
/// dictionary names (same sign as Value's text ordering), and an absent
/// cell behaves as NULL (smaller than every non-null literal, equal to
/// nothing).
class ColumnPredicate {
 public:
  /// Compile `f`, a single-table filter of `alias_idx`. Always returns a
  /// predicate; unrecognized shapes leave every shard on Mode::kEval.
  static ColumnPredicate Compile(const Expr& f, const Binder& binder,
                                 int alias_idx) {
    ColumnPredicate p;
    const Table& table = *binder.table(alias_idx);
    p.shards_.resize(table.shard_count());
    BinaryOp op = BinaryOp::kEq;
    const Expr* colref = nullptr;
    const Value* lit = nullptr;
    bool in_list = false;
    if (f.kind == ExprKind::kBinary) {
      switch (f.op) {
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          break;
        default:
          return p;
      }
      if (f.lhs->kind == ExprKind::kColumnRef &&
          f.rhs->kind == ExprKind::kLiteral) {
        colref = f.lhs.get();
        lit = &f.rhs->literal;
        op = f.op;
      } else if (f.rhs->kind == ExprKind::kColumnRef &&
                 f.lhs->kind == ExprKind::kLiteral) {
        colref = f.rhs.get();
        lit = &f.lhs->literal;
        op = Mirror(f.op);
      } else {
        return p;
      }
    } else if (f.kind == ExprKind::kInList && !f.negated &&
               f.lhs->kind == ExprKind::kColumnRef) {
      colref = f.lhs.get();
      in_list = true;
    } else {
      return p;
    }
    auto bc = binder.Resolve(*colref);
    if (!bc.ok() || bc.value().alias_idx != alias_idx) return p;
    int col_idx = bc.value().col_idx;
    bool lit_int = false;
    if (in_list) {
      bool all_int = !f.in_list.empty();
      bool all_text = !f.in_list.empty();
      for (const Value& v : f.in_list) {
        all_int = all_int && v.is_int();
        all_text = all_text && v.is_text();
      }
      if (!all_int && !all_text) return p;  // mixed/empty list: row path
      if (all_int) {
        for (const Value& v : f.in_list) p.int_set_.insert(v.AsInt());
      } else {
        for (const Value& v : f.in_list) {
          uint32_t id = table.LookupColumnDict(col_idx, v.AsText());
          if (id != kNullDictId) p.dict_set_.insert(id);
        }
      }
      lit_int = all_int;
    } else if (lit->is_int()) {
      p.int_lit_ = lit->AsInt();
      lit_int = true;
    } else if (lit->is_text()) {
      p.str_lit_ = lit->AsText();
      p.dict_lit_ = table.LookupColumnDict(col_idx, p.str_lit_);
    } else {
      return p;  // double / NULL literal: row path per shard
    }
    p.op_ = op;
    p.table_ = &table;
    p.col_idx_ = col_idx;
    for (size_t s = 0; s < table.shard_count(); ++s) {
      const storage::Column& col = table.ColumnSlice(s, col_idx);
      PerShard& ps = p.shards_[s];
      ps.col = &col;
      if (!col.usable()) continue;  // kMixed (or empty shard): row path
      bool col_int = col.kind() == storage::Column::Kind::kInt64;
      if (in_list) {
        // A value of the wrong kind never Compare-equals a cell, so a
        // kind-mismatched homogeneous list matches nothing.
        if (lit_int) {
          ps.mode = col_int ? Mode::kIntIn : Mode::kNever;
        } else {
          ps.mode = !col_int && !p.dict_set_.empty() ? Mode::kDictIn
                                                     : Mode::kNever;
        }
      } else if (lit_int) {
        // Text cells sort after every numeric literal.
        ps.mode = col_int ? Mode::kIntCmp : ConstMode(op, /*cell_cmp=*/1);
      } else if (col_int) {
        // Int cells sort before every text literal.
        ps.mode = ConstMode(op, /*cell_cmp=*/-1);
      } else if (op == BinaryOp::kEq) {
        ps.mode = p.dict_lit_ == kNullDictId ? Mode::kNever : Mode::kDictEq;
      } else if (op == BinaryOp::kNe) {
        ps.mode = p.dict_lit_ == kNullDictId ? Mode::kAlways : Mode::kDictNe;
      } else {
        ps.mode = Mode::kStrCmp;
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
    const PerShard& ps = shards_[shard];
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
      case Mode::kDictEq:
        return ps.col->DictAt(pos) == dict_lit_;
      case Mode::kDictNe:
        return ps.col->DictAt(pos) != dict_lit_;
      case Mode::kDictIn: {
        uint32_t id = ps.col->DictAt(pos);
        return id != kNullDictId && dict_set_.count(id) > 0;
      }
      case Mode::kStrCmp: {
        uint32_t id = ps.col->DictAt(pos);
        if (id == kNullDictId) return CmpHolds(op_, -1);  // NULL cell
        int r = table_->ColumnDictName(col_idx_, id).compare(str_lit_);
        return CmpHolds(op_, r < 0 ? -1 : (r > 0 ? 1 : 0));
      }
      case Mode::kEval:
        break;
    }
    return false;
  }

 private:
  static constexpr uint32_t kNullDictId = storage::kNullDictId;

  enum class Mode : uint8_t {
    kEval,    // not compiled for this shard: row-path Evaluator
    kNever,   // constant false (kind mismatch / dictionary miss)
    kAlways,  // constant true (kind mismatch under Ne/ordering)
    kIntCmp,  // int column `op` int literal
    kIntIn,   // int column IN hashed int set
    kDictEq,  // string column == interned dictionary id
    kDictNe,  // string column != interned dictionary id
    kDictIn,  // string column IN hashed dictionary-id set
    kStrCmp,  // string column `op` text literal via dictionary names
  };

  struct PerShard {
    Mode mode = Mode::kEval;
    const storage::Column* col = nullptr;
  };

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

  const Table* table_ = nullptr;
  int col_idx_ = -1;
  BinaryOp op_ = BinaryOp::kEq;
  int64_t int_lit_ = 0;
  uint32_t dict_lit_ = kNullDictId;
  std::string_view str_lit_;  // borrowed from the statement's literal
  std::unordered_set<int64_t> int_set_;
  std::unordered_set<uint32_t> dict_set_;
  std::vector<PerShard> shards_;
};

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
            binder_.table(oc.alias_idx)->row(t[oc.alias_idx])[oc.col_idx]);
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
      bool pass = true;
      size_t sh = table0->ShardOf(rid);
      size_t pos = table0->LocalOf(rid);
      for (size_t i = 0; i < lazy0_filters_->size(); ++i) {
        // Compiled column check where available for this row's shard;
        // same conjunct position, identical verdict to the Eval below.
        if ((*compiled0_)[i].compiled(sh)) {
          if (stats_ != nullptr) ++stats_->columnar_filter_rows;
          if (!(*compiled0_)[i].Matches(sh, pos)) {
            pass = false;
            break;
          }
          continue;
        }
        auto v = eval_.Eval(*(*lazy0_filters_)[i], t);
        if (!v.ok()) {
          error_ = v.status();
          t[0] = kUnbound;
          return false;
        }
        if (!Evaluator::Truthy(v.value())) {
          pass = false;
          break;
        }
      }
      bool cont = pass ? Descend(0, t) : true;
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
        const Row& src = binder_.table(a)->row(t[a]);
        row.insert(row.end(), src.begin(), src.end());
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
  // For each alias, gather its single-table conjuncts; try index probes for
  // equality / IN conjuncts on indexed columns, then filter the candidates.
  // With LIMIT pushed down, the first table's filtering is deferred into
  // the pipeline so its scan stops early; later tables always materialize
  // (hash-join build sides and cross products iterate them repeatedly).
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
  std::vector<std::vector<RowId>> candidates(n_aliases);
  std::vector<RowId> lazy0_seed;
  bool lazy0 = false;
  bool lazy0_scan_all = false;
  for (size_t a = 0; a < n_aliases; ++a) {
    const Table* table = tables[a];
    // Index selection: rank every probe-able equality / IN conjunct on
    // this alias by its aggregate per-shard cardinality (Table::ProbeCount,
    // no materialization), then materialize only the winner — the same
    // cheapest-access-path choice the graph matcher makes through
    // ProbeCountNodes. (For IN probes the rank sums per-value counts, an
    // upper bound on the deduplicated union.)
    std::vector<RowId> seed;
    bool seeded = false;
    int best_col = -1;
    const Value* best_eq = nullptr;
    const std::vector<Value>* best_in = nullptr;
    size_t best_count = static_cast<size_t>(-1);
    for (const Expr* f : filters[a]) {
      int col_idx = -1;
      const Value* eq = nullptr;
      const std::vector<Value>* in = nullptr;
      if (f->kind == ExprKind::kBinary && f->op == BinaryOp::kEq) {
        const Expr* col = nullptr;
        const Expr* lit = nullptr;
        if (f->lhs->kind == ExprKind::kColumnRef &&
            f->rhs->kind == ExprKind::kLiteral) {
          col = f->lhs.get();
          lit = f->rhs.get();
        } else if (f->rhs->kind == ExprKind::kColumnRef &&
                   f->lhs->kind == ExprKind::kLiteral) {
          col = f->rhs.get();
          lit = f->lhs.get();
        }
        if (col != nullptr) {
          auto bc = binder.Resolve(*col);
          if (bc.ok() && bc.value().alias_idx == static_cast<int>(a) &&
              table->HasIndex(bc.value().col_idx)) {
            col_idx = bc.value().col_idx;
            eq = &lit->literal;
          }
        }
      } else if (f->kind == ExprKind::kInList && !f->negated &&
                 f->lhs->kind == ExprKind::kColumnRef) {
        auto bc = binder.Resolve(*f->lhs);
        if (bc.ok() && bc.value().alias_idx == static_cast<int>(a) &&
            table->HasIndex(bc.value().col_idx)) {
          col_idx = bc.value().col_idx;
          in = &f->in_list;
        }
      }
      if (col_idx < 0) continue;
      size_t count = 0;
      if (eq != nullptr) {
        count = table->ProbeCount(col_idx, *eq);
      } else {
        for (const Value& v : *in) count += table->ProbeCount(col_idx, v);
      }
      if (count < best_count) {
        best_count = count;
        best_col = col_idx;
        best_eq = eq;
        best_in = in;
      }
    }
    if (best_col >= 0) {
      // Materialize the winner: union of its per-shard buckets, re-sorted
      // into global row order (buckets are disjoint across shards; IN
      // probes additionally dedup across values).
      if (best_eq != nullptr) {
        for (size_t s = 0; s < table->shard_count(); ++s) {
          const std::vector<RowId>& bucket =
              table->Probe(best_col, *best_eq, s);
          seed.insert(seed.end(), bucket.begin(), bucket.end());
        }
      } else {
        std::unordered_set<RowId> merged;
        for (const Value& v : *best_in) {
          for (size_t s = 0; s < table->shard_count(); ++s) {
            for (RowId rid : table->Probe(best_col, v, s)) {
              merged.insert(rid);
            }
          }
        }
        seed.assign(merged.begin(), merged.end());
      }
      std::sort(seed.begin(), seed.end());
      seeded = true;
      stats->index_probe_rows += seed.size();
    }
    if (a == 0 && early_limit) {
      lazy0 = true;
      lazy0_scan_all = !seeded;
      lazy0_seed = std::move(seed);
      continue;
    }
    if (!seeded) {
      seed.resize(table->row_count());
      for (RowId i = 0; i < table->row_count(); ++i) seed[i] = i;
    }
    // Apply all single-table filters, through the compiled column check
    // where one is available for the row's shard.
    Tuple probe(n_aliases, kUnbound);
    std::vector<RowId>& out = candidates[a];
    out.reserve(seed.size());
    for (RowId rid : seed) {
      ++stats->base_rows_scanned;
      probe[a] = rid;
      bool pass = true;
      size_t sh = table->ShardOf(rid);
      size_t pos = table->LocalOf(rid);
      for (size_t i = 0; i < filters[a].size(); ++i) {
        if (compiled[a][i].compiled(sh)) {
          ++stats->columnar_filter_rows;
          if (!compiled[a][i].Matches(sh, pos)) {
            pass = false;
            break;
          }
          continue;
        }
        auto v = eval.Eval(*filters[a][i], probe);
        if (!v.ok()) return v.status();
        if (!Evaluator::Truthy(v.value())) {
          pass = false;
          break;
        }
      }
      if (pass) out.push_back(rid);
    }
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
    for (Conjunct& c : conjuncts) {
      if (c.applied || c.expr->kind != ExprKind::kBinary ||
          c.expr->op != BinaryOp::kEq) {
        continue;
      }
      const Expr& e = *c.expr;
      if (e.lhs->kind != ExprKind::kColumnRef ||
          e.rhs->kind != ExprKind::kColumnRef) {
        continue;
      }
      auto l = binder.Resolve(*e.lhs);
      auto r = binder.Resolve(*e.rhs);
      if (!l.ok() || !r.ok()) continue;
      BoundColumn lc = l.value(), rc = r.value();
      auto is_new = [&](const BoundColumn& b) {
        return b.alias_idx == static_cast<int>(a);
      };
      auto is_bound = [&](const BoundColumn& b) {
        return bound.count(b.alias_idx) > 0;
      };
      if (is_new(lc) && is_bound(rc)) {
        levels[a].keys.emplace_back(lc, rc);
        c.applied = true;
      } else if (is_new(rc) && is_bound(lc)) {
        levels[a].keys.emplace_back(rc, lc);
        c.applied = true;
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
      key_vals.clear();
      key_vals.reserve(levels[a].keys.size());
      for (const auto& [nc, oc] : levels[a].keys) {
        key_vals.push_back(table->row(rid)[nc.col_idx]);
      }
      levels[a].build_rows.Append(levels[a].build[key_vals], rid);
    }
  }

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
  if (!(early_limit && stmt.limit == 0)) {
    if (!parallel) {
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
      size_t morsel_size = static_cast<size_t>(std::max(1, options.morsel_size));
      struct Morsel {
        size_t shard;
        size_t lo;
        size_t hi;
      };
      std::vector<Morsel> morsels;
      RowId row_count = tables[0]->row_count();
      for (size_t s = 0; s < n_shards; ++s) {
        size_t count =
            first_list != nullptr
                ? first_by_shard[s].size()
                : (row_count > s ? (row_count - 1 - s) / n_shards + 1 : 0);
        for (size_t lo = 0; lo < count; lo += morsel_size) {
          morsels.push_back({s, lo, std::min(lo + morsel_size, count)});
        }
      }
      struct MorselRun {
        storage::WorkerRows rs;
        Status error = Status::OK();
      };
      std::vector<MorselRun> runs(morsels.size());
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
            const Morsel& mo = morsels[m];
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
  // Per alias: the cheapest probe-able eq/IN conjunct's cardinality, or the
  // full row count when nothing probes — exactly the access-path rank the
  // executor's index selection computes before materializing the winner.
  std::vector<double> est(n_aliases, 0.0);
  for (size_t a = 0; a < n_aliases; ++a) est[a] = static_cast<double>(tables[a]->row_count());
  for (const Expr* f : raw_conjuncts) {
    int col_idx = -1;
    int alias_idx = -1;
    const Value* eq = nullptr;
    const std::vector<Value>* in = nullptr;
    if (f->kind == ExprKind::kBinary && f->op == BinaryOp::kEq) {
      const Expr* col = nullptr;
      const Expr* lit = nullptr;
      if (f->lhs->kind == ExprKind::kColumnRef &&
          f->rhs->kind == ExprKind::kLiteral) {
        col = f->lhs.get();
        lit = f->rhs.get();
      } else if (f->rhs->kind == ExprKind::kColumnRef &&
                 f->lhs->kind == ExprKind::kLiteral) {
        col = f->rhs.get();
        lit = f->lhs.get();
      }
      if (col != nullptr) {
        auto bc = binder.Resolve(*col);
        if (bc.ok() && tables[bc.value().alias_idx]->HasIndex(bc.value().col_idx)) {
          alias_idx = bc.value().alias_idx;
          col_idx = bc.value().col_idx;
          eq = &lit->literal;
        }
      }
    } else if (f->kind == ExprKind::kInList && !f->negated &&
               f->lhs->kind == ExprKind::kColumnRef) {
      auto bc = binder.Resolve(*f->lhs);
      if (bc.ok() && tables[bc.value().alias_idx]->HasIndex(bc.value().col_idx)) {
        alias_idx = bc.value().alias_idx;
        col_idx = bc.value().col_idx;
        in = &f->in_list;
      }
    }
    if (col_idx < 0) continue;
    const Table* table = tables[alias_idx];
    size_t count = 0;
    if (eq != nullptr) {
      count = table->ProbeCount(col_idx, *eq);
    } else {
      for (const Value& v : *in) count += table->ProbeCount(col_idx, v);
    }
    est[alias_idx] = std::min(est[alias_idx], static_cast<double>(count));
  }

  // The driving alias threads every candidate through the whole left-deep
  // pipeline, so scale it by the join depth; later aliases pay their own
  // filter scan once (hash builds) — a deliberately join-selectivity-blind
  // upper-flavored estimate, cheap and monotone in the inputs.
  double cost = est[0] * static_cast<double>(n_aliases);
  for (size_t a = 1; a < n_aliases; ++a) cost += est[a];
  return cost;
}

}  // namespace raptor::sql
