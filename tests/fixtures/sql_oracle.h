// Brute-force SQL reference evaluator for the differential tests.
//
// Deliberately independent of the executor: it reuses only the parser's
// AST, the tables' rows (read by dense row id, never through hash
// indexes or frozen columns) and Value's comparison semantics. It walks
// the full cross product of the FROM and JOIN tables in clause order as
// nested loops — checking each WHERE / ON conjunct as soon as its aliases
// are bound, which prunes but never reorders — keeps the tuples on which
// WHERE and every ON clause hold, projects the SELECT list, applies
// DISTINCT (first occurrence wins), stable-sorts by ORDER BY and
// truncates to LIMIT. Its row order is the cross product's,
// which is also the executor's serial order, so ORDER BY ties stay
// comparable. It is slow by design — tests keep tables small.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "storage/relational/database.h"
#include "storage/relational/sql_ast.h"

namespace raptor::fixtures {

class SqlOracle {
 public:
  explicit SqlOracle(const sql::Database& db) : db_(db) {}

  Result<std::vector<sql::Row>> Run(const sql::SelectStmt& stmt) {
    aliases_.clear();
    tables_.clear();
    for (const sql::TableRef& ref : stmt.from) RAPTOR_RETURN_NOT_OK(Bind(ref));
    for (const sql::JoinClause& j : stmt.joins) {
      RAPTOR_RETURN_NOT_OK(Bind(j.table));
    }
    // Each WHERE / ON conjunct is checked at the first alias whose binding
    // completes its column references, so a failing prefix of a tuple cuts
    // its whole subtree of the cross product. Rows and their order are the
    // full cross product's.
    levels_.assign(tables_.size(), {});
    if (stmt.where != nullptr) Split(*stmt.where);
    for (const sql::JoinClause& j : stmt.joins) Split(*j.on);
    stmt_ = &stmt;
    out_.clear();
    seen_.clear();
    tuple_.assign(tables_.size(), 0);
    if (!tables_.empty()) RAPTOR_RETURN_NOT_OK(Scan(0));
    std::stable_sort(out_.begin(), out_.end(), [&](const Out& x, const Out& y) {
      for (size_t k = 0; k < stmt.order_by.size(); ++k) {
        int c = x.keys[k].Compare(y.keys[k]);
        if (c != 0) return stmt.order_by[k].descending ? c > 0 : c < 0;
      }
      return false;
    });
    std::vector<sql::Row> rows;
    for (Out& o : out_) rows.push_back(std::move(o.row));
    if (stmt.limit >= 0 && rows.size() > static_cast<size_t>(stmt.limit)) {
      rows.resize(static_cast<size_t>(stmt.limit));
    }
    return rows;
  }

 private:
  struct Out {
    sql::Row row;
    sql::Row keys;
  };

  /// File each conjunct of `e` under the alias that completes it.
  void Split(const sql::Expr& e) {
    if (e.kind == sql::ExprKind::kBinary && e.op == sql::BinaryOp::kAnd) {
      Split(*e.lhs);
      Split(*e.rhs);
      return;
    }
    levels_[Level(e)].push_back(&e);
  }

  /// Highest alias index `e` reads; unresolvable or ambiguous columns wait
  /// for the full tuple, where Column() reports them.
  size_t Level(const sql::Expr& e) const {
    size_t last = tables_.size() - 1;
    if (e.kind == sql::ExprKind::kColumnRef) {
      size_t owner = tables_.size();
      for (size_t a = 0; a < tables_.size(); ++a) {
        if (!e.table.empty() && aliases_[a] != e.table) continue;
        if (tables_[a]->schema().FindColumn(e.column) < 0) continue;
        if (owner != tables_.size()) return last;
        owner = a;
      }
      return owner == tables_.size() ? last : owner;
    }
    size_t level = 0;
    if (e.lhs != nullptr) level = std::max(level, Level(*e.lhs));
    if (e.rhs != nullptr) level = std::max(level, Level(*e.rhs));
    return level;
  }

  /// Nested loop over alias `a`'s row ids (the last alias fastest, so rows
  /// come out in FROM order); a complete tuple is projected.
  Status Scan(size_t a) {
    if (a == tables_.size()) return Emit();
    for (sql::RowId r = 0; r < tables_[a]->row_count(); ++r) {
      tuple_[a] = r;
      bool keep = true;
      for (const sql::Expr* c : levels_[a]) {
        auto v = Eval(*c);
        if (!v.ok()) return v.status();
        keep = keep && Truthy(v.value());
      }
      if (keep) RAPTOR_RETURN_NOT_OK(Scan(a + 1));
    }
    return Status::OK();
  }

  Status Emit() {
    Out o;
    for (const sql::SelectItem& item : stmt_->items) {
      if (item.star) {
        for (size_t a = 0; a < tables_.size(); ++a) {
          sql::Row src = tables_[a]->RowAt(tuple_[a]);
          o.row.insert(o.row.end(), src.begin(), src.end());
        }
        continue;
      }
      auto v = Eval(*item.expr);
      if (!v.ok()) return v.status();
      o.row.push_back(std::move(v).value());
    }
    for (const sql::OrderItem& item : stmt_->order_by) {
      auto v = Eval(*item.expr);
      if (!v.ok()) return v.status();
      o.keys.push_back(std::move(v).value());
    }
    if (!stmt_->distinct || seen_.insert(o.row).second) {
      out_.push_back(std::move(o));
    }
    return Status::OK();
  }

  Status Bind(const sql::TableRef& ref) {
    const sql::Table* t = db_.FindTable(ref.table);
    if (t == nullptr) return Status::NotFound("unknown table: " + ref.table);
    aliases_.push_back(ref.effective_alias());
    tables_.push_back(t);
    return Status::OK();
  }

  Result<sql::Value> Column(const sql::Expr& e) const {
    std::optional<sql::Value> found;
    for (size_t a = 0; a < tables_.size(); ++a) {
      if (!e.table.empty() && aliases_[a] != e.table) continue;
      int c = tables_[a]->schema().FindColumn(e.column);
      if (c < 0) continue;
      if (found.has_value()) {
        return Status::InvalidArgument("ambiguous column");
      }
      found = tables_[a]->Cell(tuple_[a], c);
    }
    if (!found.has_value()) {
      return Status::NotFound("unknown column: " + e.column);
    }
    return *found;
  }

  static bool Truthy(const sql::Value& v) {
    if (v.is_null()) return false;
    if (v.is_int()) return v.AsInt() != 0;
    if (v.is_double()) return v.AsDouble() != 0.0;
    return !v.AsText().empty();
  }

  static sql::Value Bool(bool b) { return sql::Value(int64_t{b ? 1 : 0}); }

  Result<sql::Value> Eval(const sql::Expr& e) const {
    using Op = sql::BinaryOp;
    switch (e.kind) {
      case sql::ExprKind::kLiteral:
        return e.literal;
      case sql::ExprKind::kColumnRef:
        return Column(e);
      case sql::ExprKind::kUnaryNot: {
        auto v = Eval(*e.lhs);
        if (!v.ok()) return v.status();
        return Bool(!Truthy(v.value()));
      }
      case sql::ExprKind::kInList: {
        auto v = Eval(*e.lhs);
        if (!v.ok()) return v.status();
        bool found = false;
        for (const sql::Value& item : e.in_list) {
          found = found || v.value().Compare(item) == 0;
        }
        return Bool(found != e.negated);
      }
      case sql::ExprKind::kBinary:
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
      case Op::kLike: return Bool(LikeMatch(a.ToString(), b.ToString()));
      case Op::kNotLike: return Bool(!LikeMatch(a.ToString(), b.ToString()));
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
    return Status::Internal("unknown sql operator");
  }

  const sql::Database& db_;
  std::vector<std::string> aliases_;
  std::vector<const sql::Table*> tables_;
  std::vector<sql::RowId> tuple_;
  std::vector<std::vector<const sql::Expr*>> levels_;  // alias -> conjuncts
  const sql::SelectStmt* stmt_ = nullptr;
  std::vector<Out> out_;
  std::unordered_set<sql::Row, sql::ValueRowHash, sql::ValueRowEq> seen_;
};

}  // namespace raptor::fixtures
