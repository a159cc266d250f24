// Brute-force SQL reference evaluator for the differential tests.
//
// Deliberately independent of the executor: it reuses only the parser's
// AST, the tables' rows (read by dense row id, never through hash
// indexes or frozen columns) and Value's comparison semantics. It takes
// the full cross product of the FROM and JOIN tables in clause order,
// keeps the tuples on which WHERE and every ON clause hold, projects the
// SELECT list, applies DISTINCT (first occurrence wins), stable-sorts by
// ORDER BY and truncates to LIMIT. Its row order is the cross product's,
// which is also the executor's serial order, so ORDER BY ties stay
// comparable. It is slow by design — tests keep tables small.
#pragma once

#include <algorithm>
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
    std::vector<const sql::Expr*> conds;
    if (stmt.where != nullptr) conds.push_back(stmt.where.get());
    for (const sql::JoinClause& j : stmt.joins) conds.push_back(j.on.get());

    // Cross product, odometer-style: tuple_[a] walks table a's row ids.
    struct Out {
      sql::Row row;
      sql::Row keys;
    };
    std::vector<Out> out;
    std::unordered_set<sql::Row, sql::ValueRowHash, sql::ValueRowEq> seen;
    tuple_.assign(tables_.size(), 0);
    bool empty = tables_.empty();
    for (const sql::Table* t : tables_) empty = empty || t->row_count() == 0;
    while (!empty) {
      bool keep = true;
      for (const sql::Expr* c : conds) {
        auto v = Eval(*c);
        if (!v.ok()) return v.status();
        keep = keep && Truthy(v.value());
      }
      if (keep) {
        Out o;
        for (const sql::SelectItem& item : stmt.items) {
          if (item.star) {
            for (size_t a = 0; a < tables_.size(); ++a) {
              const sql::Row& src = tables_[a]->row(tuple_[a]);
              o.row.insert(o.row.end(), src.begin(), src.end());
            }
            continue;
          }
          auto v = Eval(*item.expr);
          if (!v.ok()) return v.status();
          o.row.push_back(std::move(v).value());
        }
        for (const sql::OrderItem& item : stmt.order_by) {
          auto v = Eval(*item.expr);
          if (!v.ok()) return v.status();
          o.keys.push_back(std::move(v).value());
        }
        if (!stmt.distinct || seen.insert(o.row).second) {
          out.push_back(std::move(o));
        }
      }
      // Advance the last alias fastest, so rows come out in FROM order.
      size_t a = tables_.size();
      while (a > 0 && ++tuple_[a - 1] == tables_[a - 1]->row_count()) {
        tuple_[--a] = 0;
      }
      empty = a == 0;
    }
    std::stable_sort(out.begin(), out.end(), [&](const Out& x, const Out& y) {
      for (size_t k = 0; k < stmt.order_by.size(); ++k) {
        int c = x.keys[k].Compare(y.keys[k]);
        if (c != 0) return stmt.order_by[k].descending ? c > 0 : c < 0;
      }
      return false;
    });
    std::vector<sql::Row> rows;
    for (Out& o : out) rows.push_back(std::move(o.row));
    if (stmt.limit >= 0 && rows.size() > static_cast<size_t>(stmt.limit)) {
      rows.resize(static_cast<size_t>(stmt.limit));
    }
    return rows;
  }

 private:
  Status Bind(const sql::TableRef& ref) {
    const sql::Table* t = db_.FindTable(ref.table);
    if (t == nullptr) return Status::NotFound("unknown table: " + ref.table);
    aliases_.push_back(ref.effective_alias());
    tables_.push_back(t);
    return Status::OK();
  }

  Result<sql::Value> Column(const sql::Expr& e) const {
    const sql::Value* found = nullptr;
    for (size_t a = 0; a < tables_.size(); ++a) {
      if (!e.table.empty() && aliases_[a] != e.table) continue;
      int c = tables_[a]->schema().FindColumn(e.column);
      if (c < 0) continue;
      if (found != nullptr) return Status::InvalidArgument("ambiguous column");
      found = &tables_[a]->row(tuple_[a])[c];
    }
    if (found == nullptr) return Status::NotFound("unknown column: " + e.column);
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
};

}  // namespace raptor::fixtures
