#include "storage/relational/sql_parser.h"

#include <cctype>
#include <charconv>
#include <unordered_set>

#include "common/strings.h"

namespace raptor::sql {

namespace {

/// Checked conversion of a numeric token. std::from_chars reports an
/// out-of-range literal (or an int bound that does not fit T) instead of
/// throwing, so hostile query text yields a parse error, never an abort.
template <class T>
Result<T> ParseNumber(const Token& tok) {
  T value{};
  const char* end = tok.text.data() + tok.text.size();
  auto [ptr, ec] = std::from_chars(tok.text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return Status::ParseError(
        StrFormat("number out of range: '%s' (at offset %zu)",
                  tok.text.c_str(), tok.pos));
  }
  return value;
}

const std::unordered_set<std::string>& Keywords() {
  static const std::unordered_set<std::string> kKeywords = {
      "SELECT", "DISTINCT", "FROM", "JOIN",  "ON",    "WHERE", "AND",
      "OR",     "NOT",      "LIKE", "IN",    "ORDER", "BY",    "ASC",
      "DESC",   "LIMIT",    "AS",   "NULL",
  };
  return kKeywords;
}

}  // namespace

Result<std::vector<Token>> LexSql(std::string_view sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < sql.size()) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token tok;
    tok.pos = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < sql.size() && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                                sql[i] == '_')) {
        ++i;
      }
      std::string word(sql.substr(start, i - start));
      std::string upper = ToUpper(word);
      if (Keywords().count(upper)) {
        tok.kind = TokenKind::kKeyword;
        tok.text = upper;
      } else {
        tok.kind = TokenKind::kIdent;
        tok.text = word;
      }
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_float = false;
      while (i < sql.size() && (std::isdigit(static_cast<unsigned char>(sql[i])) ||
                                sql[i] == '.')) {
        if (sql[i] == '.') is_float = true;
        ++i;
      }
      tok.kind = is_float ? TokenKind::kFloat : TokenKind::kInt;
      tok.text = std::string(sql.substr(start, i - start));
    } else if (c == '\'') {
      ++i;
      std::string s;
      bool closed = false;
      while (i < sql.size()) {
        if (sql[i] == '\'') {
          if (i + 1 < sql.size() && sql[i + 1] == '\'') {
            s.push_back('\'');
            i += 2;
          } else {
            ++i;
            closed = true;
            break;
          }
        } else {
          s.push_back(sql[i++]);
        }
      }
      if (!closed) {
        return Status::ParseError(
            StrFormat("unterminated string literal at offset %zu", tok.pos));
      }
      tok.kind = TokenKind::kString;
      tok.text = std::move(s);
    } else {
      // Multi-char operators first.
      static const char* kTwoChar[] = {"<=", ">=", "!=", "<>"};
      tok.kind = TokenKind::kSymbol;
      bool matched = false;
      for (const char* op : kTwoChar) {
        if (sql.substr(i, 2) == op) {
          tok.text = op;
          i += 2;
          matched = true;
          break;
        }
      }
      if (!matched) {
        static const std::string kSingle = "=<>(),.*+-";
        if (kSingle.find(c) == std::string::npos) {
          return Status::ParseError(
              StrFormat("unexpected character '%c' at offset %zu", c, i));
        }
        tok.text = std::string(1, c);
        ++i;
      }
    }
    tokens.push_back(std::move(tok));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.pos = sql.size();
  tokens.push_back(end);
  return tokens;
}

namespace {

// Local helper: propagate Status failures out of Result-returning methods.
#define RAPTOR_RETURN_NOT_OK_R(expr)          \
  do {                                        \
    ::raptor::Status _st = (expr);            \
    if (!_st.ok()) return _st;                \
  } while (0)

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStmt> ParseSelectStmt() {
    SelectStmt stmt;
    RAPTOR_RETURN_NOT_OK_R(ExpectKeyword("SELECT"));
    if (AcceptKeyword("DISTINCT")) stmt.distinct = true;
    // Select list.
    while (true) {
      SelectItem item;
      if (AcceptSymbol("*")) {
        item.star = true;
      } else {
        auto expr = ParseExpr();
        if (!expr.ok()) return expr.status();
        item.expr = std::move(expr).value();
        if (AcceptKeyword("AS")) {
          if (Peek().kind != TokenKind::kIdent) {
            return Err("expected alias after AS");
          }
          item.alias = Next().text;
        }
      }
      stmt.items.push_back(std::move(item));
      if (!AcceptSymbol(",")) break;
    }
    RAPTOR_RETURN_NOT_OK_R(ExpectKeyword("FROM"));
    while (true) {
      auto tref = ParseTableRef();
      if (!tref.ok()) return tref.status();
      stmt.from.push_back(std::move(tref).value());
      if (!AcceptSymbol(",")) break;
    }
    while (AcceptKeyword("JOIN")) {
      JoinClause join;
      auto tref = ParseTableRef();
      if (!tref.ok()) return tref.status();
      join.table = std::move(tref).value();
      RAPTOR_RETURN_NOT_OK_R(ExpectKeyword("ON"));
      auto on = ParseExpr();
      if (!on.ok()) return on.status();
      join.on = std::move(on).value();
      stmt.joins.push_back(std::move(join));
    }
    if (AcceptKeyword("WHERE")) {
      auto where = ParseExpr();
      if (!where.ok()) return where.status();
      stmt.where = std::move(where).value();
    }
    if (AcceptKeyword("ORDER")) {
      RAPTOR_RETURN_NOT_OK_R(ExpectKeyword("BY"));
      while (true) {
        OrderItem item;
        auto expr = ParseExpr();
        if (!expr.ok()) return expr.status();
        item.expr = std::move(expr).value();
        if (AcceptKeyword("DESC")) {
          item.descending = true;
        } else {
          AcceptKeyword("ASC");
        }
        stmt.order_by.push_back(std::move(item));
        if (!AcceptSymbol(",")) break;
      }
    }
    if (AcceptKeyword("LIMIT")) {
      if (Peek().kind != TokenKind::kInt) return Err("expected LIMIT count");
      auto limit = ParseNumber<long long>(Next());
      if (!limit.ok()) return limit.status();
      stmt.limit = limit.value();
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Err("trailing tokens after statement: '" + Peek().text + "'");
    }
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Next() { return tokens_[pos_++]; }

  bool AcceptKeyword(std::string_view kw) {
    if (Peek().kind == TokenKind::kKeyword && Peek().text == kw) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AcceptSymbol(std::string_view sym) {
    if (Peek().kind == TokenKind::kSymbol && Peek().text == sym) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!AcceptKeyword(kw)) {
      return Status::ParseError(StrFormat("expected %s at offset %zu, got '%s'",
                                          std::string(kw).c_str(), Peek().pos,
                                          Peek().text.c_str()));
    }
    return Status::OK();
  }
  Status ExpectSymbol(std::string_view sym) {
    if (!AcceptSymbol(sym)) {
      return Status::ParseError(StrFormat("expected %s at offset %zu, got '%s'",
                                          std::string(sym).c_str(), Peek().pos,
                                          Peek().text.c_str()));
    }
    return Status::OK();
  }
  Status Err(std::string msg) const {
    return Status::ParseError(
        StrFormat("%s (at offset %zu)", msg.c_str(), Peek().pos));
  }

  Result<TableRef> ParseTableRef() {
    if (Peek().kind != TokenKind::kIdent) return Err("expected table name");
    TableRef ref;
    ref.table = Next().text;
    if (Peek().kind == TokenKind::kIdent) ref.alias = Next().text;
    return ref;
  }

  // expr := and_expr (OR and_expr)*
  Result<std::unique_ptr<Expr>> ParseExpr() {
    auto lhs = ParseAnd();
    if (!lhs.ok()) return lhs.status();
    auto node = std::move(lhs).value();
    while (AcceptKeyword("OR")) {
      auto rhs = ParseAnd();
      if (!rhs.ok()) return rhs.status();
      node = Expr::MakeBinary(BinaryOp::kOr, std::move(node),
                              std::move(rhs).value());
    }
    return node;
  }

  Result<std::unique_ptr<Expr>> ParseAnd() {
    auto lhs = ParseNot();
    if (!lhs.ok()) return lhs.status();
    auto node = std::move(lhs).value();
    while (AcceptKeyword("AND")) {
      auto rhs = ParseNot();
      if (!rhs.ok()) return rhs.status();
      node = Expr::MakeBinary(BinaryOp::kAnd, std::move(node),
                              std::move(rhs).value());
    }
    return node;
  }

  Result<std::unique_ptr<Expr>> ParseNot() {
    if (AcceptKeyword("NOT")) {
      auto inner = ParseNot();
      if (!inner.ok()) return inner.status();
      return Expr::MakeNot(std::move(inner).value());
    }
    return ParseComparison();
  }

  Result<std::unique_ptr<Expr>> ParseAdditive() {
    auto lhs = ParsePrimary();
    if (!lhs.ok()) return lhs.status();
    auto node = std::move(lhs).value();
    while (true) {
      BinaryOp op;
      if (AcceptSymbol("+")) {
        op = BinaryOp::kAdd;
      } else if (AcceptSymbol("-")) {
        op = BinaryOp::kSub;
      } else {
        break;
      }
      auto rhs = ParsePrimary();
      if (!rhs.ok()) return rhs.status();
      node = Expr::MakeBinary(op, std::move(node), std::move(rhs).value());
    }
    return node;
  }

  Result<std::unique_ptr<Expr>> ParseComparison() {
    auto lhs = ParseAdditive();
    if (!lhs.ok()) return lhs.status();
    auto node = std::move(lhs).value();

    // LIKE / NOT LIKE / IN / NOT IN
    bool negated = false;
    size_t save = pos_;
    if (AcceptKeyword("NOT")) negated = true;
    if (AcceptKeyword("LIKE")) {
      auto rhs = ParsePrimary();
      if (!rhs.ok()) return rhs.status();
      return Expr::MakeBinary(negated ? BinaryOp::kNotLike : BinaryOp::kLike,
                              std::move(node), std::move(rhs).value());
    }
    if (AcceptKeyword("IN")) {
      RAPTOR_RETURN_NOT_OK_R(ExpectSymbol("("));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kInList;
      e->negated = negated;
      e->lhs = std::move(node);
      while (true) {
        auto lit = ParsePrimary();
        if (!lit.ok()) return lit.status();
        auto v = std::move(lit).value();
        if (v->kind != ExprKind::kLiteral) {
          return Err("IN list must contain literals");
        }
        e->in_list.push_back(std::move(v->literal));
        if (!AcceptSymbol(",")) break;
      }
      RAPTOR_RETURN_NOT_OK_R(ExpectSymbol(")"));
      return std::unique_ptr<Expr>(std::move(e));
    }
    if (negated) pos_ = save;  // bare NOT belongs to ParseNot

    struct OpMap {
      const char* sym;
      BinaryOp op;
    };
    static const OpMap kOps[] = {
        {"=", BinaryOp::kEq},  {"!=", BinaryOp::kNe}, {"<>", BinaryOp::kNe},
        {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},
        {">", BinaryOp::kGt},
    };
    for (const OpMap& m : kOps) {
      if (AcceptSymbol(m.sym)) {
        auto rhs = ParseAdditive();
        if (!rhs.ok()) return rhs.status();
        return Expr::MakeBinary(m.op, std::move(node), std::move(rhs).value());
      }
    }
    return node;
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kInt: {
        auto v = ParseNumber<int64_t>(Next());
        if (!v.ok()) return v.status();
        return Expr::MakeLiteral(Value(v.value()));
      }
      case TokenKind::kFloat: {
        auto v = ParseNumber<double>(Next());
        if (!v.ok()) return v.status();
        return Expr::MakeLiteral(Value(v.value()));
      }
      case TokenKind::kString: {
        Next();
        return Expr::MakeLiteral(Value(tok.text));
      }
      case TokenKind::kKeyword:
        if (tok.text == "NULL") {
          Next();
          return Expr::MakeLiteral(Value::Null());
        }
        return Err("unexpected keyword '" + tok.text + "'");
      case TokenKind::kIdent: {
        Next();
        std::string first = tok.text;
        if (AcceptSymbol(".")) {
          if (Peek().kind != TokenKind::kIdent) {
            return Err("expected column name after '.'");
          }
          return Expr::MakeColumn(first, Next().text);
        }
        return Expr::MakeColumn("", first);
      }
      case TokenKind::kSymbol:
        if (tok.text == "(") {
          Next();
          auto inner = ParseExpr();
          if (!inner.ok()) return inner.status();
          RAPTOR_RETURN_NOT_OK_R(ExpectSymbol(")"));
          return std::move(inner).value();
        }
        return Err("unexpected symbol '" + tok.text + "'");
      case TokenKind::kEnd:
        return Err("unexpected end of input");
    }
    return Err("unexpected token");
  }

#undef RAPTOR_RETURN_NOT_OK_R

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<SelectStmt> ParseSelect(std::string_view sql) {
  auto tokens = LexSql(sql);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.ParseSelectStmt();
}

}  // namespace raptor::sql
