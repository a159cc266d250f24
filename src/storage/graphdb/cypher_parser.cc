#include "storage/graphdb/cypher_parser.h"

#include <cctype>
#include <charconv>
#include <unordered_set>

#include "common/strings.h"

namespace raptor::graphdb {

namespace {

enum class Tok {
  kIdent,
  kKeyword,
  kInt,
  kFloat,
  kString,
  kSymbol,
  kEnd,
};

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;
  size_t pos = 0;
};

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
      "MATCH", "WHERE", "RETURN",   "DISTINCT", "AND",  "OR",
      "NOT",   "IN",    "CONTAINS", "STARTS",   "ENDS", "WITH",
      "AS",    "LIMIT", "NULL",
  };
  return kKeywords;
}

Result<std::vector<Token>> Lex(std::string_view text) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token tok;
    tok.pos = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[i])) ||
              text[i] == '_')) {
        ++i;
      }
      std::string word(text.substr(start, i - start));
      std::string upper = ToUpper(word);
      if (Keywords().count(upper)) {
        tok.kind = Tok::kKeyword;
        tok.text = upper;
      } else {
        tok.kind = Tok::kIdent;
        tok.text = word;
      }
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_float = false;
      while (i < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[i])) ||
              (text[i] == '.' && i + 1 < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[i + 1])) &&
               !(i + 1 < text.size() && text[i + 1] == '.')))) {
        if (text[i] == '.') {
          // Guard against the range token '..'.
          if (i + 1 < text.size() && text[i + 1] == '.') break;
          is_float = true;
        }
        ++i;
      }
      tok.kind = is_float ? Tok::kFloat : Tok::kInt;
      tok.text = std::string(text.substr(start, i - start));
    } else if (c == '\'') {
      ++i;
      std::string s;
      bool closed = false;
      while (i < text.size()) {
        if (text[i] == '\\' && i + 1 < text.size() && text[i + 1] == '\'') {
          s.push_back('\'');
          i += 2;
        } else if (text[i] == '\'') {
          ++i;
          closed = true;
          break;
        } else {
          s.push_back(text[i++]);
        }
      }
      if (!closed) {
        return Status::ParseError(
            StrFormat("unterminated string at offset %zu", tok.pos));
      }
      tok.kind = Tok::kString;
      tok.text = std::move(s);
    } else {
      tok.kind = Tok::kSymbol;
      static const char* kMulti[] = {"->", "<=", ">=", "<>", ".."};
      bool matched = false;
      for (const char* op : kMulti) {
        if (text.substr(i, 2) == op) {
          tok.text = op;
          i += 2;
          matched = true;
          break;
        }
      }
      if (!matched) {
        static const std::string kSingle = "()[]{}:,.*-=<>+";
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
  end.kind = Tok::kEnd;
  end.pos = text.size();
  tokens.push_back(end);
  return tokens;
}

#define CYPHER_RETURN_NOT_OK(expr)            \
  do {                                        \
    ::raptor::Status _st = (expr);            \
    if (!_st.ok()) return _st;                \
  } while (0)

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<CypherQuery> Parse() {
    CypherQuery query;
    CYPHER_RETURN_NOT_OK(ExpectKeyword("MATCH"));
    while (true) {
      auto part = ParsePatternPart();
      if (!part.ok()) return part.status();
      query.patterns.push_back(std::move(part).value());
      if (!AcceptSymbol(",")) break;
    }
    if (AcceptKeyword("WHERE")) {
      auto where = ParseExpr();
      if (!where.ok()) return where.status();
      query.where = std::move(where).value();
    }
    CYPHER_RETURN_NOT_OK(ExpectKeyword("RETURN"));
    if (AcceptKeyword("DISTINCT")) query.distinct = true;
    while (true) {
      CypherReturnItem item;
      auto expr = ParsePrimary();
      if (!expr.ok()) return expr.status();
      item.expr = std::move(expr).value();
      if (AcceptKeyword("AS")) {
        if (Peek().kind != Tok::kIdent) return Err("expected alias after AS");
        item.alias = Next().text;
      }
      query.items.push_back(std::move(item));
      if (!AcceptSymbol(",")) break;
    }
    if (AcceptKeyword("LIMIT")) {
      if (Peek().kind != Tok::kInt) return Err("expected LIMIT count");
      auto limit = ParseNumber<long long>(Next());
      if (!limit.ok()) return limit.status();
      query.limit = limit.value();
    }
    if (Peek().kind != Tok::kEnd) {
      return Err("trailing tokens: '" + Peek().text + "'");
    }
    return query;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() { return tokens_[pos_++]; }

  bool AcceptKeyword(std::string_view kw) {
    if (Peek().kind == Tok::kKeyword && Peek().text == kw) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AcceptSymbol(std::string_view sym) {
    if (Peek().kind == Tok::kSymbol && Peek().text == sym) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!AcceptKeyword(kw)) {
      return Status::ParseError(
          StrFormat("expected %s at offset %zu, got '%s'",
                    std::string(kw).c_str(), Peek().pos, Peek().text.c_str()));
    }
    return Status::OK();
  }
  Status ExpectSymbol(std::string_view sym) {
    if (!AcceptSymbol(sym)) {
      return Status::ParseError(
          StrFormat("expected '%s' at offset %zu, got '%s'",
                    std::string(sym).c_str(), Peek().pos, Peek().text.c_str()));
    }
    return Status::OK();
  }
  Status Err(std::string msg) const {
    return Status::ParseError(
        StrFormat("%s (at offset %zu)", msg.c_str(), Peek().pos));
  }

  Result<Value> ParseLiteralValue() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case Tok::kInt: {
        auto v = ParseNumber<int64_t>(Next());
        if (!v.ok()) return v.status();
        return Value(v.value());
      }
      case Tok::kFloat: {
        auto v = ParseNumber<double>(Next());
        if (!v.ok()) return v.status();
        return Value(v.value());
      }
      case Tok::kString:
        Next();
        return Value(tok.text);
      case Tok::kKeyword:
        if (tok.text == "NULL") {
          Next();
          return Value::Null();
        }
        return Err("expected literal");
      default:
        return Err("expected literal");
    }
  }

  Result<std::vector<PropConstraint>> ParseProps() {
    std::vector<PropConstraint> props;
    if (!AcceptSymbol("{")) return props;
    while (true) {
      if (Peek().kind != Tok::kIdent) return Err("expected property name");
      PropConstraint pc;
      pc.key = Next().text;
      CYPHER_RETURN_NOT_OK(ExpectSymbol(":"));
      auto v = ParseLiteralValue();
      if (!v.ok()) return v.status();
      pc.value = std::move(v).value();
      props.push_back(std::move(pc));
      if (!AcceptSymbol(",")) break;
    }
    CYPHER_RETURN_NOT_OK(ExpectSymbol("}"));
    return props;
  }

  Result<NodePattern> ParseNode() {
    CYPHER_RETURN_NOT_OK(ExpectSymbol("("));
    NodePattern node;
    if (Peek().kind == Tok::kIdent) node.var = Next().text;
    if (AcceptSymbol(":")) {
      if (Peek().kind != Tok::kIdent) return Err("expected label");
      node.label = Next().text;
    }
    auto props = ParseProps();
    if (!props.ok()) return props.status();
    node.props = std::move(props).value();
    CYPHER_RETURN_NOT_OK(ExpectSymbol(")"));
    return node;
  }

  Result<RelPattern> ParseRel() {
    CYPHER_RETURN_NOT_OK(ExpectSymbol("-"));
    CYPHER_RETURN_NOT_OK(ExpectSymbol("["));
    RelPattern rel;
    if (Peek().kind == Tok::kIdent) rel.var = Next().text;
    if (AcceptSymbol(":")) {
      if (Peek().kind != Tok::kIdent) return Err("expected relationship type");
      rel.type = Next().text;
    }
    if (AcceptSymbol("*")) {
      rel.varlen = true;
      rel.min_len = 1;
      rel.max_len = -1;
      if (Peek().kind == Tok::kInt) {
        auto min_len = ParseNumber<int>(Next());
        if (!min_len.ok()) return min_len.status();
        rel.min_len = min_len.value();
        rel.max_len = rel.min_len;  // "*n" = exactly n unless ".." follows
      }
      if (AcceptSymbol("..")) {
        rel.max_len = -1;
        if (Peek().kind == Tok::kInt) {
          auto max_len = ParseNumber<int>(Next());
          if (!max_len.ok()) return max_len.status();
          rel.max_len = max_len.value();
        }
      }
    }
    auto props = ParseProps();
    if (!props.ok()) return props.status();
    rel.props = std::move(props).value();
    CYPHER_RETURN_NOT_OK(ExpectSymbol("]"));
    CYPHER_RETURN_NOT_OK(ExpectSymbol("->"));
    return rel;
  }

  Result<PatternPart> ParsePatternPart() {
    PatternPart part;
    auto first = ParseNode();
    if (!first.ok()) return first.status();
    part.nodes.push_back(std::move(first).value());
    while (Peek().kind == Tok::kSymbol && Peek().text == "-") {
      auto rel = ParseRel();
      if (!rel.ok()) return rel.status();
      part.rels.push_back(std::move(rel).value());
      auto node = ParseNode();
      if (!node.ok()) return node.status();
      part.nodes.push_back(std::move(node).value());
    }
    return part;
  }

  Result<std::unique_ptr<CypherExpr>> ParseExpr() {
    auto lhs = ParseAnd();
    if (!lhs.ok()) return lhs.status();
    auto node = std::move(lhs).value();
    while (AcceptKeyword("OR")) {
      auto rhs = ParseAnd();
      if (!rhs.ok()) return rhs.status();
      auto e = std::make_unique<CypherExpr>();
      e->kind = CypherExprKind::kBinary;
      e->op = CypherBinaryOp::kOr;
      e->lhs = std::move(node);
      e->rhs = std::move(rhs).value();
      node = std::move(e);
    }
    return node;
  }

  Result<std::unique_ptr<CypherExpr>> ParseAnd() {
    auto lhs = ParseNot();
    if (!lhs.ok()) return lhs.status();
    auto node = std::move(lhs).value();
    while (AcceptKeyword("AND")) {
      auto rhs = ParseNot();
      if (!rhs.ok()) return rhs.status();
      auto e = std::make_unique<CypherExpr>();
      e->kind = CypherExprKind::kBinary;
      e->op = CypherBinaryOp::kAnd;
      e->lhs = std::move(node);
      e->rhs = std::move(rhs).value();
      node = std::move(e);
    }
    return node;
  }

  Result<std::unique_ptr<CypherExpr>> ParseNot() {
    if (AcceptKeyword("NOT")) {
      auto inner = ParseNot();
      if (!inner.ok()) return inner.status();
      auto e = std::make_unique<CypherExpr>();
      e->kind = CypherExprKind::kNot;
      e->lhs = std::move(inner).value();
      return std::unique_ptr<CypherExpr>(std::move(e));
    }
    return ParseComparison();
  }

  Result<std::unique_ptr<CypherExpr>> ParseAdditive() {
    auto lhs = ParsePrimary();
    if (!lhs.ok()) return lhs.status();
    auto node = std::move(lhs).value();
    while (true) {
      CypherBinaryOp op;
      if (AcceptSymbol("+")) {
        op = CypherBinaryOp::kAdd;
      } else if (AcceptSymbol("-")) {
        op = CypherBinaryOp::kSub;
      } else {
        break;
      }
      auto rhs = ParsePrimary();
      if (!rhs.ok()) return rhs.status();
      auto e = std::make_unique<CypherExpr>();
      e->kind = CypherExprKind::kBinary;
      e->op = op;
      e->lhs = std::move(node);
      e->rhs = std::move(rhs).value();
      node = std::move(e);
    }
    return node;
  }

  Result<std::unique_ptr<CypherExpr>> ParseComparison() {
    auto lhs = ParseAdditive();
    if (!lhs.ok()) return lhs.status();
    auto node = std::move(lhs).value();

    auto make_binary = [&](CypherBinaryOp op) -> Result<std::unique_ptr<CypherExpr>> {
      auto rhs = ParseAdditive();
      if (!rhs.ok()) return rhs.status();
      auto e = std::make_unique<CypherExpr>();
      e->kind = CypherExprKind::kBinary;
      e->op = op;
      e->lhs = std::move(node);
      e->rhs = std::move(rhs).value();
      return std::unique_ptr<CypherExpr>(std::move(e));
    };

    if (AcceptKeyword("CONTAINS")) return make_binary(CypherBinaryOp::kContains);
    if (AcceptKeyword("STARTS")) {
      CYPHER_RETURN_NOT_OK(ExpectKeyword("WITH"));
      return make_binary(CypherBinaryOp::kStartsWith);
    }
    if (AcceptKeyword("ENDS")) {
      CYPHER_RETURN_NOT_OK(ExpectKeyword("WITH"));
      return make_binary(CypherBinaryOp::kEndsWith);
    }
    bool negated = false;
    size_t save = pos_;
    if (AcceptKeyword("NOT")) negated = true;
    if (AcceptKeyword("IN")) {
      CYPHER_RETURN_NOT_OK(ExpectSymbol("["));
      auto e = std::make_unique<CypherExpr>();
      e->kind = CypherExprKind::kInList;
      e->negated = negated;
      e->lhs = std::move(node);
      while (true) {
        auto v = ParseLiteralValue();
        if (!v.ok()) return v.status();
        e->in_list.push_back(std::move(v).value());
        if (!AcceptSymbol(",")) break;
      }
      CYPHER_RETURN_NOT_OK(ExpectSymbol("]"));
      return std::unique_ptr<CypherExpr>(std::move(e));
    }
    if (negated) pos_ = save;

    struct OpMap {
      const char* sym;
      CypherBinaryOp op;
    };
    static const OpMap kOps[] = {
        {"=", CypherBinaryOp::kEq},  {"<>", CypherBinaryOp::kNe},
        {"<=", CypherBinaryOp::kLe}, {">=", CypherBinaryOp::kGe},
        {"<", CypherBinaryOp::kLt},  {">", CypherBinaryOp::kGt},
    };
    for (const OpMap& m : kOps) {
      if (AcceptSymbol(m.sym)) return make_binary(m.op);
    }
    return node;
  }

  Result<std::unique_ptr<CypherExpr>> ParsePrimary() {
    const Token& tok = Peek();
    if (tok.kind == Tok::kIdent) {
      Next();
      auto e = std::make_unique<CypherExpr>();
      if (AcceptSymbol(".")) {
        if (Peek().kind != Tok::kIdent) return Err("expected property name");
        e->kind = CypherExprKind::kPropRef;
        e->var = tok.text;
        e->prop = Next().text;
      } else {
        e->kind = CypherExprKind::kVarRef;
        e->var = tok.text;
      }
      return std::unique_ptr<CypherExpr>(std::move(e));
    }
    if (tok.kind == Tok::kSymbol && tok.text == "(") {
      Next();
      auto inner = ParseExpr();
      if (!inner.ok()) return inner.status();
      CYPHER_RETURN_NOT_OK(ExpectSymbol(")"));
      return std::move(inner).value();
    }
    auto v = ParseLiteralValue();
    if (!v.ok()) return v.status();
    auto e = std::make_unique<CypherExpr>();
    e->kind = CypherExprKind::kLiteral;
    e->literal = std::move(v).value();
    return std::unique_ptr<CypherExpr>(std::move(e));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

#undef CYPHER_RETURN_NOT_OK

}  // namespace

Result<CypherQuery> ParseCypher(std::string_view text) {
  auto tokens = Lex(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.Parse();
}

}  // namespace raptor::graphdb
