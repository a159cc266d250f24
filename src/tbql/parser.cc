#include "tbql/parser.h"

#include <cctype>
#include <charconv>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"

namespace raptor::tbql {

namespace {

enum class Tok { kIdent, kKeyword, kInt, kString, kSymbol, kEnd };

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

/// `amount` units of `scale` microseconds, or a parse error on overflow.
Result<audit::Timestamp> ScaleAmount(const Token& tok, int64_t amount,
                                     audit::Timestamp scale) {
  audit::Timestamp out = 0;
  if (__builtin_mul_overflow(amount, scale, &out)) {
    return Status::ParseError(
        StrFormat("duration out of range: '%s' (at offset %zu)",
                  tok.text.c_str(), tok.pos));
  }
  return out;
}

const std::unordered_set<std::string>& Keywords() {
  static const std::unordered_set<std::string> kKeywords = {
      "file", "proc", "ip",     "as", "with",   "before",   "after",
      "within", "from", "to",   "at", "last",   "return",   "distinct",
      "in",   "not",
  };
  return kKeywords;
}

Result<audit::Timestamp> UnitScale(const std::string& unit) {
  static const std::unordered_map<std::string, audit::Timestamp> kUnits = {
      {"us", 1},
      {"ms", 1000},
      {"sec", 1000000},
      {"second", 1000000},
      {"seconds", 1000000},
      {"min", 60LL * 1000000},
      {"minute", 60LL * 1000000},
      {"minutes", 60LL * 1000000},
      {"hour", 3600LL * 1000000},
      {"hours", 3600LL * 1000000},
      {"day", 86400LL * 1000000},
      {"days", 86400LL * 1000000},
  };
  auto it = kUnits.find(unit);
  if (it == kUnits.end()) {
    return Status::ParseError("unknown time unit: " + unit);
  }
  return it->second;
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
      if (Keywords().count(ToLower(word))) {
        tok.kind = Tok::kKeyword;
        tok.text = ToLower(word);
      } else {
        tok.kind = Tok::kIdent;
        tok.text = word;
      }
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
        ++i;
      }
      tok.kind = Tok::kInt;
      tok.text = std::string(text.substr(start, i - start));
    } else if (c == '"') {
      ++i;
      std::string s;
      bool closed = false;
      while (i < text.size()) {
        if (text[i] == '\\' && i + 1 < text.size() && text[i + 1] == '"') {
          s.push_back('"');
          i += 2;
        } else if (text[i] == '"') {
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
      static const char* kMulti[] = {"~>", "->", "&&", "||", "!=", "<=", ">="};
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
        static const std::string kSingle = "[](),.!=<>~-";
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

#define TBQL_RETURN_NOT_OK(expr)              \
  do {                                        \
    ::raptor::Status _st = (expr);            \
    if (!_st.ok()) return _st;                \
  } while (0)

/// Deepest nesting of '!' and parentheses in attribute and operation
/// expressions. A compiled filter nests at most about twice as deep in
/// SQL or Cypher, within those parsers' caps.
constexpr int kMaxNestingDepth = 200;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<TbqlQuery> Parse() {
    TbqlQuery query;
    // Global filters until the first entity-type keyword.
    while (!PeekEntityType() && !PeekKeyword("return") &&
           Peek().kind != Tok::kEnd) {
      if (PeekWindowStart()) {
        auto w = ParseWindow();
        if (!w.ok()) return w.status();
        query.global_windows.push_back(std::move(w).value());
      } else {
        auto f = ParseAttrExpr();
        if (!f.ok()) return f.status();
        query.global_attr_filters.push_back(std::move(f).value());
      }
    }
    // Patterns.
    while (PeekEntityType()) {
      auto p = ParsePattern();
      if (!p.ok()) return p.status();
      query.patterns.push_back(std::move(p).value());
    }
    if (query.patterns.empty()) {
      return Err("a TBQL query requires at least one pattern");
    }
    // Relationship clause.
    if (AcceptKeyword("with")) {
      while (true) {
        TBQL_RETURN_NOT_OK(ParseRelItem(&query));
        if (!AcceptSymbol(",")) break;
      }
    }
    // Return clause.
    TBQL_RETURN_NOT_OK(ExpectKeyword("return"));
    if (AcceptKeyword("distinct")) query.distinct = true;
    while (true) {
      if (Peek().kind != Tok::kIdent) return Err("expected return item");
      ReturnItem item;
      item.id = Next().text;
      if (AcceptSymbol(".")) {
        if (Peek().kind != Tok::kIdent) return Err("expected attribute name");
        item.attr = Next().text;
      }
      query.returns.push_back(std::move(item));
      if (!AcceptSymbol(",")) break;
    }
    if (Peek().kind != Tok::kEnd) {
      return Err("trailing tokens: '" + Peek().text + "'");
    }
    return query;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Next() { return tokens_[pos_++]; }

  bool PeekKeyword(std::string_view kw, size_t ahead = 0) const {
    return Peek(ahead).kind == Tok::kKeyword && Peek(ahead).text == kw;
  }
  bool PeekEntityType() const {
    return PeekKeyword("file") || PeekKeyword("proc") || PeekKeyword("ip");
  }
  bool PeekWindowStart() const {
    return PeekKeyword("from") || PeekKeyword("at") || PeekKeyword("before") ||
           PeekKeyword("after") || PeekKeyword("last");
  }
  bool AcceptKeyword(std::string_view kw) {
    if (PeekKeyword(kw)) {
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
          StrFormat("expected '%s' at offset %zu, got '%s'",
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

  /// Run the recursive rule `parse` one nesting level deeper. Past
  /// kMaxNestingDepth levels the parser fails instead of recursing, so
  /// hostile query text cannot exhaust the stack.
  template <class Rule>
  auto Nested(Rule&& parse) -> decltype(parse()) {
    if (depth_ >= kMaxNestingDepth) return Err("nesting too deep");
    ++depth_;
    auto result = parse();
    --depth_;
    return result;
  }

  Status Err(std::string msg) const {
    return Status::ParseError(
        StrFormat("%s (at offset %zu)", msg.c_str(), Peek().pos));
  }

  Result<audit::Timestamp> ParseTimestamp() {
    if (Peek().kind != Tok::kInt) return Err("expected integer timestamp");
    return ParseNumber<audit::Timestamp>(Next());
  }

  Result<TimeWindow> ParseWindow() {
    TimeWindow w;
    if (AcceptKeyword("from")) {
      w.kind = WindowKind::kRange;
      auto from = ParseTimestamp();
      if (!from.ok()) return from.status();
      w.from = from.value();
      TBQL_RETURN_NOT_OK(ExpectKeyword("to"));
      auto to = ParseTimestamp();
      if (!to.ok()) return to.status();
      w.to = to.value();
      return w;
    }
    if (AcceptKeyword("at")) {
      w.kind = WindowKind::kAt;
    } else if (AcceptKeyword("before")) {
      w.kind = WindowKind::kBefore;
    } else if (AcceptKeyword("after")) {
      w.kind = WindowKind::kAfter;
    } else if (AcceptKeyword("last")) {
      w.kind = WindowKind::kLast;
      if (Peek().kind != Tok::kInt) return Err("expected amount after 'last'");
      const Token& amount_tok = Next();
      auto amount = ParseNumber<int64_t>(amount_tok);
      if (!amount.ok()) return amount.status();
      if (Peek().kind != Tok::kIdent) return Err("expected time unit");
      auto scale = UnitScale(Next().text);
      if (!scale.ok()) return scale.status();
      auto last = ScaleAmount(amount_tok, amount.value(), scale.value());
      if (!last.ok()) return last.status();
      w.last_amount = last.value();
      return w;
    } else {
      return Err("expected time window");
    }
    auto ts = ParseTimestamp();
    if (!ts.ok()) return ts.status();
    w.from = ts.value();
    return w;
  }

  // ------------------------------------------------------------- attr_exp
  Result<std::unique_ptr<AttrExpr>> ParseAttrExpr() { return ParseAttrOr(); }

  Result<std::unique_ptr<AttrExpr>> ParseAttrOr() {
    auto lhs = ParseAttrAnd();
    if (!lhs.ok()) return lhs.status();
    auto node = std::move(lhs).value();
    while (AcceptSymbol("||")) {
      auto rhs = ParseAttrAnd();
      if (!rhs.ok()) return rhs.status();
      auto e = std::make_unique<AttrExpr>();
      e->kind = AttrExprKind::kOr;
      e->lhs = std::move(node);
      e->rhs = std::move(rhs).value();
      node = std::move(e);
    }
    return node;
  }

  Result<std::unique_ptr<AttrExpr>> ParseAttrAnd() {
    auto lhs = ParseAttrUnary();
    if (!lhs.ok()) return lhs.status();
    auto node = std::move(lhs).value();
    while (AcceptSymbol("&&")) {
      auto rhs = ParseAttrUnary();
      if (!rhs.ok()) return rhs.status();
      auto e = std::make_unique<AttrExpr>();
      e->kind = AttrExprKind::kAnd;
      e->lhs = std::move(node);
      e->rhs = std::move(rhs).value();
      node = std::move(e);
    }
    return node;
  }

  Result<std::unique_ptr<AttrExpr>> ParseAttrUnary() {
    if (AcceptSymbol("!")) {
      // "!value" bare-negation sugar, or !(...) general negation.
      if (Peek().kind == Tok::kString || Peek().kind == Tok::kInt) {
        auto e = std::make_unique<AttrExpr>();
        e->kind = AttrExprKind::kBareValue;
        e->negated = true;
        e->value_is_number = Peek().kind == Tok::kInt;
        e->value = Next().text;
        return std::unique_ptr<AttrExpr>(std::move(e));
      }
      auto inner = Nested([&] { return ParseAttrUnary(); });
      if (!inner.ok()) return inner.status();
      auto e = std::make_unique<AttrExpr>();
      e->kind = AttrExprKind::kNot;
      e->lhs = std::move(inner).value();
      return std::unique_ptr<AttrExpr>(std::move(e));
    }
    return ParseAttrPrimary();
  }

  Result<std::unique_ptr<AttrExpr>> ParseAttrPrimary() {
    if (AcceptSymbol("(")) {
      auto inner = Nested([&] { return ParseAttrExpr(); });
      if (!inner.ok()) return inner.status();
      TBQL_RETURN_NOT_OK(ExpectSymbol(")"));
      return std::move(inner).value();
    }
    if (Peek().kind == Tok::kString || Peek().kind == Tok::kInt) {
      auto e = std::make_unique<AttrExpr>();
      e->kind = AttrExprKind::kBareValue;
      e->value_is_number = Peek().kind == Tok::kInt;
      e->value = Next().text;
      return std::unique_ptr<AttrExpr>(std::move(e));
    }
    if (Peek().kind != Tok::kIdent) {
      return Err("expected attribute or value");
    }
    auto e = std::make_unique<AttrExpr>();
    e->attr = Next().text;
    if (AcceptSymbol(".")) {
      if (Peek().kind != Tok::kIdent) return Err("expected attribute name");
      e->qualifier = e->attr;
      e->attr = Next().text;
    }
    // "attr not? in (v1, v2, ...)"
    bool neg = AcceptKeyword("not");
    if (AcceptKeyword("in")) {
      e->kind = AttrExprKind::kInList;
      e->negated = neg;
      TBQL_RETURN_NOT_OK(ExpectSymbol("("));
      while (true) {
        if (Peek().kind != Tok::kString && Peek().kind != Tok::kInt) {
          return Err("expected value in list");
        }
        e->values.push_back(Next().text);
        if (!AcceptSymbol(",")) break;
      }
      TBQL_RETURN_NOT_OK(ExpectSymbol(")"));
      return std::unique_ptr<AttrExpr>(std::move(e));
    }
    if (neg) return Err("'not' must be followed by 'in'");
    // "attr bop value"
    e->kind = AttrExprKind::kCompare;
    struct OpMap {
      const char* sym;
      CompareOp op;
    };
    static const OpMap kOps[] = {
        {"=", CompareOp::kEq},  {"!=", CompareOp::kNe},
        {"<=", CompareOp::kLe}, {">=", CompareOp::kGe},
        {"<", CompareOp::kLt},  {">", CompareOp::kGt},
    };
    bool matched = false;
    for (const OpMap& m : kOps) {
      if (AcceptSymbol(m.sym)) {
        e->op = m.op;
        matched = true;
        break;
      }
    }
    if (!matched) return Err("expected comparison operator");
    if (Peek().kind != Tok::kString && Peek().kind != Tok::kInt) {
      return Err("expected comparison value");
    }
    e->value_is_number = Peek().kind == Tok::kInt;
    e->value = Next().text;
    return std::unique_ptr<AttrExpr>(std::move(e));
  }

  // --------------------------------------------------------------- op_exp
  Result<std::unique_ptr<OpExpr>> ParseOpExpr() { return ParseOpOr(); }

  Result<std::unique_ptr<OpExpr>> ParseOpOr() {
    auto lhs = ParseOpAnd();
    if (!lhs.ok()) return lhs.status();
    auto node = std::move(lhs).value();
    while (AcceptSymbol("||")) {
      auto rhs = ParseOpAnd();
      if (!rhs.ok()) return rhs.status();
      auto e = std::make_unique<OpExpr>();
      e->kind = OpExprKind::kOr;
      e->lhs = std::move(node);
      e->rhs = std::move(rhs).value();
      node = std::move(e);
    }
    return node;
  }

  Result<std::unique_ptr<OpExpr>> ParseOpAnd() {
    auto lhs = ParseOpUnary();
    if (!lhs.ok()) return lhs.status();
    auto node = std::move(lhs).value();
    while (AcceptSymbol("&&")) {
      auto rhs = ParseOpUnary();
      if (!rhs.ok()) return rhs.status();
      auto e = std::make_unique<OpExpr>();
      e->kind = OpExprKind::kAnd;
      e->lhs = std::move(node);
      e->rhs = std::move(rhs).value();
      node = std::move(e);
    }
    return node;
  }

  Result<std::unique_ptr<OpExpr>> ParseOpUnary() {
    if (AcceptSymbol("!")) {
      auto inner = Nested([&] { return ParseOpUnary(); });
      if (!inner.ok()) return inner.status();
      auto e = std::make_unique<OpExpr>();
      e->kind = OpExprKind::kNot;
      e->lhs = std::move(inner).value();
      return std::unique_ptr<OpExpr>(std::move(e));
    }
    if (AcceptSymbol("(")) {
      auto inner = Nested([&] { return ParseOpExpr(); });
      if (!inner.ok()) return inner.status();
      TBQL_RETURN_NOT_OK(ExpectSymbol(")"));
      return std::move(inner).value();
    }
    // Operation names: plain identifiers, plus the keywords that double as
    // operations ("before"/"after" never appear here).
    if (Peek().kind != Tok::kIdent) return Err("expected operation name");
    std::string op = ToLower(Next().text);
    if (!audit::EventOpFromName(op).has_value()) {
      return Err("unknown operation: " + op);
    }
    auto e = std::make_unique<OpExpr>();
    e->kind = OpExprKind::kOp;
    e->op = std::move(op);
    return std::unique_ptr<OpExpr>(std::move(e));
  }

  // ----------------------------------------------------------- entity/patt
  Result<EntityRef> ParseEntity() {
    EntityRef ref;
    if (AcceptKeyword("file")) {
      ref.type = EntityType::kFile;
    } else if (AcceptKeyword("proc")) {
      ref.type = EntityType::kProcess;
    } else if (AcceptKeyword("ip")) {
      ref.type = EntityType::kNetwork;
    } else {
      return Err("expected entity type (file/proc/ip)");
    }
    if (Peek().kind != Tok::kIdent) return Err("expected entity id");
    ref.id = Next().text;
    if (AcceptSymbol("[")) {
      auto f = ParseAttrExpr();
      if (!f.ok()) return f.status();
      ref.filter = std::move(f).value();
      TBQL_RETURN_NOT_OK(ExpectSymbol("]"));
    }
    return ref;
  }

  Result<Pattern> ParsePattern() {
    Pattern p;
    auto subj = ParseEntity();
    if (!subj.ok()) return subj.status();
    p.subject = std::move(subj).value();

    if (Peek().kind == Tok::kSymbol &&
        (Peek().text == "~>" || Peek().text == "->")) {
      p.path.is_path = true;
      p.path.fuzzy_arrow = Next().text == "~>";
      if (AcceptSymbol("(")) {
        // (min~max) / (min~) / (~max) / (n)
        p.path.min_len = 1;
        p.path.max_len = -1;
        bool saw_min = false;
        if (Peek().kind == Tok::kInt) {
          auto min_len = ParseNumber<int>(Next());
          if (!min_len.ok()) return min_len.status();
          p.path.min_len = min_len.value();
          saw_min = true;
        }
        if (AcceptSymbol("~")) {
          if (Peek().kind == Tok::kInt) {
            auto max_len = ParseNumber<int>(Next());
            if (!max_len.ok()) return max_len.status();
            p.path.max_len = max_len.value();
          }
        } else if (saw_min) {
          p.path.max_len = p.path.min_len;  // exact length "(n)"
        }
        TBQL_RETURN_NOT_OK(ExpectSymbol(")"));
      } else if (!p.path.fuzzy_arrow) {
        // "->" without a length spec is a length-1 path.
        p.path.min_len = 1;
        p.path.max_len = 1;
      } else {
        p.path.min_len = 1;
        p.path.max_len = -1;
      }
      if (AcceptSymbol("[")) {
        auto op = ParseOpExpr();
        if (!op.ok()) return op.status();
        p.op = std::move(op).value();
        TBQL_RETURN_NOT_OK(ExpectSymbol("]"));
      }
    } else {
      auto op = ParseOpExpr();
      if (!op.ok()) return op.status();
      p.op = std::move(op).value();
    }

    auto obj = ParseEntity();
    if (!obj.ok()) return obj.status();
    p.object = std::move(obj).value();

    if (AcceptKeyword("as")) {
      if (Peek().kind != Tok::kIdent) return Err("expected pattern id");
      p.id = Next().text;
      if (AcceptSymbol("[")) {
        auto f = ParseAttrExpr();
        if (!f.ok()) return f.status();
        p.event_filter = std::move(f).value();
        TBQL_RETURN_NOT_OK(ExpectSymbol("]"));
      }
    }
    if (PeekWindowStart() && !IsRelKeywordContext()) {
      auto w = ParseWindow();
      if (!w.ok()) return w.status();
      p.window = std::move(w).value();
    }
    return p;
  }

  /// "before"/"after" inside a rel clause follow "with id"; a pattern-level
  /// window "before <ts>" is followed by an integer. Disambiguate by the
  /// token after the keyword.
  bool IsRelKeywordContext() const {
    if (!(PeekKeyword("before") || PeekKeyword("after"))) return false;
    return Peek(1).kind != Tok::kInt;
  }

  // ------------------------------------------------------------------ rel
  Status ParseRelItem(TbqlQuery* query) {
    if (Peek().kind != Tok::kIdent) {
      return Err("expected pattern id or attribute in with-clause");
    }
    std::string first = Next().text;
    if (AcceptSymbol(".")) {
      // Attribute relationship: a.x bop b.y
      AttrRel rel;
      rel.left_qualifier = first;
      if (Peek().kind != Tok::kIdent) {
        return Err("expected attribute name");
      }
      rel.left_attr = Next().text;
      struct OpMap {
        const char* sym;
        CompareOp op;
      };
      static const OpMap kOps[] = {
          {"=", CompareOp::kEq},  {"!=", CompareOp::kNe},
          {"<=", CompareOp::kLe}, {">=", CompareOp::kGe},
          {"<", CompareOp::kLt},  {">", CompareOp::kGt},
      };
      bool matched = false;
      for (const OpMap& m : kOps) {
        if (AcceptSymbol(m.sym)) {
          rel.op = m.op;
          matched = true;
          break;
        }
      }
      if (!matched) return Err("expected comparison operator");
      if (Peek().kind != Tok::kIdent) {
        return Err("expected attribute reference");
      }
      rel.right_qualifier = Next().text;
      TBQL_RETURN_NOT_OK(ExpectSymbol("."));
      if (Peek().kind != Tok::kIdent) {
        return Err("expected attribute name");
      }
      rel.right_attr = Next().text;
      query->attr_rels.push_back(std::move(rel));
      return Status::OK();
    }
    // Temporal relationship: id before/after/within [n-m unit]? id
    TemporalRel rel;
    rel.left = std::move(first);
    if (AcceptKeyword("before")) {
      rel.op = TemporalOp::kBefore;
    } else if (AcceptKeyword("after")) {
      rel.op = TemporalOp::kAfter;
    } else if (AcceptKeyword("within")) {
      rel.op = TemporalOp::kWithin;
    } else {
      return Err("expected before/after/within");
    }
    if (AcceptSymbol("[")) {
      if (Peek().kind != Tok::kInt) return Err("expected gap bound");
      const Token& lo_tok = Next();
      auto lo = ParseNumber<int64_t>(lo_tok);
      if (!lo.ok()) return lo.status();
      TBQL_RETURN_NOT_OK(ExpectSymbol("-"));
      if (Peek().kind != Tok::kInt) return Err("expected gap bound");
      const Token& hi_tok = Next();
      auto hi = ParseNumber<int64_t>(hi_tok);
      if (!hi.ok()) return hi.status();
      if (Peek().kind != Tok::kIdent) return Err("expected time unit");
      auto scale = UnitScale(Next().text);
      if (!scale.ok()) return scale.status();
      auto min_gap = ScaleAmount(lo_tok, lo.value(), scale.value());
      if (!min_gap.ok()) return min_gap.status();
      auto max_gap = ScaleAmount(hi_tok, hi.value(), scale.value());
      if (!max_gap.ok()) return max_gap.status();
      rel.min_gap = min_gap.value();
      rel.max_gap = max_gap.value();
      TBQL_RETURN_NOT_OK(ExpectSymbol("]"));
    }
    if (Peek().kind != Tok::kIdent) return Err("expected pattern id");
    rel.right = Next().text;
    query->temporal_rels.push_back(std::move(rel));
    return Status::OK();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // current expression nesting (Nested)
};

#undef TBQL_RETURN_NOT_OK

}  // namespace

Result<TbqlQuery> ParseTbql(std::string_view text) {
  auto tokens = Lex(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.Parse();
}

}  // namespace raptor::tbql
