#include "aws/simpledb/query_language.hpp"

#include <algorithm>
#include <cctype>

namespace provcloud::aws::sdbql {
namespace {

// ---------------------------------------------------------------------------
// Shared comparison semantics: everything is a string, compared
// lexicographically, exactly as 2009 SimpleDB did (clients zero-pad numbers).
// ---------------------------------------------------------------------------

bool compare(const std::string& lhs, CompareOp op, const std::string& rhs) {
  switch (op) {
    case CompareOp::kEq: return lhs == rhs;
    case CompareOp::kNe: return lhs != rhs;
    case CompareOp::kLt: return lhs < rhs;
    case CompareOp::kLe: return lhs <= rhs;
    case CompareOp::kGt: return lhs > rhs;
    case CompareOp::kGe: return lhs >= rhs;
    case CompareOp::kStartsWith:
      return lhs.size() >= rhs.size() && lhs.compare(0, rhs.size(), rhs) == 0;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Tokenizer shared by both languages. Tokens: quoted strings, words,
// punctuation ([ ] ( ) , *), and operators.
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kString, kWord, kOp, kPunct, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  util::Expected<Token, std::string> next() {
    skip_space();
    if (pos_ >= text_.size()) return Token{Token::Kind::kEnd, ""};
    const char c = text_[pos_];
    if (c == '\'' || c == '"') return lex_string(c);
    if (c == '[' || c == ']' || c == '(' || c == ')' || c == ',' || c == '*') {
      ++pos_;
      return Token{Token::Kind::kPunct, std::string(1, c)};
    }
    if (c == '=' ) {
      ++pos_;
      return Token{Token::Kind::kOp, "="};
    }
    if (c == '!' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
      pos_ += 2;
      return Token{Token::Kind::kOp, "!="};
    }
    if (c == '<' || c == '>') {
      std::string op(1, c);
      ++pos_;
      if (pos_ < text_.size() && text_[pos_] == '=') {
        op.push_back('=');
        ++pos_;
      }
      return Token{Token::Kind::kOp, op};
    }
    if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
        c == '-' || c == '.' || c == '/' || c == ':') {
      return lex_word();
    }
    return util::Unexpected(std::string("unexpected character '") + c + "'");
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
      ++pos_;
  }

  util::Expected<Token, std::string> lex_string(char quote) {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == quote) {
        // Doubled quote escapes itself ('it''s').
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == quote) {
          out.push_back(quote);
          pos_ += 2;
          continue;
        }
        ++pos_;
        return Token{Token::Kind::kString, out};
      }
      out.push_back(c);
      ++pos_;
    }
    return util::Unexpected(std::string("unterminated string literal"));
  }

  util::Expected<Token, std::string> lex_word() {
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
          c == '-' || c == '.' || c == '/' || c == ':') {
        out.push_back(c);
        ++pos_;
      } else {
        break;
      }
    }
    // "starts-with" lexes as a word thanks to '-'.
    return Token{Token::Kind::kWord, out};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

std::optional<CompareOp> op_from_token(const Token& tok) {
  if (tok.kind == Token::Kind::kOp) {
    if (tok.text == "=") return CompareOp::kEq;
    if (tok.text == "!=") return CompareOp::kNe;
    if (tok.text == "<") return CompareOp::kLt;
    if (tok.text == "<=") return CompareOp::kLe;
    if (tok.text == ">") return CompareOp::kGt;
    if (tok.text == ">=") return CompareOp::kGe;
  }
  if (tok.kind == Token::Kind::kWord && lower(tok.text) == "starts-with")
    return CompareOp::kStartsWith;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Bracket-language parser.
// ---------------------------------------------------------------------------

class QueryParser {
 public:
  explicit QueryParser(std::string_view text) : lexer_(text) {}

  ParseResult parse() {
    if (auto err = advance(); !err.empty()) return util::Unexpected(err);
    QueryExpression expr;
    auto first = parse_term();
    if (!first) return util::Unexpected(first.error());
    expr.predicates.push_back(std::move(*first));
    while (cur_.kind == Token::Kind::kWord) {
      const std::string word = lower(cur_.text);
      SetOp op;
      if (word == "union") {
        op = SetOp::kUnion;
      } else if (word == "intersection") {
        op = SetOp::kIntersection;
      } else {
        return util::Unexpected("expected 'union' or 'intersection', got '" +
                                cur_.text + "'");
      }
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      auto term = parse_term();
      if (!term) return util::Unexpected(term.error());
      expr.ops.push_back(op);
      expr.predicates.push_back(std::move(*term));
    }
    if (cur_.kind != Token::Kind::kEnd)
      return util::Unexpected("trailing input after expression: '" +
                              cur_.text + "'");
    return expr;
  }

 private:
  std::string advance() {
    auto tok = lexer_.next();
    if (!tok) return tok.error();
    cur_ = std::move(*tok);
    return {};
  }

  util::Expected<Predicate, std::string> parse_term() {
    Predicate pred;
    if (cur_.kind == Token::Kind::kWord && lower(cur_.text) == "not") {
      pred.negated = true;
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
    }
    if (!(cur_.kind == Token::Kind::kPunct && cur_.text == "["))
      return util::Unexpected("expected '[' to open a predicate");
    if (auto err = advance(); !err.empty()) return util::Unexpected(err);

    pred.or_groups.emplace_back();
    for (;;) {
      // comparison: 'attr' op 'value'
      if (cur_.kind != Token::Kind::kString)
        return util::Unexpected("expected quoted attribute name");
      const std::string attr = cur_.text;
      if (pred.attribute.empty()) {
        pred.attribute = attr;
      } else if (pred.attribute != attr) {
        return util::Unexpected(
            "all comparisons in a predicate must reference the same "
            "attribute ('" + pred.attribute + "' vs '" + attr +
            "'); use 'intersection' across attributes");
      }
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      const auto op = op_from_token(cur_);
      if (!op) return util::Unexpected("expected comparison operator");
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      if (cur_.kind != Token::Kind::kString)
        return util::Unexpected("expected quoted value");
      pred.or_groups.back().push_back(Comparison{*op, cur_.text});
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);

      if (cur_.kind == Token::Kind::kPunct && cur_.text == "]") {
        if (auto err = advance(); !err.empty()) return util::Unexpected(err);
        return pred;
      }
      if (cur_.kind == Token::Kind::kWord) {
        const std::string word = lower(cur_.text);
        if (word == "and") {
          if (auto err = advance(); !err.empty()) return util::Unexpected(err);
          continue;  // same AND-chain
        }
        if (word == "or") {
          pred.or_groups.emplace_back();
          if (auto err = advance(); !err.empty()) return util::Unexpected(err);
          continue;
        }
      }
      return util::Unexpected("expected 'and', 'or' or ']' in predicate");
    }
  }

  Lexer lexer_;
  Token cur_;
};

// An AND-chain must be satisfied by one single value of the attribute.
bool value_matches_chain(const std::string& value,
                         const std::vector<Comparison>& chain) {
  for (const Comparison& c : chain)
    if (!compare(value, c.op, c.value)) return false;
  return true;
}

bool item_matches_predicate(const SdbItem& item, const Predicate& pred) {
  auto attr_it = item.find(pred.attribute);
  if (attr_it == item.end()) return false;  // `not` handled by caller
  for (const auto& chain : pred.or_groups)
    for (const std::string& value : attr_it->second)
      if (value_matches_chain(value, chain)) return true;
  return false;
}

// The operand of an AND-chain's first `=` comparison, or null if it has none.
const std::string* equality_operand(const std::vector<Comparison>& chain) {
  for (const Comparison& c : chain)
    if (c.op == CompareOp::kEq) return &c.value;
  return nullptr;
}

// Whether an item matching `pred` must carry one of its `=` operands: true
// when every OR-group holds an `=` and the predicate is not negated (`not`
// selects the items that do not match).
bool seeks_on_equality(const Predicate& pred) {
  if (pred.negated) return false;
  for (const auto& chain : pred.or_groups)
    if (equality_operand(chain) == nullptr) return false;
  return true;
}

std::set<std::string> evaluate_predicate(const Predicate& pred,
                                         const SdbDomainData& domain) {
  // Candidate set via the automatic index (value -> items): never an item
  // lacking the attribute.
  auto idx_it = domain.index.find(pred.attribute);
  if (idx_it == domain.index.end()) return {};
  const auto& postings = idx_it->second;
  std::set<std::string> candidates;
  const auto take = [&candidates](const std::set<std::string>& items) {
    candidates.insert(items.begin(), items.end());
  };
  // Seek the `=` operands' posting lists when they bound the matches (the
  // Q2/Q3 form ['INPUT' = 'a' or 'INPUT' = 'b']); otherwise read the
  // attribute's whole posting list.
  if (seeks_on_equality(pred)) {
    for (const auto& chain : pred.or_groups) {
      auto hit = postings.find(*equality_operand(chain));
      if (hit != postings.end()) take(hit->second);
    }
  } else {
    for (const auto& [value, items] : postings) take(items);
  }
  std::set<std::string> out;
  for (const std::string& name : candidates) {
    const SdbItem& item = domain.items.at(name);
    const bool match = item_matches_predicate(item, pred);
    // Negation semantics: items that have the attribute but do not match.
    if (match != pred.negated) out.insert(name);
  }
  return out;
}

std::set<std::string> set_union(const std::set<std::string>& a,
                                const std::set<std::string>& b) {
  std::set<std::string> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::inserter(out, out.begin()));
  return out;
}

std::set<std::string> set_intersection(const std::set<std::string>& a,
                                       const std::set<std::string>& b) {
  std::set<std::string> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::inserter(out, out.begin()));
  return out;
}

}  // namespace

ParseResult parse_query(std::string_view text) {
  return QueryParser(text).parse();
}

std::set<std::string> evaluate(const QueryExpression& expr,
                               const SdbDomainData& domain) {
  if (expr.predicates.empty()) return {};
  std::set<std::string> result = evaluate_predicate(expr.predicates[0], domain);
  for (std::size_t i = 0; i < expr.ops.size(); ++i) {
    const std::set<std::string> rhs =
        evaluate_predicate(expr.predicates[i + 1], domain);
    result = expr.ops[i] == SetOp::kUnion ? set_union(result, rhs)
                                          : set_intersection(result, rhs);
  }
  return result;
}

// ---------------------------------------------------------------------------
// SELECT parser: select <output> from <domain> [where <cond>] [limit N]
// ---------------------------------------------------------------------------

namespace {

class SelectParser {
 public:
  explicit SelectParser(std::string_view text) : lexer_(text) {}

  SelectParseResult parse() {
    if (auto err = advance(); !err.empty()) return util::Unexpected(err);
    if (!eat_word("select")) return util::Unexpected(std::string("expected 'select'"));

    SelectStatement stmt;
    if (auto err = parse_output(stmt); !err.empty())
      return util::Unexpected(err);

    if (!eat_word("from")) return util::Unexpected(std::string("expected 'from'"));
    if (cur_.kind != Token::Kind::kWord && cur_.kind != Token::Kind::kString)
      return util::Unexpected(std::string("expected domain name"));
    stmt.domain = cur_.text;
    if (auto err = advance(); !err.empty()) return util::Unexpected(err);

    if (is_word("where")) {
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      auto cond = parse_or();
      if (!cond) return util::Unexpected(cond.error());
      stmt.where = std::move(*cond);
    }
    if (is_word("order")) {
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      if (!eat_word("by"))
        return util::Unexpected(std::string("expected 'by' after 'order'"));
      if (cur_.kind != Token::Kind::kWord && cur_.kind != Token::Kind::kString)
        return util::Unexpected(std::string("expected attribute in order by"));
      stmt.order_by = cur_.text;
      const bool maybe_item_name = lower(cur_.text) == "itemname";
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      if (maybe_item_name && cur_.kind == Token::Kind::kPunct &&
          cur_.text == "(") {
        if (auto err = advance(); !err.empty()) return util::Unexpected(err);
        if (!(cur_.kind == Token::Kind::kPunct && cur_.text == ")"))
          return util::Unexpected(std::string("expected ')' after itemName("));
        if (auto err = advance(); !err.empty()) return util::Unexpected(err);
        stmt.order_by = "itemName()";
      }
      if (is_word("desc")) {
        stmt.order_descending = true;
        if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      } else if (is_word("asc")) {
        if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      }
      // The real service rejects sorting on an unconstrained attribute
      // ("Invalid sort expression"): the order-by attribute must appear in
      // the WHERE clause.
      if (stmt.order_by != "itemName()" &&
          !condition_mentions(stmt.where.get(), stmt.order_by))
        return util::Unexpected(
            "order-by attribute '" + stmt.order_by +
            "' must be constrained in the where clause");
    }
    if (is_word("limit")) {
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      if (cur_.kind != Token::Kind::kWord)
        return util::Unexpected(std::string("expected limit count"));
      try {
        stmt.limit = std::stoul(cur_.text);
      } catch (...) {
        return util::Unexpected("bad limit: '" + cur_.text + "'");
      }
      stmt.limit = std::min(stmt.limit, kSdbMaxQueryResults);
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
    }
    if (cur_.kind != Token::Kind::kEnd)
      return util::Unexpected("trailing input after select: '" + cur_.text + "'");
    return stmt;
  }

 private:
  std::string advance() {
    auto tok = lexer_.next();
    if (!tok) return tok.error();
    cur_ = std::move(*tok);
    return {};
  }

  bool is_word(std::string_view w) const {
    return cur_.kind == Token::Kind::kWord && lower(cur_.text) == w;
  }

  bool eat_word(std::string_view w) {
    if (!is_word(w)) return false;
    return advance().empty();
  }

  static bool condition_mentions(const Condition* cond,
                                 const std::string& attribute) {
    if (cond == nullptr) return false;
    switch (cond->kind) {
      case Condition::Kind::kAnd:
      case Condition::Kind::kOr:
        return condition_mentions(cond->left.get(), attribute) ||
               condition_mentions(cond->right.get(), attribute);
      case Condition::Kind::kNot:
        return condition_mentions(cond->left.get(), attribute);
      default:
        return cond->attribute == attribute;
    }
  }

  std::string parse_output(SelectStatement& stmt) {
    if (cur_.kind == Token::Kind::kPunct && cur_.text == "*") {
      stmt.output = SelectOutput::kAllAttributes;
      return advance();
    }
    if (is_word("itemname")) {
      // itemName()
      if (auto err = advance(); !err.empty()) return err;
      if (cur_.kind == Token::Kind::kPunct && cur_.text == "(") {
        if (auto err = advance(); !err.empty()) return err;
        if (!(cur_.kind == Token::Kind::kPunct && cur_.text == ")"))
          return "expected ')' after itemName(";
        if (auto err = advance(); !err.empty()) return err;
      }
      stmt.output = SelectOutput::kItemName;
      return {};
    }
    if (is_word("count")) {
      if (auto err = advance(); !err.empty()) return err;
      if (!(cur_.kind == Token::Kind::kPunct && cur_.text == "("))
        return "expected '(' after count";
      if (auto err = advance(); !err.empty()) return err;
      if (!(cur_.kind == Token::Kind::kPunct && cur_.text == "*"))
        return "expected '*' in count(*)";
      if (auto err = advance(); !err.empty()) return err;
      if (!(cur_.kind == Token::Kind::kPunct && cur_.text == ")"))
        return "expected ')' in count(*)";
      if (auto err = advance(); !err.empty()) return err;
      stmt.output = SelectOutput::kCount;
      return {};
    }
    // Attribute list.
    stmt.output = SelectOutput::kAttributeList;
    for (;;) {
      if (cur_.kind != Token::Kind::kWord && cur_.kind != Token::Kind::kString)
        return "expected attribute name in output list";
      stmt.output_attributes.push_back(cur_.text);
      if (auto err = advance(); !err.empty()) return err;
      if (cur_.kind == Token::Kind::kPunct && cur_.text == ",") {
        if (auto err = advance(); !err.empty()) return err;
        continue;
      }
      return {};
    }
  }

  using CondResult = util::Expected<ConditionPtr, std::string>;

  CondResult parse_or() {
    auto left = parse_and();
    if (!left) return left;
    while (is_word("or")) {
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      auto right = parse_and();
      if (!right) return right;
      auto node = std::make_unique<Condition>();
      node->kind = Condition::Kind::kOr;
      node->left = std::move(*left);
      node->right = std::move(*right);
      left = CondResult(std::move(node));
    }
    return left;
  }

  CondResult parse_and() {
    auto left = parse_unary();
    if (!left) return left;
    while (is_word("and")) {
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      auto right = parse_unary();
      if (!right) return right;
      auto node = std::make_unique<Condition>();
      node->kind = Condition::Kind::kAnd;
      node->left = std::move(*left);
      node->right = std::move(*right);
      left = CondResult(std::move(node));
    }
    return left;
  }

  CondResult parse_unary() {
    if (is_word("not")) {
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      auto child = parse_unary();
      if (!child) return child;
      auto node = std::make_unique<Condition>();
      node->kind = Condition::Kind::kNot;
      node->left = std::move(*child);
      return CondResult(std::move(node));
    }
    if (cur_.kind == Token::Kind::kPunct && cur_.text == "(") {
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      auto inner = parse_or();
      if (!inner) return inner;
      if (!(cur_.kind == Token::Kind::kPunct && cur_.text == ")"))
        return util::Unexpected(std::string("expected ')'"));
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      return inner;
    }
    return parse_comparison();
  }

  CondResult parse_comparison() {
    if (cur_.kind != Token::Kind::kWord && cur_.kind != Token::Kind::kString)
      return util::Unexpected(std::string("expected attribute name"));
    auto node = std::make_unique<Condition>();
    // every(attr): the universal quantifier over multi-valued attributes.
    if (is_word("every")) {
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      if (!(cur_.kind == Token::Kind::kPunct && cur_.text == "("))
        return util::Unexpected(std::string("expected '(' after every"));
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      if (cur_.kind != Token::Kind::kWord && cur_.kind != Token::Kind::kString)
        return util::Unexpected(std::string("expected attribute in every()"));
      node->attribute = cur_.text;
      node->every = true;
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      if (!(cur_.kind == Token::Kind::kPunct && cur_.text == ")"))
        return util::Unexpected(std::string("expected ')' after every(attr"));
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      return parse_leaf_operator(std::move(node));
    }
    node->attribute = cur_.text;
    const bool maybe_item_name =
        cur_.kind == Token::Kind::kWord && lower(cur_.text) == "itemname";
    if (auto err = advance(); !err.empty()) return util::Unexpected(err);
    if (maybe_item_name && cur_.kind == Token::Kind::kPunct &&
        cur_.text == "(") {
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      if (!(cur_.kind == Token::Kind::kPunct && cur_.text == ")"))
        return util::Unexpected(std::string("expected ')' after itemName("));
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      node->attribute = "itemName()";
    }
    return parse_leaf_operator(std::move(node));
  }

  /// Operator + operand(s) of a leaf condition whose attribute is parsed.
  CondResult parse_leaf_operator(ConditionPtr node) {
    if (is_word("like")) {
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      if (cur_.kind != Token::Kind::kString)
        return util::Unexpected(std::string("expected pattern after 'like'"));
      node->kind = Condition::Kind::kLike;
      node->value = cur_.text;
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      return CondResult(std::move(node));
    }
    if (is_word("in")) {
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      if (!(cur_.kind == Token::Kind::kPunct && cur_.text == "("))
        return util::Unexpected(std::string("expected '(' after 'in'"));
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      for (;;) {
        if (cur_.kind != Token::Kind::kString)
          return util::Unexpected(std::string("expected value in IN list"));
        node->values.push_back(cur_.text);
        if (auto err = advance(); !err.empty()) return util::Unexpected(err);
        if (cur_.kind == Token::Kind::kPunct && cur_.text == ",") {
          if (auto err = advance(); !err.empty()) return util::Unexpected(err);
          continue;
        }
        break;
      }
      if (!(cur_.kind == Token::Kind::kPunct && cur_.text == ")"))
        return util::Unexpected(std::string("expected ')' closing IN list"));
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      node->kind = Condition::Kind::kIn;
      return CondResult(std::move(node));
    }
    if (is_word("between")) {
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      if (cur_.kind != Token::Kind::kString)
        return util::Unexpected(std::string("expected lower bound"));
      node->value = cur_.text;
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      if (!eat_word("and"))
        return util::Unexpected(std::string("expected 'and' in between"));
      if (cur_.kind != Token::Kind::kString)
        return util::Unexpected(std::string("expected upper bound"));
      node->value2 = cur_.text;
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      node->kind = Condition::Kind::kBetween;
      return CondResult(std::move(node));
    }
    if (is_word("is")) {
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      bool negated = false;
      if (is_word("not")) {
        negated = true;
        if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      }
      if (!is_word("null"))
        return util::Unexpected(std::string("expected 'null' after 'is'"));
      if (auto err = advance(); !err.empty()) return util::Unexpected(err);
      node->kind =
          negated ? Condition::Kind::kIsNotNull : Condition::Kind::kIsNull;
      return CondResult(std::move(node));
    }
    const auto op = op_from_token(cur_);
    if (!op)
      return util::Unexpected(std::string("expected comparison operator"));
    if (auto err = advance(); !err.empty()) return util::Unexpected(err);
    if (cur_.kind != Token::Kind::kString && cur_.kind != Token::Kind::kWord)
      return util::Unexpected(std::string("expected value literal"));
    node->kind = Condition::Kind::kCompare;
    node->op = *op;
    node->value = cur_.text;
    if (auto err = advance(); !err.empty()) return util::Unexpected(err);
    return CondResult(std::move(node));
  }

  Lexer lexer_;
  Token cur_;
};

bool like_match(const std::string& value, const std::string& pattern) {
  // SQL LIKE with '%' wildcards only (the form SimpleDB supported).
  // Implemented by splitting on '%' and greedy sequential search.
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= pattern.size(); ++i) {
    if (i == pattern.size() || pattern[i] == '%') {
      parts.push_back(pattern.substr(start, i - start));
      start = i + 1;
    }
  }
  const bool anchored_front = !pattern.empty() && pattern.front() != '%';
  const bool anchored_back = !pattern.empty() && pattern.back() != '%';
  std::size_t pos = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::string& part = parts[i];
    if (part.empty()) continue;
    std::size_t found;
    if (i == 0 && anchored_front) {
      if (value.compare(0, part.size(), part) != 0) return false;
      found = 0;
    } else {
      found = value.find(part, pos);
      if (found == std::string::npos) return false;
    }
    pos = found + part.size();
  }
  if (anchored_back) {
    const std::string& last = parts.back();
    if (value.size() < last.size() ||
        value.compare(value.size() - last.size(), last.size(), last) != 0)
      return false;
  }
  return true;
}

bool value_matches_leaf(const std::string& v, const Condition& cond) {
  switch (cond.kind) {
    case Condition::Kind::kCompare:
      return compare(v, cond.op, cond.value);
    case Condition::Kind::kLike:
      return like_match(v, cond.value);
    case Condition::Kind::kIn:
      for (const std::string& candidate : cond.values)
        if (v == candidate) return true;
      return false;
    case Condition::Kind::kBetween:
      return v >= cond.value && v <= cond.value2;
    default:
      return false;
  }
}

bool item_matches_condition(const std::string& name, const SdbItem& item,
                            const Condition& cond) {
  switch (cond.kind) {
    case Condition::Kind::kCompare:
    case Condition::Kind::kLike:
    case Condition::Kind::kIn:
    case Condition::Kind::kBetween: {
      if (cond.attribute == "itemName()") return value_matches_leaf(name, cond);
      auto it = item.find(cond.attribute);
      if (it == item.end()) return false;
      if (cond.every) {
        for (const std::string& v : it->second)
          if (!value_matches_leaf(v, cond)) return false;
        return true;
      }
      for (const std::string& v : it->second)
        if (value_matches_leaf(v, cond)) return true;
      return false;
    }
    case Condition::Kind::kIsNull:
      return item.find(cond.attribute) == item.end();
    case Condition::Kind::kIsNotNull:
      return item.find(cond.attribute) != item.end();
    case Condition::Kind::kAnd:
      return item_matches_condition(name, item, *cond.left) &&
             item_matches_condition(name, item, *cond.right);
    case Condition::Kind::kOr:
      return item_matches_condition(name, item, *cond.left) ||
             item_matches_condition(name, item, *cond.right);
    case Condition::Kind::kNot:
      return !item_matches_condition(name, item, *cond.left);
  }
  return false;
}

/// True when the condition tree can only be satisfied by items carrying
/// `attr` -- lets us seed candidates from the index.
const std::string* index_seed(const Condition& cond) {
  switch (cond.kind) {
    case Condition::Kind::kCompare:
    case Condition::Kind::kLike:
    case Condition::Kind::kIn:
    case Condition::Kind::kBetween:
    case Condition::Kind::kIsNotNull:
      return cond.attribute == "itemName()" ? nullptr : &cond.attribute;
    case Condition::Kind::kAnd: {
      const std::string* left = index_seed(*cond.left);
      return left != nullptr ? left : index_seed(*cond.right);
    }
    default:
      return nullptr;
  }
}

}  // namespace

SelectParseResult parse_select(std::string_view text) {
  return SelectParser(text).parse();
}

std::set<std::string> evaluate_where(const Condition* cond,
                                     const SdbDomainData& domain) {
  std::set<std::string> out;
  if (cond == nullptr) {
    for (const auto& [name, item] : domain.items) out.insert(name);
    return out;
  }
  // Seed from the index when the condition implies a required attribute;
  // otherwise scan the domain (is null / not / itemName() conditions).
  if (const std::string* attr = index_seed(*cond)) {
    auto idx_it = domain.index.find(*attr);
    if (idx_it == domain.index.end()) return out;
    std::set<std::string> candidates;
    for (const auto& [value, items] : idx_it->second)
      candidates.insert(items.begin(), items.end());
    for (const std::string& name : candidates)
      if (item_matches_condition(name, domain.items.at(name), *cond))
        out.insert(name);
    return out;
  }
  for (const auto& [name, item] : domain.items)
    if (item_matches_condition(name, item, *cond)) out.insert(name);
  return out;
}

std::vector<std::string> evaluate_select_order(const SelectStatement& stmt,
                                               const SdbDomainData& domain) {
  const std::set<std::string> matches =
      evaluate_where(stmt.where.get(), domain);
  std::vector<std::string> out(matches.begin(), matches.end());
  if (!stmt.order_by.empty() && stmt.order_by != "itemName()") {
    // Sort key: the smallest value of the order-by attribute (items in the
    // result set are guaranteed to carry it by the parser's constraint
    // rule, but be defensive anyway).
    const auto key_of = [&](const std::string& name) -> const std::string* {
      auto item_it = domain.items.find(name);
      if (item_it == domain.items.end()) return nullptr;
      auto attr_it = item_it->second.find(stmt.order_by);
      if (attr_it == item_it->second.end() || attr_it->second.empty())
        return nullptr;
      return &*attr_it->second.begin();
    };
    std::stable_sort(out.begin(), out.end(),
                     [&](const std::string& a, const std::string& b) {
                       const std::string* ka = key_of(a);
                       const std::string* kb = key_of(b);
                       if (ka == nullptr || kb == nullptr)
                         return kb != nullptr ? false : (ka != nullptr);
                       return *ka < *kb;
                     });
  }
  if (stmt.order_descending) std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace provcloud::aws::sdbql
