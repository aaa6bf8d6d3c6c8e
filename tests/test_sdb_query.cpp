// The 2009 SimpleDB query languages: bracket Query expressions and SELECT.
// Includes a brute-force reference evaluator cross-checked against the
// indexed evaluator over randomized domains, and the service's itemName()
// seek cross-checked against a full scan.
#include <gtest/gtest.h>

#include "aws/simpledb/query_language.hpp"
#include "aws/simpledb/simpledb.hpp"
#include "util/rng.hpp"

namespace {

using namespace provcloud::aws;
using namespace provcloud::aws::sdbql;

SdbDomainData make_domain() {
  SdbDomainData d;
  d.apply_put("item1", {{"color", "red", false}, {"size", "small", false}});
  d.apply_put("item2", {{"color", "blue", false}, {"size", "large", false}});
  d.apply_put("item3", {{"color", "red", false},
                        {"color", "blue", false},
                        {"size", "medium", false}});
  d.apply_put("item4", {{"shape", "round", false}});
  d.apply_put("item5", {{"color", "green", false}, {"year", "1978", false}});
  return d;
}

std::set<std::string> run(const SdbDomainData& d, const std::string& expr) {
  auto parsed = parse_query(expr);
  EXPECT_TRUE(parsed.has_value()) << (parsed.has_value() ? "" : parsed.error());
  return evaluate(*parsed, d);
}

TEST(QueryLangTest, SimpleEquality) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run(d, "['color' = 'red']"),
            (std::set<std::string>{"item1", "item3"}));
}

TEST(QueryLangTest, NotEquals) {
  const SdbDomainData d = make_domain();
  // item3 has a blue value too but also red != blue -> matches (some value
  // satisfies the comparison).
  EXPECT_EQ(run(d, "['color' != 'red']"),
            (std::set<std::string>{"item2", "item3", "item5"}));
}

TEST(QueryLangTest, RangeOnSameAttributeWithAnd) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run(d, "['year' > '1975' and 'year' < '1980']"),
            (std::set<std::string>{"item5"}));
}

TEST(QueryLangTest, AndChainNeedsSingleSatisfyingValue) {
  SdbDomainData d;
  // Values "1" and "9": no single value is both > '2' and < '8'.
  d.apply_put("i", {{"a", "1", false}, {"a", "9", false}});
  EXPECT_TRUE(run(d, "['a' > '2' and 'a' < '8']").empty());
  // Adding "5" satisfies the chain with one value.
  d.apply_put("i", {{"a", "5", false}});
  EXPECT_EQ(run(d, "['a' > '2' and 'a' < '8']"),
            (std::set<std::string>{"i"}));
}

TEST(QueryLangTest, OrWithinPredicate) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run(d, "['color' = 'red' or 'color' = 'green']"),
            (std::set<std::string>{"item1", "item3", "item5"}));
}

TEST(QueryLangTest, StartsWith) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run(d, "['size' starts-with 'm']"),
            (std::set<std::string>{"item3"}));
}

TEST(QueryLangTest, LexicographicComparison) {
  SdbDomainData d;
  d.apply_put("a", {{"v", "10", false}});
  d.apply_put("b", {{"v", "9", false}});
  // Strings compare lexicographically: "10" < "9".
  EXPECT_EQ(run(d, "['v' < '5']"), (std::set<std::string>{"a"}));
}

TEST(QueryLangTest, UnionCombinesPredicates) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run(d, "['color' = 'green'] union ['shape' = 'round']"),
            (std::set<std::string>{"item4", "item5"}));
}

TEST(QueryLangTest, IntersectionAcrossAttributes) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run(d, "['color' = 'red'] intersection ['size' = 'small']"),
            (std::set<std::string>{"item1"}));
}

TEST(QueryLangTest, NotSelectsCarriersThatDoNotMatch) {
  const SdbDomainData d = make_domain();
  // `not` returns items that HAVE the attribute but fail the predicate:
  // item4 (no color) is excluded.
  EXPECT_EQ(run(d, "not ['color' = 'red']"),
            (std::set<std::string>{"item2", "item5"}));
}

TEST(QueryLangTest, LeftAssociativeChain) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(
      run(d, "['color' = 'red'] union ['color' = 'blue'] intersection "
             "['size' = 'large']"),
      (std::set<std::string>{"item2"}));
}

TEST(QueryLangTest, MissingAttributeMatchesNothing) {
  const SdbDomainData d = make_domain();
  EXPECT_TRUE(run(d, "['nope' = 'x']").empty());
}

TEST(QueryLangTest, CrossAttributePredicateRejected) {
  auto parsed = parse_query("['a' = '1' and 'b' = '2']");
  ASSERT_FALSE(parsed.has_value());
  EXPECT_NE(parsed.error().find("same"), std::string::npos);
}

struct BadExpression {
  const char* text;
  const char* ctest_name;
};

// CTest names each case after how gtest prints it. Unprinted, a case is its
// raw bytes -- here a pointer -- so the name changed from build to build.
// Print the name the case is registered under instead.
void PrintTo(const BadExpression& b, std::ostream* os) {
  *os << b.ctest_name;
}

class QueryLangRejects : public ::testing::TestWithParam<BadExpression> {};

TEST_P(QueryLangRejects, MalformedExpressions) {
  EXPECT_FALSE(parse_query(GetParam().text).has_value()) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Bad, QueryLangRejects,
    ::testing::Values(
        BadExpression{"[", "8-byte object <6E-32 F2-8D 8C-55 00-00>"},
        BadExpression{"[']", "8-byte object <59-03 F3-8D 8C-55 00-00>"},
        BadExpression{"['a' ='", "8-byte object <5D-03 F3-8D 8C-55 00-00>"},
        BadExpression{"['a' 'b']", "8-byte object <65-03 F3-8D 8C-55 00-00>"},
        BadExpression{"['a' = 'b'] garbage ['c' = 'd']",
                      "8-byte object <C0-0A F3-8D 8C-55 00-00>"},
        BadExpression{"['a' = 'b'] union",
                      "8-byte object <6F-03 F3-8D 8C-55 00-00>"},
        BadExpression{"not", "8-byte object <81-03 F3-8D 8C-55 00-00>"},
        BadExpression{"['a' = 'b' and]",
                      "8-byte object <85-03 F3-8D 8C-55 00-00>"},
        BadExpression{"hello", "8-byte object <FC-44 F2-8D 8C-55 00-00>"}));

TEST(QueryLangTest, QuoteEscaping) {
  SdbDomainData d;
  d.apply_put("i", {{"name", "it's", false}});
  EXPECT_EQ(run(d, "['name' = 'it''s']"), (std::set<std::string>{"i"}));
}

// --- SELECT ---

TEST(SelectTest, ParseStarFromDomain) {
  auto s = parse_select("select * from mydomain");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->output, SelectOutput::kAllAttributes);
  EXPECT_EQ(s->domain, "mydomain");
  EXPECT_EQ(s->where, nullptr);
}

TEST(SelectTest, ParseItemName) {
  auto s = parse_select("select itemName() from d");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->output, SelectOutput::kItemName);
}

TEST(SelectTest, ParseCount) {
  auto s = parse_select("select count(*) from d");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->output, SelectOutput::kCount);
}

TEST(SelectTest, ParseAttributeList) {
  auto s = parse_select("select color, size from d");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->output, SelectOutput::kAttributeList);
  EXPECT_EQ(s->output_attributes,
            (std::vector<std::string>{"color", "size"}));
}

TEST(SelectTest, ParseLimit) {
  auto s = parse_select("select * from d limit 7");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->limit, 7u);
}

TEST(SelectTest, LimitCappedAt250) {
  auto s = parse_select("select * from d limit 100000");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->limit, kSdbMaxQueryResults);
}

std::set<std::string> run_where(const SdbDomainData& d,
                                const std::string& select) {
  auto s = parse_select(select);
  EXPECT_TRUE(s.has_value()) << (s.has_value() ? "" : s.error());
  return evaluate_where(s->where.get(), d);
}

TEST(SelectTest, WhereEquality) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run_where(d, "select * from d where color = 'red'"),
            (std::set<std::string>{"item1", "item3"}));
}

TEST(SelectTest, WhereAndOrParens) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run_where(d, "select * from d where (color = 'red' and "
                         "size = 'small') or shape = 'round'"),
            (std::set<std::string>{"item1", "item4"}));
}

TEST(SelectTest, WhereNot) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run_where(d, "select * from d where not color = 'red'"),
            (std::set<std::string>{"item2", "item4", "item5"}));
}

TEST(SelectTest, WhereLike) {
  SdbDomainData d;
  d.apply_put("a", {{"name", "blast/hits1.out", false}});
  d.apply_put("b", {{"name", "blast/query1.fa", false}});
  d.apply_put("c", {{"name", "other.txt", false}});
  EXPECT_EQ(run_where(d, "select * from d where name like 'blast/%'"),
            (std::set<std::string>{"a", "b"}));
  EXPECT_EQ(run_where(d, "select * from d where name like '%.out'"),
            (std::set<std::string>{"a"}));
  EXPECT_EQ(run_where(d, "select * from d where name like '%hits%'"),
            (std::set<std::string>{"a"}));
}

TEST(SelectTest, WhereIsNull) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run_where(d, "select * from d where color is null"),
            (std::set<std::string>{"item4"}));
  EXPECT_EQ(run_where(d, "select * from d where shape is not null"),
            (std::set<std::string>{"item4"}));
}

TEST(SelectTest, WhereItemName) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run_where(d, "select * from d where itemName() = 'item2'"),
            (std::set<std::string>{"item2"}));
  EXPECT_EQ(run_where(d, "select * from d where itemName() like 'item%'"),
            (std::set<std::string>{"item1", "item2", "item3", "item4",
                                   "item5"}));
}

TEST(SelectTest, WhereIn) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run_where(d, "select * from d where color in ('red', 'green')"),
            (std::set<std::string>{"item1", "item3", "item5"}));
  EXPECT_TRUE(run_where(d, "select * from d where color in ('magenta')")
                  .empty());
}

TEST(SelectTest, WhereBetween) {
  SdbDomainData d;
  d.apply_put("a", {{"year", "1975", false}});
  d.apply_put("b", {{"year", "1978", false}});
  d.apply_put("c", {{"year", "1981", false}});
  EXPECT_EQ(run_where(d, "select * from d where year between '1975' and "
                         "'1979'"),
            (std::set<std::string>{"a", "b"}));
}

TEST(SelectTest, EveryQuantifier) {
  SdbDomainData d;
  d.apply_put("all_red", {{"color", "red", false}});
  d.apply_put("mixed", {{"color", "red", false}, {"color", "blue", false}});
  // Default (some value matches): both items.
  EXPECT_EQ(run_where(d, "select * from d where color = 'red'"),
            (std::set<std::string>{"all_red", "mixed"}));
  // every(): only the item where all values match.
  EXPECT_EQ(run_where(d, "select * from d where every(color) = 'red'"),
            (std::set<std::string>{"all_red"}));
}

TEST(SelectTest, OrderByRequiresConstraint) {
  // The real service rejects ordering on an unconstrained attribute.
  EXPECT_FALSE(parse_select("select * from d order by color").has_value());
  EXPECT_TRUE(parse_select("select * from d where color is not null "
                           "order by color")
                  .has_value());
  EXPECT_TRUE(parse_select("select * from d order by itemName()").has_value());
}

TEST(SelectTest, OrderByParsesDirection) {
  auto s = parse_select(
      "select * from d where year > '0' order by year desc limit 3");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->order_by, "year");
  EXPECT_TRUE(s->order_descending);
  EXPECT_EQ(s->limit, 3u);
}

TEST(SelectTest, OrderByValueSortsResults) {
  SdbDomainData d;
  d.apply_put("i1", {{"year", "1981", false}});
  d.apply_put("i2", {{"year", "1975", false}});
  d.apply_put("i3", {{"year", "1978", false}});
  auto asc = parse_select(
      "select * from d where year > '0' order by year");
  ASSERT_TRUE(asc.has_value());
  EXPECT_EQ(evaluate_select_order(*asc, d),
            (std::vector<std::string>{"i2", "i3", "i1"}));
  auto desc = parse_select(
      "select * from d where year > '0' order by year desc");
  ASSERT_TRUE(desc.has_value());
  EXPECT_EQ(evaluate_select_order(*desc, d),
            (std::vector<std::string>{"i1", "i3", "i2"}));
}

TEST(SelectTest, OrderByItemNameDescending) {
  SdbDomainData d;
  d.apply_put("a", {{"x", "1", false}});
  d.apply_put("b", {{"x", "1", false}});
  auto s = parse_select("select * from d order by itemName() desc");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(evaluate_select_order(*s, d),
            (std::vector<std::string>{"b", "a"}));
}

TEST(SelectTest, RejectsMalformed) {
  EXPECT_FALSE(parse_select("selec * from d").has_value());
  EXPECT_FALSE(parse_select("select * from").has_value());
  EXPECT_FALSE(parse_select("select * from d where").has_value());
  EXPECT_FALSE(parse_select("select * from d where a = ").has_value());
  EXPECT_FALSE(parse_select("select count(* from d").has_value());
  EXPECT_FALSE(parse_select("select * from d limit x").has_value());
  EXPECT_FALSE(parse_select("select * from d where a in ()").has_value());
  EXPECT_FALSE(parse_select("select * from d where a in ('x'").has_value());
  EXPECT_FALSE(
      parse_select("select * from d where a between 'x'").has_value());
  EXPECT_FALSE(parse_select("select * from d where every color = 'x'")
                   .has_value());
  EXPECT_FALSE(parse_select("select * from d order by").has_value());
}

// --- randomized cross-check against a brute-force evaluator ---

bool ref_compare(const std::string& lhs, CompareOp op, const std::string& rhs) {
  switch (op) {
    case CompareOp::kEq: return lhs == rhs;
    case CompareOp::kNe: return lhs != rhs;
    case CompareOp::kLt: return lhs < rhs;
    case CompareOp::kLe: return lhs <= rhs;
    case CompareOp::kGt: return lhs > rhs;
    case CompareOp::kGe: return lhs >= rhs;
    case CompareOp::kStartsWith:
      return lhs.rfind(rhs, 0) == 0;
  }
  return false;
}

std::set<std::string> ref_predicate(const Predicate& p,
                                    const SdbDomainData& d) {
  std::set<std::string> out;
  for (const auto& [name, item] : d.items) {
    auto attr = item.find(p.attribute);
    if (attr == item.end()) continue;
    bool match = false;
    for (const auto& chain : p.or_groups) {
      for (const auto& value : attr->second) {
        bool all = true;
        for (const auto& cmp : chain)
          all = all && ref_compare(value, cmp.op, cmp.value);
        if (all) {
          match = true;
          break;
        }
      }
      if (match) break;
    }
    if (match != p.negated) out.insert(name);
  }
  return out;
}

class QueryLangFuzz : public ::testing::TestWithParam<int> {};

TEST_P(QueryLangFuzz, IndexedEvaluatorMatchesBruteForce) {
  provcloud::util::Rng rng(GetParam());
  SdbDomainData d;
  const std::vector<std::string> attrs = {"a", "b", "c"};
  const std::vector<std::string> values = {"1", "2", "3", "10", "x", "xy"};
  for (int i = 0; i < 40; ++i) {
    std::vector<SdbReplaceableAttribute> put;
    const std::size_t n = 1 + rng.next_below(4);
    for (std::size_t j = 0; j < n; ++j)
      put.push_back({attrs[rng.next_below(attrs.size())],
                     values[rng.next_below(values.size())], false});
    d.apply_put("item" + std::to_string(i), put);
  }
  const std::vector<const char*> ops = {"=", "!=", "<", "<=", ">", ">=",
                                        "starts-with"};
  for (int trial = 0; trial < 200; ++trial) {
    const std::string attr = attrs[rng.next_below(attrs.size())];
    std::string expr = "['" + attr + "' " + ops[rng.next_below(ops.size())] +
                       " '" + values[rng.next_below(values.size())] + "'";
    if (rng.next_bool(0.5))
      expr += std::string(" ") + (rng.next_bool(0.5) ? "and" : "or") + " '" +
              attr + "' " + ops[rng.next_below(ops.size())] + " '" +
              values[rng.next_below(values.size())] + "'";
    expr += "]";
    if (rng.next_bool(0.3)) expr = "not " + expr;

    auto parsed = parse_query(expr);
    ASSERT_TRUE(parsed.has_value()) << expr;
    ASSERT_EQ(parsed->predicates.size(), 1u);
    EXPECT_EQ(evaluate(*parsed, d), ref_predicate(parsed->predicates[0], d))
        << expr;
  }

  // The shapes the evaluator answers by seeking `=` values in the index:
  // OR chains of 1-6 `=` terms (the Q2/Q3 'INPUT' form), and OR-ed AND
  // chains mixing `=` with a range or starts-with -- each sometimes under
  // `not`, and with values no item carries ("0", "zz").
  std::vector<std::string> probes = values;
  probes.insert(probes.end(), {"0", "zz"});
  const std::vector<const char*> mixers = {"<", "<=", ">", ">=",
                                           "starts-with"};
  for (int trial = 0; trial < 200; ++trial) {
    const std::string attr = attrs[rng.next_below(attrs.size())];
    const auto term = [&](const std::string& op) {
      return "'" + attr + "' " + op + " '" +
             probes[rng.next_below(probes.size())] + "'";
    };
    std::string expr = "[";
    if (trial % 2 == 0) {
      const std::size_t terms = 1 + rng.next_below(6);
      for (std::size_t i = 0; i < terms; ++i)
        expr += (i > 0 ? " or " : "") + term("=");
    } else {
      const std::size_t chains = 1 + rng.next_below(3);
      for (std::size_t c = 0; c < chains; ++c) {
        const std::size_t len = 2 + rng.next_below(2);
        const std::size_t eq_at = rng.next_below(len);
        if (c > 0) expr += " or ";
        for (std::size_t i = 0; i < len; ++i) {
          if (i > 0) expr += " and ";
          const std::string op =
              i == eq_at ? "=" : mixers[rng.next_below(mixers.size())];
          expr += term(op);
        }
      }
    }
    expr += "]";
    if (rng.next_bool(0.3)) expr = "not " + expr;

    auto parsed = parse_query(expr);
    ASSERT_TRUE(parsed.has_value()) << expr;
    ASSERT_EQ(parsed->predicates.size(), 1u);
    EXPECT_EQ(evaluate(*parsed, d), ref_predicate(parsed->predicates[0], d))
        << expr;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryLangFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --- the service's itemName() seek and IN-list limit ---

/// `select * from d where itemName() in ('a', ...)`, quotes doubled.
std::string select_names(const std::vector<std::string>& names) {
  std::string out = "select * from d where itemName() in (";
  for (std::size_t i = 0; i < names.size(); ++i) {
    out += i > 0 ? ", '" : "'";
    for (const char c : names[i]) out += c == '\'' ? "''" : std::string(1, c);
    out += "'";
  }
  return out + ")";
}

TEST(SelectServiceTest, InListOfMoreThanTwentyValuesIsRejected) {
  CloudEnv env(3, ConsistencyConfig::strong());
  SimpleDbService sdb(env);
  ASSERT_TRUE(sdb.create_domain("d").has_value());
  std::vector<std::string> names;
  for (std::size_t i = 0; i <= kSdbMaxSelectComparisons; ++i)
    names.push_back("i" + std::to_string(i));
  const auto over = sdb.select(select_names(names));
  ASSERT_FALSE(over.has_value());
  EXPECT_EQ(over.error().code, AwsErrorCode::kInvalidQueryExpression);
  EXPECT_FALSE(
      parse_select("select * from d where color in ('0','1','2','3','4','5',"
                   "'6','7','8','9','10','11','12','13','14','15','16','17',"
                   "'18','19','20')")
          .has_value());
  names.pop_back();
  EXPECT_TRUE(sdb.select(select_names(names)).has_value());
}

TEST(SelectServiceTest, BacktickQuotedDomain) {
  CloudEnv env(3, ConsistencyConfig::strong());
  SimpleDbService sdb(env);
  ASSERT_TRUE(sdb.create_domain("prov-0").has_value());
  ASSERT_TRUE(sdb.put_attributes("prov-0", "a:1", {{"k", "v", false}})
                  .has_value());
  const auto got =
      sdb.select("select * from `prov-0` where itemName() in ('a:1', 'b:1')");
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->items.size(), 1u);
  EXPECT_EQ(got->items[0].name, "a:1");
}

class ItemNameSeekFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ItemNameSeekFuzz, SeekAnswersAsAFullScan) {
  // The service seeks the names an `itemName() = / in (...)` lists; the
  // reference is the same WHERE evaluated by scanning a mirror of the
  // domain. Lists hold missing names, repeats and any order.
  provcloud::util::Rng rng(GetParam());
  CloudEnv env(static_cast<std::uint64_t>(GetParam()),
               ConsistencyConfig::strong());
  SimpleDbService sdb(env);
  ASSERT_TRUE(sdb.create_domain("d").has_value());
  SdbDomainData mirror;
  const auto name_of = [&rng] {
    // 0-39 may be stored; 40-47 never are. One name carries a quote.
    const std::uint64_t i = rng.next_below(48);
    return i == 7 ? std::string("it's") : "item" + std::to_string(i);
  };
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t k = rng.next_below(40);
    const std::string name = k == 7 ? "it's" : "item" + std::to_string(k);
    const std::vector<SdbReplaceableAttribute> put = {
        {"a", std::to_string(rng.next_below(5)), false},
        {"b", std::to_string(rng.next_below(5)), rng.next_bool(0.5)}};
    ASSERT_TRUE(sdb.put_attributes("d", name, put).has_value());
    mirror.apply_put(name, put);
  }
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::string> names;
    const std::size_t n = 1 + rng.next_below(kSdbMaxSelectComparisons);
    for (std::size_t i = 0; i < n; ++i) names.push_back(name_of());
    std::string expr = select_names(names);
    if (n == 1 && rng.next_bool(0.5))
      expr = "select * from d where itemName() = '" +
             (names[0] == "it's" ? std::string("it''s") : names[0]) + "'";
    if (rng.next_bool(0.25)) expr += " order by itemName() desc";
    if (rng.next_bool(0.25)) expr += " limit 3";

    const auto stmt = parse_select(expr);
    ASSERT_TRUE(stmt.has_value()) << expr;
    const std::vector<std::string> want = evaluate_select_order(*stmt, mirror);
    const auto got = sdb.select(expr);
    ASSERT_TRUE(got.has_value()) << expr;
    const std::size_t rows = std::min(want.size(), stmt->limit);
    ASSERT_EQ(got->items.size(), rows) << expr;
    EXPECT_EQ(got->next_token.has_value(), want.size() > rows) << expr;
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(got->items[i].name, want[i]) << expr;
      EXPECT_EQ(got->items[i].attributes, mirror.items.at(want[i])) << expr;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ItemNameSeekFuzz,
                         ::testing::Values(7, 2009));

}  // namespace
