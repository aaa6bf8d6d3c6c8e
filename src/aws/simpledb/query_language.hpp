// The 2009 SimpleDB query languages.
//
// Two surfaces, both implemented here over SdbDomainData:
//
// 1. The original bracket language used by Query/QueryWithAttributes:
//
//      ['color' = 'red' or 'color' = 'blue'] intersection not ['size' < 'm']
//
//    Grammar (left-associative set operators):
//      expression := term (('union' | 'intersection') term)*
//      term       := ['not'] predicate
//      predicate  := '[' comparison (('and' | 'or') comparison)* ']'
//      comparison := 'attr' op 'value'
//      op         := '=' | '!=' | '<' | '<=' | '>' | '>=' | 'starts-with'
//
//    All comparisons inside one predicate must reference the same attribute
//    (cross-attribute conditions require `intersection`), `and` binds
//    tighter than `or`, and an AND-chain must be satisfied by a *single*
//    value of the (multi-valued) attribute -- all per the original service
//    semantics. `not` selects items that carry the attribute but do not
//    match. Comparisons are lexicographic on strings.
//
//    Evaluation reads candidates off the domain's index and verifies each.
//    A predicate whose every OR-group holds an `=` seeks those values'
//    posting lists; any other, or one under `not`, reads the attribute's
//    whole posting list.
//
// 2. The SELECT form ("queries ... expressed in the standard SQL form"):
//
//      select * from mydomain where input = 'bar:2' and type = 'file' limit 50
//      select itemName() from mydomain where name like 'blast%'
//      select count(*) from mydomain
//
//    Output clause: '*', 'itemName()', 'count(*)', or an attribute list.
//    WHERE supports =, !=, <, <=, >, >=, like 'pattern%', in ('a','b',...)
//    with at most 20 values (kSdbMaxSelectComparisons), between 'x' and
//    'y', is null / is not null, and/or/not with parentheses, and the
//    every() quantifier (every value of a multi-valued attribute must
//    satisfy the comparison, instead of the default "some value"). ORDER BY
//    sorts on one attribute (or itemName()) ascending or descending; as in
//    the real service, the ordered attribute must be constrained in the
//    WHERE clause. A domain or attribute name may be backtick-quoted
//    (select * from `provenance-0`).
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "aws/simpledb/types.hpp"
#include "util/expected.hpp"

namespace provcloud::aws::sdbql {

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kStartsWith };

struct Comparison {
  CompareOp op;
  std::string value;
};

/// One bracket predicate: OR of AND-chains over a single attribute.
struct Predicate {
  std::string attribute;
  std::vector<std::vector<Comparison>> or_groups;  // OR of AND-chains
  bool negated = false;
};

enum class SetOp { kUnion, kIntersection };

struct QueryExpression {
  std::vector<Predicate> predicates;
  std::vector<SetOp> ops;  // ops[i] combines predicates[i] and predicates[i+1]
};

using ParseResult = util::Expected<QueryExpression, std::string>;

/// Parse the bracket language. Error carries a human-readable message (the
/// service maps it to InvalidQueryExpression).
ParseResult parse_query(std::string_view text);

/// Evaluate against one replica's domain data; returns matching item names
/// in lexicographic order.
std::set<std::string> evaluate(const QueryExpression& expr,
                               const SdbDomainData& domain);

// --- SELECT ---

enum class SelectOutput { kAllAttributes, kItemName, kCount, kAttributeList };

/// WHERE condition tree.
struct Condition;
using ConditionPtr = std::unique_ptr<Condition>;

struct Condition {
  enum class Kind {
    kCompare,
    kLike,
    kIn,
    kBetween,
    kIsNull,
    kIsNotNull,
    kAnd,
    kOr,
    kNot,
  };
  Kind kind;
  // Leaf kinds:
  std::string attribute;
  CompareOp op = CompareOp::kEq;    // for kCompare
  std::string value;                // kCompare value; kLike pattern;
                                    // kBetween lower bound
  std::string value2;               // kBetween upper bound
  std::vector<std::string> values;  // kIn list
  /// every(attr): all values of the attribute must satisfy the leaf
  /// (default: some value suffices).
  bool every = false;
  // kAnd / kOr: both children; kNot: left only.
  ConditionPtr left;
  ConditionPtr right;
};

struct SelectStatement {
  SelectOutput output = SelectOutput::kAllAttributes;
  std::vector<std::string> output_attributes;  // for kAttributeList
  std::string domain;
  ConditionPtr where;  // null = match everything
  std::size_t limit = kSdbMaxQueryResults;
  /// ORDER BY: empty = item-name order. Must be constrained in WHERE.
  std::string order_by;
  bool order_descending = false;
};

using SelectParseResult = util::Expected<SelectStatement, std::string>;

SelectParseResult parse_select(std::string_view text);

/// Matching item names for a SELECT's WHERE clause.
std::set<std::string> evaluate_where(const Condition* cond,
                                     const SdbDomainData& domain);

/// The names a WHERE clause lists when it is exactly `itemName() = '...'`
/// or `itemName() in (...)`, as written (unsorted, repeats kept); empty for
/// any other clause. The service looks these names up in the item map
/// instead of scanning the domain.
std::vector<const std::string*> listed_item_names(const Condition* cond);

/// Matching item names ordered per the statement's ORDER BY (item-name
/// order when absent).
std::vector<std::string> evaluate_select_order(const SelectStatement& stmt,
                                               const SdbDomainData& domain);

}  // namespace provcloud::aws::sdbql
