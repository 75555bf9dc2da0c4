#include "eval/rule_matcher.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace datalog {
namespace {

using testing::MakeSymbols;
using testing::ParseDatabaseOrDie;
using testing::ParseRuleOrDie;

std::size_t CountMatches(const Database& db, const std::vector<Atom>& atoms) {
  std::vector<PlannedAtom> planned;
  for (const Atom& a : atoms) planned.push_back({a, AtomSource::kFull});
  std::size_t count = 0;
  MatchAtoms(db, nullptr, planned,
             [&count](const Binding&) {
               ++count;
               return true;
             },
             nullptr);
  return count;
}

TEST(RuleMatcherTest, SingleAtomAllFree) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). a(3, 4).");
  PredicateId a = symbols->LookupPredicate("a").value();
  VariableId x = symbols->InternVariable("x");
  VariableId y = symbols->InternVariable("y");
  EXPECT_EQ(CountMatches(db, {Atom(a, {Term::Variable(x), Term::Variable(y)})}),
            3u);
}

TEST(RuleMatcherTest, ConstantRestriction) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(1, 3). a(2, 3).");
  PredicateId a = symbols->LookupPredicate("a").value();
  VariableId y = symbols->InternVariable("y");
  EXPECT_EQ(CountMatches(db, {Atom(a, {Term::Int(1), Term::Variable(y)})}), 2u);
  EXPECT_EQ(CountMatches(db, {Atom(a, {Term::Int(9), Term::Variable(y)})}), 0u);
}

TEST(RuleMatcherTest, RepeatedVariableWithinAtom) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 1). a(1, 2). a(3, 3).");
  PredicateId a = symbols->LookupPredicate("a").value();
  VariableId x = symbols->InternVariable("x");
  // a(x, x) matches only the diagonal tuples.
  EXPECT_EQ(CountMatches(db, {Atom(a, {Term::Variable(x), Term::Variable(x)})}),
            2u);
}

TEST(RuleMatcherTest, JoinAcrossAtoms) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). a(3, 4).");
  PredicateId a = symbols->LookupPredicate("a").value();
  VariableId x = symbols->InternVariable("x");
  VariableId y = symbols->InternVariable("y");
  VariableId z = symbols->InternVariable("z");
  // a(x, y), a(y, z): the two-step paths 1-2-3 and 2-3-4.
  EXPECT_EQ(CountMatches(db, {Atom(a, {Term::Variable(x), Term::Variable(y)}),
                              Atom(a, {Term::Variable(y), Term::Variable(z)})}),
            2u);
}

TEST(RuleMatcherTest, EmptyBodyYieldsOneMatch) {
  auto symbols = MakeSymbols();
  Database db(symbols);
  EXPECT_EQ(CountMatches(db, {}), 1u);
}

TEST(RuleMatcherTest, CallbackCanStopEnumeration) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). a(3, 4).");
  PredicateId a = symbols->LookupPredicate("a").value();
  VariableId x = symbols->InternVariable("x");
  VariableId y = symbols->InternVariable("y");
  std::size_t seen = 0;
  MatchAtoms(db, nullptr,
             {{Atom(a, {Term::Variable(x), Term::Variable(y)}),
               AtomSource::kFull}},
             [&seen](const Binding&) {
               ++seen;
               return false;
             },
             nullptr);
  EXPECT_EQ(seen, 1u);
}

TEST(RuleMatcherTest, ApplyRuleDerivesHeads) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3).");
  Rule rule = ParseRuleOrDie(symbols, "g(x, z) :- a(x, z).");
  MatchStats stats;
  std::size_t added = ApplyRule(rule, db, &db, &stats);
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(stats.substitutions, 2u);
  PredicateId g = symbols->LookupPredicate("g").value();
  EXPECT_TRUE(db.Contains(g, {Value::Int(1), Value::Int(2)}));
}

TEST(RuleMatcherTest, ApplyRuleIntoAliasedDatabaseIsNonRecursive) {
  // Applying g(x,z) :- g(x,y), g(y,z) once must not chain into facts
  // derived within the same application.
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "g(1, 2). g(2, 3). g(3, 4).");
  Rule rule = ParseRuleOrDie(symbols, "g(x, z) :- g(x, y), g(y, z).");
  ApplyRule(rule, db, &db, nullptr);
  PredicateId g = symbols->LookupPredicate("g").value();
  EXPECT_TRUE(db.Contains(g, {Value::Int(1), Value::Int(3)}));
  EXPECT_TRUE(db.Contains(g, {Value::Int(2), Value::Int(4)}));
  // 1 -> 4 needs two applications.
  EXPECT_FALSE(db.Contains(g, {Value::Int(1), Value::Int(4)}));
}

TEST(RuleMatcherTest, ApplyRuleWithConstantInHead) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2).");
  Rule rule = ParseRuleOrDie(symbols, "g(x, 99) :- a(x, y).");
  ApplyRule(rule, db, &db, nullptr);
  PredicateId g = symbols->LookupPredicate("g").value();
  EXPECT_TRUE(db.Contains(g, {Value::Int(1), Value::Int(99)}));
}

TEST(RuleMatcherTest, NegatedLiteralFiltersMatches) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1). a(2). b(2).");
  Rule rule = ParseRuleOrDie(symbols, "p(x) :- a(x), not b(x).");
  ApplyRule(rule, db, &db, nullptr);
  PredicateId p = symbols->LookupPredicate("p").value();
  EXPECT_TRUE(db.Contains(p, {Value::Int(1)}));
  EXPECT_FALSE(db.Contains(p, {Value::Int(2)}));
}

TEST(RuleMatcherTest, DeltaRestrictsOnePosition) {
  auto symbols = MakeSymbols();
  Database full = ParseDatabaseOrDie(symbols, "g(1, 2). g(2, 3).");
  // The delta is row 1 of the full relation: {g(2, 3)}.
  PredicateId g = symbols->LookupPredicate("g").value();
  DeltaRanges delta;
  delta.Set(g, full.relation(g), 1, 2);
  Rule rule = ParseRuleOrDie(symbols, "h(x, z) :- g(x, y), g(y, z).");
  Database out(symbols);
  // Position 0 in delta: g(2,3) as first atom needs g(3,z) - none.
  EXPECT_EQ(ApplyRuleWithDelta(rule, full, delta, 0, &out, nullptr), 0u);
  // Position 1 in delta: g(x,2) joined with delta g(2,3): h(1,3).
  EXPECT_EQ(ApplyRuleWithDelta(rule, full, delta, 1, &out, nullptr), 1u);
  PredicateId h = symbols->LookupPredicate("h").value();
  EXPECT_TRUE(out.Contains(h, {Value::Int(1), Value::Int(3)}));
}

TEST(RuleMatcherTest, StatsCountWork) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). a(3, 4).");
  Rule rule = ParseRuleOrDie(symbols, "g(x, z) :- a(x, y), a(y, z).");
  MatchStats stats;
  ApplyRule(rule, db, &db, &stats);
  EXPECT_EQ(stats.substitutions, 2u);
  EXPECT_GT(stats.index_lookups, 0u);
  EXPECT_GT(stats.tuples_scanned, 0u);
}

}  // namespace
}  // namespace datalog
