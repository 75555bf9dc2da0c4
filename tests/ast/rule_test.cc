#include "ast/rule.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace datalog {
namespace {

using testing::MakeSymbols;
using testing::ParseRuleOrDie;

TEST(RuleTest, FactHasEmptyBody) {
  auto symbols = MakeSymbols();
  Rule fact = ParseRuleOrDie(symbols, "a(1, 2).");
  EXPECT_TRUE(fact.IsFact());
  EXPECT_TRUE(fact.IsPositive());
  EXPECT_TRUE(fact.IsSafe());
}

TEST(RuleTest, HashAgreesWithEquality) {
  auto symbols = MakeSymbols();
  Rule a = ParseRuleOrDie(symbols, "g(x, z) :- a(x, y), b(y, z).");
  Rule b = ParseRuleOrDie(symbols, "g(x, z) :-\n  a(x, y), b(y, z).");
  EXPECT_EQ(a, b);  // spans differ; content does not
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(RuleHash{}(a), a.Hash());
  EXPECT_NE(a, a.WithoutBodyLiteral(1));
}

TEST(RuleTest, SafetyRequiresHeadVarsInBody) {
  auto symbols = MakeSymbols();
  Rule safe = ParseRuleOrDie(symbols, "g(x, z) :- a(x, z).");
  EXPECT_TRUE(safe.IsSafe());
  // Head variable y does not appear in the body.
  Rule unsafe = ParseRuleOrDie(symbols, "g(x, y) :- a(x, z).");
  EXPECT_FALSE(unsafe.IsSafe());
}

TEST(RuleTest, SafetyWithNegationRequiresPositiveOccurrence) {
  auto symbols = MakeSymbols();
  Rule safe = ParseRuleOrDie(symbols, "p(x) :- q(x), not r(x).");
  EXPECT_TRUE(safe.IsSafe());
  // w appears only under negation.
  Rule unsafe = ParseRuleOrDie(symbols, "p(x) :- q(x), not r2(x, w).");
  EXPECT_FALSE(unsafe.IsSafe());
}

TEST(RuleTest, NonGroundFactIsUnsafe) {
  auto symbols = MakeSymbols();
  // The paper's Anc(x, x) :- example: rules with empty bodies must be
  // ground.
  Parser parser(symbols);
  Result<Rule> rule = parser.ParseRule("anc(x, x).");
  ASSERT_TRUE(rule.ok());
  EXPECT_FALSE(rule->IsSafe());
}

TEST(RuleTest, PositiveBodyAtomsSkipsNegated) {
  auto symbols = MakeSymbols();
  Rule rule = ParseRuleOrDie(symbols, "p(x) :- q(x), not r(x), s(x).");
  EXPECT_FALSE(rule.IsPositive());
  std::vector<Atom> atoms = rule.PositiveBodyAtoms();
  ASSERT_EQ(atoms.size(), 2u);
}

TEST(RuleTest, VariablesCoverHeadAndBody) {
  auto symbols = MakeSymbols();
  Rule rule = ParseRuleOrDie(symbols, "g(x, z) :- g(x, y), g(y, z).");
  EXPECT_EQ(rule.Variables().size(), 3u);
  EXPECT_EQ(rule.PositiveBodyVariables().size(), 3u);
}

TEST(RuleTest, WithoutBodyLiteral) {
  auto symbols = MakeSymbols();
  Rule rule = ParseRuleOrDie(symbols, "g(x, z) :- a(x, z), b(x, z).");
  Rule smaller = rule.WithoutBodyLiteral(0);
  ASSERT_EQ(smaller.body().size(), 1u);
  // The remaining literal is the former second one.
  EXPECT_EQ(smaller.body()[0], rule.body()[1]);
  // Original is untouched.
  EXPECT_EQ(rule.body().size(), 2u);
}

TEST(RuleTest, EqualityIsStructural) {
  auto symbols = MakeSymbols();
  Rule a = ParseRuleOrDie(symbols, "g(x, z) :- a(x, z).");
  Rule b = ParseRuleOrDie(symbols, "g(x, z) :- a(x, z).");
  Rule c = ParseRuleOrDie(symbols, "g(x, z) :- a(z, x).");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace datalog
