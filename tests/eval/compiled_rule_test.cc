// The compiled-plan layer (eval/compiled_rule.h) derives exactly what the
// oracle (tests/oracle.h) derives, with MatchStats pinned to the values
// the plans produced while a legacy row-at-a-time matcher still checked
// them bump for bump; plus the caching behavior that is the point of the
// layer -- join orders persist across rounds and replan only on >= 4x
// cardinality drift or an ablation-knob flip.

#include "eval/compiled_rule.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "eval/seminaive.h"
#include "gtest/gtest.h"
#include "oracle.h"
#include "test_util.h"
#include "workload/graph_gen.h"

namespace datalog {
namespace {

using testing::MakeSymbols;
using testing::ParseDatabaseOrDie;
using testing::ParseProgramOrDie;
using testing::ParseRuleOrDie;

struct KnobGuard {
  ~KnobGuard() {
    SetGreedyJoinOrdering(true);
    SetIndexLookups(true);
  }
};

struct PinnedStats {
  std::uint64_t substitutions;
  std::uint64_t index_lookups;
  std::uint64_t tuples_scanned;
};

void ExpectStats(const MatchStats& stats, const PinnedStats& pinned,
                 const std::string& label) {
  EXPECT_EQ(stats.substitutions, pinned.substitutions) << label;
  EXPECT_EQ(stats.index_lookups, pinned.index_lookups) << label;
  EXPECT_EQ(stats.tuples_scanned, pinned.tuples_scanned) << label;
}

/// The facts `rule` derives from `db` in one application, per the oracle.
oracle::Facts OracleApply(const Rule& rule, const Database& db) {
  oracle::Facts out;
  for (Tuple& head : oracle::Apply(rule, oracle::FactsOf(db))) {
    out[rule.head().predicate()].insert(std::move(head));
  }
  return out;
}

/// One ApplyRule per knob combination: the oracle's facts, and every
/// counter pinned.
TEST(CompiledRuleTest, SingleApplicationStatsArePinned) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols, "e(1, 2). e(2, 3). e(3, 4). e(4, 1). e(2, 5). t(1, 1).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, z) :- e(x, y), e(y, z).");

  // Indexed by [greedy][indexed], each bool as 0/1.
  const PinnedStats pinned[2][2] = {{{5, 6, 30}, {5, 6, 10}},
                                    {{5, 6, 30}, {5, 6, 10}}};
  for (bool greedy : {true, false}) {
    for (bool indexed : {true, false}) {
      SetGreedyJoinOrdering(greedy);
      SetIndexLookups(indexed);
      const std::string label = "greedy=" + std::to_string(greedy) +
                                " idx=" + std::to_string(indexed);
      Database out(symbols);
      MatchStats stats;
      std::size_t added = ApplyRule(rule, db, &out, &stats);
      EXPECT_EQ(oracle::FactsOf(out), OracleApply(rule, db)) << label;
      EXPECT_EQ(added, out.NumFacts()) << label;
      ExpectStats(stats, pinned[greedy][indexed], label);
    }
  }
}

/// Repeated variables within one atom and a fully bound membership atom:
/// the schedule classification (writes vs checks vs key) must derive the
/// oracle's facts, including with index lookups ablated (the membership
/// path then scans and filters, honoring the knob).
TEST(CompiledRuleTest, RepeatedVarsAndFullyBoundAtomAgreeAcrossKnobs) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols,
      "e(1, 2). e(2, 1). e(2, 3). e(3, 3). e(1, 1). s(1). s(3).");
  Rule loop = ParseRuleOrDie(symbols, "h(x) :- e(x, x), s(x).");
  Rule back = ParseRuleOrDie(symbols, "p(x, y) :- e(x, y), e(y, x).");

  // Indexed by [rule][indexed].
  const PinnedStats pinned[2][2] = {{{2, 3, 12}, {2, 3, 4}},
                                    {{4, 6, 30}, {4, 6, 10}}};
  const Rule* rules[] = {&loop, &back};
  for (int r = 0; r < 2; ++r) {
    for (bool indexed : {true, false}) {
      SetIndexLookups(indexed);
      const std::string label =
          "rule " + std::to_string(r) + " idx=" + std::to_string(indexed);
      Database out(symbols);
      MatchStats stats;
      ApplyRule(*rules[r], db, &out, &stats);
      EXPECT_EQ(oracle::FactsOf(out), OracleApply(*rules[r], db)) << label;
      ExpectStats(stats, pinned[r][indexed], label);
    }
  }
}

/// The MatchAtoms adapter materializes a Binding per complete match; the
/// enumerated bindings must be exactly the oracle's assignments.
TEST(CompiledRuleTest, MatchAtomsAdapterEnumeratesSameBindings) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). a(3, 1).");
  PredicateId a = symbols->LookupPredicate("a").value();
  VariableId x = symbols->InternVariable("x");
  VariableId y = symbols->InternVariable("y");
  VariableId z = symbols->InternVariable("z");
  std::vector<PlannedAtom> atoms = {
      {Atom(a, {Term::Variable(x), Term::Variable(y)}), AtomSource::kFull},
      {Atom(a, {Term::Variable(y), Term::Variable(z)}), AtomSource::kFull}};

  std::set<oracle::Assignment> seen;
  MatchStats stats;
  MatchAtoms(db, nullptr, atoms,
             [&](const Binding& b) {
               seen.insert(oracle::Assignment(b.begin(), b.end()));
               return true;
             },
             &stats);

  std::vector<Atom> body;
  for (const PlannedAtom& planned : atoms) body.push_back(planned.atom);
  const std::vector<oracle::Assignment> expected =
      oracle::Matches(body, oracle::FactsOf(db));
  EXPECT_EQ(seen,
            std::set<oracle::Assignment>(expected.begin(), expected.end()));
  EXPECT_EQ(stats.substitutions, expected.size());
  EXPECT_EQ(seen.size(), 3u);  // the three chained pairs
}

/// Early exit must propagate through the compiled enumeration.
TEST(CompiledRuleTest, MatchAtomsCallbackCanStopEnumeration) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). a(2, 3). a(3, 4).");
  PredicateId a = symbols->LookupPredicate("a").value();
  VariableId x = symbols->InternVariable("x");
  VariableId y = symbols->InternVariable("y");
  std::vector<PlannedAtom> atoms = {
      {Atom(a, {Term::Variable(x), Term::Variable(y)}), AtomSource::kFull}};
  int count = 0;
  MatchAtoms(db, nullptr, atoms,
             [&](const Binding&) {
               ++count;
               return false;  // stop after the first match
             },
             nullptr);
  EXPECT_EQ(count, 1);
}

TEST(CompiledRuleTest, CacheReplansOnlyOnFourfoldDrift) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "e(1, 2). e(2, 3). s(1).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, y) :- e(x, y), s(x).");
  PredicateId e = symbols->LookupPredicate("e").value();

  CompiledRule plan = CompiledRule::Compile(
      rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db, nullptr);
  EXPECT_FALSE(plan.NeedsReplan(db, nullptr));

  // Under 4x growth (2 -> 7 rows is < 4x): the cached order stands.
  for (std::int64_t i = 0; i < 5; ++i) {
    db.AddFact(e, {Value::Int(10 + i), Value::Int(11 + i)});
  }
  EXPECT_FALSE(plan.NeedsReplan(db, nullptr));

  // Crossing 4x (2 -> 8) invalidates.
  db.AddFact(e, {Value::Int(90), Value::Int(91)});
  EXPECT_TRUE(plan.NeedsReplan(db, nullptr));
  plan.Replan(db, nullptr);
  EXPECT_FALSE(plan.NeedsReplan(db, nullptr));
}

TEST(CompiledRuleTest, CacheInvalidatesOnKnobFlip) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "e(1, 2). s(1).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, y) :- e(x, y), s(x).");
  CompiledRule plan = CompiledRule::Compile(
      rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db, nullptr);
  EXPECT_FALSE(plan.NeedsReplan(db, nullptr));
  SetGreedyJoinOrdering(false);
  EXPECT_TRUE(plan.NeedsReplan(db, nullptr));
  SetGreedyJoinOrdering(true);
  SetIndexLookups(false);
  EXPECT_TRUE(plan.NeedsReplan(db, nullptr));
}

/// With greedy planning off the order is textual and fixed, so pure
/// growth must NOT trigger replanning (nothing about the plan depends on
/// sizes).
TEST(CompiledRuleTest, FixedOrderPlansNeverReplanOnGrowth) {
  KnobGuard guard;
  SetGreedyJoinOrdering(false);
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols, "e(1, 2). s(1).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, y) :- e(x, y), s(x).");
  PredicateId e = symbols->LookupPredicate("e").value();
  CompiledRule plan = CompiledRule::Compile(
      rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db, nullptr);
  for (std::int64_t i = 0; i < 64; ++i) {
    db.AddFact(e, {Value::Int(100 + i), Value::Int(101 + i)});
  }
  EXPECT_FALSE(plan.NeedsReplan(db, nullptr));
}

/// Full engine run: the cached-plan path reaches the oracle's fixpoint,
/// with the substitution count, facts and rounds pinned (substitutions
/// are join-order independent, so they survive the cache's deliberately
/// lazier replanning).
TEST(CompiledRuleTest, SemiNaiveFixpointMatchesOracle) {
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- a(x, y), g(y, z).\n");
  PredicateId a = symbols->LookupPredicate("a").value();
  Database base(symbols);
  AddGraphFacts({GraphShape::kRandom, 24, 48, 11}, a, &base);

  Database db(symbols);
  db.UnionWith(base);
  EvalStats stats = EvaluateSemiNaive(p, &db).value();

  EXPECT_EQ(oracle::FactsOf(db), oracle::Evaluate(p, base));
  EXPECT_EQ(stats.match.substitutions, 937u);
  EXPECT_EQ(stats.facts_derived, 422u);
  EXPECT_EQ(stats.iterations, 12u);
}

/// Negated literals are tested against the full database after the
/// positive part binds.
TEST(CompiledRuleTest, NegationAgreesWithOracle) {
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols, "e(1, 2). e(2, 3). e(3, 1). blocked(2).");
  Rule rule = ParseRuleOrDie(symbols, "h(x, y) :- e(x, y), not blocked(y).");

  Database out(symbols);
  MatchStats stats;
  std::size_t added = ApplyRule(rule, db, &out, &stats);

  EXPECT_EQ(added, 2u);
  EXPECT_EQ(oracle::FactsOf(out), OracleApply(rule, db));
  EXPECT_EQ(stats.substitutions, 3u);  // e's three rows, before negation
}

}  // namespace
}  // namespace datalog
