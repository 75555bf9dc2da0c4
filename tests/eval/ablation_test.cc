#include "eval/rule_matcher.h"

#include "eval/seminaive.h"
#include "gtest/gtest.h"
#include "oracle.h"
#include "test_util.h"
#include "workload/graph_gen.h"

namespace datalog {
namespace {

using testing::MakeSymbols;
using testing::ParseProgramOrDie;

/// RAII reset so a failing assertion cannot leak a disabled knob into
/// other tests.
struct KnobGuard {
  ~KnobGuard() {
    SetGreedyJoinOrdering(true);
    SetIndexLookups(true);
  }
};

TEST(AblationTest, KnobsDefaultOn) {
  EXPECT_TRUE(GreedyJoinOrderingEnabled());
  EXPECT_TRUE(IndexLookupsEnabled());
}

TEST(AblationTest, ResultsIdenticalWithKnobsOff) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- a(x, y), g(y, z).\n");
  PredicateId a = symbols->LookupPredicate("a").value();

  Database reference(symbols);
  AddGraphFacts({GraphShape::kRandom, 12, 24, 4}, a, &reference);
  Database d1(symbols), d2(symbols), d3(symbols);
  d1.UnionWith(reference);
  d2.UnionWith(reference);
  d3.UnionWith(reference);

  ASSERT_TRUE(EvaluateSemiNaive(p, &d1).ok());

  SetGreedyJoinOrdering(false);
  ASSERT_TRUE(EvaluateSemiNaive(p, &d2).ok());
  SetGreedyJoinOrdering(true);

  SetIndexLookups(false);
  ASSERT_TRUE(EvaluateSemiNaive(p, &d3).ok());
  SetIndexLookups(true);

  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d3);
}

TEST(AblationTest, CompiledPlanCountersArePinned) {
  // The default configuration reaches the oracle's fixpoint, with its
  // counters pinned (the substitution count is also the one a legacy
  // row-at-a-time matcher counted).
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "g(x, z) :- a(x, z).\n"
                                "g(x, z) :- a(x, y), g(y, z).\n");
  PredicateId a = symbols->LookupPredicate("a").value();

  Database base(symbols);
  AddGraphFacts({GraphShape::kRandom, 12, 24, 9}, a, &base);
  Database db(symbols);
  db.UnionWith(base);
  EvalStats stats = EvaluateSemiNaive(p, &db).value();

  EXPECT_EQ(oracle::FactsOf(db), oracle::Evaluate(p, base));
  EXPECT_EQ(stats.match.substitutions, 235u);
  EXPECT_EQ(stats.match.index_lookups, 105u);
  EXPECT_EQ(stats.match.tuples_scanned, 332u);
}

TEST(AblationTest, IndexLookupsReduceScannedTuples) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Program p = ParseProgramOrDie(symbols,
                                "h(x, z) :- e(x, y), e(y, z).\n");
  PredicateId e = symbols->LookupPredicate("e").value();
  Database base(symbols);
  AddGraphFacts({GraphShape::kChain, 64}, e, &base);

  Database with_index(symbols);
  with_index.UnionWith(base);
  EvalStats indexed = EvaluateSemiNaive(p, &with_index).value();

  SetIndexLookups(false);
  Database without_index(symbols);
  without_index.UnionWith(base);
  EvalStats scanned = EvaluateSemiNaive(p, &without_index).value();
  SetIndexLookups(true);

  EXPECT_EQ(with_index, without_index);
  EXPECT_LT(indexed.match.tuples_scanned, scanned.match.tuples_scanned);
}

TEST(AblationTest, GreedyOrderingReducesWorkOnSelectiveBodies) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  // Textual order starts with the huge unselective atom; greedy order
  // starts with the selective constant probe.
  Program p = ParseProgramOrDie(symbols,
                                "out(x, y) :- big(x, y), tiny(0, x).\n");
  PredicateId big = symbols->LookupPredicate("big").value();
  PredicateId tiny = symbols->LookupPredicate("tiny").value();
  Database base(symbols);
  AddGraphFacts({GraphShape::kRandom, 64, 512, 6}, big, &base);
  base.AddFact(tiny, {Value::Int(0), Value::Int(1)});

  Database d1(symbols);
  d1.UnionWith(base);
  EvalStats greedy = EvaluateSemiNaive(p, &d1).value();

  SetGreedyJoinOrdering(false);
  Database d2(symbols);
  d2.UnionWith(base);
  EvalStats textual = EvaluateSemiNaive(p, &d2).value();
  SetGreedyJoinOrdering(true);

  EXPECT_EQ(d1, d2);
  EXPECT_LT(greedy.match.tuples_scanned, textual.match.tuples_scanned);
}

}  // namespace
}  // namespace datalog
