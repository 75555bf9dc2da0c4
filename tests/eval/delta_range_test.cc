// Regression tests for the semi-naive delta as a row range of the full
// relation: every engine reads the rows the previous round appended in
// place, as [old watermark, round-start watermark), instead of copying
// them into a per-round delta database.
//
// Each fixpoint case must reach EvaluateNaive's fixpoint on the
// sequential engine and on the parallel engine at 1, 2 and 4 threads,
// with MatchStats pinned to the counts the copied-delta implementation
// produced: reading
// the delta in place changes where rows are read from, never which rows
// are visited or in what order. Every derived row costs exactly one
// dedup probe, so dedup_probes equals substitutions on these
// negation-free programs.

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "datalog.h"
#include "eval/compiled_rule.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "workload/graph_gen.h"

namespace datalog {
namespace {

using testing::MakeSymbols;
using testing::ParseProgramOrDie;

struct Counters {
  std::uint64_t substitutions = 0;
  std::uint64_t index_lookups = 0;
  std::uint64_t tuples_scanned = 0;
};

struct FixpointCase {
  const char* name;
  const char* program;
  std::function<void(const std::shared_ptr<SymbolTable>&, Database*)> facts;
  Counters sequential;
  Counters parallel;  // the same at every thread count
};

PredicateId Pred(const std::shared_ptr<SymbolTable>& symbols,
                 const char* name, int arity) {
  return symbols->InternPredicate(name, arity).value();
}

void AddSameGeneration(const std::shared_ptr<SymbolTable>& symbols,
                       std::size_t depth, Database* db) {
  SameGenerationOptions options;
  options.depth = depth;
  options.fanout = 2;
  AddSameGenerationFacts(options, Pred(symbols, "up", 2),
                         Pred(symbols, "flat", 2), Pred(symbols, "down", 2),
                         db);
}

std::vector<FixpointCase> FixpointCases() {
  return {
      // Nonlinear: old, delta and full all read `path`, and the delta is
      // probed through the full relation's index when it is not the
      // outermost atom.
      {"nonlinear-path",
       "path(x, y) :- e(x, y).\n"
       "path(x, z) :- path(x, y), path(y, z).\n",
       [](const std::shared_ptr<SymbolTable>& symbols, Database* db) {
         AddGraphFacts({GraphShape::kRandom, 40, 90, 3}, Pred(symbols, "e", 2),
                       db);
       },
       {23097, 1919, 25093},
       {23097, 1956, 25023}},
      // Same-generation at depth 8: once the delta outgrows `up` 4x the
      // planner scans up x down and tests sg(u, v) with both columns
      // bound -- a membership probe of the delta range through the full
      // relation's dedup table.
      {"same-generation",
       "sg(x, y) :- flat(x, y).\n"
       "sg(x, y) :- up(x, u), sg(u, v), down(v, y).\n",
       [](const std::shared_ptr<SymbolTable>& symbols, Database* db) {
         AddSameGeneration(symbols, 8, db);
       },
       {11395, 134849, 272196},
       {10915, 4147862, 8279460}},
      // A cyclic body over the recursive predicate: the multiway plan
      // shape, whose root candidate lists and seeks read the delta range.
      {"recursive-multiway",
       "p(x, y) :- e(x, y).\n"
       "p(x, z) :- p(x, y), p(y, z), e(z, x).\n",
       [](const std::shared_ptr<SymbolTable>& symbols, Database* db) {
         AddGraphFacts({GraphShape::kRandom, 24, 80, 7}, Pred(symbols, "e", 2),
                       db);
       },
       {183, 922, 1620},
       {183, 922, 1620}},
      // IDB facts given as input: round 0's delta is every relation the
      // bodies read, whole -- [0, size) of `e` and of `t`.
      {"round-zero-idb-input",
       "t(x, y) :- e(x, y).\n"
       "t(x, z) :- t(x, y), e(y, z).\n",
       [](const std::shared_ptr<SymbolTable>& symbols, Database* db) {
         AddGraphFacts({GraphShape::kRandom, 30, 60, 11},
                       Pred(symbols, "e", 2), db);
         const PredicateId t = Pred(symbols, "t", 2);
         for (std::int64_t i = 0; i < 30; i += 3) {
           db->AddFact(t, {Value::Int(i), Value::Int(100 + i)});
           db->AddFact(t, {Value::Int(100 + i), Value::Int(i)});
         }
       },
       {1666, 477, 2188},
       {1666, 653, 2304}},
  };
}

void ExpectCounters(const EvalStats& stats, const Counters& expected,
                    const std::string& label) {
  EXPECT_EQ(stats.match.substitutions, expected.substitutions) << label;
  EXPECT_EQ(stats.match.index_lookups, expected.index_lookups) << label;
  EXPECT_EQ(stats.match.tuples_scanned, expected.tuples_scanned) << label;
  EXPECT_EQ(stats.match.dedup_probes, stats.match.substitutions) << label;
}

/// Parameterized for the suite's one instance, Bytecode (below): the
/// suite once also ran the struct executors, and the instance keeps its
/// name so test ids stay stable.
class DeltaRangeFixpointTest : public ::testing::TestWithParam<bool> {};

TEST_P(DeltaRangeFixpointTest, MatchesNaiveWithPinnedCounters) {
  for (const FixpointCase& c : FixpointCases()) {
    auto symbols = MakeSymbols();
    Program program = ParseProgramOrDie(symbols, c.program);
    Database edb(symbols);
    c.facts(symbols, &edb);

    Database naive = edb;
    ASSERT_TRUE(EvaluateNaive(program, &naive).ok()) << c.name;

    Database seq = edb;
    Result<EvalStats> seq_stats = EvaluateSemiNaive(program, &seq);
    ASSERT_TRUE(seq_stats.ok()) << c.name;
    EXPECT_EQ(seq, naive) << c.name;
    ExpectCounters(*seq_stats, c.sequential,
                   std::string(c.name) + " sequential");

    for (std::size_t threads : {1u, 2u, 4u}) {
      const std::string label =
          std::string(c.name) + " parallel x" + std::to_string(threads);
      Database par = edb;
      Result<EvalStats> par_stats =
          EvaluateSemiNaiveParallel(program, &par, threads);
      ASSERT_TRUE(par_stats.ok()) << label;
      EXPECT_EQ(par, naive) << label;
      EXPECT_EQ(par.ToString(), seq.ToString()) << label;
      ExpectCounters(*par_stats, c.parallel, label);
      EXPECT_EQ(par_stats->facts_derived, seq_stats->facts_derived) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Executors, DeltaRangeFixpointTest,
                         ::testing::Values(true),
                         [](const ::testing::TestParamInfo<bool>&) {
                           return std::string("Bytecode");
                         });

TEST(DeltaRangeTest, SameGenerationRunsFullyBoundDeltaProbes) {
  // The pinned same-generation case above is only a regression test of
  // the membership probe if the planner really picks it.
  auto symbols = MakeSymbols();
  Program program = ParseProgramOrDie(
      symbols,
      "sg(x, y) :- flat(x, y).\nsg(x, y) :- up(x, u), sg(u, v), down(v, y).\n");
  Database db(symbols);
  AddSameGeneration(symbols, 8, &db);
  MetricsRegistry& metrics = MetricsRegistry::Get();
  metrics.Clear();
  metrics.Enable();
  ASSERT_TRUE(EvaluateSemiNaive(program, &db).ok());
  const std::uint64_t members =
      metrics.Value("bytecode.dispatch", {{"op", "member"}});
  metrics.Disable();
  metrics.Clear();
  EXPECT_GT(members, 0u);
}

TEST(DeltaRangeTest, FullyBoundProbeTestsRowIdAgainstTheRange) {
  // Derive sg once, then apply the recursive rule with the delta set to
  // an interior range of sg. The plan must end in a fully bound probe of
  // the delta, and its matches must be exactly the brute-force join with
  // sg restricted to the range: a row outside it -- present in the full
  // relation and its dedup table -- must not match.
  auto symbols = MakeSymbols();
  Program program = ParseProgramOrDie(
      symbols,
      "sg(x, y) :- flat(x, y).\nsg(x, y) :- up(x, u), sg(u, v), down(v, y).\n");
  Database db(symbols);
  AddSameGeneration(symbols, 8, &db);
  ASSERT_TRUE(EvaluateSemiNaive(program, &db).ok());
  const PredicateId up = symbols->LookupPredicate("up").value();
  const PredicateId sg = symbols->LookupPredicate("sg").value();
  const PredicateId down = symbols->LookupPredicate("down").value();
  const Relation& sg_rel = db.relation(sg);
  const std::size_t begin = sg_rel.size() / 3;
  const std::size_t end = sg_rel.size() - sg_rel.size() / 4;
  DeltaRanges delta;
  delta.Set(sg, sg_rel, begin, end);
  OldLimits old_limits;
  old_limits[up] = db.relation(up).size();
  old_limits[sg] = begin;

  const Rule& rule = program.rules()[1];
  CompiledRule plan = CompiledRule::Compile(rule, /*delta_pos=*/1,
                                            /*use_old=*/true, db, &delta);
  ASSERT_FALSE(plan.steps().empty());
  const CompiledAtomStep& last = plan.steps().back();
  EXPECT_EQ(last.predicate, sg);
  EXPECT_EQ(last.source, AtomSource::kDelta);
  EXPECT_EQ(static_cast<int>(last.key_cols.size()), last.arity)
      << "the delta atom should be the fully bound membership probe";

  DerivedRows derived;
  MatchStats stats;
  plan.Derive(db, &delta, &old_limits, &derived, &stats);

  // Brute force: up(x, u), sg(u, v) with sg's row id in [begin, end),
  // down(v, y).
  std::uint64_t expected = 0;
  const Relation& up_rel = db.relation(up);
  const Relation& down_rel = db.relation(down);
  for (std::size_t i = 0; i < up_rel.size(); ++i) {
    for (std::size_t j = 0; j < down_rel.size(); ++j) {
      const std::uint32_t row =
          sg_rel.FindRowId({up_rel.row(i)[1], down_rel.row(j)[0]});
      if (row != Relation::kNoRow && row >= begin && row < end) ++expected;
    }
  }
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(stats.substitutions, expected);
  EXPECT_EQ(derived.count, expected);
}

TEST(DeltaRangeTest, RecursiveMultiwayBodyPlansTheDeltaAtom) {
  auto symbols = MakeSymbols();
  Program program = ParseProgramOrDie(
      symbols, "p(x, y) :- e(x, y).\np(x, z) :- p(x, y), p(y, z), e(z, x).\n");
  Database db(symbols);
  AddGraphFacts({GraphShape::kRandom, 24, 80, 7}, Pred(symbols, "e", 2), &db);
  ASSERT_TRUE(EvaluateSemiNaive(program, &db).ok());
  const PredicateId p = symbols->LookupPredicate("p").value();
  const Relation& rel = db.relation(p);
  DeltaRanges delta;
  delta.Set(p, rel, rel.size() / 2, rel.size());
  CompiledRule plan = CompiledRule::Compile(program.rules()[1],
                                            /*delta_pos=*/0,
                                            /*use_old=*/true, db, &delta);
  EXPECT_EQ(plan.shape(), PlanShape::kMultiway);
}

TEST(DeltaRangeTest, RoundZeroDeltaIsEveryReadRelationWhole) {
  auto symbols = MakeSymbols();
  Program program = ParseProgramOrDie(symbols,
                                      "t(x, y) :- e(x, y).\n"
                                      "t(x, z) :- t(x, y), e(y, z).\n");
  Database db(symbols);
  const PredicateId e = Pred(symbols, "e", 2);
  const PredicateId t = Pred(symbols, "t", 2);
  const PredicateId unread = Pred(symbols, "unread", 1);
  db.AddFact(e, {Value::Int(1), Value::Int(2)});
  db.AddFact(e, {Value::Int(2), Value::Int(3)});
  db.AddFact(t, {Value::Int(7), Value::Int(1)});
  db.AddFact(unread, {Value::Int(5)});

  DeltaRanges delta = RoundZeroDelta(program.rules(), db);
  const RowRange e_range = delta.Find(e);
  EXPECT_EQ(e_range.rel, &db.relation(e));
  EXPECT_EQ(e_range.begin, 0u);
  EXPECT_EQ(e_range.end, 2u);
  EXPECT_EQ(delta.Find(t).size(), 1u);
  EXPECT_TRUE(delta.Find(unread).empty());
  EXPECT_EQ(delta.ranges().size(), 2u);

  // The next round's delta is what the round appended, read in place.
  Watermarks marks = TakeWatermarks(db);
  db.AddFact(t, {Value::Int(1), Value::Int(3)});
  DeltaRanges next = DeltaRanges::Since(db, marks);
  EXPECT_EQ(next.ranges().size(), 1u);
  EXPECT_EQ(next.Find(t).begin, 1u);
  EXPECT_EQ(next.Find(t).end, 2u);
  EXPECT_TRUE(DeltaRanges::Since(db, TakeWatermarks(db)).empty());
}

/// One commit of a seeded edit script: inserts and retracts of edges.
struct Edit {
  bool insert;
  std::int64_t from;
  std::int64_t to;
};

std::vector<std::vector<Edit>> EditScript(std::uint64_t seed, int commits,
                                          std::int64_t nodes) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<Edit>> script;
  for (int c = 0; c < commits; ++c) {
    std::vector<Edit> edits;
    const int n = 1 + static_cast<int>(rng() % 5);
    for (int i = 0; i < n; ++i) {
      const bool insert = rng() % 3 != 0;
      const auto from = static_cast<std::int64_t>(rng() % nodes);
      const auto to = static_cast<std::int64_t>(rng() % nodes);
      edits.push_back({insert, from, to});
    }
    script.push_back(edits);
  }
  return script;
}

TEST(DeltaRangeTest, IncrementalCommitScriptsMatchNaive) {
  // DRed's insertion rounds seed their first round with a separate seed
  // relation, read whole, and read every later delta in place from the
  // view. Pinned recompute counters are those of the copied-delta
  // implementation at one thread.
  struct IncrCase {
    const char* program;
    Counters recompute;
  };
  const IncrCase cases[] = {
      {"path(x, y) :- e(x, y).\npath(x, z) :- path(x, y), path(y, z).\n",
       {6562, 513, 7034}},
      {"t(x, y) :- e(x, y).\nt(x, z) :- t(x, y), e(y, z).\nr(x) :- t(x, x).\n",
       {807, 300, 1066}},
  };
  for (const IncrCase& c : cases) {
    for (std::size_t threads : {1u, 2u, 4u}) {
      const std::string label =
          std::string(c.program) + " threads=" + std::to_string(threads);
      auto symbols = MakeSymbols();
      Program program = ParseProgramOrDie(symbols, c.program);
      const PredicateId e = Pred(symbols, "e", 2);
      Database edb(symbols);
      AddGraphFacts({GraphShape::kRandom, 20, 30, 5}, e, &edb);
      IncrOptions options;
      options.num_threads = threads;
      Result<MaterializedView> view =
          MaterializedView::Create(program, edb, options);
      ASSERT_TRUE(view.ok()) << label;
      CommitStats total;
      for (const std::vector<Edit>& commit : EditScript(17, 12, 20)) {
        Transaction tx = view->Begin();
        for (const Edit& edit : commit) {
          const Tuple tuple = {Value::Int(edit.from), Value::Int(edit.to)};
          ASSERT_TRUE((edit.insert ? tx.Insert(e, tuple)
                                   : tx.Retract(e, tuple))
                          .ok());
        }
        Result<CommitStats> stats = tx.Commit();
        ASSERT_TRUE(stats.ok()) << label;
        total.Add(*stats);

        Database naive = view->base();
        ASSERT_TRUE(EvaluateNaive(program, &naive).ok()) << label;
        EXPECT_EQ(view->db(), naive) << label;
      }
      if (threads == 1) {
        EXPECT_EQ(total.recompute.match.substitutions,
                  c.recompute.substitutions)
            << label;
        EXPECT_EQ(total.recompute.match.index_lookups,
                  c.recompute.index_lookups)
            << label;
        EXPECT_EQ(total.recompute.match.tuples_scanned,
                  c.recompute.tuples_scanned)
            << label;
      }
      EXPECT_EQ(total.recompute.match.dedup_probes,
                total.recompute.match.substitutions)
          << label;
    }
  }
}

}  // namespace
}  // namespace datalog
