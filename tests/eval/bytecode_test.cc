// The bytecode layer's contract tests: every plan Lower emits a program
// for derives through the VM -- one run per Derive, never the
// depth-first fallback -- and derives exactly the head rows and
// substitutions of the oracle (tests/oracle.h), for every (rule, delta
// position) variant, on a corpus of representative plan shapes, on the
// minimization corpus and on generator-driven random programs.

#include "eval/bytecode/bytecode.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "eval/compiled_rule.h"
#include "eval/seminaive.h"
#include "gtest/gtest.h"
#include "oracle.h"
#include "plan_check.h"
#include "test_util.h"
#include "workload/graph_gen.h"
#include "workload/program_gen.h"

#ifndef DATALOG_CORPUS_DIR
#define DATALOG_CORPUS_DIR "tests/corpus"
#endif

namespace datalog {
namespace {

using testing::ExpectPlansMatchOracle;
using testing::MakeSymbols;
using testing::ParseDatabaseOrDie;
using testing::ParseProgramOrDie;
using testing::PlanCheckCounts;

struct KnobGuard {
  ~KnobGuard() {
    SetMultiwayJoins(true);
    SetIndexLookups(true);
    SetGreedyJoinOrdering(true);
  }
};

TEST(BytecodeTest, VmDerivesCorpusPlanShapes) {
  // One rule per shape the lowering handles -- unbound scans, indexed
  // probes, constants, repeated variables, negation, fully bound
  // membership -- each planned full and per delta position (delta and
  // old sources), with index lookups on and off (probe vs scan
  // programs).
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(symbols,
                                   "a(1, 2). a(2, 3). a(3, 1). a(2, 2).\n"
                                   "g(1, 2). g(2, 3). g(3, 3).\n"
                                   "b(2, 3).\n"
                                   "up(1, 2). up(2, 3). down(3, 4).\n"
                                   "flat(2, 2). flat(3, 3).\n");
  Program program = ParseProgramOrDie(
      symbols,
      "h0(x, z) :- a(x, y), g(y, z).\n"
      "h1(x, z) :- g(x, y), g(y, z).\n"
      "h2(x, y) :- a(x, y), g(2, y).\n"
      "h3(x) :- a(x, x).\n"
      "h4(x, y) :- a(x, y), not b(x, y).\n"
      "h5(x, y) :- up(x, u), g(u, v), down(v, y).\n"
      "h6(x, y) :- a(x, y), g(x, y), a(y, x).\n");
  for (bool indexed : {true, false}) {
    SetIndexLookups(indexed);
    const PlanCheckCounts counts = ExpectPlansMatchOracle(
        program.rules(), db, "idx=" + std::to_string(indexed));
    EXPECT_EQ(counts.on_vm, counts.plans);
  }
}

TEST(BytecodeTest, VmDerivesMultiwayTriangle) {
  KnobGuard guard;
  auto symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols, "e(1, 2). e(2, 3). e(3, 1). e(1, 3). e(3, 2). e(2, 1).");
  Program program =
      ParseProgramOrDie(symbols, "t(x, y, z) :- e(x, y), e(y, z), e(x, z).\n");
  CompiledRule plan = CompiledRule::Compile(
      program.rules()[0], /*delta_pos=*/std::size_t(-1), /*use_old=*/false,
      db, nullptr);
  ASSERT_EQ(plan.bytecode_program().shape, 1)
      << "triangle should lower to the multiway shape";
  const PlanCheckCounts counts =
      ExpectPlansMatchOracle(program.rules(), db, "triangle");
  EXPECT_EQ(counts.on_vm, counts.plans);
  EXPECT_GT(counts.multiway, 0u);
}

TEST(BytecodeTest, VmDerivesTwentyRandomSeeds) {
  // Generator-driven property: saturate a planted program, then check
  // every variant of every rule against the oracle. 20 seeds x several
  // rules each.
  std::size_t lowered = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    auto symbols = MakeSymbols();
    PlantedProgramOptions options;
    options.seed = seed * 2654435761u + 17;
    options.num_extensional = 1 + seed % 3;
    options.num_intentional = 1 + seed % 4;
    options.chain_rules = 2 + seed % 3;
    options.chain_length = 2 + seed % 3;
    options.recursion_percent = 20 + static_cast<int>(seed % 5) * 15;
    Result<PlantedProgram> planted = MakePlantedProgram(symbols, options);
    ASSERT_TRUE(planted.ok()) << planted.status().ToString();

    Database db(symbols);
    const GraphShape shapes[] = {GraphShape::kChain, GraphShape::kCycle,
                                 GraphShape::kBinaryTree, GraphShape::kRandom};
    for (std::size_t i = 0; i < options.num_extensional; ++i) {
      GraphOptions graph;
      graph.shape = shapes[(seed + i) % 4];
      graph.num_nodes = 5 + (seed + i) % 4;
      graph.num_edges = 8 + (seed + 2 * i) % 7;
      graph.seed = seed * 101 + i;
      AddGraphFacts(graph,
                    symbols->LookupPredicate("e" + std::to_string(i)).value(),
                    &db);
    }
    // Saturate so IDB relations are non-empty and plans see real sizes.
    ASSERT_TRUE(EvaluateSemiNaive(planted->program, &db).ok());
    const PlanCheckCounts counts = ExpectPlansMatchOracle(
        planted->program.rules(), db, "seed " + std::to_string(seed));
    EXPECT_EQ(counts.on_vm, counts.plans) << "seed " << seed;
    lowered += counts.on_vm;
  }
  // The generator must actually exercise the lowering; if this drops to
  // zero the property above is vacuous.
  EXPECT_GE(lowered, 20u);
}

TEST(BytecodeTest, VmDerivesEveryCorpusProgram) {
  // The minimization corpus (tests/corpus): each input and expected
  // output program over a database holding every tuple of {1, 2, 3} in
  // each predicate no rule defines. Facts written as rules have empty
  // bodies, which Lower leaves to the depth-first path; every other plan
  // runs on the VM.
  std::size_t programs = 0;
  std::size_t on_vm = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(DATALOG_CORPUS_DIR)) {
    if (entry.path().extension() != ".dl") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    auto symbols = MakeSymbols();
    Program program = ParseProgramOrDie(symbols, text.str());
    const std::string label = entry.path().filename().string();

    std::set<PredicateId> heads, edb;
    for (const Rule& rule : program.rules()) {
      heads.insert(rule.head().predicate());
    }
    for (const Rule& rule : program.rules()) {
      for (const Literal& lit : rule.body()) {
        if (!heads.contains(lit.atom.predicate())) {
          edb.insert(lit.atom.predicate());
        }
      }
    }
    Database db(symbols);
    for (PredicateId pred : edb) {
      const int arity = symbols->PredicateArity(pred);
      std::size_t count = 1;
      for (int c = 0; c < arity; ++c) count *= 3;
      for (std::size_t n = 0; n < count; ++n) {
        Tuple tuple;
        for (std::size_t rest = n, c = 0; c < static_cast<std::size_t>(arity);
             ++c, rest /= 3) {
          tuple.push_back(Value::Int(static_cast<std::int64_t>(rest % 3) + 1));
        }
        db.AddFact(pred, std::move(tuple));
      }
    }
    const oracle::Facts expected = oracle::Evaluate(program, db);
    ASSERT_TRUE(EvaluateSemiNaive(program, &db).ok()) << label;
    ASSERT_EQ(oracle::FactsOf(db), expected) << label;

    const PlanCheckCounts counts =
        ExpectPlansMatchOracle(program.rules(), db, label);
    std::size_t facts = 0;
    for (const Rule& rule : program.rules()) facts += rule.IsFact();
    EXPECT_EQ(counts.on_vm + facts, counts.plans) << label;
    ++programs;
    on_vm += counts.on_vm;
  }
  EXPECT_GE(programs, 30u);
  EXPECT_GT(on_vm, 0u);
}

}  // namespace
}  // namespace datalog
