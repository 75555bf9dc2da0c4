// Differential engine fuzzing, in the spirit of "Finding Cross-rule
// Optimization Bugs in Datalog Engines" (Zhang, Wang, Rigger): generate
// randomly structured programs and databases from fixed seeds, run every
// engine configuration -- naive, semi-naive, SCC-ordered semi-naive,
// stratified, parallel at 1/2/4 threads, incremental commit scripts, the
// magic-sets rewrite and the tabled top-down solver, across the ablation
// knobs (greedy ordering x index lookups x multiway joins) -- and compare
// each with the deliberately simple reference in tests/oracle.h, a naive
// nested-loop fixpoint over sets. Any divergence pinpoints the
// configuration and the seed that reproduces it.

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "datalog.h"
#include "gtest/gtest.h"
#include "oracle.h"
#include "plan_check.h"
#include "test_util.h"
#include "workload/cyclic_gen.h"
#include "workload/graph_gen.h"
#include "workload/program_gen.h"

namespace datalog {
namespace {

using testing::ExpectPlansMatchOracle;
using testing::MakeSymbols;
using testing::ParseProgramOrDie;
using testing::ParseQueryOrDie;
using testing::PlanCheckCounts;

/// RAII reset for the ablation-knob matrix so a failing assertion cannot
/// leak a disabled knob into other tests.
struct KnobMatrixGuard {
  ~KnobMatrixGuard() {
    SetGreedyJoinOrdering(true);
    SetIndexLookups(true);
    SetMultiwayJoins(true);
  }
};

/// One point of the knob matrix, applied on construction of the config.
struct Knobs {
  bool greedy = true;
  bool indexed = true;
  bool multiway = true;

  void Apply() const {
    SetGreedyJoinOrdering(greedy);
    SetIndexLookups(indexed);
    SetMultiwayJoins(multiway);
  }
  std::string Name() const {
    return std::string("greedy=") + (greedy ? "1" : "0") +
           " index=" + (indexed ? "1" : "0") +
           " multiway=" + (multiway ? "1" : "0");
  }
};

/// The full greedy x index x multiway matrix.
std::vector<Knobs> KnobMatrix() {
  std::vector<Knobs> matrix;
  for (bool greedy : {true, false}) {
    for (bool indexed : {true, false}) {
      for (bool multiway : {true, false}) {
        matrix.push_back(Knobs{greedy, indexed, multiway});
      }
    }
  }
  return matrix;
}

/// Replays a seeded random insert/retract script of `batches` commits on a
/// MaterializedView of `program` over `edb` (facts over `edb_preds`, values
/// below `value_range`), and expects the view to equal the oracle's
/// fixpoint of its base after every commit.
void ExpectCommitScriptMatchesOracle(const Program& program,
                                     const Database& edb,
                                     const std::vector<PredicateId>& edb_preds,
                                     std::int64_t value_range,
                                     std::uint64_t rng_seed, int batches,
                                     std::size_t threads,
                                     const std::string& label) {
  IncrOptions options;
  options.num_threads = threads;
  Result<MaterializedView> view =
      MaterializedView::Create(program, edb, options);
  ASSERT_TRUE(view.ok()) << label << ": " << view.status().ToString();
  ASSERT_EQ(oracle::FactsOf(view->db()), oracle::Evaluate(program, edb))
      << "initial materialization, " << label;

  std::mt19937_64 rng(rng_seed);
  for (int batch = 0; batch < batches; ++batch) {
    Transaction txn = view->Begin();
    const int num_ops = 1 + static_cast<int>(rng() % 4);
    for (int op = 0; op < num_ops; ++op) {
      const PredicateId pred = edb_preds[rng() % edb_preds.size()];
      const bool insert = rng() % 2 == 0;
      const auto& rows = view->base().relation(pred).rows();
      if (!insert && !rows.empty() && rng() % 4 != 0) {
        // Mostly retract facts that exist so deletions do real work.
        ASSERT_TRUE(txn.Retract(pred, rows[rng() % rows.size()]).ok());
        continue;
      }
      const auto range = static_cast<std::uint64_t>(value_range);
      Tuple tuple = {Value::Int(static_cast<std::int64_t>(rng() % range)),
                     Value::Int(static_cast<std::int64_t>(rng() % range))};
      ASSERT_TRUE((insert ? txn.Insert(pred, std::move(tuple))
                          : txn.Retract(pred, std::move(tuple)))
                      .ok());
    }
    Result<CommitStats> stats = txn.Commit();
    ASSERT_TRUE(stats.ok()) << label << " batch " << batch << ": "
                            << stats.status().ToString();
    ASSERT_EQ(oracle::FactsOf(view->db()),
              oracle::Evaluate(program, view->base()))
        << "incremental view diverges from the oracle, " << label
        << ", batch " << batch << "\ngot:\n"
        << view->db().ToString();
  }
}

struct GeneratedCase {
  std::shared_ptr<SymbolTable> symbols;
  Program program;
  Database edb;
  std::size_t num_intentional;
  std::vector<PredicateId> edb_preds;

  explicit GeneratedCase(std::shared_ptr<SymbolTable> s)
      : symbols(std::move(s)), edb(symbols) {}
};

/// Derives a program/database pair from the seed alone, varying every
/// generator knob so the ~50 cases cover different rule counts, chain
/// lengths, recursion densities, planted redundancies, and graph shapes.
GeneratedCase MakeCase(std::uint64_t seed) {
  GeneratedCase c(MakeSymbols());
  PlantedProgramOptions options;
  options.seed = seed * 7919 + 1;
  options.num_extensional = 1 + seed % 3;
  options.num_intentional = 1 + (seed / 3) % 4;
  options.chain_rules = 2 + seed % 3;
  options.chain_length = 2 + (seed / 2) % 3;
  options.recursion_percent = 20 + static_cast<int>(seed % 5) * 15;
  options.planted_atoms = seed % 3;
  options.planted_rules = seed % 2;
  Result<PlantedProgram> planted = MakePlantedProgram(c.symbols, options);
  EXPECT_TRUE(planted.ok()) << planted.status().ToString();
  c.program = std::move(planted->program);
  c.num_intentional = options.num_intentional;

  const GraphShape shapes[] = {GraphShape::kChain, GraphShape::kCycle,
                               GraphShape::kBinaryTree, GraphShape::kRandom};
  for (std::size_t i = 0; i < options.num_extensional; ++i) {
    PredicateId pred =
        c.symbols->LookupPredicate("e" + std::to_string(i)).value();
    GraphOptions graph;
    graph.shape = shapes[(seed + i) % 4];
    graph.num_nodes = 5 + (seed + 2 * i) % 4;
    graph.num_edges = 8 + (seed + 3 * i) % 7;
    graph.seed = seed * 31 + i;
    AddGraphFacts(graph, pred, &c.edb);
    c.edb_preds.push_back(pred);
  }
  return c;
}

class DifferentialEngineTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialEngineTest, AllEngineConfigurationsAgree) {
  GeneratedCase c = MakeCase(GetParam());
  const oracle::Facts expected = oracle::Evaluate(c.program, c.edb);

  struct EngineRun {
    const char* name;
    Result<EvalStats> (*run)(const Program&, Database*);
  };
  auto parallel1 = [](const Program& p, Database* db) {
    return EvaluateSemiNaiveParallel(p, db, 1);
  };
  auto parallel2 = [](const Program& p, Database* db) {
    return EvaluateSemiNaiveParallel(p, db, 2);
  };
  auto parallel4 = [](const Program& p, Database* db) {
    return EvaluateSemiNaiveParallel(p, db, 4);
  };
  auto scc_parallel4 = [](const Program& p, Database* db) {
    return EvaluateSemiNaiveSccParallel(p, db, 4);
  };
  const EngineRun engines[] = {
      {"naive", EvaluateNaive},
      {"semi-naive", EvaluateSemiNaive},
      {"scc semi-naive", EvaluateSemiNaiveScc},
      // On positive programs stratified evaluation must coincide with the
      // plain fixpoint (a single stratum per SCC chain).
      {"stratified", EvaluateStratified},
      {"parallel x1", parallel1},
      {"parallel x2", parallel2},
      {"parallel x4", parallel4},
      {"scc parallel x4", scc_parallel4},
  };
  for (const EngineRun& engine : engines) {
    Database db = c.edb;
    Result<EvalStats> stats = engine.run(c.program, &db);
    ASSERT_TRUE(stats.ok())
        << engine.name << ": " << stats.status().ToString();
    EXPECT_EQ(oracle::FactsOf(db), expected)
        << engine.name << " diverges from the oracle on seed " << GetParam()
        << "\ngot:\n"
        << db.ToString();
  }
}

TEST_P(DifferentialEngineTest, MagicSetsRewriteAgreesOnEveryIdbPredicate) {
  GeneratedCase c = MakeCase(GetParam());
  oracle::Facts expected = oracle::Evaluate(c.program, c.edb);

  for (std::size_t k = 0; k < c.num_intentional; ++k) {
    const std::string name = "i" + std::to_string(k);
    PredicateId pred = c.symbols->LookupPredicate(name).value();
    Atom query = ParseQueryOrDie(c.symbols, "?- " + name + "(x, y).");
    Result<std::vector<Tuple>> magic =
        AnswerQuery(c.program, c.edb, query, EvalMethod::kMagicSemiNaive);
    ASSERT_TRUE(magic.ok()) << name << ": " << magic.status().ToString();
    EXPECT_EQ(std::set<Tuple>(magic->begin(), magic->end()), expected[pred])
        << "magic sets diverge on " << name << ", seed " << GetParam();
  }
}

TEST_P(DifferentialEngineTest, TabledTopDownAgreesOnEveryIdbPredicate) {
  // The tabled top-down solver answers an all-free query per IDB
  // predicate; its answer set must equal that predicate's facts in the
  // oracle's fixpoint (completeness AND soundness of the memo tables).
  GeneratedCase c = MakeCase(GetParam());
  oracle::Facts expected = oracle::Evaluate(c.program, c.edb);

  for (std::size_t k = 0; k < c.num_intentional; ++k) {
    const std::string name = "i" + std::to_string(k);
    PredicateId pred = c.symbols->LookupPredicate(name).value();
    Atom query = ParseQueryOrDie(c.symbols, "?- " + name + "(x, y).");
    Result<std::vector<Tuple>> answers =
        SolveTopDown(c.program, c.edb, query);
    ASSERT_TRUE(answers.ok()) << name << ": " << answers.status().ToString();
    EXPECT_EQ(std::set<Tuple>(answers->begin(), answers->end()),
              expected[pred])
        << "tabled top-down diverges on " << name << ", seed " << GetParam();
  }
}

TEST_P(DifferentialEngineTest, IncrementalViewMatchesFromScratchAfterCommits) {
  // Drive a MaterializedView through 20 random insert/retract batches:
  // after every commit the view equals the oracle's from-scratch fixpoint
  // of the updated base.
  const std::uint64_t seed = GetParam();
  GeneratedCase c = MakeCase(seed);
  ExpectCommitScriptMatchesOracle(
      c.program, c.edb, c.edb_preds, /*value_range=*/12,
      seed * 0x9E3779B97F4A7C15ull + 1, /*batches=*/20,
      /*threads=*/seed % 2 == 0 ? 1 : 2, "seed " + std::to_string(seed));
}

TEST_P(DifferentialEngineTest, CompiledPlansAgreeAcrossKnobMatrix) {
  // Every point of the greedy x index x multiway matrix must reach the
  // oracle's fixpoint under the sequential, SCC-ordered and parallel
  // engines. Substitutions count complete body matches, which no join
  // order, access path or plan shape changes, so within each engine the
  // count must not move across the matrix either. (The parallel engine's
  // sharded deltas legitimately count differently from the sequential
  // one, but identically at any thread count.)
  KnobMatrixGuard guard;
  const std::uint64_t seed = GetParam();
  GeneratedCase c = MakeCase(seed);
  const oracle::Facts expected = oracle::Evaluate(c.program, c.edb);

  struct EngineRun {
    const char* name;
    std::size_t threads;  // 0: sequential
    bool scc;
  };
  const EngineRun engines[] = {{"semi-naive", 0, false},
                               {"scc semi-naive", 0, true},
                               {"parallel x1", 1, false},
                               {"parallel x2", 2, false},
                               {"parallel x4", 4, false}};
  // The first substitution count seen per engine family.
  std::map<std::string, std::uint64_t> subs;
  for (const Knobs& knobs : KnobMatrix()) {
    knobs.Apply();
    for (const EngineRun& engine : engines) {
      const std::string config = std::string(engine.name) + " " +
                                 knobs.Name() + " seed=" +
                                 std::to_string(seed);
      Database db = c.edb;
      Result<EvalStats> stats =
          engine.threads != 0
              ? EvaluateSemiNaiveParallel(c.program, &db, engine.threads)
          : engine.scc ? EvaluateSemiNaiveScc(c.program, &db)
                       : EvaluateSemiNaive(c.program, &db);
      ASSERT_TRUE(stats.ok()) << config << ": " << stats.status().ToString();
      EXPECT_EQ(oracle::FactsOf(db), expected) << "diverges, " << config;
      const std::string family =
          engine.threads != 0 ? "parallel" : engine.name;
      const auto it =
          subs.try_emplace(family, stats->match.substitutions).first;
      EXPECT_EQ(stats->match.substitutions, it->second)
          << "substitutions drift, " << config;
    }
  }
}

TEST_P(DifferentialEngineTest, BytecodeVmAgreesAcrossKnobMatrix) {
  // Plan by plan: at every point of the knob matrix, every (rule, delta
  // position) variant over the fixpoint derives exactly the oracle's head
  // rows and substitutions, and every variant with a bytecode program
  // derives through the VM -- never through the depth-first fallback.
  KnobMatrixGuard guard;
  const std::uint64_t seed = GetParam();
  GeneratedCase c = MakeCase(seed);
  Database fixpoint = c.edb;
  ASSERT_TRUE(EvaluateSemiNaive(c.program, &fixpoint).ok());
  ASSERT_EQ(oracle::FactsOf(fixpoint), oracle::Evaluate(c.program, c.edb));

  for (const Knobs& knobs : KnobMatrix()) {
    knobs.Apply();
    const PlanCheckCounts counts = ExpectPlansMatchOracle(
        c.program.rules(), fixpoint,
        knobs.Name() + " seed=" + std::to_string(seed));
    // Planted programs have no empty bodies and no unbound head
    // variables, so every plan lowers.
    EXPECT_EQ(counts.on_vm, counts.plans) << knobs.Name();
    EXPECT_GT(counts.plans, 0u);
  }
}

TEST_P(DifferentialEngineTest, BytecodeVmAgreesOnIncrementalCommits) {
  // The incremental commit path (three-part delta joins, DRed and the
  // plan cache's delta passes, all deriving through the VM) at 1, 2 and
  // 4 threads: the view equals the oracle after every commit.
  const std::uint64_t seed = GetParam();
  GeneratedCase c = MakeCase(seed);
  for (std::size_t threads : {1u, 2u, 4u}) {
    ExpectCommitScriptMatchesOracle(
        c.program, c.edb, c.edb_preds, /*value_range=*/12,
        seed * 0x9E3779B97F4A7C15ull + 29, /*batches=*/8, threads,
        "threads=" + std::to_string(threads) +
            " seed=" + std::to_string(seed));
  }
}

TEST_P(DifferentialEngineTest, CompiledPlansAgreeOnIncrementalCommits) {
  // The same commit path under every greedy x index combination.
  KnobMatrixGuard guard;
  const std::uint64_t seed = GetParam();
  GeneratedCase c = MakeCase(seed);
  for (bool greedy : {true, false}) {
    for (bool indexed : {true, false}) {
      const Knobs knobs{greedy, indexed, true};
      knobs.Apply();
      ExpectCommitScriptMatchesOracle(
          c.program, c.edb, c.edb_preds, /*value_range=*/12,
          seed * 0x9E3779B97F4A7C15ull + 7, /*batches=*/8,
          /*threads=*/seed % 2 == 0 ? 1 : 2,
          knobs.Name() + " seed=" + std::to_string(seed));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialEngineTest,
                         ::testing::Range<std::uint64_t>(0, 50));

// ---------------------------------------------------------------------------
// Multiway-join differential matrix over the cyclic workload family.
//
// The cyclic generator produces exactly the bodies (triangles, k-cycles,
// cliques, dense same-generation) where the planner selects the
// worst-case-optimal multiway shape, so these cases exercise the
// multiway programs on every seed instead of relying on the planted
// generator to stumble into a cyclic body. Both plan shapes under
// {sequential, parallel x4, incremental commit scripts} must reach the
// oracle's fixpoint, and (within an engine) identical substitution
// counts.
// ---------------------------------------------------------------------------

struct CyclicCase {
  std::shared_ptr<SymbolTable> symbols;
  Program program;
  Database edb;
  /// EDB predicates for transaction scripts (e, or the three tree
  /// predicates for kDenseSameGen).
  std::vector<PredicateId> edb_preds;

  explicit CyclicCase(std::shared_ptr<SymbolTable> s)
      : symbols(std::move(s)), edb(symbols) {}
};

/// Derives a cyclic program/database pair from the seed alone: the shape
/// rotates through the family and every size knob wiggles so the 50
/// cases cover skewed hubs, different cycle lengths, and both tree
/// geometries. Sizes stay small; the point is coverage, not load.
CyclicCase MakeCyclicCase(std::uint64_t seed) {
  CyclicCase c(MakeSymbols());
  CyclicOptions options;
  const CyclicShape shapes[] = {CyclicShape::kTriangle, CyclicShape::kKCycle,
                                CyclicShape::kClique,
                                CyclicShape::kDenseSameGen};
  options.shape = shapes[seed % 4];
  options.num_nodes = 6 + seed % 6;
  options.num_edges = 2 * options.num_nodes + seed % 5;
  options.num_hubs = 1;
  options.num_planted = 1 + seed % 2;
  options.cycle_length = 3 + (seed / 4) % 3;
  options.depth = 2 + seed % 2;
  options.fanout = 2 + (seed / 2) % 2;
  options.seed = seed * 6364136223846793005ull + 3;
  c.program = ParseProgramOrDie(c.symbols, CyclicProgramText(options));
  if (options.shape == CyclicShape::kDenseSameGen) {
    PredicateId up = c.symbols->LookupPredicate("up").value();
    PredicateId down = c.symbols->LookupPredicate("down").value();
    PredicateId flat = c.symbols->LookupPredicate("flat").value();
    AddDenseSameGenFacts(options, up, down, flat, &c.edb);
    c.edb_preds = {up, down, flat};
  } else {
    PredicateId e = c.symbols->LookupPredicate("e").value();
    AddCyclicFacts(options, e, &c.edb);
    c.edb_preds = {e};
  }
  return c;
}

class DifferentialEngineMultiwayTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialEngineMultiwayTest, MultiwayAndLeftDeepShapesAgree) {
  // Multiway on/off, for sequential semi-naive and the parallel engine at
  // 4 threads: the oracle's fixpoint, and within each engine the same
  // substitutions under either shape.
  KnobMatrixGuard guard;
  const std::uint64_t seed = GetParam();
  CyclicCase c = MakeCyclicCase(seed);
  const oracle::Facts expected = oracle::Evaluate(c.program, c.edb);

  std::uint64_t seq_subs = 0, par_subs = 0;
  for (bool multiway : {true, false}) {
    SetMultiwayJoins(multiway);
    const std::string config = std::string("multiway=") +
                               (multiway ? "1" : "0") +
                               " seed=" + std::to_string(seed);

    Database seq = c.edb;
    Result<EvalStats> seq_stats = EvaluateSemiNaive(c.program, &seq);
    ASSERT_TRUE(seq_stats.ok())
        << config << ": " << seq_stats.status().ToString();
    EXPECT_EQ(oracle::FactsOf(seq), expected)
        << "semi-naive diverges, " << config;

    Database par = c.edb;
    Result<EvalStats> par_stats =
        EvaluateSemiNaiveParallel(c.program, &par, 4);
    ASSERT_TRUE(par_stats.ok())
        << config << ": " << par_stats.status().ToString();
    EXPECT_EQ(oracle::FactsOf(par), expected)
        << "parallel x4 diverges, " << config;

    if (multiway) {
      seq_subs = seq_stats->match.substitutions;
      par_subs = par_stats->match.substitutions;
    } else {
      EXPECT_EQ(seq_stats->match.substitutions, seq_subs)
          << "substitutions drift, " << config;
      EXPECT_EQ(par_stats->match.substitutions, par_subs)
          << "parallel substitutions drift, " << config;
    }
  }
}

TEST_P(DifferentialEngineMultiwayTest, MultiwayIncrementalCommitScriptsAgree) {
  // The incremental commit path over a cyclic program under either plan
  // shape: the view equals the oracle after every commit.
  KnobMatrixGuard guard;
  const std::uint64_t seed = GetParam();
  CyclicCase c = MakeCyclicCase(seed);
  for (bool multiway : {true, false}) {
    SetMultiwayJoins(multiway);
    ExpectCommitScriptMatchesOracle(
        c.program, c.edb, c.edb_preds, /*value_range=*/16,
        seed * 0x9E3779B97F4A7C15ull + 13, /*batches=*/8,
        /*threads=*/seed % 2 == 0 ? 1 : 4,
        std::string("multiway=") + (multiway ? "1" : "0") +
            " seed=" + std::to_string(seed));
  }
}

TEST_P(DifferentialEngineMultiwayTest, BytecodeVmAgreesAcrossPlanShapes) {
  // Plan by plan under either shape: the VM's left-deep and multiway
  // programs derive exactly the oracle's head rows and substitutions, and
  // never fall back to the depth-first path.
  KnobMatrixGuard guard;
  const std::uint64_t seed = GetParam();
  CyclicCase c = MakeCyclicCase(seed);
  Database fixpoint = c.edb;
  ASSERT_TRUE(EvaluateSemiNaive(c.program, &fixpoint).ok());
  ASSERT_EQ(oracle::FactsOf(fixpoint), oracle::Evaluate(c.program, c.edb));

  for (bool multiway : {true, false}) {
    SetMultiwayJoins(multiway);
    const PlanCheckCounts counts = ExpectPlansMatchOracle(
        c.program.rules(), fixpoint,
        std::string("multiway=") + (multiway ? "1" : "0") +
            " seed=" + std::to_string(seed));
    EXPECT_EQ(counts.on_vm, counts.plans);
    if (multiway) {
      EXPECT_GT(counts.multiway, 0u) << "no multiway plan, seed " << seed;
    } else {
      EXPECT_EQ(counts.multiway, 0u);
    }
  }
}

TEST_P(DifferentialEngineMultiwayTest,
       BytecodeIncrementalCommitScriptsAgree) {
  // The commit path with the VM running scan programs (index lookups off)
  // as well as probe and multiway programs (on): the view equals the
  // oracle after every commit.
  KnobMatrixGuard guard;
  const std::uint64_t seed = GetParam();
  CyclicCase c = MakeCyclicCase(seed);
  for (bool indexed : {true, false}) {
    SetIndexLookups(indexed);
    ExpectCommitScriptMatchesOracle(
        c.program, c.edb, c.edb_preds, /*value_range=*/16,
        seed * 0x9E3779B97F4A7C15ull + 31, /*batches=*/8,
        /*threads=*/seed % 2 == 0 ? 1 : 4,
        std::string("index=") + (indexed ? "1" : "0") +
            " seed=" + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialEngineMultiwayTest,
                         ::testing::Range<std::uint64_t>(0, 50));

}  // namespace
}  // namespace datalog
