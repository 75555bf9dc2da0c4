// The eval-recursive and eval-cyclic workloads: a closed loop, one caller,
// one from-scratch `eval` job at a time, cycling through a fixed seeded
// rotation of inputs.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>
#include <set>

#include "bench.h"
#include "closed_loop.h"
#include "workload/cyclic_gen.h"
#include "workload/graph_gen.h"

namespace perfbench {

namespace {

constexpr const char* kSameGenProgram =
    "sg(x, y) :- flat(x, y).\n"
    "sg(x, y) :- up(x, a), sg(a, b), down(b, y).\n";

/// Renders a database's facts as text, one per line, in insertion order,
/// with every integer mapped through `relabel` when it is non-empty.
std::string FactsText(const datalog::Database& db,
                      const std::vector<std::int64_t>& relabel) {
  std::string text;
  std::vector<datalog::PredicateId> preds = db.NonEmptyPredicates();
  std::sort(preds.begin(), preds.end());
  for (datalog::PredicateId pred : preds) {
    const std::string& name = db.symbols()->PredicateName(pred);
    for (const datalog::Tuple& tuple : db.relation(pred).rows()) {
      text += name;
      text += '(';
      for (std::size_t i = 0; i < tuple.size(); ++i) {
        std::int64_t v = tuple[i].payload();
        if (!relabel.empty() && v >= 0 &&
            static_cast<std::size_t>(v) < relabel.size()) {
          v = relabel[static_cast<std::size_t>(v)];
        }
        if (i != 0) text += ", ";
        text += std::to_string(v);
      }
      text += ").\n";
    }
  }
  return text;
}

/// One-fact edits that attach fresh nodes (ids >= `first_fresh`) to
/// seeded existing nodes, so each insert-then-retract pair returns the
/// input to its baseline.
std::vector<std::string> FreshEdits(const std::string& pred,
                                    std::int64_t num_nodes,
                                    std::int64_t first_fresh, int count,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::string> edits;
  for (int i = 0; i < count; ++i) {
    const std::int64_t node = static_cast<std::int64_t>(
        rng() % static_cast<std::uint64_t>(std::max<std::int64_t>(1, num_nodes)));
    edits.push_back(pred + "(" + std::to_string(node) + ", " +
                    std::to_string(first_fresh + i) + ").");
  }
  return edits;
}

datalog::PredicateId Intern(datalog::SymbolTable& symbols, const char* name,
                            int arity) {
  return symbols.InternPredicate(name, arity).value();
}

EvalInput TcInput(const std::string& id, std::size_t nodes,
                  std::size_t edges_per_node, std::uint64_t seed) {
  auto symbols = std::make_shared<datalog::SymbolTable>();
  datalog::Database db(symbols);
  datalog::GraphOptions graph;
  graph.shape = datalog::GraphShape::kRandom;
  graph.num_nodes = nodes;
  graph.num_edges = edges_per_node * nodes;
  graph.seed = seed;
  datalog::AddGraphFacts(graph, Intern(*symbols, "edge", 2), &db);
  EvalInput input;
  input.id = id;
  input.program_text = kTcProgram;
  input.facts_text = FactsText(db, {});
  input.idb_preds = {"path"};
  input.query_text = "path(1, x)";
  input.edit_facts =
      FreshEdits("edge", static_cast<std::int64_t>(nodes),
                 static_cast<std::int64_t>(nodes) + 1000, 24, seed ^ 0xed17);
  return input;
}

/// Same-generation over a complete tree. The tree's shape is fixed by
/// depth and fanout; the seed permutes node labels (and so hashing and
/// memory layout) without changing the amount of work.
EvalInput SameGenInput(const std::string& id, std::size_t depth,
                       std::size_t fanout, std::uint64_t seed) {
  auto symbols = std::make_shared<datalog::SymbolTable>();
  datalog::Database db(symbols);
  datalog::SameGenerationOptions options;
  options.depth = depth;
  options.fanout = fanout;
  const std::size_t nodes = datalog::AddSameGenerationFacts(
      options, Intern(*symbols, "up", 2), Intern(*symbols, "flat", 2),
      Intern(*symbols, "down", 2), &db);
  std::vector<std::int64_t> relabel(nodes);
  std::iota(relabel.begin(), relabel.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(relabel.begin(), relabel.end(), rng);
  EvalInput input;
  input.id = id;
  input.program_text = kSameGenProgram;
  input.facts_text = FactsText(db, relabel);
  input.idb_preds = {"sg"};
  input.query_text = "sg(1, x)";
  input.edit_facts =
      FreshEdits("flat", static_cast<std::int64_t>(nodes),
                 static_cast<std::int64_t>(nodes) + 1000, 24, seed ^ 0xed17);
  return input;
}

EvalInput CyclicInput(const std::string& id, datalog::CyclicShape shape,
                      std::size_t nodes, std::size_t depth,
                      std::uint64_t seed) {
  auto symbols = std::make_shared<datalog::SymbolTable>();
  datalog::Database db(symbols);
  datalog::CyclicOptions options;
  options.shape = shape;
  options.num_nodes = nodes;
  options.depth = depth;
  options.seed = seed;
  std::string edit_pred = "e";
  std::int64_t node_count = static_cast<std::int64_t>(nodes);
  if (shape == datalog::CyclicShape::kDenseSameGen) {
    datalog::AddDenseSameGenFacts(options, Intern(*symbols, "up", 2),
                                  Intern(*symbols, "down", 2),
                                  Intern(*symbols, "flat", 2), &db);
    edit_pred = "flat";
    node_count = static_cast<std::int64_t>(db.NumFacts());
  } else {
    datalog::AddCyclicFacts(options, Intern(*symbols, "e", 2), &db);
  }
  EvalInput input;
  input.id = id;
  input.program_text = datalog::CyclicProgramText(options);
  input.facts_text = FactsText(db, {});
  input.idb_preds = {datalog::CyclicHeadName(shape)};
  // The head's first argument bound: tri/3, cyc/1, clq/2, sg/2.
  input.query_text = datalog::CyclicHeadName(shape) + "(1";
  const int arity = shape == datalog::CyclicShape::kTriangle ? 3
                    : shape == datalog::CyclicShape::kKCycle ? 1
                                                             : 2;
  for (int i = 1; i < arity; ++i) input.query_text += ", v" + std::to_string(i);
  input.query_text += ")";
  input.edit_facts = FreshEdits(edit_pred, node_count, 1000000, 24,
                                seed ^ 0xed17);
  return input;
}

/// Inputs of an eval workload, grouped by job class.
struct EvalClasses {
  struct Class {
    std::string name;
    int weight = 1;
    std::vector<EvalInput> inputs;
  };
  std::vector<Class> classes;
};

/// The reference digest of an input's fixpoint: BFS closure for TC, the
/// naive nested-loop evaluator otherwise.
FactDigest ReferenceDigest(const EvalInput& input, Results* results) {
  if (input.program_text == kTcProgram) {
    return ReferenceClosureDigest(ParseBinaryFacts(input.facts_text, "edge"));
  }
  ReferenceDb db;
  std::string error;
  if (!db.AddFactsText(input.facts_text, &error) ||
      !db.Evaluate(input.program_text, &error)) {
    results->Fail(input.id + ": " + error);
  }
  return db.Digest(input.idb_preds);
}

std::vector<JobClass> BuildEvalJobs(EvalClasses& inputs, Context* ctx) {
  std::vector<JobClass> classes;
  for (const EvalClasses::Class& cls : inputs.classes) {
    JobClass job_class;
    job_class.name = cls.name;
    job_class.weight = cls.weight;
    for (const EvalInput& input : cls.inputs) {
      const FactDigest expected = ReferenceDigest(input, ctx->results);
      const EvalInput* in = &input;
      job_class.jobs.push_back([in, expected, ctx](Tracer* tracer,
                                                   std::uint64_t job,
                                                   JobResult* out) {
        EvalJobOutput result;
        if (!RunEvalJob(*in, job, tracer, &result, ctx->results)) return false;
        out->seconds = result.total_s;
        out->work = static_cast<double>(result.stats.facts_derived);
        return CheckEvalJob(*in, result, expected, ctx);
      });
    }
    classes.push_back(std::move(job_class));
  }
  return classes;
}

void SweepEvalWorkload(EvalClasses& inputs, LayerTotals* totals,
                       Context* ctx) {
  const EvalInput* smallest = nullptr;
  std::set<std::string> programs;
  for (const EvalClasses::Class& cls : inputs.classes) {
    for (const EvalInput& input : cls.inputs) {
      SweepEval(input, ReferenceDigest(input, ctx->results), totals, ctx);
      if (programs.insert(input.program_text).second) {
        SweepCore(input.id, input.program_text, totals, ctx);
      }
      if (!smallest || input.facts_text.size() < smallest->facts_text.size()) {
        smallest = &input;
      }
    }
  }
  // The incremental and server layers are not on the eval path; they are
  // measured on the workload's smallest input so that every layer reports.
  std::unique_ptr<datalog::MaterializedView> view =
      SweepIncr(*smallest, totals, ctx);
  if (view) {
    const datalog::Database snapshot = view->db();
    SweepSnapshotQueries(snapshot, smallest->query_text, 200, totals, ctx);
  }
  SweepServer(*smallest, totals, ctx);
}

void RunEvalWorkload(Context* ctx, const std::function<EvalClasses()>& setup,
                     double tail_cap_pct) {
  ClosedLoopReport report;
  report.op_metric = "eval_s";
  report.work_metric = "derived_facts_per_s";
  report.work_unit = "1/s";
  report.tail_cap_pct = tail_cap_pct;
  RunClosedLoop<EvalClasses>(
      ctx, report, setup,
      [ctx](EvalClasses& inputs) { return BuildEvalJobs(inputs, ctx); },
      [ctx](EvalClasses& inputs, LayerTotals* totals) {
        SweepEvalWorkload(inputs, totals, ctx);
      });
}

}  // namespace

void RunEvalRecursive(Context* ctx) {
  const bool smoke = ctx->options.smoke;
  const std::uint64_t seed = ctx->options.seed;
  // Job classes: fixpoints that fit in cache (~1e5 facts or fewer) and one
  // whose working set is beyond the L3 (random TC at n=1024, ~7e5 facts).
  // Each rotation round runs two jobs of each cache-sized class per large
  // one, so that the pooled 90th percentile lands inside the large class
  // and each large input's slowest quarter, on which the benchmark gates,
  // rests on a few of its jobs.
  RunEvalWorkload(
      ctx,
      [smoke, seed]() {
        EvalClasses inputs;
        inputs.classes = {{"tc-cache", 2, {}}, {"sg-cache", 2, {}},
                          {"tc-large", 1, {}}};
        for (std::uint64_t k = 0; k < 2; ++k) {
          const std::uint64_t s = seed * 1000 + k;
          const std::string tag = "#" + std::to_string(k);
          inputs.classes[0].inputs.push_back(
              TcInput("tc320" + tag, smoke ? 64 : 320, 4, s));
          inputs.classes[1].inputs.push_back(
              SameGenInput("sg-d9" + tag, smoke ? 5 : 9, 2, s));
          inputs.classes[2].inputs.push_back(
              TcInput("tc1024" + tag, smoke ? 128 : 1024, 2, s));
        }
        return inputs;
      },
      90);
}

void RunEvalCyclic(Context* ctx) {
  const bool smoke = ctx->options.smoke;
  const std::uint64_t seed = ctx->options.seed;
  // Families on both sides of the plan-shape heuristic: multiway is chosen
  // and wins on triangles and 4-cliques over hub-skewed graphs; it is
  // chosen and loses on 4-cycles and dense same-generation.
  RunEvalWorkload(
      ctx,
      [smoke, seed]() {
        using datalog::CyclicShape;
        EvalClasses inputs;
        inputs.classes = {{"triangle", 1, {}}, {"clique4", 1, {}},
                          {"cycle4", 1, {}}, {"dense-sg", 1, {}}};
        for (std::uint64_t k = 0; k < 2; ++k) {
          const std::uint64_t s = seed * 1000 + k;
          const std::string tag = "#" + std::to_string(k);
          inputs.classes[0].inputs.push_back(CyclicInput(
              "tri256" + tag, CyclicShape::kTriangle, smoke ? 32 : 256, 0, s));
          inputs.classes[1].inputs.push_back(CyclicInput(
              "clq128" + tag, CyclicShape::kClique, smoke ? 32 : 128, 0, s));
          inputs.classes[2].inputs.push_back(CyclicInput(
              "cyc1024" + tag, CyclicShape::kKCycle, smoke ? 64 : 1024, 0, s));
          inputs.classes[3].inputs.push_back(CyclicInput(
              "dsg-d7" + tag, CyclicShape::kDenseSameGen, 64, smoke ? 4 : 7,
              s));
        }
        return inputs;
      },
      99);
}

}  // namespace perfbench
