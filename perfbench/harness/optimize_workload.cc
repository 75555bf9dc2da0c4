// The optimize workload: a closed loop of `datalog-opt optimize` jobs
// (parse, Fig. 2 minimization under uniform equivalence, then the
// Section XI optimizer under equivalence) over seeded planted-redundancy
// programs and the paper's Examples 18 and 19.
#include <random>
#include <set>

#include "bench.h"
#include "closed_loop.h"
#include "workload/program_gen.h"

namespace perfbench {

namespace {

struct ProgramInput {
  std::string id;
  std::string text;
  std::size_t planted_atoms = 0;  // lower bounds on what Fig. 2 removes
  std::size_t planted_rules = 0;
  std::string expected_text;  // the paper's stated result, when known
};

struct OptimizeClasses {
  struct Class {
    std::string name;
    std::vector<ProgramInput> programs;
  };
  std::vector<Class> classes;
};

struct OptimizeOutput {
  std::string text;
  std::size_t rules_in = 0;
  datalog::MinimizeReport report;
  std::size_t candidates_tried = 0;
  double seconds = 0;
};

/// The CLI's optimize path on one program text.
bool RunOptimizeJob(const ProgramInput& input, std::uint64_t job,
                    Tracer* tracer, OptimizeOutput* out, Results* results) {
  ScopedSpan job_span(tracer, "job.optimize", job);
  const Clock::time_point start = Clock::now();
  auto symbols = std::make_shared<datalog::SymbolTable>();
  datalog::Parser parser(symbols);
  datalog::Result<datalog::Program> program = datalog::Program();
  {
    ScopedSpan span(tracer, "ast.parse_program", job);
    program = parser.ParseProgram(input.text);
  }
  if (!program.ok()) {
    results->Fail(input.id + ": parse: " + program.status().ToString());
    return false;
  }
  datalog::Result<datalog::Program> minimized = datalog::Program();
  {
    ScopedSpan span(tracer, "core.minimize", job);
    minimized = datalog::MinimizeProgram(*program, &out->report);
  }
  if (!minimized.ok()) {
    results->Fail(input.id + ": minimize: " + minimized.status().ToString());
    return false;
  }
  datalog::Result<datalog::EquivalenceOptimizeResult> optimized =
      datalog::EquivalenceOptimizeResult{};
  {
    ScopedSpan span(tracer, "core.equivalence", job);
    optimized = datalog::OptimizeUnderEquivalence(*minimized);
  }
  out->seconds = SecondsBetween(start, Clock::now());
  if (!optimized.ok()) {
    results->Fail(input.id + ": optimize: " + optimized.status().ToString());
    return false;
  }
  out->text = datalog::ToString(optimized->program);
  out->rules_in = program->NumRules();
  out->candidates_tried = optimized->candidates_tried;
  return true;
}

/// Seeded small EDBs over the program's extensional predicates (ints in
/// [0, domain)), as facts text.
std::vector<std::string> SmallEdbs(const std::string& program_text,
                                   std::uint64_t seed, int count,
                                   int facts_per_pred, int domain) {
  auto symbols = std::make_shared<datalog::SymbolTable>();
  datalog::Parser parser(symbols);
  datalog::Program program = parser.ParseProgram(program_text).value();
  std::vector<std::string> edbs;
  std::mt19937_64 rng(seed);
  for (int k = 0; k < count; ++k) {
    std::string text;
    for (datalog::PredicateId pred : program.ExtensionalPredicates()) {
      const int arity = symbols->PredicateArity(pred);
      for (int f = 0; f < facts_per_pred; ++f) {
        text += symbols->PredicateName(pred) + "(";
        for (int a = 0; a < arity; ++a) {
          text += (a ? ", " : "") +
                  std::to_string(rng() % static_cast<std::uint64_t>(domain));
        }
        text += ").\n";
      }
    }
    edbs.push_back(std::move(text));
  }
  return edbs;
}

std::vector<std::string> IntentionalNames(const std::string& program_text) {
  auto symbols = std::make_shared<datalog::SymbolTable>();
  datalog::Parser parser(symbols);
  datalog::Program program = parser.ParseProgram(program_text).value();
  std::vector<std::string> names;
  for (datalog::PredicateId pred : program.IntentionalPredicates()) {
    names.push_back(symbols->PredicateName(pred));
  }
  return names;
}

FactDigest ReferenceIdb(const std::string& program_text,
                        const std::string& edb,
                        const std::vector<std::string>& idb,
                        Results* results, const std::string& id) {
  ReferenceDb db;
  std::string error;
  if (!db.AddFactsText(edb, &error) || !db.Evaluate(program_text, &error)) {
    results->Fail(id + ": " + error);
  }
  return db.Digest(idb);
}

OptimizeClasses MakePrograms(std::uint64_t seed, bool smoke) {
  struct Shape {
    const char* name;
    std::size_t intentional, chain_rules, chain_length, atoms, rules;
  };
  // Chain length stays at 3: with 4-atom chains over three intentional
  // predicates, OptimizeUnderEquivalence under its default chase budget
  // runs for minutes and past 3 GB on most seeds (see README.md).
  const Shape shapes[] = {{"planted-s", 2, 2, 3, 2, 1},
                          {"planted-m", 2, 3, 3, 3, 2},
                          {"planted-l", 3, 3, 3, 3, 2}};
  OptimizeClasses out;
  for (const Shape& shape : shapes) {
    OptimizeClasses::Class cls;
    cls.name = shape.name;
    // A hundred programs per shape: their costs differ, and with ten per
    // shape the median job time moved by up to 35% from seed to seed.
    for (std::uint64_t k = 0; k < (smoke ? 1 : 100); ++k) {
      datalog::PlantedProgramOptions options;
      options.num_extensional = 2;
      options.num_intentional = shape.intentional;
      options.chain_rules = smoke ? 1 : shape.chain_rules;
      options.chain_length = shape.chain_length;
      options.planted_atoms = shape.atoms;
      options.planted_rules = shape.rules;
      options.seed = seed * 1000 + k;
      datalog::PlantedProgram planted =
          datalog::MakePlantedProgram(
              std::make_shared<datalog::SymbolTable>(), options)
              .value();
      ProgramInput input;
      input.id = std::string(shape.name) + "#" + std::to_string(k);
      input.text = datalog::ToString(planted.program);
      input.planted_atoms = planted.planted_atoms;
      input.planted_rules = planted.planted_rules;
      cls.programs.push_back(std::move(input));
    }
    out.classes.push_back(std::move(cls));
  }
  // Examples 18 and 19: nothing is redundant under uniform equivalence;
  // Section XI removes a(y, w), respectively g(y, w), c(w).
  OptimizeClasses::Class paper;
  paper.name = "paper";
  paper.programs.push_back(
      {"example18",
       "g(x, z) :- a(x, z).\ng(x, z) :- g(x, y), g(y, z), a(y, w).\n", 0, 0,
       "g(x, z) :- a(x, z).\ng(x, z) :- g(x, y), g(y, z).\n"});
  paper.programs.push_back(
      {"example19",
       "g(x, z) :- a(x, z), c(z).\n"
       "g(x, z) :- a(x, y), g(y, z), g(y, w), c(w).\n",
       0, 0, "g(x, z) :- a(x, z), c(z).\ng(x, z) :- a(x, y), g(y, z).\n"});
  out.classes.push_back(std::move(paper));
  return out;
}

std::vector<JobClass> BuildOptimizeJobs(OptimizeClasses& inputs,
                                        Context* ctx) {
  std::vector<JobClass> classes;
  for (const OptimizeClasses::Class& cls : inputs.classes) {
    JobClass job_class;
    job_class.name = cls.name;
    for (const ProgramInput& input : cls.programs) {
      // The optimized program, once, checked for equivalence with the
      // original on seeded EDBs by the reference evaluator.
      OptimizeOutput first;
      ctx->results->Attempt();
      if (!RunOptimizeJob(input, 0, nullptr, &first, ctx->results)) continue;
      const std::vector<std::string> idb = IntentionalNames(input.text);
      for (const std::string& edb : SmallEdbs(input.text, ctx->options.seed,
                                              3, 10, 5)) {
        ctx->results->Attempt();
        const FactDigest original =
            ReferenceIdb(input.text, edb, idb, ctx->results, input.id);
        const FactDigest optimized =
            ReferenceIdb(first.text, edb, idb, ctx->results, input.id);
        if (!(original == optimized)) {
          ctx->results->Fail(input.id + ": optimized program derives " +
                             optimized.ToString() + ", original " +
                             original.ToString());
        }
      }
      const std::string expected = first.text;
      const ProgramInput* in = &input;
      job_class.jobs.push_back([in, expected, ctx](Tracer* tracer,
                                                   std::uint64_t job,
                                                   JobResult* out) {
        OptimizeOutput result;
        if (!RunOptimizeJob(*in, job, tracer, &result, ctx->results)) {
          return false;
        }
        out->seconds = result.seconds;
        out->work = static_cast<double>(result.rules_in);
        ctx->guard->Check("core:" + in->id,
                          {result.report.containment_tests,
                           result.report.atoms_removed,
                           result.report.rules_removed,
                           result.candidates_tried},
                          ctx->results);
        bool ok = result.text == expected;
        if (!in->expected_text.empty()) ok = ok && result.text == in->expected_text;
        ok = ok && result.report.atoms_removed >= in->planted_atoms &&
             result.report.rules_removed >= in->planted_rules;
        if (!ok) {
          ctx->results->Fail(in->id + ": optimized to\n" + result.text +
                             "removed " +
                             std::to_string(result.report.atoms_removed) +
                             " atoms, " +
                             std::to_string(result.report.rules_removed) +
                             " rules");
        }
        return ok;
      });
    }
    classes.push_back(std::move(job_class));
  }
  return classes;
}

void SweepOptimize(OptimizeClasses& inputs, LayerTotals* totals,
                   Context* ctx) {
  // The core layer on every program; the other layers on the optimized
  // programs evaluated over seeded EDBs (what the optimizer is for).
  std::vector<EvalInput> evals;
  for (const OptimizeClasses::Class& cls : inputs.classes) {
    for (const ProgramInput& input : cls.programs) {
      SweepCore(input.id, input.text, totals, ctx);
      OptimizeOutput out;
      ctx->results->Attempt();
      if (!RunOptimizeJob(input, 0, nullptr, &out, ctx->results)) continue;
      EvalInput eval;
      eval.id = input.id + "/eval";
      eval.program_text = out.text;
      eval.facts_text = SmallEdbs(input.text, ctx->options.seed + 7, 1, 60,
                                  24)[0];
      eval.idb_preds = IntentionalNames(input.text);
      const std::string edge = eval.facts_text.substr(
          0, eval.facts_text.find('('));
      for (int i = 0; i < 24; ++i) {
        eval.edit_facts.push_back(edge + "(" + std::to_string(i % 24) + ", " +
                                  std::to_string(1000 + i) + ").");
      }
      eval.query_text = eval.idb_preds.front() + "(1, x)";
      evals.push_back(std::move(eval));
    }
  }
  for (const EvalInput& eval : evals) {
    SweepEval(eval,
              ReferenceIdb(eval.program_text, eval.facts_text, eval.idb_preds,
                           ctx->results, eval.id),
              totals, ctx);
  }
  std::unique_ptr<datalog::MaterializedView> view =
      SweepIncr(evals.front(), totals, ctx);
  if (view) {
    const datalog::Database snapshot = view->db();
    SweepSnapshotQueries(snapshot, evals.front().query_text, 200, totals, ctx);
  }
  SweepServer(evals.front(), totals, ctx);
}

}  // namespace

void RunOptimize(Context* ctx) {
  const std::uint64_t seed = ctx->options.seed;
  const bool smoke = ctx->options.smoke;
  ClosedLoopReport report;
  report.op_metric = "optimize_s";
  report.work_metric = "rules_per_s";
  report.work_unit = "1/s";
  report.tail_cap_pct = 90;
  RunClosedLoop<OptimizeClasses>(
      ctx, report, [seed, smoke]() { return MakePrograms(seed, smoke); },
      [ctx](OptimizeClasses& inputs) {
        return BuildOptimizeJobs(inputs, ctx);
      },
      [ctx](OptimizeClasses& inputs, LayerTotals* totals) {
        SweepOptimize(inputs, totals, ctx);
      });
}

}  // namespace perfbench
