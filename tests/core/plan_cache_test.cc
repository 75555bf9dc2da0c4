// The run-long join-plan cache of the optimizer loops. MinimizeProgram
// (Fig. 2) and OptimizeUnderEquivalence (Section XI) draw every
// containment test's plans from one content-keyed CompiledRuleCache. A
// plan only decides join order, so the verdicts -- and hence the
// optimized programs and every report field -- must be exactly those of
// short-lived plans. The reference loops below re-run both algorithms in
// textual order through the public containment entry points without a
// cache: Fig. 2's tests then plan per fixpoint, Section XI's per proof
// step (one UniformlyContains, ModelContainment or Chase call).
//
// The cache itself must never serve a stale plan (a rule that lost an
// atom is a new key), must replan a reused plan exactly on the >= 4x
// drift rule, and must stay bounded by its two-fixpoint eviction.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "datalog.h"
#include "eval/compiled_rule.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/program_gen.h"

namespace datalog {
namespace {

#ifndef DATALOG_CORPUS_DIR
#define DATALOG_CORPUS_DIR "tests/corpus"
#endif

using testing::MakeSymbols;
using testing::ParseDatabaseOrDie;
using testing::ParseProgramOrDie;
using testing::ParseRuleOrDie;

constexpr std::size_t kNoDelta = std::numeric_limits<std::size_t>::max();

/// Fig. 2 in textual order, one plan cache per containment fixpoint.
Program ReferenceMinimize(const Program& program, MinimizeReport* report) {
  Program current = program;
  // Phase 1: each atom of each rule is considered once, left to right.
  for (std::size_t i = 0; i < current.NumRules(); ++i) {
    std::size_t pos = 0;
    while (pos < current.rules()[i].body().size()) {
      const Rule rule = current.rules()[i];
      Rule candidate = rule.WithoutBodyLiteral(pos);
      if (!candidate.IsSafe()) {
        ++pos;
        continue;
      }
      ++report->containment_tests;
      Result<bool> redundant = UniformlyContainsRule(current, candidate);
      EXPECT_TRUE(redundant.ok()) << redundant.status().ToString();
      if (redundant.ok() && *redundant) {
        report->removed_atoms.push_back(
            MinimizeReport::RemovedAtom{i, rule.body()[pos].atom});
        ++report->atoms_removed;
        current.mutable_rules()[i] = std::move(candidate);
      } else {
        ++pos;
      }
    }
  }
  // Phase 2: each rule is considered once.
  const std::size_t rules = current.NumRules();
  std::size_t current_index = 0;
  for (std::size_t original = 0; original < rules; ++original) {
    const Rule rule = current.rules()[current_index];
    Program without = current.WithoutRule(current_index);
    ++report->containment_tests;
    Result<bool> redundant = UniformlyContainsRule(without, rule);
    EXPECT_TRUE(redundant.ok()) << redundant.status().ToString();
    if (redundant.ok() && *redundant) {
      report->removed_rules.push_back(rule);
      report->removed_rule_indices.push_back(original);
      ++report->rules_removed;
      current = std::move(without);
    } else {
      ++current_index;
    }
  }
  return current;
}

/// The Section XI loop, one plan cache per proof step.
EquivalenceOptimizeResult ReferenceOptimize(const Program& program) {
  const EquivalenceOptimizerOptions options;
  EquivalenceOptimizeResult result{program, {}, 0};
  for (std::size_t i = 0; i < result.program.NumRules(); ++i) {
    bool changed = true;
    while (changed) {
      changed = false;
      const Rule rule = result.program.rules()[i];
      for (const Tgd& tgd : CandidateTgds(rule, options)) {
        ++result.candidates_tried;
        Rule weakened = rule;
        bool all_found = true;
        for (const Atom& atom : tgd.rhs()) {
          auto& body = weakened.mutable_body();
          auto it = std::find_if(body.begin(), body.end(),
                                 [&atom](const Literal& lit) {
                                   return !lit.negated && lit.atom == atom;
                                 });
          if (it == body.end()) {
            all_found = false;
            break;
          }
          body.erase(it);
        }
        if (!all_found || weakened.body().empty() || !weakened.IsSafe()) {
          continue;
        }
        Program candidate = result.program.WithRuleReplaced(i, weakened);
        Result<EquivalenceProof> proof = ProveEquivalentWithTgds(
            result.program, candidate, {tgd}, options.budget);
        EXPECT_TRUE(proof.ok()) << proof.status().ToString();
        if (proof.ok() && proof->overall == ProofOutcome::kProved) {
          result.program = std::move(candidate);
          result.removals.push_back(EquivalenceRemoval{i, tgd.rhs(), tgd});
          changed = true;
          break;
        }
      }
    }
  }
  return result;
}

/// Runs Fig. 2 then Section XI both ways and requires identical results.
void ExpectSharedCacheMatchesReference(const Program& program,
                                       const std::string& name) {
  SCOPED_TRACE(name);
  MinimizeReport report;
  Result<Program> minimized = MinimizeProgram(program, &report);
  ASSERT_TRUE(minimized.ok()) << minimized.status().ToString();
  MinimizeReport want_report;
  const Program want_minimized = ReferenceMinimize(program, &want_report);

  EXPECT_EQ(ToString(*minimized), ToString(want_minimized));
  EXPECT_EQ(report.containment_tests, want_report.containment_tests);
  EXPECT_EQ(report.atoms_removed, want_report.atoms_removed);
  EXPECT_EQ(report.rules_removed, want_report.rules_removed);
  ASSERT_EQ(report.removed_atoms.size(), want_report.removed_atoms.size());
  for (std::size_t i = 0; i < report.removed_atoms.size(); ++i) {
    EXPECT_EQ(report.removed_atoms[i].rule_index,
              want_report.removed_atoms[i].rule_index);
    EXPECT_EQ(report.removed_atoms[i].atom, want_report.removed_atoms[i].atom);
  }
  EXPECT_EQ(report.removed_rules, want_report.removed_rules);
  EXPECT_EQ(report.removed_rule_indices, want_report.removed_rule_indices);
  EXPECT_FALSE(report.budget_exhausted);

  Result<EquivalenceOptimizeResult> optimized =
      OptimizeUnderEquivalence(*minimized);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  const EquivalenceOptimizeResult want = ReferenceOptimize(want_minimized);
  EXPECT_EQ(ToString(optimized->program), ToString(want.program));
  EXPECT_EQ(optimized->candidates_tried, want.candidates_tried);
  ASSERT_EQ(optimized->removals.size(), want.removals.size());
  for (std::size_t i = 0; i < want.removals.size(); ++i) {
    EXPECT_EQ(optimized->removals[i].rule_index, want.removals[i].rule_index);
    EXPECT_EQ(optimized->removals[i].removed, want.removals[i].removed);
  }
}

/// The planted-redundancy shapes of the optimize benchmark, by seed.
Program MakeSeededProgram(std::uint64_t seed) {
  PlantedProgramOptions options;
  options.seed = seed * 7919 + 11;
  options.num_extensional = 2;
  options.num_intentional = 2 + seed % 2;
  options.chain_rules = 2 + (seed / 2) % 2;
  options.chain_length = 3;
  options.planted_atoms = 1 + seed % 3;
  options.planted_rules = 1 + (seed / 3) % 2;
  Result<PlantedProgram> planted = MakePlantedProgram(MakeSymbols(), options);
  EXPECT_TRUE(planted.ok()) << planted.status().ToString();
  return planted.ok() ? std::move(planted->program) : Program();
}

/// The plans a fixpoint can hold for `rule`: one per positive body atom
/// (the semi-naive passes always read earlier atoms from the old
/// snapshot, so use_old is fixed).
std::size_t MaxPlans(const Rule& rule) {
  return rule.PositiveBodyAtoms().size();
}

std::size_t MaxPlans(const Program& program) {
  std::size_t plans = 0;
  for (const Rule& rule : program.rules()) plans += MaxPlans(rule);
  return plans;
}

class PlantedPlanCacheTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlantedPlanCacheTest, SharedCacheMatchesPerFixpointCaches) {
  ExpectSharedCacheMatchesReference(MakeSeededProgram(GetParam()),
                                    "seed " + std::to_string(GetParam()));
}

TEST_P(PlantedPlanCacheTest, Fig2CacheIsBoundedAndCompilesFewerPlans) {
  const Program program = MakeSeededProgram(GetParam());
  const MetricLabels semi_naive = {{"engine", "semi-naive"}};
  MetricsRegistry& metrics = MetricsRegistry::Get();
  metrics.Clear();
  metrics.Enable();
  CompiledRuleCache cache;
  MinimizeReport report;
  Result<Program> minimized = MinimizeProgram(program, &report, {}, &cache);
  const std::uint64_t exported = metrics.Value("eval.plans_compiled",
                                               semi_naive);
  metrics.Clear();
  MinimizeReport reference_report;
  ReferenceMinimize(program, &reference_report);
  const std::uint64_t per_fixpoint = metrics.Value("eval.plans_compiled",
                                                   semi_naive);
  metrics.Disable();
  metrics.Clear();
  ASSERT_TRUE(minimized.ok()) << minimized.status().ToString();

  // The cache holds the rules of the last two programs evaluated; those
  // differ from the result by at most one rule of the input, the last
  // candidate.
  std::size_t largest_rule = 0;
  for (const Rule& rule : program.rules()) {
    largest_rule = std::max(largest_rule, MaxPlans(rule));
  }
  EXPECT_LE(cache.size(), MaxPlans(*minimized) + largest_rule);

  // The report, the cache and the eval.plans_compiled export agree, and
  // the run compiles fewer plans than per-fixpoint caches do.
  EXPECT_EQ(report.plans_compiled, cache.plans_compiled());
  EXPECT_EQ(exported, report.plans_compiled);
  EXPECT_GT(report.plans_compiled, 0u);
  EXPECT_LT(report.plans_compiled, per_fixpoint);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlantedPlanCacheTest,
                         ::testing::Range<std::uint64_t>(0, 50));

TEST(PlanCacheTest, PaperExamples18And19MatchPerFixpointCaches) {
  ExpectSharedCacheMatchesReference(
      ParseProgramOrDie(MakeSymbols(),
                        "g(x, z) :- a(x, z).\n"
                        "g(x, z) :- g(x, y), g(y, z), a(y, w).\n"),
      "example 18");
  ExpectSharedCacheMatchesReference(
      ParseProgramOrDie(MakeSymbols(),
                        "g(x, z) :- a(x, z), c(z).\n"
                        "g(x, z) :- a(x, y), g(y, z), g(y, w), c(w).\n"),
      "example 19");
}

TEST(PlanCacheTest, OptimizeCorpusMatchesPerFixpointCaches) {
  std::size_t cases = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(DATALOG_CORPUS_DIR)) {
    const std::string path = entry.path().string();
    const std::string suffix = ".opt.dl";
    if (path.size() <= suffix.size() ||
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string input =
        path.substr(0, path.size() - suffix.size()) + ".in.dl";
    std::ifstream in(input);
    ASSERT_TRUE(in.good()) << "cannot open " << input;
    std::stringstream text;
    text << in.rdbuf();
    ExpectSharedCacheMatchesReference(
        ParseProgramOrDie(MakeSymbols(), text.str()), input);
    ++cases;
  }
  EXPECT_GE(cases, 4u);
}

TEST(PlanCacheTest, RuleWithAtomRemovedNeverGetsItsPredecessorsPlan) {
  auto symbols = MakeSymbols();
  Rule rule = ParseRuleOrDie(symbols, "g(x, z) :- a(x, y), b(y, z), c(z).");
  Rule shorter = rule.WithoutBodyLiteral(2);
  Database db = ParseDatabaseOrDie(
      symbols, "a(1, 2). a(2, 3). b(2, 3). b(3, 4). c(3).");

  CompiledRuleCache cache;
  const CompiledRule& full = cache.Get(rule, kNoDelta, false, db, nullptr);
  const CompiledRule& cut = cache.Get(shorter, kNoDelta, false, db, nullptr);
  EXPECT_NE(&full, &cut);
  EXPECT_EQ(full.num_steps(), 3u);
  EXPECT_EQ(cut.num_steps(), 2u);
  EXPECT_EQ(cache.plans_compiled(), 2u);
  EXPECT_EQ(cache.size(), 2u);

  // Both stay cached, each under its own content, and a copy of a rule
  // is the same key as the rule.
  const Rule copy = rule;
  EXPECT_EQ(&cache.Get(copy, kNoDelta, false, db, nullptr), &full);
  EXPECT_EQ(&cache.Get(shorter, kNoDelta, false, db, nullptr), &cut);
  EXPECT_EQ(cache.plans_compiled(), 2u);

  // Each delta position is its own plan of the same rule.
  DeltaRanges delta = DeltaRanges::Whole(db);
  const CompiledRule& pass0 = cache.Get(rule, 0, true, db, &delta);
  EXPECT_NE(&pass0, &full);
  EXPECT_EQ(pass0.num_steps(), 3u);
  EXPECT_EQ(cache.size(), 3u);

  // Each rule derives its own facts through the cache: the longer one
  // needs c(z), which only z = 3 satisfies.
  Database out(symbols);
  EXPECT_EQ(ApplyRule(rule, db, &out, nullptr, &cache), 1u);
  EXPECT_EQ(ApplyRule(shorter, db, &out, nullptr, &cache), 1u);
  EXPECT_EQ(out.NumFacts(), 2u);
}

TEST(PlanCacheTest, ReusedPlanReplansOnFourfoldLargerDatabase) {
  auto symbols = MakeSymbols();
  Rule rule = ParseRuleOrDie(symbols, "g(x, z) :- a(x, y), b(y, z).");
  auto facts = [&](int a_facts) {
    std::string text = "b(0, 0). b(1, 1).";
    for (int i = 0; i < a_facts; ++i) {
      text += " a(" + std::to_string(i) + ", " + std::to_string(i % 2) + ").";
    }
    return ParseDatabaseOrDie(symbols, text);
  };
  const Database small = facts(2);
  const Database grown = facts(7);   // 3.5x: the plan's order still holds
  const Database large = facts(8);   // 4x: the next fixpoint replans

  CompiledRuleCache cache;
  MatchStats stats;
  cache.BeginFixpoint({rule});
  cache.Get(rule, kNoDelta, false, small, nullptr, &stats);
  EXPECT_EQ(stats.plans_compiled, 1u);

  cache.BeginFixpoint({rule});
  const CompiledRule& reused =
      cache.Get(rule, kNoDelta, false, grown, nullptr, &stats);
  EXPECT_EQ(stats.plans_compiled, 1u);

  cache.BeginFixpoint({rule});
  const CompiledRule& replanned =
      cache.Get(rule, kNoDelta, false, large, nullptr, &stats);
  EXPECT_EQ(&replanned, &reused);
  EXPECT_EQ(stats.plans_compiled, 2u);
  EXPECT_EQ(cache.plans_compiled(), 2u);
  const PredicateId a = symbols->LookupPredicate("a").value();
  for (const CompiledAtomStep& step : replanned.steps()) {
    if (step.predicate == a) {
      EXPECT_EQ(step.planned_size, 8u);
    }
  }
}

TEST(PlanCacheTest, BeginFixpointEvictsRulesUnusedForTwoFixpoints) {
  auto symbols = MakeSymbols();
  Rule kept = ParseRuleOrDie(symbols, "g(x, z) :- a(x, y), b(y, z).");
  Rule dropped = ParseRuleOrDie(symbols, "h(x) :- a(x, y), b(y, y).");
  Database db = ParseDatabaseOrDie(symbols, "a(1, 2). b(2, 2).");
  DeltaRanges delta = DeltaRanges::Whole(db);

  CompiledRuleCache cache;
  cache.BeginFixpoint({kept, dropped});
  cache.Get(kept, 0, true, db, &delta);
  cache.Get(dropped, 0, true, db, &delta);
  cache.Get(dropped, 1, true, db, &delta);
  EXPECT_EQ(cache.size(), 3u);

  // A rule the fixpoint evaluates keeps even the plans it does not ask
  // for this time (its delta may simply not touch them).
  cache.BeginFixpoint({kept, dropped});
  EXPECT_EQ(cache.size(), 3u);
  // One fixpoint without the rule: still held (the previous one used it).
  cache.BeginFixpoint({kept});
  EXPECT_EQ(cache.size(), 3u);
  // Two fixpoints without it: evicted.
  cache.BeginFixpoint({kept});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.plans_compiled(), 3u);
}

}  // namespace
}  // namespace datalog
