#include "core/minimize.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "ast/validate.h"
#include "core/uniform_containment.h"
#include "eval/compiled_rule.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace datalog {
namespace {

/// The order in which n items are considered: textual, or shuffled when a
/// seed is supplied.
std::vector<std::size_t> ConsiderationOrder(std::size_t n,
                                            const MinimizeOptions& options,
                                            std::uint64_t salt) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (options.shuffle_seed.has_value()) {
    std::mt19937_64 rng(*options.shuffle_seed + salt);
    std::shuffle(order.begin(), order.end(), rng);
  }
  return order;
}

/// Minimizes the atoms of the rule at `rule_index` of `program`, testing
/// each candidate deletion against the whole current program (the Fig. 2
/// refinement of Fig. 1: the test is r-hat subseteq^u P, not
/// r-hat subseteq^u r). Mutates the rule in place. `cache` serves the
/// tests' join plans.
Result<MinimizeReport> MinimizeRuleAtoms(Program* program,
                                         std::size_t rule_index,
                                         const MinimizeOptions& options,
                                         std::size_t* remaining_tests,
                                         CompiledRuleCache* cache) {
  MinimizeReport report;
  TraceSpan span("minimize/rule_atoms");
  span.Note("rule", rule_index);
  const std::size_t original_size =
      program->rules()[rule_index].body().size();
  // `pending[i]` is the ORIGINAL position of the i-th body atom of the
  // current rule; atoms are considered once each, in order of original
  // position (or shuffled).
  std::vector<std::size_t> pending(original_size);
  std::iota(pending.begin(), pending.end(), 0);

  for (std::size_t original_pos :
       ConsiderationOrder(original_size, options, rule_index * 7919)) {
    // Locate the atom's current position; it may have shifted left after
    // earlier deletions, or be gone (it cannot be gone: we delete only the
    // atom under consideration, and each atom is considered once).
    auto it = std::find(pending.begin(), pending.end(), original_pos);
    if (it == pending.end()) continue;
    std::size_t current_pos = static_cast<std::size_t>(it - pending.begin());

    const Rule& rule = program->rules()[rule_index];
    Rule candidate = rule.WithoutBodyLiteral(current_pos);
    if (!candidate.IsSafe()) continue;  // deletion would orphan a head variable

    if (remaining_tests != nullptr) {
      if (*remaining_tests == 0) {
        report.budget_exhausted = true;
        break;
      }
      --*remaining_tests;
    }
    ++report.containment_tests;
    DATALOG_ASSIGN_OR_RETURN(bool redundant,
                             UniformlyContainsRule(*program, candidate, cache));
    if (redundant) {
      report.removed_atoms.push_back(MinimizeReport::RemovedAtom{
          rule_index, rule.body()[current_pos].atom});
      program->mutable_rules()[rule_index] = std::move(candidate);
      pending.erase(it);
      ++report.atoms_removed;
    }
  }
  if (span.active()) {
    span.Note("containment_tests",
              static_cast<std::uint64_t>(report.containment_tests));
    span.Note("atoms_removed",
              static_cast<std::uint64_t>(report.atoms_removed));
  }
  return report;
}

}  // namespace

Result<Rule> MinimizeRule(const Rule& rule,
                          std::shared_ptr<SymbolTable> symbols,
                          MinimizeReport* report,
                          const MinimizeOptions& options) {
  Program single(std::move(symbols));
  single.AddRule(rule);
  DATALOG_RETURN_IF_ERROR(ValidatePositiveProgram(single));
  std::size_t remaining = options.max_containment_tests;
  std::size_t* budget = options.max_containment_tests == 0 ? nullptr
                                                           : &remaining;
  CompiledRuleCache cache;
  DATALOG_ASSIGN_OR_RETURN(
      MinimizeReport r,
      MinimizeRuleAtoms(&single, 0, options, budget, &cache));
  r.plans_compiled = cache.plans_compiled();
  if (report != nullptr) report->Add(r);
  return single.rules()[0];
}

Result<Program> MinimizeStratifiedProgram(const Program& program,
                                          MinimizeReport* report,
                                          const MinimizeOptions& options) {
  DATALOG_RETURN_IF_ERROR(ValidateProgram(program));
  // Split: positive rules are candidates; rules with negated literals are
  // kept verbatim (their minimization needs the forthcoming-paper theory).
  Program positive(program.symbols());
  for (const Rule& rule : program.rules()) {
    if (rule.IsPositive()) positive.AddRule(rule);
  }
  DATALOG_ASSIGN_OR_RETURN(Program minimized_positive,
                           MinimizeProgram(positive, report, options));

  // Reassemble: minimized positive rules first (their relative order is
  // preserved by Fig. 2), then the untouched negation rules. Rule order
  // has no semantic weight; only the relative order within each group is
  // kept for readability.
  Program out(program.symbols());
  for (const Rule& rule : minimized_positive.rules()) {
    out.AddRule(rule);
  }
  for (const Rule& rule : program.rules()) {
    if (!rule.IsPositive()) out.AddRule(rule);
  }
  return out;
}

Result<bool> AtomAdditionIsSound(const Program& program,
                                 std::size_t rule_index, const Atom& atom) {
  if (rule_index >= program.NumRules()) {
    return Status::InvalidArgument("rule index out of range");
  }
  Rule strengthened = program.rules()[rule_index];
  strengthened.mutable_body().push_back(Literal{atom, /*negated=*/false});
  Program candidate = program.WithRuleReplaced(rule_index, strengthened);
  // The strengthened program is trivially contained in the original (its
  // rule derives less); the replacement is an equivalence iff the
  // original rule is still uniformly derivable.
  return UniformlyContainsRule(candidate, program.rules()[rule_index]);
}

Result<Program> MinimizeProgram(const Program& program,
                                MinimizeReport* report,
                                const MinimizeOptions& options,
                                CompiledRuleCache* cache) {
  DATALOG_RETURN_IF_ERROR(ValidatePositiveProgram(program));
  CompiledRuleCache run_cache;
  if (cache == nullptr) cache = &run_cache;
  const std::uint64_t plans_before = cache->plans_compiled();
  TraceSpan span("minimize/program");
  span.Note("rules", program.NumRules());
  Program current = program;
  MinimizeReport total;
  std::size_t remaining = options.max_containment_tests;
  std::size_t* budget = options.max_containment_tests == 0 ? nullptr
                                                           : &remaining;

  // Phase 1 (Fig. 2, first loop): remove redundant atoms from every rule.
  // This must complete before any rule is deleted; Theorem 2's proof
  // depends on rules keeping their bodies intact until phase 2.
  for (std::size_t i = 0; i < current.NumRules(); ++i) {
    DATALOG_ASSIGN_OR_RETURN(
        MinimizeReport r,
        MinimizeRuleAtoms(&current, i, options, budget, cache));
    total.Add(r);
    if (total.budget_exhausted) break;
  }

  // Phase 2 (Fig. 2, second loop): remove redundant rules, each considered
  // once.
  std::vector<bool> alive(current.NumRules(), true);
  for (std::size_t original_index :
       ConsiderationOrder(current.NumRules(), options, /*salt=*/104729)) {
    if (total.budget_exhausted) break;
    if (budget != nullptr) {
      if (*budget == 0) {
        total.budget_exhausted = true;
        break;
      }
      --*budget;
    }
    // Current index of this rule = count of alive rules before it.
    std::size_t current_index = 0;
    for (std::size_t j = 0; j < original_index; ++j) {
      if (alive[j]) ++current_index;
    }
    const Rule rule = current.rules()[current_index];
    Program without = current.WithoutRule(current_index);
    ++total.containment_tests;
    TraceSpan candidate_span("minimize/rule_candidate");
    candidate_span.Note("rule", original_index);
    DATALOG_ASSIGN_OR_RETURN(bool redundant,
                             UniformlyContainsRule(without, rule, cache));
    candidate_span.Note("redundant", redundant ? 1 : 0);
    candidate_span.End();
    if (redundant) {
      total.removed_rules.push_back(rule);
      total.removed_rule_indices.push_back(original_index);
      current = std::move(without);
      alive[original_index] = false;
      ++total.rules_removed;
    }
  }

  total.plans_compiled = cache->plans_compiled() - plans_before;
  if (span.active()) {
    span.Note("containment_tests",
              static_cast<std::uint64_t>(total.containment_tests));
    span.Note("atoms_removed",
              static_cast<std::uint64_t>(total.atoms_removed));
    span.Note("rules_removed",
              static_cast<std::uint64_t>(total.rules_removed));
    span.Note("plans_compiled", total.plans_compiled);
  }
  MetricsRegistry& metrics = MetricsRegistry::Get();
  if (metrics.enabled()) {
    metrics.Add("minimize.runs", {}, 1);
    metrics.Add("minimize.containment_tests", {},
                static_cast<std::uint64_t>(total.containment_tests));
    metrics.Add("minimize.atoms_removed", {},
                static_cast<std::uint64_t>(total.atoms_removed));
    metrics.Add("minimize.rules_removed", {},
                static_cast<std::uint64_t>(total.rules_removed));
    metrics.Add("minimize.plans_compiled", {}, total.plans_compiled);
  }
  if (report != nullptr) report->Add(total);
  return current;
}

}  // namespace datalog
