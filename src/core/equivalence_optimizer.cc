#include "core/equivalence_optimizer.h"

#include <algorithm>
#include <set>

#include "ast/validate.h"
#include "core/equivalence.h"
#include "eval/compiled_rule.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace datalog {
namespace {

/// All subsets of {0..n-1} with 1 <= size <= max_size, smallest first.
std::vector<std::vector<std::size_t>> Subsets(std::size_t n,
                                              std::size_t max_size,
                                              std::size_t cap) {
  std::vector<std::vector<std::size_t>> out;
  std::vector<std::size_t> current;
  auto recurse = [&](auto&& self, std::size_t start) -> void {
    if (out.size() >= cap) return;
    if (!current.empty()) out.push_back(current);
    if (current.size() >= max_size) return;
    for (std::size_t i = start; i < n; ++i) {
      current.push_back(i);
      self(self, i + 1);
      current.pop_back();
    }
  };
  recurse(recurse, 0);
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& a, const auto& b) {
                     return a.size() < b.size();
                   });
  return out;
}

}  // namespace

std::vector<Tgd> CandidateTgds(const Rule& rule,
                               const EquivalenceOptimizerOptions& options) {
  std::vector<Tgd> candidates;
  if (!rule.IsPositive() || rule.IsFact()) return candidates;
  const std::vector<Atom> body = rule.PositiveBodyAtoms();
  const std::set<VariableId> head_vars = rule.head().Variables();

  // Positions usable in the left-hand side: body atoms with the head's
  // predicate (property 1).
  std::vector<std::size_t> lhs_pool;
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (body[i].predicate() == rule.head().predicate()) lhs_pool.push_back(i);
  }
  if (lhs_pool.empty()) return candidates;

  // Enumerate right-hand sides (the atoms to prove redundant), larger ones
  // later; for each, the compatible left-hand sides.
  std::vector<std::vector<std::size_t>> rhs_sets =
      Subsets(body.size(), options.max_rhs_atoms,
              options.max_candidates_per_rule);
  std::vector<std::vector<std::size_t>> lhs_sets =
      Subsets(lhs_pool.size(), options.max_lhs_atoms,
              options.max_candidates_per_rule);

  for (const std::vector<std::size_t>& rhs_idx : rhs_sets) {
    if (candidates.size() >= options.max_candidates_per_rule) break;
    std::set<std::size_t> rhs_positions(rhs_idx.begin(), rhs_idx.end());

    // Variables of the right-hand-side atoms.
    std::set<VariableId> rhs_vars;
    for (std::size_t i : rhs_idx) {
      std::set<VariableId> vars = body[i].Variables();
      rhs_vars.insert(vars.begin(), vars.end());
    }

    for (const std::vector<std::size_t>& lhs_pick : lhs_sets) {
      if (candidates.size() >= options.max_candidates_per_rule) break;
      // Translate picks through the pool; skip overlaps with the RHS.
      std::vector<Atom> lhs;
      bool overlap = false;
      std::set<VariableId> lhs_vars;
      for (std::size_t pick : lhs_pick) {
        std::size_t pos = lhs_pool[pick];
        if (rhs_positions.contains(pos)) {
          overlap = true;
          break;
        }
        lhs.push_back(body[pos]);
        std::set<VariableId> vars = body[pos].Variables();
        lhs_vars.insert(vars.begin(), vars.end());
      }
      if (overlap || lhs.empty()) continue;

      // Variables appearing only in the tgd's right-hand side.
      bool ok = true;
      for (VariableId w : rhs_vars) {
        if (lhs_vars.contains(w)) continue;
        // Property 3: not in the rule's head.
        if (head_vars.contains(w)) {
          ok = false;
          break;
        }
        // Property 2: every body atom containing w is in the RHS.
        for (std::size_t i = 0; i < body.size() && ok; ++i) {
          if (!rhs_positions.contains(i) && body[i].ContainsVariable(w)) {
            ok = false;
          }
        }
        if (!ok) break;
      }
      if (!ok) continue;

      std::vector<Atom> rhs;
      for (std::size_t i : rhs_idx) rhs.push_back(body[i]);
      candidates.emplace_back(std::move(lhs), std::move(rhs));
    }
  }
  return candidates;
}

Result<EquivalenceOptimizeResult> OptimizeUnderEquivalence(
    const Program& program, const EquivalenceOptimizerOptions& options) {
  DATALOG_RETURN_IF_ERROR(ValidatePositiveProgram(program));
  CompiledRuleCache cache;
  TraceSpan span("equivalence/optimize");
  span.Note("rules", program.NumRules());
  EquivalenceOptimizeResult result{program, {}, 0};

  for (std::size_t rule_index = 0; rule_index < result.program.NumRules();
       ++rule_index) {
    // Re-generate candidates after each committed removal: the rule body
    // changed, so positions and properties must be recomputed.
    bool changed = true;
    while (changed) {
      changed = false;
      const Rule rule = result.program.rules()[rule_index];
      std::vector<Tgd> candidates = CandidateTgds(rule, options);
      for (const Tgd& tgd : candidates) {
        ++result.candidates_tried;
        TraceSpan candidate_span("equivalence/candidate");
        candidate_span.Note("rule", rule_index);
        // Build the weakened rule: remove the tgd's RHS atoms (by value;
        // duplicates are removed once per occurrence in the RHS).
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

        Program candidate_program =
            result.program.WithRuleReplaced(rule_index, weakened);
        DATALOG_ASSIGN_OR_RETURN(
            EquivalenceProof proof,
            ProveEquivalentWithTgds(result.program, candidate_program, {tgd},
                                    options.budget, &cache));
        if (proof.overall == ProofOutcome::kProved) {
          candidate_span.Note("proved", 1);
          result.program = std::move(candidate_program);
          result.removals.push_back(
              EquivalenceRemoval{rule_index, tgd.rhs(), tgd});
          changed = true;
          break;  // rule changed: regenerate candidates
        }
      }
    }
  }
  if (span.active()) {
    span.Note("candidates_tried",
              static_cast<std::uint64_t>(result.candidates_tried));
    span.Note("removals", result.removals.size());
  }
  MetricsRegistry& metrics = MetricsRegistry::Get();
  if (metrics.enabled()) {
    metrics.Add("equivalence.runs", {}, 1);
    metrics.Add("equivalence.candidates_tried", {},
                static_cast<std::uint64_t>(result.candidates_tried));
    metrics.Add("equivalence.removals", {}, result.removals.size());
  }
  return result;
}

}  // namespace datalog
