#ifndef DATALOG_CORE_EQUIVALENCE_OPTIMIZER_H_
#define DATALOG_CORE_EQUIVALENCE_OPTIMIZER_H_

#include <vector>

#include "ast/program.h"
#include "ast/tgd.h"
#include "core/chase.h"
#include "util/result.h"

namespace datalog {

/// Tuning knobs for the Section XI heuristic. The search is a heuristic by
/// necessity: equivalence is undecidable, so "it cannot always remove all
/// atoms that are redundant under equivalence" (Section V), and the paper
/// recommends bounding the time spent.
struct EquivalenceOptimizerOptions {
  ChaseBudget budget;
  /// Largest set of body atoms a single candidate tgd tries to remove.
  std::size_t max_rhs_atoms = 3;
  /// Largest tgd left-hand side drawn from the rule body.
  std::size_t max_lhs_atoms = 2;
  /// Cap on candidate tgds examined per rule.
  std::size_t max_candidates_per_rule = 512;
};

/// One successful removal.
struct EquivalenceRemoval {
  std::size_t rule_index;        // index in the ORIGINAL program
  std::vector<Atom> removed;     // atoms deleted from that rule's body
  Tgd witness;                   // the tgd whose proof justified it
};

struct EquivalenceOptimizeResult {
  Program program;
  std::vector<EquivalenceRemoval> removals;
  std::size_t candidates_tried = 0;
};

/// Enumerates the candidate tgds the Section XI syntactic properties allow
/// for `rule`: the left-hand side is a set of body atoms whose predicate
/// equals the rule's head predicate (property 1); every variable appearing
/// only in the right-hand side has all its body atoms inside the
/// right-hand side (property 2) and does not appear in the rule head
/// (property 3). The right-hand side is the atom set whose redundancy the
/// tgd would witness.
std::vector<Tgd> CandidateTgds(const Rule& rule,
                               const EquivalenceOptimizerOptions& options);

/// Optimization under equivalence (Section XI): for each rule, tries the
/// candidate tgds in order; when the Section X recipe proves that deleting
/// a candidate's right-hand-side atoms preserves equivalence, commits the
/// deletion and continues. Removes atoms that are redundant under
/// equivalence but NOT under uniform equivalence (e.g. A(y,w) in
/// Example 18); run MinimizeProgram first for the uniform-equivalence
/// redundancies.
///
/// Every proof attempt of the run draws its join plans from one
/// run-local CompiledRuleCache, so a rule the candidates leave unchanged
/// is planned once per run, not once per fixpoint.
Result<EquivalenceOptimizeResult> OptimizeUnderEquivalence(
    const Program& program, const EquivalenceOptimizerOptions& options = {});

}  // namespace datalog

#endif  // DATALOG_CORE_EQUIVALENCE_OPTIMIZER_H_
