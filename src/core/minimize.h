#ifndef DATALOG_CORE_MINIMIZE_H_
#define DATALOG_CORE_MINIMIZE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "ast/program.h"
#include "ast/rule.h"
#include "util/result.h"

namespace datalog {

class CompiledRuleCache;  // eval/compiled_rule.h

/// Options for the minimization algorithms.
struct MinimizeOptions {
  /// When set, atoms (and, for programs, rules) are considered for
  /// deletion in a pseudo-random order seeded here instead of textual
  /// order. The paper notes the final result may depend on this order
  /// (Section VII); the option exists to demonstrate that.
  std::optional<std::uint64_t> shuffle_seed;

  /// Upper bound on uniform-containment tests for one minimization run
  /// (0 = unlimited). Each test is a chase to fixpoint, so this is the
  /// budget that keeps the analyzer's report-only minimization pass from
  /// dominating `datalog check` on large recursive programs. When the
  /// budget runs out the minimization stops early and reports
  /// `budget_exhausted`; the partial result is still sound (every
  /// committed deletion was proved redundant).
  std::size_t max_containment_tests = 0;
};

/// What the minimizer removed. `removed_atoms`/`removed_rules` record the
/// deletions in the order they were committed; `rule_index` refers to the
/// rule's position in the program at the moment of deletion (phase 1
/// never reorders rules; phase 2 shifts later indices down as rules go).
struct MinimizeReport {
  struct RemovedAtom {
    std::size_t rule_index;
    Atom atom;
  };

  std::size_t atoms_removed = 0;
  std::size_t rules_removed = 0;
  std::size_t containment_tests = 0;
  /// Join plans compiled or replanned for the containment tests (see
  /// MatchStats::plans_compiled). One plan cache serves the whole run, so
  /// this grows with the rules the run changed, not with the tests.
  std::uint64_t plans_compiled = 0;
  std::vector<RemovedAtom> removed_atoms;
  std::vector<Rule> removed_rules;
  /// Original program indices of `removed_rules` (parallel vector), which
  /// the analyzer needs to anchor its redundant-rule diagnostics to source
  /// spans. Unlike the at-deletion-time indices of `removed_atoms`, these
  /// always refer to positions in the INPUT program.
  std::vector<std::size_t> removed_rule_indices;
  /// True when MinimizeOptions::max_containment_tests stopped the run
  /// before every candidate deletion was considered.
  bool budget_exhausted = false;

  void Add(const MinimizeReport& other) {
    atoms_removed += other.atoms_removed;
    rules_removed += other.rules_removed;
    containment_tests += other.containment_tests;
    plans_compiled += other.plans_compiled;
    removed_atoms.insert(removed_atoms.end(), other.removed_atoms.begin(),
                         other.removed_atoms.end());
    removed_rules.insert(removed_rules.end(), other.removed_rules.begin(),
                         other.removed_rules.end());
    removed_rule_indices.insert(removed_rule_indices.end(),
                                other.removed_rule_indices.begin(),
                                other.removed_rule_indices.end());
    budget_exhausted = budget_exhausted || other.budget_exhausted;
  }
};

/// The algorithm of Fig. 1: repeatedly deletes a body atom from `rule` and
/// keeps the deletion when the smaller rule is uniformly contained in the
/// current one. Each atom is considered exactly once (Theorem 2 shows more
/// passes cannot help). Returns a rule uniformly equivalent to `rule` with
/// no atom deletable under uniform equivalence.
Result<Rule> MinimizeRule(const Rule& rule,
                          std::shared_ptr<SymbolTable> symbols,
                          MinimizeReport* report = nullptr,
                          const MinimizeOptions& options = {});

/// The algorithm of Fig. 2: first minimizes every rule against the whole
/// program (an atom may be redundant w.r.t. P without being redundant
/// w.r.t. its own rule alone), then deletes redundant rules. The result
/// has neither a redundant atom nor a redundant rule under uniform
/// equivalence; it is uniformly equivalent to the input but not
/// necessarily unique.
///
/// Every containment test of the run draws its join plans from one
/// CompiledRuleCache -- `cache` when non-null, else a run-local one. A
/// test runs the current program, which a committed deletion changes by
/// one rule, so each rule is planned once per version instead of once per
/// test. The result and the report never depend on the cache, except
/// for `plans_compiled`.
Result<Program> MinimizeProgram(const Program& program,
                                MinimizeReport* report = nullptr,
                                const MinimizeOptions& options = {},
                                CompiledRuleCache* cache = nullptr);

/// Minimization for programs WITH stratified negation: the positive rules
/// are minimized (Fig. 2) against the set of all positive rules; rules
/// containing negated literals are left untouched. Sound for the
/// stratified (perfect-model) semantics: a deleted atom/rule was
/// uniformly redundant w.r.t. the positive subset, and a minimal
/// re-derivation only routes through predicates at or below the deleted
/// rule's stratum (every premise of an intermediate rule lies strictly
/// lower), so it replays inside the stratum-by-stratum evaluation. The
/// result preserves EvaluateStratified's output on every input; the
/// output lists the minimized positive rules first, then the untouched
/// negation rules. This is a first step in the §XII extension direction
/// ("the results on uniform containment and minimization can be extended
/// to Datalog programs with stratified negation"); minimizing the
/// negation rules themselves needs the forthcoming-paper theory.
Result<Program> MinimizeStratifiedProgram(const Program& program,
                                          MinimizeReport* report = nullptr,
                                          const MinimizeOptions& options = {});

/// The opposite optimization direction sketched in Section I: some
/// optimizers ADD conjuncts (e.g. a third relation known to contain an
/// intersection) to give the planner more choices. Adding `atom` to the
/// body of rule `rule_index` is sound under uniform equivalence iff the
/// original rule is uniformly contained in the program with the
/// strengthened rule (the added atom can then always be satisfied).
/// Decidable, like atom removal.
Result<bool> AtomAdditionIsSound(const Program& program,
                                 std::size_t rule_index, const Atom& atom);

}  // namespace datalog

#endif  // DATALOG_CORE_MINIMIZE_H_
