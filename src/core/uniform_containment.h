#ifndef DATALOG_CORE_UNIFORM_CONTAINMENT_H_
#define DATALOG_CORE_UNIFORM_CONTAINMENT_H_

#include <optional>

#include "ast/program.h"
#include "ast/rule.h"
#include "eval/database.h"
#include "util/result.h"

namespace datalog {

class CompiledRuleCache;  // eval/compiled_rule.h

/// Tests whether the single-rule program `r` is uniformly contained in `p`
/// (r subseteq^u p, Section VI / Corollary 2): the variables of `r` are
/// frozen to distinct constants, `p` is computed bottom-up over the frozen
/// body, and the containment holds iff the frozen head is derived. Always
/// terminates (no new constants are ever introduced).
///
/// Both programs must be positive and safe; the rule's head predicate need
/// not be intentional in `p` (Section IV allows mixed vocabularies).
///
/// A non-null `cache` supplies the join plans of `p`'s rules (see
/// RunSemiNaiveFixpoint): callers running many tests against mostly the
/// same program, like the minimizer, plan each rule once per run instead
/// of once per test. The verdict never depends on it.
Result<bool> UniformlyContainsRule(const Program& p, const Rule& r,
                                   CompiledRuleCache* cache = nullptr);

/// Tests p2 subseteq^u p1: every rule of p2 must be uniformly contained in
/// p1 (Section VI: M(P1) subseteq M(P2) iff M(P1) subseteq M(r) for every
/// rule r of P2). Every test evaluates p1, so one plan cache -- `cache`, or
/// a call-local one -- serves them all.
Result<bool> UniformlyContains(const Program& p1, const Program& p2,
                               CompiledRuleCache* cache = nullptr);

/// Tests p1 ==^u p2 (uniform equivalence, Section IV).
Result<bool> UniformlyEquivalent(const Program& p1, const Program& p2);

/// A refutation of r subseteq^u p: a concrete input database (the frozen
/// body of r) on which {r} derives `missing_fact` but p does not. Running
/// p over `input` yields a model of p that is not a model of r -- the
/// counterexample Corollary 2 guarantees.
struct UniformContainmentWitness {
  Database input;
  PredicateId missing_pred;
  Tuple missing_fact;
};

/// Like UniformlyContainsRule, but on failure also produces the
/// counterexample input (useful for error messages and the CLI's
/// explain mode). Returns nullopt when the containment HOLDS.
Result<std::optional<UniformContainmentWitness>>
RefuteUniformContainment(const Program& p, const Rule& r);

}  // namespace datalog

#endif  // DATALOG_CORE_UNIFORM_CONTAINMENT_H_
