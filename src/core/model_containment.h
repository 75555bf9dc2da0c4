#ifndef DATALOG_CORE_MODEL_CONTAINMENT_H_
#define DATALOG_CORE_MODEL_CONTAINMENT_H_

#include <vector>

#include "ast/program.h"
#include "ast/rule.h"
#include "core/chase.h"
#include "core/proof_outcome.h"
#include "util/result.h"

namespace datalog {

/// Tests SAT(T) ∩ M(P) ⊆ M(r) for a single rule r by the chase of
/// Theorem 1: freeze r's body, chase it with [P, T], and look for the
/// frozen head. kProved when the head appears; kDisproved when the chase
/// reaches a fixpoint without it (the fixpoint is a counterexample model);
/// kUnknown when the budget runs out first (possible only with embedded
/// tgds).
/// `transcript`, when non-null, records the chase steps (the paper's
/// Example 6/11-style narration of how the frozen head was derived, or of
/// the counterexample fixpoint). `cache` supplies the chase's join plans
/// (see Chase).
Result<ProofOutcome> ModelContainmentForRule(
    const Program& p, const std::vector<Tgd>& tgds, const Rule& r,
    const ChaseBudget& budget = {}, ChaseTranscript* transcript = nullptr,
    CompiledRuleCache* cache = nullptr);

/// Tests SAT(T) ∩ M(P1) ⊆ M(P2): the conjunction of the per-rule tests
/// over the rules of P2 (Section VIII). With empty `tgds` this decides
/// uniform containment P2 ⊆ᵘ P1 (Proposition 2 / Corollary 2) and never
/// returns kUnknown. One plan cache -- `cache`, or a call-local one --
/// serves every per-rule chase.
Result<ProofOutcome> ModelContainment(const Program& p1,
                                      const std::vector<Tgd>& tgds,
                                      const Program& p2,
                                      const ChaseBudget& budget = {},
                                      CompiledRuleCache* cache = nullptr);

}  // namespace datalog

#endif  // DATALOG_CORE_MODEL_CONTAINMENT_H_
