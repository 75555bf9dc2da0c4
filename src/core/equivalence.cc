#include "core/equivalence.h"

#include "core/model_containment.h"
#include "core/preservation.h"
#include "core/uniform_containment.h"

namespace datalog {

Result<ContainmentProof> ProveContainmentWithTgds(
    const Program& p1, const Program& p2, const std::vector<Tgd>& tgds,
    const ChaseBudget& budget, CompiledRuleCache* cache) {
  ContainmentProof proof;

  // (1) SAT(T) ∩ M(P1) ⊆ M(P2).
  DATALOG_ASSIGN_OR_RETURN(proof.model_containment,
                           ModelContainment(p1, tgds, p2, budget, cache));

  // (2) P1 preserves T (shown non-recursively; non-recursive preservation
  // implies preservation, Section IX).
  DATALOG_ASSIGN_OR_RETURN(proof.preservation,
                           PreservesNonRecursively(p1, tgds, budget));

  // (3') The preliminary DB of P1 satisfies T. Only P1's preliminary DB
  // matters (the monotonicity argument closing Section X).
  DATALOG_ASSIGN_OR_RETURN(proof.preliminary_db,
                           PreliminaryDbSatisfies(p1, tgds, budget));

  proof.overall = (proof.model_containment == ProofOutcome::kProved &&
                   proof.preservation == ProofOutcome::kProved &&
                   proof.preliminary_db == ProofOutcome::kProved)
                      ? ProofOutcome::kProved
                      : ProofOutcome::kUnknown;
  return proof;
}

Result<EquivalenceProof> ProveEquivalentWithTgds(
    const Program& p1, const Program& p2, const std::vector<Tgd>& tgds,
    const ChaseBudget& budget, CompiledRuleCache* cache) {
  EquivalenceProof proof;
  // P1 ⊆ᵘ P2 implies P1 ⊆ P2 (Proposition 1). For the optimization
  // use-case P2's rule bodies are subsets of P1's, so this holds
  // trivially; it is checked rather than assumed.
  DATALOG_ASSIGN_OR_RETURN(proof.uniform_forward,
                           UniformlyContains(p2, p1, cache));
  DATALOG_ASSIGN_OR_RETURN(
      proof.backward, ProveContainmentWithTgds(p1, p2, tgds, budget, cache));
  proof.overall = (proof.uniform_forward &&
                   proof.backward.overall == ProofOutcome::kProved)
                      ? ProofOutcome::kProved
                      : ProofOutcome::kUnknown;
  return proof;
}

}  // namespace datalog
