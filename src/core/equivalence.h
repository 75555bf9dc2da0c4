#ifndef DATALOG_CORE_EQUIVALENCE_H_
#define DATALOG_CORE_EQUIVALENCE_H_

#include <vector>

#include "ast/program.h"
#include "core/chase.h"
#include "core/proof_outcome.h"
#include "util/result.h"

namespace datalog {

/// The three sub-proofs of the Section X recipe for showing P2 ⊆ P1 (with
/// condition (3') replacing (3) and (4), as the paper's final remark
/// allows), plus the combined verdict.
struct ContainmentProof {
  /// (1) SAT(T) ∩ M(P1) ⊆ M(P2), by the chase of Section VIII.
  ProofOutcome model_containment = ProofOutcome::kUnknown;
  /// (2) P1 preserves T, shown non-recursively by the Fig. 3 procedure.
  ProofOutcome preservation = ProofOutcome::kUnknown;
  /// (3') the preliminary DB of P1 satisfies T.
  ProofOutcome preliminary_db = ProofOutcome::kUnknown;
  /// kProved when all three are proved; otherwise kUnknown. The recipe is
  /// sufficient but not necessary, so a failed sub-proof never disproves
  /// the containment itself.
  ProofOutcome overall = ProofOutcome::kUnknown;
};

/// Attempts to prove P2 ⊆ P1 (containment under ordinary equivalence,
/// which is undecidable in general) using the tgds `tgds`, by the monotone
/// argument at the end of Section X: P2 ⊆_SAT(T) P1 plus a preliminary DB
/// of P1 that satisfies T imply P2 ⊆ P1. A non-null `cache` supplies the
/// join plans of (1)'s chases (see Chase); no verdict depends on it.
Result<ContainmentProof> ProveContainmentWithTgds(
    const Program& p1, const Program& p2, const std::vector<Tgd>& tgds,
    const ChaseBudget& budget = {}, CompiledRuleCache* cache = nullptr);

/// The result of an equivalence attempt.
struct EquivalenceProof {
  /// P1 ⊆ᵘ P2 (decidable; establishes P1 ⊆ P2).
  bool uniform_forward = false;
  /// The tgd-based proof of P2 ⊆ P1.
  ContainmentProof backward;
  ProofOutcome overall = ProofOutcome::kUnknown;
};

/// Attempts to prove P1 ≡ P2 where P2 is a weakening of P1 (e.g. P1 with
/// atoms deleted, so that P1 ⊆ᵘ P2 is expected): checks P1 ⊆ᵘ P2 exactly
/// and P2 ⊆ P1 by the tgd recipe. Overall kProved iff both succeed;
/// kDisproved iff P1 ⊄ᵘ P2... note that even then the programs might be
/// equivalent, so kUnknown is reported instead; the verdict is never a
/// definite "not equivalent". `cache` serves the uniform-containment
/// fixpoints and the chases alike, so an optimizer proving many
/// candidates against one program plans its unchanged rules once.
Result<EquivalenceProof> ProveEquivalentWithTgds(
    const Program& p1, const Program& p2, const std::vector<Tgd>& tgds,
    const ChaseBudget& budget = {}, CompiledRuleCache* cache = nullptr);

}  // namespace datalog

#endif  // DATALOG_CORE_EQUIVALENCE_H_
