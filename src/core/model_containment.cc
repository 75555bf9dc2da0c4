#include "core/model_containment.h"

#include "core/freeze.h"
#include "eval/compiled_rule.h"

namespace datalog {

Result<ProofOutcome> ModelContainmentForRule(const Program& p,
                                             const std::vector<Tgd>& tgds,
                                             const Rule& r,
                                             const ChaseBudget& budget,
                                             ChaseTranscript* transcript,
                                             CompiledRuleCache* cache) {
  DATALOG_ASSIGN_OR_RETURN(FrozenRule frozen, FreezeRule(r, p.symbols()));
  ChaseGoal goal{frozen.head_pred, frozen.head_tuple};
  DATALOG_ASSIGN_OR_RETURN(
      ChaseResult chase,
      Chase(p, tgds, &frozen.body, budget, goal, transcript, cache));
  switch (chase.status) {
    case ChaseStatus::kGoalReached:
      return ProofOutcome::kProved;
    case ChaseStatus::kFixpoint:
      // frozen.body is now a DB in SAT(T) ∩ M(P) that is not a model of
      // r: a genuine counterexample (nulls are ordinary constants).
      return ProofOutcome::kDisproved;
    case ChaseStatus::kBudgetExhausted:
      return ProofOutcome::kUnknown;
  }
  return Status::Internal("unreachable chase status");
}

Result<ProofOutcome> ModelContainment(const Program& p1,
                                      const std::vector<Tgd>& tgds,
                                      const Program& p2,
                                      const ChaseBudget& budget,
                                      CompiledRuleCache* cache) {
  // Every chase runs p1's rules: plan them once for all of p2's rules.
  CompiledRuleCache call_cache;
  if (cache == nullptr) cache = &call_cache;
  bool any_unknown = false;
  for (const Rule& rule : p2.rules()) {
    DATALOG_ASSIGN_OR_RETURN(
        ProofOutcome outcome,
        ModelContainmentForRule(p1, tgds, rule, budget, nullptr, cache));
    if (outcome == ProofOutcome::kDisproved) return ProofOutcome::kDisproved;
    if (outcome == ProofOutcome::kUnknown) any_unknown = true;
  }
  return any_unknown ? ProofOutcome::kUnknown : ProofOutcome::kProved;
}

}  // namespace datalog
