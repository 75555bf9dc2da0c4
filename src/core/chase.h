#ifndef DATALOG_CORE_CHASE_H_
#define DATALOG_CORE_CHASE_H_

#include <optional>
#include <vector>

#include "ast/program.h"
#include "core/tgd.h"
#include "eval/database.h"
#include "util/result.h"

namespace datalog {

class CompiledRuleCache;  // eval/compiled_rule.h

/// Resource limits for chases involving embedded tgds, which may not
/// terminate (Section VIII: "some sets of tgds can be applied to an
/// initial DB forever"). The defaults are generous for program-sized
/// canonical databases.
struct ChaseBudget {
  std::size_t max_rounds = 256;   // fair rounds of rules-then-tgds
  std::size_t max_nulls = 4096;   // labeled nulls introduced
  std::size_t max_facts = 1u << 20;  // total database size
};

/// How a bounded chase ended.
enum class ChaseStatus {
  /// No rule and no tgd can add a fact; `db` is a model of P in SAT(T).
  kFixpoint,
  /// The goal fact appeared (only when a goal was supplied).
  kGoalReached,
  /// Budget exhausted without fixpoint or goal.
  kBudgetExhausted,
};

struct ChaseResult {
  ChaseStatus status = ChaseStatus::kFixpoint;
  std::size_t rounds = 0;
  std::size_t facts_added = 0;
  std::int32_t nulls_introduced = 0;
};

/// A goal fact for early exit.
struct ChaseGoal {
  PredicateId predicate;
  Tuple tuple;
};

/// One step of a chase transcript: either "the program's rules ran to
/// fixpoint" or "tgd #tgd_index ran one round", with the facts that step
/// added. Steps that add nothing are not recorded.
struct ChaseStep {
  enum class Kind { kRules, kTgd };
  Kind kind = Kind::kRules;
  std::size_t tgd_index = 0;  // meaningful for kTgd
  std::vector<std::pair<PredicateId, Tuple>> added;
};

/// A human-readable record of a chase run, in the style of the paper's
/// worked examples (Examples 6 and 11). Collected when a transcript
/// pointer is passed to Chase.
struct ChaseTranscript {
  std::vector<ChaseStep> steps;

  /// Renders e.g.:
  ///   rules derived: g($c0, $c1)
  ///   tgd 0 added: a($c0, ~n0)
  std::string ToString(const SymbolTable& symbols,
                       const std::vector<Tgd>& tgds) const;
};

/// The combined application [P, T] of a program and a set of tgds
/// (Section VIII): alternates running P's rules to their (always finite)
/// fixpoint with one fair round of every tgd, until nothing changes, the
/// optional goal fact appears, or the budget runs out. Applications are
/// fair, so if the goal is derivable at all it is found given enough
/// budget (Theorem 1's positive direction).
///
/// `program` may be empty (chasing with tgds only) and `tgds` may be empty
/// (plain bottom-up evaluation). Every round's rule fixpoint draws its join
/// plans from one cache (see RunSemiNaiveFixpoint): `cache` when non-null,
/// so the plans outlive the chase, else a chase-local one. The result
/// never depends on it.
Result<ChaseResult> Chase(const Program& program, const std::vector<Tgd>& tgds,
                          Database* db, const ChaseBudget& budget = {},
                          const std::optional<ChaseGoal>& goal = std::nullopt,
                          ChaseTranscript* transcript = nullptr,
                          CompiledRuleCache* cache = nullptr);

}  // namespace datalog

#endif  // DATALOG_CORE_CHASE_H_
