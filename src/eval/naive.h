#ifndef DATALOG_EVAL_NAIVE_H_
#define DATALOG_EVAL_NAIVE_H_

#include "ast/program.h"
#include "eval/database.h"
#include "eval/eval_stats.h"
#include "util/result.h"

namespace datalog {

/// Computes P(db) by naive bottom-up iteration (Section III): repeatedly
/// instantiates every rule against the whole database until no new ground
/// atom can be produced. The input database may contain facts for
/// intentional predicates (the IDB-as-input semantics that uniform
/// equivalence is defined over, Section IV).
///
/// The program must be positive and safe; use EvaluateStratified for
/// programs with negation.
Result<EvalStats> EvaluateNaive(const Program& program, Database* db);

/// Applies every rule of `program` exactly once, non-recursively, against
/// a snapshot of `db` (the operator P^n of Section IX). New facts are
/// added to `out` (not to `db`). Returns the number of facts that were new
/// in `out`. A non-null `cache` serves the rules' plans, so a caller
/// applying one program to many databases plans each rule once.
Result<std::size_t> ApplyOnce(const Program& program, const Database& db,
                              Database* out, EvalStats* stats,
                              CompiledRuleCache* cache = nullptr);

}  // namespace datalog

#endif  // DATALOG_EVAL_NAIVE_H_
