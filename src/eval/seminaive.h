#ifndef DATALOG_EVAL_SEMINAIVE_H_
#define DATALOG_EVAL_SEMINAIVE_H_

#include <unordered_map>
#include <vector>

#include "ast/program.h"
#include "eval/database.h"
#include "eval/eval_stats.h"
#include "eval/rule_matcher.h"
#include "util/result.h"

namespace datalog {

/// Snapshot of per-predicate row counts. Relations are append-only, so the
/// facts discovered during a round are exactly the rows past the snapshot:
/// the next round's delta is the row range [snapshot, size) of each full
/// relation (DeltaRanges::Since), read in place rather than copied, and
/// the snapshot becomes the old limit. Shared by the sequential, parallel
/// and incremental semi-naive drivers.
using Watermarks = std::unordered_map<PredicateId, std::size_t>;

Watermarks TakeWatermarks(const Database& db);

/// The round-0 delta of a fixpoint over `rules`: every fact already in
/// `db` counts as newly discovered -- EDB facts, program facts and
/// IDB-as-input facts alike (the uniform semantics of Section IV) -- so
/// each relation is the range [0, size). Predicates no positive body
/// literal reads can never gate a match and are left out, which keeps
/// SCC-ordered evaluation from re-paying a full round 0 per component.
DeltaRanges RoundZeroDelta(const std::vector<Rule>& rules,
                           const Database& db);

/// Pre-sizes each rule head's relation in `db` once for the round about
/// to run, by the rows its delta range holds -- how much it grew in the
/// previous round (round 0: its initial contents).
void ReserveHeadGrowth(const std::vector<Rule>& rules,
                       const DeltaRanges& delta, Database* db);

/// Computes P(db) by semi-naive bottom-up iteration: each round only
/// considers rule instantiations that use at least one fact discovered in
/// the previous round. Produces exactly the same database as EvaluateNaive
/// but with far fewer redundant joins; this is the engine the optimization
/// benchmarks run on. Each derived fact costs one dedup probe (the
/// insert); the delta is a row range of the full relation, never a copy.
///
/// The program must be positive and safe; use EvaluateStratified for
/// programs with negation.
Result<EvalStats> EvaluateSemiNaive(const Program& program, Database* db);

/// EvaluateSemiNaive for a program the caller has already validated
/// (ValidatePositiveProgram): the same fixpoint, trace span and stats
/// export, without checking the program again. `cache` as for
/// RunSemiNaiveFixpoint.
EvalStats EvaluateValidatedSemiNaive(const Program& program, Database* db,
                                     CompiledRuleCache* cache = nullptr);

/// Runs the semi-naive fixpoint over an explicit rule list without
/// validation. Negated literals are tested against the current database,
/// so the caller must guarantee that the negated predicates are already
/// fully computed (EvaluateStratified runs this stratum by stratum).
///
/// Join plans come from `cache` when it is non-null (the fixpoint starts
/// with cache->BeginFixpoint(rules)), so a caller running many fixpoints
/// over mostly the same rules -- the optimizer's containment tests --
/// plans each rule once; with a null cache the plans live for this
/// fixpoint only.
EvalStats RunSemiNaiveFixpoint(const std::vector<Rule>& rules, Database* db,
                               CompiledRuleCache* cache = nullptr);

/// Like EvaluateSemiNaive, but evaluates the program one dependence-graph
/// SCC at a time in topological order: rules whose heads lie in earlier
/// components reach their fixpoint before later components start, so
/// their delta passes never re-run. Computes exactly the same database;
/// on programs with several strata of intentional predicates it does
/// strictly less bookkeeping (see bench_engine).
Result<EvalStats> EvaluateSemiNaiveScc(const Program& program, Database* db);

}  // namespace datalog

#endif  // DATALOG_EVAL_SEMINAIVE_H_
