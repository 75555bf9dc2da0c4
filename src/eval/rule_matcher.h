#ifndef DATALOG_EVAL_RULE_MATCHER_H_
#define DATALOG_EVAL_RULE_MATCHER_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "ast/rule.h"
#include "eval/database.h"

namespace datalog {

/// Counters describing the work done while matching rule bodies. The
/// number of substitutions found is the library's proxy for "number of
/// joins", the cost the paper's optimization reduces.
struct MatchStats {
  std::uint64_t substitutions = 0;   // complete body matches found
  std::uint64_t index_lookups = 0;   // per-atom index probes / scans
  std::uint64_t tuples_scanned = 0;  // candidate tuples inspected
  // Head rows probed against the output's dedup table: one per emitted
  // row (a substitution that survived negation), duplicates included.
  std::uint64_t dedup_probes = 0;
  // Join plans a CompiledRuleCache compiled or replanned for the work
  // counted here (plans compiled outside a cache are not counted).
  std::uint64_t plans_compiled = 0;

  void Add(const MatchStats& other) {
    substitutions += other.substitutions;
    index_lookups += other.index_lookups;
    tuples_scanned += other.tuples_scanned;
    dedup_probes += other.dedup_probes;
    plans_compiled += other.plans_compiled;
  }
};

/// Which rows a body atom is matched against during semi-naive
/// evaluation: the full relation, the last round's delta, or the "old"
/// prefix of the full relation (rows that existed before the delta was
/// born). All three are row ranges -- relations are append-only -- so
/// every executor resolves a join depth to (relation, begin, end); see
/// ResolveAtomSource.
enum class AtomSource { kFull, kDelta, kOld };

/// Per-predicate row-count bounds defining the "old" snapshot [0, limit);
/// predicates absent from the map have no old rows.
using OldLimits = std::unordered_map<PredicateId, std::size_t>;

/// The half-open row range [begin, end) of one relation.
struct RowRange {
  const Relation* rel = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
};

/// The semi-naive delta: per predicate, a row range of a relation. In the
/// fixpoint engines it is the range [old watermark, round-start
/// watermark) of the full relation -- the rows the previous round
/// appended -- so cutting a delta copies nothing; a parallel shard is a
/// sub-range of it. The incremental engine's seeded first round passes
/// its seed relations whole, as [0, size). Predicates without a range
/// have an empty delta.
class DeltaRanges {
 public:
  /// Rows [marks[pred], size) of every relation of `db` that grew past
  /// its mark (an absent mark is 0).
  static DeltaRanges Since(const Database& db, const OldLimits& marks);

  /// Every fact of `db`: each non-empty relation as [0, size).
  static DeltaRanges Whole(const Database& db) { return Since(db, {}); }

  /// Sets the range of `pred` to rows [begin, end) of `rel` (an empty
  /// range removes it). `rel` must outlive every use of this delta.
  void Set(PredicateId pred, const Relation& rel, std::size_t begin,
           std::size_t end);

  /// The range of `pred`; an empty range with a null relation if none.
  RowRange Find(PredicateId pred) const {
    auto it = ranges_.find(pred);
    return it == ranges_.end() ? RowRange{} : it->second;
  }

  bool empty() const { return ranges_.empty(); }
  const std::unordered_map<PredicateId, RowRange>& ranges() const {
    return ranges_;
  }

 private:
  std::unordered_map<PredicateId, RowRange> ranges_;
};

/// The rows a body atom reads: kFull the whole relation of `full`, kOld
/// its prefix [0, old limit), kDelta the predicate's range in `delta`.
/// The relation is never null: a missing relation or delta resolves to
/// an empty range. Executors resolve every join depth through this once
/// per rule application, so the three sources share one code path.
RowRange ResolveAtomSource(AtomSource source, PredicateId pred,
                           const Database& full, const DeltaRanges* delta,
                           const OldLimits* old_limits);

/// The cardinality the join planner assumes for an atom: the delta
/// range's length for kDelta (when a delta is given), the full
/// relation's size otherwise -- the old snapshot is planned at full size.
std::size_t PlanningSize(AtomSource source, PredicateId pred,
                         const Database& full, const DeltaRanges* delta);

/// Head rows a rule application derived, buffered in id space until the
/// enumeration finishes (the output may alias an input relation, and the
/// parallel engine merges task buffers at the round barrier): `count`
/// rows of the head's arity stored back to back in `ids`, duplicates
/// included.
struct DerivedRows {
  std::vector<std::uint32_t> ids;
  std::size_t count = 0;
};

/// Inserts `rows` into `out`'s relation for `head` in order and returns
/// how many were new: one dedup probe per row, counted into
/// `stats->dedup_probes` (when non-null).
std::size_t EmitDerived(const DerivedRows& rows, PredicateId head,
                        Database* out, MatchStats* stats);

/// A body atom together with its source.
struct PlannedAtom {
  Atom atom;
  AtomSource source = AtomSource::kFull;
};

/// A substitution from variables to constants, built up during matching
/// (the instantiation of Section III).
using Binding = std::unordered_map<VariableId, Value>;

/// Process-wide ablation switches used by bench_ablation to quantify
/// engine design choices. Not thread-safe; intended for benchmarks only.
/// When greedy join ordering is off, body atoms are matched in their
/// given (textual) order. When index lookups are off, every atom match
/// scans the whole relation and filters. Both are bit-for-bit neutral on
/// results and on the substitution count.
///
/// SetMultiwayJoins gates the second compiled plan shape: the generic
/// worst-case-optimal multiway intersection that CompiledRule selects
/// for cyclic bodies of estimated width >= 2 (see eval/hypergraph.h and
/// docs/multiway_joins.md). Disabling it pins every plan to the greedy
/// left-deep shape. Multiway plans also require index lookups: with
/// SetIndexLookups(false) the planner falls back to left-deep, keeping
/// that knob a true ablation axis. Neutral on results and on the
/// substitution count, but not on the probe/scan counters, which
/// measure the work the shape saves.
void SetGreedyJoinOrdering(bool enabled);
bool GreedyJoinOrderingEnabled();
void SetIndexLookups(bool enabled);
bool IndexLookupsEnabled();
void SetMultiwayJoins(bool enabled);
bool MultiwayJoinsEnabled();

/// Join-order hints produced by the analyzer's binding pass (see
/// src/analysis/binding_pass.cc): for a body whose predicate-id sequence
/// hashes to the key, the preferred visit order as a permutation of
/// positions into the planned atom list. Keying by body fingerprint
/// rather than rule index lets one hint table serve every engine and
/// every (delta position, use_old) variant of a rule; two rules with the
/// same predicate sequence share a hint, which is harmless because the
/// hint was derived from that sequence alone.
struct JoinOrderHints {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> order;

  bool empty() const { return order.empty(); }
};

/// The fingerprint `JoinOrderHints` keys on: a hash of the sequence of
/// predicate ids of `atoms` (sources and argument patterns excluded).
std::uint64_t BodyFingerprint(const std::vector<PlannedAtom>& atoms);

/// Installs (or, with nullptr, clears) the process-wide hint table
/// consulted by PlanJoinOrder. The pointed-to table must outlive the
/// installation; like the other knobs above this is not thread-safe and
/// intended for benchmarks and the CLI's --hints path. A malformed hint
/// (wrong length, not a permutation) is ignored and the greedy planner
/// runs as usual, so hints can never change results -- only join order.
void SetJoinOrderHints(const JoinOrderHints* hints);
const JoinOrderHints* InstalledJoinOrderHints();
/// Bumped on every SetJoinOrderHints call; compiled plans snapshot it so
/// CompiledRule::NeedsReplan notices a hint change (see
/// eval/compiled_rule.h).
std::uint64_t JoinOrderHintsVersion();

class CompiledRuleCache;  // eval/compiled_rule.h

/// Enumerates every binding that instantiates all `atoms` to facts of the
/// indicated sources: a compiled plan (eval/compiled_rule.h) run by its
/// depth-first Execute, materializing a Binding per complete match. Atoms
/// are matched in a greedily chosen order (most-bound / smallest-relation
/// first). The callback returns false to stop the enumeration early.
///
/// `delta` may be null when no atom uses AtomSource::kDelta.
void MatchAtoms(const Database& full, const DeltaRanges* delta,
                const std::vector<PlannedAtom>& atoms,
                const std::function<bool(const Binding&)>& callback,
                MatchStats* stats);

/// The body-atom list a semi-naive delta pass matches: the positive
/// literals of `rule` with the literal at `delta_pos` sourced from the
/// delta, earlier positive literals from the old snapshot (when `use_old`)
/// and the rest from the full database. A `delta_pos` past the body (e.g.
/// npos) yields the all-kFull plan that ApplyRule uses.
std::vector<PlannedAtom> BuildDeltaPassAtoms(const Rule& rule,
                                             std::size_t delta_pos,
                                             bool use_old);

/// The join order the matcher will use for `atoms`: greedy most-bound /
/// smallest-relation first, or the given order when greedy planning is
/// disabled. Deterministic given the relation sizes, which is what lets
/// CompiledRule::EnsureIndexes pre-build exactly the indexes a pass will
/// probe before the parallel evaluator fans out (see
/// docs/parallel_eval.md).
std::vector<PlannedAtom> PlanJoinOrder(const Database& full,
                                       const DeltaRanges* delta,
                                       const std::vector<PlannedAtom>& atoms);

/// Instantiates `atom` under `binding`; every variable must be bound.
Tuple InstantiateHead(const Atom& atom, const Binding& binding);

/// Applies `rule` once, non-recursively, against `full` (Section IX's
/// P^n-style single application): enumerates body matches (negated
/// literals are tested against `full` after the positive part is bound)
/// and inserts head facts into `out`. Returns the number of facts that
/// were new in `out`. `out` may alias `full`'s storage only if the caller
/// accepts immediate visibility of new facts (naive evaluation does).
///
/// With a non-null `cache`, the compiled plan for (`rule`, delta
/// position, use_old) is fetched from it -- compiled on first use,
/// replanned only when a participating relation's cardinality drifts --
/// instead of being rebuilt per call. A null cache compiles transiently.
std::size_t ApplyRule(const Rule& rule, const Database& full, Database* out,
                      MatchStats* stats, CompiledRuleCache* cache = nullptr);

/// Semi-naive variant: like ApplyRule but the body atom at position
/// `delta_pos` (an index into rule.body(), which must be positive there)
/// is matched against its row range in `delta` instead of `full`. When
/// `old_limits` is non-null, positive positions BEFORE delta_pos are
/// matched against the old snapshot only (the classic old/delta/full
/// scheme, which covers every derivation that uses a delta fact exactly
/// once instead of once per delta position); with a null `old_limits`
/// those positions fall back to the full database.
std::size_t ApplyRuleWithDelta(const Rule& rule, const Database& full,
                               const DeltaRanges& delta, std::size_t delta_pos,
                               Database* out, MatchStats* stats,
                               const OldLimits* old_limits = nullptr,
                               CompiledRuleCache* cache = nullptr);

}  // namespace datalog

#endif  // DATALOG_EVAL_RULE_MATCHER_H_
