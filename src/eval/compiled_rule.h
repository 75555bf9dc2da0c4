#ifndef DATALOG_EVAL_COMPILED_RULE_H_
#define DATALOG_EVAL_COMPILED_RULE_H_

#include <cstdint>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ast/rule.h"
#include "eval/bytecode/bytecode.h"
#include "eval/database.h"
#include "eval/hypergraph.h"
#include "eval/rule_matcher.h"

namespace datalog {

class CompiledRule;

/// One body atom compiled against a fixed join order. Every argument
/// position is classified once, at compile time:
///   - constants sit pre-filled in `key_template`,
///   - variables bound by earlier atoms are key positions patched from
///     the frame per probe (`key_fill`),
///   - the first occurrence of a free variable writes its frame slot
///     (`writes`),
///   - repeated occurrences within the same atom must hold the same id
///     as the first occurrence's column of the same row (`id_checks`).
/// The enumeration loop therefore does no per-row classification, no
/// hash-map binding churn, and no per-probe key allocation. The bytecode
/// lowering (eval/bytecode/lower.cc) reads the same schedules.
struct CompiledAtomStep {
  struct KeyFill {
    int key_index;  // position in the key buffer
    int slot;       // frame slot providing the value
  };
  struct SlotRef {
    int col;   // column of the matched row
    int slot;  // frame slot written
  };

  PredicateId predicate = 0;
  int arity = 0;
  AtomSource source = AtomSource::kFull;
  std::vector<int> key_cols;  // strictly increasing bound columns
  Tuple key_template;         // constants filled, bound positions patched
  std::vector<KeyFill> key_fill;
  std::vector<SlotRef> writes;
  // Each repeated-variable check as a row-local column pair
  // (first-occurrence column, repeat column), compared directly on the
  // raw id columns by both executors.
  std::vector<std::pair<int, int>> id_checks;
  std::size_t planned_size = 0;  // PlanningSize at plan time

  // Id-space mirror of `key_template`, precomputed at compile time so
  // the bytecode VM never touches a Value: constants interned to
  // dictionary ids (patched positions hold kInvalidId until key_fill
  // overwrites them per probe).
  std::vector<std::uint32_t> key_template_ids;
};

/// One (variable, atom) probe of the multiway plan shape: how to compute
/// the candidate ids atom `atom` (an index into the plan's step list,
/// which doubles as the multiway atom list) offers for the variable
/// bound at this step. `bound_cols` are the atom's columns already fixed
/// when the step runs -- constants plus variables bound by earlier
/// steps; `var_cols` are the columns holding the step's variable
/// (usually one; repeated occurrences must agree row-locally). A probe
/// with no bound columns is `unconditional`: its candidate list is the
/// atom's sorted distinct column ids, computed once per run.
struct MultiwayProbe {
  std::size_t atom = 0;
  std::vector<int> var_cols;
  std::vector<int> bound_cols;  // strictly increasing
  // Parallel to bound_cols: constants interned (patched positions hold
  // kInvalidId until key_fill overwrites them from the u32 frame).
  std::vector<std::uint32_t> key_template_ids;
  std::vector<CompiledAtomStep::KeyFill> key_fill;
  bool unconditional = false;
  // The union of bound_cols and var_cols (strictly increasing), with its
  // own key template/fill plus the key positions that receive the
  // candidate id. The VM materializes only the smallest probe's
  // candidate list and membership-tests the rest through the index on
  // these columns -- the seek that makes the intersection worst-case
  // optimal instead of paying every probe's full posting size.
  std::vector<int> union_cols;
  std::vector<std::uint32_t> union_template_ids;
  std::vector<CompiledAtomStep::KeyFill> union_key_fill;
  std::vector<int> union_var_positions;
};

/// One variable of the multiway plan's fixed variable order: intersect
/// the candidate lists of every atom containing the variable, bind the
/// survivors into `slot`, recurse.
struct MultiwayStep {
  int slot = -1;
  std::vector<MultiwayProbe> probes;
};

/// A head or negated-literal argument: a constant, or a frame slot. A
/// negative slot marks a variable the positive body never binds; using it
/// throws, as Binding::at would on a match.
struct CompiledTerm {
  bool is_constant = false;
  Value value;
  int slot = -1;
  // Dictionary id of `value` (constants only), interned at compile time
  // so the VM instantiates heads and negation keys in id space.
  std::uint32_t value_id = 0;
};

/// Per-enumeration mutable state: the flat variable frame plus one
/// reusable key buffer per join depth. Constructing (or Reset-ing) a
/// frame is the only allocation a compiled enumeration performs; the
/// inner loop is allocation-free.
struct MatchFrame {
  MatchFrame() = default;
  explicit MatchFrame(const CompiledRule& plan) { Reset(plan); }
  void Reset(const CompiledRule& plan);

  /// Loop-invariant per-depth source state, resolved once per Execute
  /// instead of once per visit: the relation pointer (a hash lookup in
  /// Database), the depth's row range, whether the depth can match at
  /// all, and -- for indexed probes -- a direct view of the index,
  /// skipping the per-probe index-map find inside Relation::Lookup.
  struct DepthSource {
    const Relation* rel = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    bool dead = false;
    Relation::SingleIndexView single_index;
    Relation::MultiIndexView multi_index;
  };

  std::vector<Value> slots;
  std::vector<Tuple> keys;  // keys[d] belongs to join depth d
  std::vector<DepthSource> sources;
};

/// A rule body compiled to slot-addressed join schedules for one
/// (rule, delta position, use_old) variant, planned once and executed
/// many times. Rule plans are lowered to bytecode and run on the VM
/// (eval/bytecode); the depth-first Execute below serves the MatchAtoms
/// adapter and the rare rule plan Lower leaves empty. Immutable while
/// executing; Replan (and the cache's Get) may rebuild the schedules
/// between executions.
///
/// Thread safety: compiling and Replan-ing require exclusive access.
/// Derive/Apply are read-only on the plan and on the databases provided
/// EnsureIndexes ran since the last insert (the same frozen-snapshot
/// contract as Relation::Lookup; see docs/join_compilation.md), so one
/// plan can serve many worker threads concurrently.
class CompiledRule {
 public:
  CompiledRule() = default;

  /// Compiles the delta-pass variant of `rule` (see BuildDeltaPassAtoms).
  static CompiledRule Compile(const Rule& rule, std::size_t delta_pos,
                              bool use_old, const Database& full,
                              const DeltaRanges* delta);

  /// Compiles a bare atom list (the MatchAtoms adapter): no head, no
  /// negated literals.
  static CompiledRule CompileAtoms(std::vector<PlannedAtom> atoms,
                                   const Database& full,
                                   const DeltaRanges* delta);

  bool compiled() const { return compiled_; }

  /// True when the cached join order should be recomputed: an ablation
  /// knob changed, or some participating relation's cardinality moved by
  /// >= 4x since planning -- one step of the greedy planner's own
  /// selectivity granularity (cost /= 4 per bound column), below which a
  /// new plan could not change the order anyway.
  bool NeedsReplan(const Database& full, const DeltaRanges* delta) const;

  /// Recomputes the join order and all schedules against current sizes.
  void Replan(const Database& full, const DeltaRanges* delta);

  /// Pre-builds every index Derive can probe, making a subsequent
  /// Derive/Apply read-only on the relations (frozen-snapshot contract).
  void EnsureIndexes(const Database& full, const DeltaRanges* delta) const;

  /// Enumerates body matches and appends the instantiated head rows --
  /// one per match whose negated literals are absent from `full`,
  /// duplicates included -- to `out`. Every body atom reads a row range
  /// (ResolveAtomSource): the full relation, its old prefix, or its
  /// delta range. Only valid for plans compiled from a Rule.
  ///
  /// Runs the lowered program on the bytecode VM, which covers both plan
  /// shapes. Only a plan whose program is empty -- an empty body, or a
  /// head or negated variable the positive body never binds (which
  /// throws) -- runs the depth-first Execute instead.
  void Derive(const Database& full, const DeltaRanges* delta,
              const OldLimits* old_limits, DerivedRows* out,
              MatchStats* stats) const;

  /// Derive, then insert the rows into `out` (EmitDerived). Derivation
  /// finishes before the first insert, so `out` may alias `full`.
  /// Returns the number of facts new in `out`.
  std::size_t Apply(const Database& full, const DeltaRanges* delta,
                    const OldLimits* old_limits, Database* out,
                    MatchStats* stats) const;

  /// Enumerates every complete match of the left-deep schedule into
  /// `sink` (called with the frame; return false to stop early), with
  /// the same MatchStats bumps as the VM running the same schedule.
  template <typename Sink>
  void Execute(const Database& full, const DeltaRanges* delta,
               const OldLimits* old_limits, MatchFrame* frame,
               MatchStats* stats, Sink&& sink) const {
    if (steps_.empty()) {
      if (stats != nullptr) ++stats->substitutions;
      sink(*frame);
      return;
    }
    // Resolve each depth's relation, row range, and viability once: all
    // three are invariant for the whole enumeration (no insert happens
    // while matching), and resolving them per visit would cost a hash
    // lookup per parent row per depth. A dead depth still lets shallower
    // depths run -- and count.
    for (std::size_t d = 0; d < steps_.size(); ++d) {
      const CompiledAtomStep& step = steps_[d];
      const RowRange range = ResolveAtomSource(step.source, step.predicate,
                                               full, delta, old_limits);
      const Relation& rel = *range.rel;
      MatchFrame::DepthSource& ds = frame->sources[d];
      ds.rel = &rel;
      ds.begin = range.begin;
      ds.end = range.end;
      ds.dead = range.empty() || rel.arity() != step.arity;
      // Prepare index views for exactly the probes Step will issue (the
      // same condition EnsureIndexes pre-builds for): partially bound
      // indexed probes. Fully bound probes find their one candidate row
      // through the dedup table and need no view.
      if (!ds.dead && ProbesIndex(step)) {
        if (step.key_cols.size() == 1) {
          ds.single_index = rel.PrepareSingleIndex(step.key_cols[0]);
        } else {
          ds.multi_index = rel.PrepareIndex(step.key_cols);
        }
      }
    }
    Step(0, *frame, stats, sink);
  }

  /// Materializes the frame into a Binding (the MatchAtoms adapter).
  /// Every complete match binds the same variable set, so repeated calls
  /// overwrite in place and allocate only on the first match.
  void FillBinding(const MatchFrame& frame, Binding* binding) const {
    for (const auto& [var, slot] : var_slots_) {
      (*binding)[var] = frame.slots[static_cast<std::size_t>(slot)];
    }
  }

  int num_slots() const { return num_slots_; }
  std::size_t num_steps() const { return steps_.size(); }
  const std::vector<CompiledAtomStep>& steps() const { return steps_; }
  PredicateId head_predicate() const { return head_predicate_; }

  /// The plan shape BuildSchedules selected (see docs/multiway_joins.md):
  /// kMultiway when the body's join hypergraph is cyclic with estimated
  /// width >= 2, the multiway and index knobs are on, every
  /// participating relation is non-empty, and the plan qualifies for
  /// id-space execution (id_space_ok). Replan re-decides, so a >= 4x
  /// cardinality drift can flip the shape between rounds.
  PlanShape shape() const { return shape_; }
  const std::vector<MultiwayStep>& multiway_steps() const {
    return mw_steps_;
  }

  /// The plan lowered to register-based bytecode (empty when the plan
  /// does not qualify for id-space execution). Rebuilt by every
  /// BuildSchedules, so Replan keeps it in sync with the schedules.
  /// Derive executes it on the computed-goto VM in eval/bytecode; see
  /// docs/bytecode_vm.md.
  const bytecode::Program& bytecode_program() const { return bc_; }

  /// True if every negated literal is absent from `full` under the frame.
  bool NegationHolds(const Database& full, const MatchFrame& frame,
                     Tuple* scratch) const;

  Tuple InstantiateHeadFromFrame(const MatchFrame& frame) const;

 private:
  friend struct MatchFrame;
  friend bytecode::Program bytecode::Lower(const CompiledRule& plan);

  void BuildSchedules(const Database& full, const DeltaRanges* delta);

  /// True when `step`'s probe reads an index: partially bound atoms with
  /// the index knob on. Fully bound atoms test the dedup table instead.
  bool ProbesIndex(const CompiledAtomStep& step) const {
    return use_index_ && !step.key_cols.empty() &&
           static_cast<int>(step.key_cols.size()) != step.arity;
  }

  /// Builds the multiway variable order and per-step probe schedules
  /// (called by BuildSchedules after it selects PlanShape::kMultiway).
  /// `order` is the planned atom list steps_ was built from -- probe
  /// atom indexes refer to it -- and `slot_of` the left-deep slot
  /// assignment, reused so head and negation terms address the same
  /// frame under either shape.
  void BuildMultiwaySchedules(
      const std::vector<PlannedAtom>& order,
      const std::unordered_map<VariableId, int>& slot_of);

  static void FillTerms(const std::vector<CompiledTerm>& terms,
                        const MatchFrame& frame, Tuple* out) {
    out->clear();
    out->reserve(terms.size());
    for (const CompiledTerm& t : terms) {
      if (t.is_constant) {
        out->push_back(t.value);
      } else {
        if (t.slot < 0) throw std::out_of_range("unbound rule variable");
        out->push_back(frame.slots[static_cast<std::size_t>(t.slot)]);
      }
    }
  }

  template <typename Sink>
  bool Step(std::size_t depth, MatchFrame& frame, MatchStats* stats,
            Sink& sink) const {
    if (depth == steps_.size()) {
      if (stats != nullptr) ++stats->substitutions;
      return sink(frame);
    }
    const MatchFrame::DepthSource& ds = frame.sources[depth];
    if (ds.dead) {
      // Empty range or arity mismatch: no matches, and no counter bump.
      return true;
    }
    const CompiledAtomStep& step = steps_[depth];
    const Relation& rel = *ds.rel;
    if (stats != nullptr) ++stats->index_lookups;

    Tuple& key = frame.keys[depth];
    for (const CompiledAtomStep::KeyFill& kf : step.key_fill) {
      key[static_cast<std::size_t>(kf.key_index)] =
          frame.slots[static_cast<std::size_t>(kf.slot)];
    }

    if (use_index_ &&
        static_cast<int>(step.key_cols.size()) == step.arity) {
      // Fully bound: membership test -- the one row holding the key must
      // lie in the depth's range.
      if (stats != nullptr) ++stats->tuples_scanned;
      const std::uint32_t row_id = rel.FindRowId(key);
      if (row_id != Relation::kNoRow && row_id >= ds.begin &&
          row_id < ds.end) {
        return Step(depth + 1, frame, stats, sink);
      }
      return true;
    }

    // Reads row `i` straight from the id columns: the repeated-variable
    // checks compare ids row-locally (id_checks), and only the slots the
    // step writes are resolved to Values.
    const ValueDictionary& dict = ValueDictionary::Global();
    auto try_row = [&](std::size_t i) -> bool {
      for (const auto& [first, repeat] : step.id_checks) {
        if (rel.column(first)[i] != rel.column(repeat)[i]) {
          return true;  // repeated variable mismatch; keep enumerating
        }
      }
      for (const CompiledAtomStep::SlotRef& w : step.writes) {
        frame.slots[static_cast<std::size_t>(w.slot)] =
            dict.Resolve(rel.column(w.col)[i]);
      }
      return Step(depth + 1, frame, stats, sink);
    };

    if (step.key_cols.empty()) {
      for (std::size_t i = ds.begin; i < ds.end; ++i) {
        if (stats != nullptr) ++stats->tuples_scanned;
        if (!try_row(i)) return false;
      }
      return true;
    }

    if (!use_index_) {
      for (std::size_t i = ds.begin; i < ds.end; ++i) {
        if (stats != nullptr) ++stats->tuples_scanned;
        bool matches = true;
        for (std::size_t k = 0; k < step.key_cols.size(); ++k) {
          if (dict.Resolve(rel.column(step.key_cols[k])[i]) != key[k]) {
            matches = false;
            break;
          }
        }
        if (matches && !try_row(i)) return false;
      }
      return true;
    }

    const std::vector<std::uint32_t>& postings =
        step.key_cols.size() == 1 ? ds.single_index.Find(key[0])
                                  : ds.multi_index.Find(key);
    for (std::uint32_t row_id :
         Relation::RowsInRange(postings, ds.begin, ds.end)) {
      if (stats != nullptr) ++stats->tuples_scanned;
      if (!try_row(row_id)) return false;
    }
    return true;
  }

  bool compiled_ = false;
  bool has_rule_ = false;
  bool greedy_ = true;     // knob snapshot at plan time
  bool use_index_ = true;  // knob snapshot at plan time
  bool multiway_ = true;   // knob snapshot at plan time
  std::uint64_t hints_version_ = 0;  // knob snapshot at plan time
  PlanShape shape_ = PlanShape::kLeftDeep;
  // Structural (size-independent) multiway candidacy: >= 3 atoms, cyclic,
  // width >= 2, not hinted. Decides whether cardinality drift can flip
  // the shape and hence whether NeedsReplan watches sizes at all.
  bool mw_candidate_ = false;
  std::vector<MultiwayStep> mw_steps_;
  // True when every head/negated term is a constant or a bound slot, so
  // the plan can run in id space without the unbound-variable throw path
  // (Lower emits a program only then).
  bool id_space_ok_ = false;
  bytecode::Program bc_;  // rebuilt by BuildSchedules; empty if unlowered
  std::vector<PlannedAtom> atoms_;  // original order; Replan re-sorts
  std::vector<CompiledAtomStep> steps_;
  int num_slots_ = 0;
  std::vector<std::pair<VariableId, int>> var_slots_;
  PredicateId head_predicate_ = 0;
  Atom head_;
  std::vector<CompiledTerm> head_terms_;
  std::vector<Atom> negated_;
  std::vector<PredicateId> negated_preds_;
  std::vector<std::vector<CompiledTerm>> negated_terms_;
};

/// Owns one CompiledRule per (rule, delta position, use_old) variant,
/// compiled on first use and revalidated on every Get: a changed ablation
/// knob recompiles, a >= 4x cardinality drift replans.
///
/// Plans are keyed by rule CONTENT (Rule::operator==, Rule::Hash), not by
/// where the caller keeps the rule. A plan holds no database state, so it
/// outlives the fixpoint that compiled it, and a rule that lost an atom is
/// a different key that can never be served its predecessor's plan.
/// Engines keep one cache per fixpoint so join orders persist across
/// rounds; the optimizer loops (Fig. 2 minimization and the Section XI
/// optimizer) keep one per run, so a rule that a uniform-containment test
/// leaves unchanged is planned once for the run instead of once per test
/// (see "Plan lifetime" in docs/join_compilation.md).
///
/// A long-lived cache stays bounded through BeginFixpoint, which a
/// fixpoint driver calls with the rules it is about to evaluate: the plans
/// of every rule that neither this fixpoint nor the previous one
/// evaluates are evicted. The cache therefore holds the plans of the last
/// two programs evaluated -- in the optimizer loops, the current
/// program's plus one candidate's.
///
/// Not thread-safe: call Get only from single-threaded phases (the
/// parallel evaluator resolves all plans during snapshot preparation and
/// hands workers const pointers). Returned references stay valid until
/// the next BeginFixpoint; Get never invalidates other entries.
class CompiledRuleCache {
 public:
  /// The plan for the delta-pass variant of `rule` (see
  /// BuildDeltaPassAtoms), compiled or replanned against `full`/`delta`
  /// when needed. Each compile or replan bumps plans_compiled() and, when
  /// `stats` is non-null, `stats->plans_compiled`.
  const CompiledRule& Get(const Rule& rule, std::size_t delta_pos,
                          bool use_old, const Database& full,
                          const DeltaRanges* delta,
                          MatchStats* stats = nullptr);

  /// Starts a fixpoint that evaluates `rules`, evicting the plans of every
  /// rule neither it nor the previous fixpoint evaluates.
  void BeginFixpoint(const std::vector<Rule>& rules);

  /// Plans currently held (variants, over all rules).
  std::size_t size() const;

  /// Compiles plus replans over the cache's lifetime.
  std::uint64_t plans_compiled() const { return plans_compiled_; }

 private:
  struct RulePlans {
    std::uint64_t last_used = 0;  // the last fixpoint evaluating the rule
    // By (delta position, use_old); node-based, so Get never moves a plan.
    std::map<std::pair<std::size_t, bool>, CompiledRule> variants;
  };

  std::unordered_map<Rule, RulePlans, RuleHash> rules_;
  std::uint64_t fixpoint_ = 0;  // fixpoints begun
  std::uint64_t plans_compiled_ = 0;
};

}  // namespace datalog

#endif  // DATALOG_EVAL_COMPILED_RULE_H_
