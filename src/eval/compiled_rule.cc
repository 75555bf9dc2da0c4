#include "eval/compiled_rule.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.h"
#include "util/interning.h"

namespace datalog {

void MatchFrame::Reset(const CompiledRule& plan) {
  slots.assign(static_cast<std::size_t>(plan.num_slots()), Value());
  keys.resize(plan.num_steps());
  sources.assign(plan.num_steps(), DepthSource());
  for (std::size_t d = 0; d < plan.num_steps(); ++d) {
    // Constants are baked into the buffer once; per-probe key_fill
    // patches only the bound-variable positions.
    keys[d] = plan.steps()[d].key_template;
  }
}

CompiledRule CompiledRule::Compile(const Rule& rule, std::size_t delta_pos,
                                   bool use_old, const Database& full,
                                   const DeltaRanges* delta) {
  CompiledRule plan;
  plan.atoms_ = BuildDeltaPassAtoms(rule, delta_pos, use_old);
  plan.has_rule_ = true;
  plan.head_ = rule.head();
  plan.head_predicate_ = rule.head().predicate();
  for (const Literal& lit : rule.body()) {
    if (!lit.negated) continue;
    plan.negated_.push_back(lit.atom);
    plan.negated_preds_.push_back(lit.atom.predicate());
  }
  plan.BuildSchedules(full, delta);
  return plan;
}

CompiledRule CompiledRule::CompileAtoms(std::vector<PlannedAtom> atoms,
                                        const Database& full,
                                        const DeltaRanges* delta) {
  CompiledRule plan;
  plan.atoms_ = std::move(atoms);
  plan.BuildSchedules(full, delta);
  return plan;
}

void CompiledRule::BuildSchedules(const Database& full,
                                  const DeltaRanges* delta) {
  greedy_ = GreedyJoinOrderingEnabled();
  use_index_ = IndexLookupsEnabled();
  multiway_ = MultiwayJoinsEnabled();
  hints_version_ = JoinOrderHintsVersion();
  steps_.clear();
  var_slots_.clear();
  num_slots_ = 0;
  shape_ = PlanShape::kLeftDeep;
  mw_candidate_ = false;
  mw_steps_.clear();

  const std::vector<PlannedAtom> order = PlanJoinOrder(full, delta, atoms_);

  std::unordered_map<VariableId, int> slot_of;
  auto slot_for = [&](VariableId v) {
    auto [it, inserted] = slot_of.emplace(v, num_slots_);
    if (inserted) {
      var_slots_.emplace_back(v, num_slots_);
      ++num_slots_;
    }
    return it->second;
  };

  std::unordered_set<VariableId> bound_before;  // by atoms 0..d-1
  steps_.reserve(order.size());
  for (const PlannedAtom& planned : order) {
    const Atom& atom = planned.atom;
    CompiledAtomStep step;
    step.predicate = atom.predicate();
    step.arity = atom.arity();
    step.source = planned.source;
    step.planned_size =
        PlanningSize(planned.source, atom.predicate(), full, delta);

    // Each free variable's first column in this atom.
    std::unordered_map<VariableId, int> written_here;
    for (int i = 0; i < atom.arity(); ++i) {
      const Term& t = atom.args()[static_cast<std::size_t>(i)];
      if (t.is_constant()) {
        step.key_cols.push_back(i);
        step.key_template.push_back(t.value());
        step.key_template_ids.push_back(
            ValueDictionary::Global().Intern(t.value()));
        continue;
      }
      const VariableId v = t.var();
      if (bound_before.contains(v)) {
        step.key_cols.push_back(i);
        step.key_template.push_back(Value());
        step.key_template_ids.push_back(ValueDictionary::kInvalidId);
        step.key_fill.push_back(CompiledAtomStep::KeyFill{
            static_cast<int>(step.key_template.size()) - 1, slot_for(v)});
      } else if (auto [it, first] = written_here.emplace(v, i); first) {
        step.writes.push_back(CompiledAtomStep::SlotRef{i, slot_for(v)});
      } else {
        // A repeat of a variable this same step writes (that is what
        // made it a check instead of a key position), so the check is
        // row-local: the two raw columns of the candidate row must hold
        // the same id.
        step.id_checks.emplace_back(it->second, i);
      }
    }
    for (const Term& t : atom.args()) {
      if (t.is_variable()) bound_before.insert(t.var());
    }
    steps_.push_back(std::move(step));
  }

  auto compile_terms = [&](const Atom& atom) {
    std::vector<CompiledTerm> terms;
    terms.reserve(atom.args().size());
    for (const Term& t : atom.args()) {
      CompiledTerm ct;
      if (t.is_constant()) {
        ct.is_constant = true;
        ct.value = t.value();
        ct.value_id = ValueDictionary::Global().Intern(t.value());
      } else {
        auto it = slot_of.find(t.var());
        // A variable the positive body never binds keeps slot -1; using
        // it throws at match time, like Binding::at.
        ct.slot = it == slot_of.end() ? -1 : it->second;
      }
      terms.push_back(ct);
    }
    return terms;
  };
  if (has_rule_) {
    head_terms_ = compile_terms(head_);
    negated_terms_.clear();
    negated_terms_.reserve(negated_.size());
    for (const Atom& atom : negated_) {
      negated_terms_.push_back(compile_terms(atom));
    }
  }
  // The VM instantiates heads and negation keys straight from the u32
  // frame, so it has no way to reproduce the unbound-variable throw;
  // rules with a slot the positive body never binds stay on the
  // depth-first path.
  auto all_bound = [](const std::vector<CompiledTerm>& terms) {
    for (const CompiledTerm& t : terms) {
      if (!t.is_constant && t.slot < 0) return false;
    }
    return true;
  };
  id_space_ok_ = has_rule_ && all_bound(head_terms_);
  for (const std::vector<CompiledTerm>& terms : negated_terms_) {
    if (!all_bound(terms)) id_space_ok_ = false;
  }

  // Plan-shape selection (docs/multiway_joins.md): cyclic bodies of
  // estimated width >= 2 get the generic multiway-intersection shape --
  // when the multiway and index knobs are on, the plan qualifies for
  // id-space execution (id_space_ok_), no explicit join-order hint covers
  // the body (a hint is a request for a specific left-deep order), and
  // every participating relation is non-empty. The size condition is
  // what lets the >= 4x drift replanning flip the shape between rounds:
  // a plan built while some relation was still empty stays left-deep
  // and upgrades once the relation fills in.
  if (id_space_ok_ && MultiwayEligibleBody(atoms_)) {
    const JoinOrderHints* hints = InstalledJoinOrderHints();
    const bool hinted =
        hints != nullptr && hints->order.contains(BodyFingerprint(atoms_));
    // Structural candidacy is size-independent; it decides whether drift
    // can ever flip this plan's shape (NeedsReplan consults it).
    mw_candidate_ = !hinted;
    if (multiway_ && use_index_ && !hinted) {
      bool all_live = !steps_.empty();
      for (const CompiledAtomStep& step : steps_) {
        if (step.planned_size == 0 || step.arity == 0) all_live = false;
      }
      if (all_live) {
        shape_ = PlanShape::kMultiway;
        BuildMultiwaySchedules(order, slot_of);
      }
    }
  }
  // Lower the finished schedules to bytecode (empty when the plan does
  // not qualify for id-space execution). Replan lands here too, so the
  // program always mirrors the current schedules.
  bc_ = bytecode::Lower(*this);
  compiled_ = true;
}

void CompiledRule::BuildMultiwaySchedules(
    const std::vector<PlannedAtom>& order,
    const std::unordered_map<VariableId, int>& slot_of) {
  // Gather, per variable (addressed by its frame slot), the atoms that
  // mention it and the smallest participating relation.
  struct VarInfo {
    std::vector<std::size_t> atoms;
    std::size_t min_size = std::numeric_limits<std::size_t>::max();
  };
  std::vector<VarInfo> info(static_cast<std::size_t>(num_slots_));
  for (std::size_t d = 0; d < order.size(); ++d) {
    for (const Term& t : order[d].atom.args()) {
      if (!t.is_variable()) continue;
      VarInfo& vi = info[static_cast<std::size_t>(slot_of.at(t.var()))];
      if (vi.atoms.empty() || vi.atoms.back() != d) vi.atoms.push_back(d);
      vi.min_size = std::min(vi.min_size, steps_[d].planned_size);
    }
  }

  // Fixed variable order: most-constrained first (mentioned by the most
  // atoms), then smallest participating relation, then slot index (the
  // left-deep first-occurrence order) -- fully deterministic given the
  // planned sizes. A triangle body orders its three variables x, y, z.
  std::vector<int> var_order(static_cast<std::size_t>(num_slots_));
  for (int s = 0; s < num_slots_; ++s) {
    var_order[static_cast<std::size_t>(s)] = s;
  }
  std::sort(var_order.begin(), var_order.end(), [&](int a, int b) {
    const VarInfo& va = info[static_cast<std::size_t>(a)];
    const VarInfo& vb = info[static_cast<std::size_t>(b)];
    if (va.atoms.size() != vb.atoms.size()) {
      return va.atoms.size() > vb.atoms.size();
    }
    if (va.min_size != vb.min_size) return va.min_size < vb.min_size;
    return a < b;
  });

  std::unordered_set<int> bound_slots;
  for (int s : var_order) {
    const VarInfo& vi = info[static_cast<std::size_t>(s)];
    MultiwayStep step;
    step.slot = s;
    for (std::size_t d : vi.atoms) {
      const Atom& atom = order[d].atom;
      MultiwayProbe probe;
      probe.atom = d;
      for (int i = 0; i < atom.arity(); ++i) {
        const Term& t = atom.args()[static_cast<std::size_t>(i)];
        if (t.is_constant()) {
          const std::uint32_t id = ValueDictionary::Global().Intern(t.value());
          probe.bound_cols.push_back(i);
          probe.key_template_ids.push_back(id);
          probe.union_cols.push_back(i);
          probe.union_template_ids.push_back(id);
          continue;
        }
        const int ts = slot_of.at(t.var());
        if (ts == s) {
          probe.var_cols.push_back(i);
          probe.union_cols.push_back(i);
          probe.union_template_ids.push_back(ValueDictionary::kInvalidId);
          probe.union_var_positions.push_back(
              static_cast<int>(probe.union_template_ids.size()) - 1);
        } else if (bound_slots.contains(ts)) {
          probe.bound_cols.push_back(i);
          probe.key_template_ids.push_back(ValueDictionary::kInvalidId);
          probe.key_fill.push_back(CompiledAtomStep::KeyFill{
              static_cast<int>(probe.key_template_ids.size()) - 1, ts});
          probe.union_cols.push_back(i);
          probe.union_template_ids.push_back(ValueDictionary::kInvalidId);
          probe.union_key_fill.push_back(CompiledAtomStep::KeyFill{
              static_cast<int>(probe.union_template_ids.size()) - 1, ts});
        }
        // Variables bound by later steps do not constrain this probe.
      }
      probe.unconditional = probe.bound_cols.empty();
      step.probes.push_back(std::move(probe));
    }
    bound_slots.insert(s);
    mw_steps_.push_back(std::move(step));
  }
}

bool CompiledRule::NeedsReplan(const Database& full,
                               const DeltaRanges* delta) const {
  if (greedy_ != GreedyJoinOrderingEnabled() ||
      use_index_ != IndexLookupsEnabled() ||
      multiway_ != MultiwayJoinsEnabled() ||
      hints_version_ != JoinOrderHintsVersion()) {
    return true;
  }
  // With greedy ordering off, sizes matter only if drift could flip the
  // plan's shape: shape selection requires every relation non-empty, so
  // on a structurally multiway-candidate body a fill-in upgrades
  // left-deep to multiway (and an EraseAll downgrades it back). Bodies
  // that can never go multiway (too few atoms, acyclic, hinted) keep
  // the fixed-order never-replan behavior.
  if (!greedy_ && !(multiway_ && use_index_ && mw_candidate_)) return false;
  for (const CompiledAtomStep& step : steps_) {
    // Clamp to 1 so empty relations compare on the same log scale
    // instead of always forcing a replan.
    const std::size_t now = std::max<std::size_t>(
        PlanningSize(step.source, step.predicate, full, delta), 1);
    const std::size_t then = std::max<std::size_t>(step.planned_size, 1);
    if (now >= 4 * then || then >= 4 * now) return true;
  }
  return false;
}

void CompiledRule::Replan(const Database& full, const DeltaRanges* delta) {
  BuildSchedules(full, delta);
}

namespace {

/// The rows EnsureIndexes prepares for: the step's range as Apply will
/// resolve it, except that the old snapshot (whose limit EnsureIndexes is
/// not told) counts as the whole relation.
RowRange IndexedRange(const CompiledAtomStep& step, const Database& full,
                      const DeltaRanges* delta) {
  const AtomSource source =
      step.source == AtomSource::kOld ? AtomSource::kFull : step.source;
  return ResolveAtomSource(source, step.predicate, full, delta, nullptr);
}

/// True when a multiway root over `range` can use the relation's cached
/// sorted distinct column keys: the range is the whole relation and not
/// an old snapshot (whose limit EnsureIndexes cannot see, so it could not
/// pre-build the cache for the parallel fan-out).
bool RootFromSortedKeys(AtomSource source, const RowRange& range) {
  return source != AtomSource::kOld && range.begin == 0 &&
         range.end == range.rel->size();
}

}  // namespace

void CompiledRule::EnsureIndexes(const Database& full,
                                 const DeltaRanges* delta) const {
  if (!use_index_) return;  // knob off: every probe scans
  if (shape_ == PlanShape::kLeftDeep) {
    for (const CompiledAtomStep& step : steps_) {
      const RowRange range = IndexedRange(step, full, delta);
      if (range.empty() || range.rel->arity() != step.arity) continue;
      // Partially bound probes use the full relation's index, restricted
      // to the step's range; fully bound probes go through the dedup
      // table and unbound ones are range scans, so neither needs an
      // index.
      if (ProbesIndex(step)) range.rel->EnsureIndex(step.key_cols);
    }
    return;
  }
  // Multiway probes and root candidate lists: a multiway program never
  // runs the left-deep probes, so these are all it reads.
  for (const MultiwayStep& mw_step : mw_steps_) {
    for (const MultiwayProbe& probe : mw_step.probes) {
      const CompiledAtomStep& step = steps_[probe.atom];
      const RowRange range = IndexedRange(step, full, delta);
      const Relation& rel = *range.rel;
      if (range.empty() || rel.arity() != step.arity) continue;
      if (probe.unconditional) {
        if (probe.var_cols.size() == 1 &&
            RootFromSortedKeys(step.source, range)) {
          rel.EnsureSortedKeys(probe.var_cols[0]);
        }
        // Other roots are built by scanning the range at run time:
        // reads only, no index to pre-build.
      } else {
        rel.EnsureIndex(probe.bound_cols);
        // Membership seeks for probes that are not the iteration source
        // go through the index on bound-plus-variable columns.
        rel.EnsureIndex(probe.union_cols);
      }
    }
  }
}

bool CompiledRule::NegationHolds(const Database& full, const MatchFrame& frame,
                                 Tuple* scratch) const {
  for (std::size_t i = 0; i < negated_terms_.size(); ++i) {
    FillTerms(negated_terms_[i], frame, scratch);
    if (full.Contains(negated_preds_[i], *scratch)) return false;
  }
  return true;
}

Tuple CompiledRule::InstantiateHeadFromFrame(const MatchFrame& frame) const {
  Tuple tuple;
  FillTerms(head_terms_, frame, &tuple);
  return tuple;
}

void CompiledRule::Derive(const Database& full, const DeltaRanges* delta,
                          const OldLimits* old_limits, DerivedRows* out,
                          MatchStats* stats) const {
  // The lowered program, run by the computed-goto VM, covers both plan
  // shapes.
  if (!bc_.empty()) {
    if (MetricsRegistry::Get().enabled()) {
      bytecode::DispatchCounts counts;
      bytecode::Run(bc_, full, delta, old_limits, out, stats, &counts);
      bytecode::PublishDispatchCounts(counts);
    } else {
      bytecode::Run(bc_, full, delta, old_limits, out, stats);
    }
    return;
  }
  // Empty bodies and rules with an unbound head or negated variable:
  // the depth-first path, which resolves the frame through Values.
  MatchFrame frame(*this);
  Tuple scratch;
  std::vector<std::uint32_t> ids;
  ValueDictionary& dict = ValueDictionary::Global();
  Execute(full, delta, old_limits, &frame, stats, [&](const MatchFrame& f) {
    if (!NegationHolds(full, f, &scratch)) return true;
    dict.InternRow(InstantiateHeadFromFrame(f), &ids);
    out->ids.insert(out->ids.end(), ids.begin(), ids.end());
    ++out->count;
    return true;
  });
}

std::size_t CompiledRule::Apply(const Database& full, const DeltaRanges* delta,
                                const OldLimits* old_limits, Database* out,
                                MatchStats* stats) const {
  DerivedRows derived;
  Derive(full, delta, old_limits, &derived, stats);
  return EmitDerived(derived, head_predicate_, out, stats);
}

const CompiledRule& CompiledRuleCache::Get(const Rule& rule,
                                           std::size_t delta_pos,
                                           bool use_old, const Database& full,
                                           const DeltaRanges* delta,
                                           MatchStats* stats) {
  auto it = rules_.find(rule);
  if (it == rules_.end()) it = rules_.emplace(rule, RulePlans{}).first;
  it->second.last_used = fixpoint_;
  CompiledRule& plan = it->second.variants[{delta_pos, use_old}];
  if (!plan.compiled()) {
    plan = CompiledRule::Compile(rule, delta_pos, use_old, full, delta);
  } else if (plan.NeedsReplan(full, delta)) {
    plan.Replan(full, delta);
  } else {
    return plan;
  }
  ++plans_compiled_;
  if (stats != nullptr) ++stats->plans_compiled;
  return plan;
}

void CompiledRuleCache::BeginFixpoint(const std::vector<Rule>& rules) {
  ++fixpoint_;
  for (const Rule& rule : rules) {
    auto it = rules_.find(rule);
    if (it != rules_.end()) it->second.last_used = fixpoint_;
  }
  std::erase_if(rules_, [this](const auto& entry) {
    return entry.second.last_used + 1 < fixpoint_;
  });
}

std::size_t CompiledRuleCache::size() const {
  std::size_t plans = 0;
  for (const auto& [rule, entry] : rules_) plans += entry.variants.size();
  return plans;
}

}  // namespace datalog
