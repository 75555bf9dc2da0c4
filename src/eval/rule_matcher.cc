#include "eval/rule_matcher.h"

#include <algorithm>
#include <limits>

#include "eval/compiled_rule.h"
#include "util/interning.h"

namespace datalog {

namespace {
bool greedy_join_ordering_enabled = true;
bool index_lookups_enabled = true;
bool multiway_joins_enabled = true;
const JoinOrderHints* join_order_hints = nullptr;
std::uint64_t join_order_hints_version = 0;
}  // namespace

void SetGreedyJoinOrdering(bool enabled) {
  greedy_join_ordering_enabled = enabled;
}
bool GreedyJoinOrderingEnabled() { return greedy_join_ordering_enabled; }
void SetIndexLookups(bool enabled) { index_lookups_enabled = enabled; }
bool IndexLookupsEnabled() { return index_lookups_enabled; }
void SetMultiwayJoins(bool enabled) { multiway_joins_enabled = enabled; }
bool MultiwayJoinsEnabled() { return multiway_joins_enabled; }

void SetJoinOrderHints(const JoinOrderHints* hints) {
  join_order_hints = hints;
  ++join_order_hints_version;
}
const JoinOrderHints* InstalledJoinOrderHints() { return join_order_hints; }
std::uint64_t JoinOrderHintsVersion() { return join_order_hints_version; }

std::uint64_t BodyFingerprint(const std::vector<PlannedAtom>& atoms) {
  std::size_t seed = 0xda7a106u;
  for (const PlannedAtom& planned : atoms) {
    HashCombine(seed, std::hash<int>{}(planned.atom.predicate()));
  }
  return seed;
}

DeltaRanges DeltaRanges::Since(const Database& db, const OldLimits& marks) {
  DeltaRanges delta;
  for (PredicateId pred : db.NonEmptyPredicates()) {
    const Relation& rel = db.relation(pred);
    auto it = marks.find(pred);
    delta.Set(pred, rel, it == marks.end() ? 0 : it->second, rel.size());
  }
  return delta;
}

void DeltaRanges::Set(PredicateId pred, const Relation& rel,
                      std::size_t begin, std::size_t end) {
  if (begin >= end) {
    ranges_.erase(pred);
    return;
  }
  ranges_[pred] = RowRange{&rel, begin, end};
}

RowRange ResolveAtomSource(AtomSource source, PredicateId pred,
                           const Database& full, const DeltaRanges* delta,
                           const OldLimits* old_limits) {
  if (source == AtomSource::kDelta) {
    RowRange range = delta == nullptr ? RowRange{} : delta->Find(pred);
    if (range.rel == nullptr) range = RowRange{&full.relation(pred), 0, 0};
    return range;
  }
  const Relation& rel = full.relation(pred);
  std::size_t end = rel.size();
  if (source == AtomSource::kOld) {
    std::size_t limit = 0;
    if (old_limits != nullptr) {
      auto it = old_limits->find(pred);
      if (it != old_limits->end()) limit = it->second;
    }
    end = std::min(end, limit);
  }
  return RowRange{&rel, 0, end};
}

std::size_t PlanningSize(AtomSource source, PredicateId pred,
                         const Database& full, const DeltaRanges* delta) {
  if (source == AtomSource::kDelta && delta != nullptr) {
    return delta->Find(pred).size();
  }
  return full.relation(pred).size();
}

std::size_t EmitDerived(const DerivedRows& rows, PredicateId head,
                        Database* out, MatchStats* stats) {
  if (stats != nullptr) stats->dedup_probes += rows.count;
  if (rows.count == 0) return 0;
  return out->MutableRelation(head).InsertIdRows(rows.ids, rows.count);
}

namespace {

/// Enumerates the (rule, delta position) pass and appends the derived
/// head rows to `out`, through the cached plan when a cache is given.
void DeriveImpl(const Rule& rule, const Database& full,
                const DeltaRanges* delta,
                std::size_t delta_pos,  // or npos
                DerivedRows* out, MatchStats* stats,
                const OldLimits* old_limits, CompiledRuleCache* cache) {
  const bool use_old = old_limits != nullptr;
  if (cache != nullptr) {
    const CompiledRule& plan =
        cache->Get(rule, delta_pos, use_old, full, delta, stats);
    plan.Derive(full, delta, old_limits, out, stats);
    return;
  }
  CompiledRule plan =
      CompiledRule::Compile(rule, delta_pos, use_old, full, delta);
  plan.Derive(full, delta, old_limits, out, stats);
}

std::size_t ApplyRuleImpl(const Rule& rule, const Database& full,
                          const DeltaRanges* delta,
                          std::size_t delta_pos,  // or npos
                          Database* out, MatchStats* stats,
                          const OldLimits* old_limits,
                          CompiledRuleCache* cache) {
  // Derived rows are buffered and inserted only after the enumeration
  // finishes: `out` may alias `full`, and inserting while the matcher is
  // iterating rows/indexes of the same relation would invalidate them.
  DerivedRows derived;
  DeriveImpl(rule, full, delta, delta_pos, &derived, stats, old_limits, cache);
  return EmitDerived(derived, rule.head().predicate(), out, stats);
}

}  // namespace

void MatchAtoms(const Database& full, const DeltaRanges* delta,
                const std::vector<PlannedAtom>& atoms,
                const std::function<bool(const Binding&)>& callback,
                MatchStats* stats) {
  // Thin adapter over the compiled path: the enumeration runs on the flat
  // frame and a Binding is materialized only per complete match
  // (overwritten in place, so buckets are allocated once).
  const CompiledRule plan = CompiledRule::CompileAtoms(atoms, full, delta);
  MatchFrame frame(plan);
  Binding binding;
  plan.Execute(full, delta, /*old_limits=*/nullptr, &frame, stats,
               [&](const MatchFrame& f) {
                 plan.FillBinding(f, &binding);
                 return callback(binding);
               });
}

std::vector<PlannedAtom> BuildDeltaPassAtoms(const Rule& rule,
                                             std::size_t delta_pos,
                                             bool use_old) {
  std::vector<PlannedAtom> atoms;
  for (std::size_t i = 0; i < rule.body().size(); ++i) {
    const Literal& lit = rule.body()[i];
    if (lit.negated) continue;
    AtomSource source;
    if (i == delta_pos) {
      source = AtomSource::kDelta;
    } else if (i < delta_pos && use_old) {
      source = AtomSource::kOld;
    } else {
      source = AtomSource::kFull;
    }
    atoms.push_back(PlannedAtom{lit.atom, source});
  }
  return atoms;
}

/// Greedy join order: repeatedly pick the atom with the cheapest
/// estimated probe given the variables bound so far (more bound columns
/// and smaller relations first).
std::vector<PlannedAtom> PlanJoinOrder(const Database& full,
                                       const DeltaRanges* delta,
                                       const std::vector<PlannedAtom>& atoms) {
  // An installed hint overrides the greedy planner when it is a valid
  // permutation of the body; anything malformed falls through, so hints
  // affect join order only, never results.
  if (join_order_hints != nullptr && !atoms.empty()) {
    auto it = join_order_hints->order.find(BodyFingerprint(atoms));
    if (it != join_order_hints->order.end() &&
        it->second.size() == atoms.size()) {
      std::vector<bool> seen(atoms.size(), false);
      bool valid = true;
      for (std::size_t idx : it->second) {
        if (idx >= atoms.size() || seen[idx]) {
          valid = false;
          break;
        }
        seen[idx] = true;
      }
      if (valid) {
        std::vector<PlannedAtom> order;
        order.reserve(atoms.size());
        for (std::size_t idx : it->second) order.push_back(atoms[idx]);
        return order;
      }
    }
  }
  if (!GreedyJoinOrderingEnabled()) return atoms;
  std::vector<PlannedAtom> order;
  std::vector<bool> used(atoms.size(), false);
  std::vector<bool> bound_vars;  // indexed by variable id, grown on demand
  auto is_bound = [&bound_vars](VariableId v) {
    return static_cast<std::size_t>(v) < bound_vars.size() &&
           bound_vars[static_cast<std::size_t>(v)];
  };
  auto mark_bound = [&bound_vars](VariableId v) {
    if (static_cast<std::size_t>(v) >= bound_vars.size()) {
      bound_vars.resize(static_cast<std::size_t>(v) + 1, false);
    }
    bound_vars[static_cast<std::size_t>(v)] = true;
  };

  for (std::size_t step = 0; step < atoms.size(); ++step) {
    double best_cost = std::numeric_limits<double>::infinity();
    std::size_t best = atoms.size();
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      if (used[i]) continue;
      const Atom& atom = atoms[i].atom;
      int bound = 0;
      for (const Term& t : atom.args()) {
        if (t.is_constant() || (t.is_variable() && is_bound(t.var()))) {
          ++bound;
        }
      }
      double rel_size = static_cast<double>(
          PlanningSize(atoms[i].source, atom.predicate(), full, delta));
      double cost = rel_size;
      for (int b = 0; b < bound; ++b) cost /= 4.0;  // crude selectivity
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    used[best] = true;
    order.push_back(atoms[best]);
    for (const Term& t : atoms[best].atom.args()) {
      if (t.is_variable()) mark_bound(t.var());
    }
  }
  return order;
}

Tuple InstantiateHead(const Atom& atom, const Binding& binding) {
  Tuple tuple;
  tuple.reserve(atom.args().size());
  for (const Term& t : atom.args()) {
    if (t.is_constant()) {
      tuple.push_back(t.value());
    } else {
      tuple.push_back(binding.at(t.var()));
    }
  }
  return tuple;
}

std::size_t ApplyRule(const Rule& rule, const Database& full, Database* out,
                      MatchStats* stats, CompiledRuleCache* cache) {
  return ApplyRuleImpl(rule, full, /*delta=*/nullptr,
                       /*delta_pos=*/std::numeric_limits<std::size_t>::max(),
                       out, stats, /*old_limits=*/nullptr, cache);
}

std::size_t ApplyRuleWithDelta(const Rule& rule, const Database& full,
                               const DeltaRanges& delta, std::size_t delta_pos,
                               Database* out, MatchStats* stats,
                               const OldLimits* old_limits,
                               CompiledRuleCache* cache) {
  return ApplyRuleImpl(rule, full, &delta, delta_pos, out, stats, old_limits,
                       cache);
}

}  // namespace datalog
