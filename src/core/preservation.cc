#include "core/preservation.h"

#include <optional>

#include "ast/unify.h"
#include "ast/validate.h"
#include "core/freeze.h"
#include "core/tgd.h"
#include "eval/compiled_rule.h"
#include "eval/naive.h"

namespace datalog {
namespace {

/// Whether the procedure runs in full Fig. 3 mode or in the Section X
/// variant for preliminary databases.
enum class Mode {
  kPreservation,   // d is assumed to satisfy T; trivial rules available
  kPreliminary,    // d is a plain EDB; initialization rules only; no chase
};

/// The choice for one left-hand-side atom: a rule index into the candidate
/// rule list, or kInD meaning the atom is assumed to be in d directly
/// (the trivial rule Q(x..) :- Q(x..) of Section IX).
constexpr int kInD = -1;

/// A canonical database together with the (now ground) instantiation of
/// the tgd's universally quantified variables.
struct CanonicalCase {
  Database d;
  Binding lhs_binding;
};

/// Grounds `atom` by resolving through `subst` and freezing any remaining
/// variables ("the rest of the variables are instantiated to new distinct
/// constants", Section IX).
Tuple GroundAtom(const Atom& atom, const Substitution& subst,
                 FrozenConstantPool* pool) {
  Tuple tuple;
  tuple.reserve(atom.args().size());
  for (const Term& t : atom.args()) {
    Term resolved = subst.Resolve(t);
    tuple.push_back(resolved.is_constant() ? resolved.value()
                                           : pool->For(resolved.var()));
  }
  return tuple;
}

/// Builds the canonical database for one combination: each left-hand-side
/// atom of `tgd` is either assumed in d (choice kInD) or unified with the
/// head of its chosen candidate rule, whose body then goes into d.
/// Returns nullopt when some unification fails, in which case the
/// combination cannot produce the left-hand side and is vacuously safe.
std::optional<CanonicalCase> BuildCase(
    const Tgd& tgd, const std::vector<int>& combination,
    const std::vector<std::vector<const Rule*>>& candidates,
    const std::shared_ptr<SymbolTable>& symbols) {
  Substitution subst;
  std::vector<Atom> d_atoms;
  for (std::size_t i = 0; i < tgd.lhs().size(); ++i) {
    const Atom& lhs_atom = tgd.lhs()[i];
    int choice = combination[i];
    if (choice == kInD) {
      d_atoms.push_back(lhs_atom);
      continue;
    }
    Rule renamed = RenameApart(*candidates[i][static_cast<std::size_t>(choice)],
                               symbols.get());
    if (!UnifyAtoms(lhs_atom, renamed.head(), &subst)) {
      return std::nullopt;
    }
    for (const Literal& lit : renamed.body()) {
      d_atoms.push_back(lit.atom);
    }
  }

  FrozenConstantPool pool;
  CanonicalCase result{Database(symbols), {}};
  for (const Atom& atom : d_atoms) {
    result.d.AddFact(atom.predicate(), GroundAtom(atom, subst, &pool));
  }
  for (VariableId v : tgd.UniversalVariables()) {
    Term resolved = subst.Resolve(Term::Variable(v));
    result.lhs_binding.emplace(
        v, resolved.is_constant() ? resolved.value() : pool.For(resolved.var()));
  }
  return result;
}

/// Checks one canonical case: interleaves chasing d with T (preservation
/// mode only) with recomputing <d, P^n(d)> and testing whether the
/// instantiated left-hand side still exhibits a violation (the interleaved
/// loop described after Fig. 3). `cache` holds `pn_program`'s plans.
Result<ProofOutcome> CheckCase(CanonicalCase kase, const Program& pn_program,
                               const Tgd& tau, const std::vector<Tgd>& all_tgds,
                               Mode mode, const ChaseBudget& budget,
                               CompiledRuleCache* cache) {
  NullPool nulls;
  for (std::size_t round = 0;; ++round) {
    // <d, P^n(d)>.
    Database with_pn(kase.d.symbols());
    with_pn.UnionWith(kase.d);
    DATALOG_RETURN_IF_ERROR(
        ApplyOnce(pn_program, kase.d, &with_pn, /*stats=*/nullptr, cache)
            .status());

    if (LhsInstantiationSatisfied(with_pn, tau, kase.lhs_binding)) {
      return ProofOutcome::kProved;  // no violation exhibited for this case
    }
    if (mode == Mode::kPreliminary) {
      // Nothing is ever added to d in this mode: the violation is real,
      // and d (all-extensional) is a genuine counterexample EDB.
      return ProofOutcome::kDisproved;
    }
    if (round >= budget.max_rounds ||
        static_cast<std::size_t>(nulls.allocated()) > budget.max_nulls ||
        kase.d.NumFacts() > budget.max_facts) {
      return ProofOutcome::kUnknown;
    }
    // d must satisfy T: apply one fair round of every tgd to d.
    std::size_t added = 0;
    for (const Tgd& tgd : all_tgds) {
      added += ApplyTgdRound(tgd, &kase.d, &nulls);
    }
    if (added == 0) {
      // d satisfies T, and <d, P^n(d)> violates tau: counterexample.
      return ProofOutcome::kDisproved;
    }
  }
}

/// `rule_pool` is the set of rules a left-hand-side atom may be unified
/// with, and the rules P^n applies: the whole program in preservation
/// mode, the initialization rules (or a bounded unfolding) in
/// preliminary-DB mode.
Result<ProofOutcome> RunProcedure(const Program& program,
                                  std::vector<Rule> rule_pool,
                                  const std::vector<Tgd>& tgds, Mode mode,
                                  const ChaseBudget& budget) {
  DATALOG_RETURN_IF_ERROR(ValidatePositiveProgram(program));
  const std::shared_ptr<SymbolTable>& symbols = program.symbols();
  std::set<PredicateId> intentional = program.IntentionalPredicates();

  Program pn_program(symbols);
  for (const Rule& rule : rule_pool) pn_program.AddRule(rule);
  // P^n is fixed for the whole procedure: plan its rules once, not once
  // per round of every canonical case.
  CompiledRuleCache pn_cache;

  bool any_unknown = false;
  for (const Tgd& tau : tgds) {
    // Candidate productions per left-hand-side atom.
    std::vector<std::vector<const Rule*>> candidates(tau.lhs().size());
    std::vector<bool> allow_in_d(tau.lhs().size(), false);
    for (std::size_t i = 0; i < tau.lhs().size(); ++i) {
      PredicateId pred = tau.lhs()[i].predicate();
      if (intentional.contains(pred)) {
        for (const Rule& rule : rule_pool) {
          if (rule.head().predicate() == pred) {
            candidates[i].push_back(&rule);
          }
        }
        // The trivial rule Q(x..) :- Q(x..) puts the atom in d; it exists
        // only in preservation mode (an input EDB has no intentional
        // facts, Section X).
        allow_in_d[i] = (mode == Mode::kPreservation);
      } else {
        allow_in_d[i] = true;  // extensional atoms are assumed in d
      }
    }

    // Odometer over the combinations. A position with no candidate rule
    // and no in-d option makes the left-hand side unproducible: vacuously
    // no violation from this tgd.
    std::vector<int> combo(tau.lhs().size());
    bool impossible = false;
    for (std::size_t i = 0; i < combo.size(); ++i) {
      combo[i] = allow_in_d[i] ? kInD : 0;
      if (!allow_in_d[i] && candidates[i].empty()) impossible = true;
    }
    if (impossible) continue;

    while (true) {
      std::optional<CanonicalCase> kase =
          BuildCase(tau, combo, candidates, symbols);
      if (kase.has_value()) {
        DATALOG_ASSIGN_OR_RETURN(
            ProofOutcome outcome,
            CheckCase(std::move(*kase), pn_program, tau, tgds, mode, budget,
                      &pn_cache));
        if (outcome == ProofOutcome::kDisproved) return outcome;
        if (outcome == ProofOutcome::kUnknown) any_unknown = true;
      }
      // Advance the odometer.
      std::size_t pos = 0;
      for (; pos < combo.size(); ++pos) {
        int next = combo[pos] + 1;
        int limit = static_cast<int>(candidates[pos].size());
        if (next < limit) {
          combo[pos] = next;
          break;
        }
        combo[pos] = allow_in_d[pos] ? kInD : 0;
      }
      if (pos == combo.size()) break;  // odometer wrapped: done
    }
  }
  return any_unknown ? ProofOutcome::kUnknown : ProofOutcome::kProved;
}

}  // namespace

std::vector<Rule> InitializationRules(const Program& program) {
  std::set<PredicateId> intentional = program.IntentionalPredicates();
  std::vector<Rule> init;
  for (const Rule& rule : program.rules()) {
    bool all_extensional = true;
    for (const Literal& lit : rule.body()) {
      if (intentional.contains(lit.atom.predicate())) {
        all_extensional = false;
        break;
      }
    }
    if (all_extensional) init.push_back(rule);
  }
  return init;
}

Result<ProofOutcome> PreservesNonRecursively(const Program& program,
                                             const std::vector<Tgd>& tgds,
                                             const ChaseBudget& budget) {
  return RunProcedure(program, program.rules(), tgds, Mode::kPreservation,
                      budget);
}

Result<ProofOutcome> PreliminaryDbSatisfies(const Program& program,
                                            const std::vector<Tgd>& tgds,
                                            const ChaseBudget& budget) {
  return RunProcedure(program, InitializationRules(program), tgds,
                      Mode::kPreliminary, budget);
}

Result<ProofOutcome> PreliminaryDbSatisfiesUnfolded(
    const Program& program, const std::vector<Tgd>& tgds,
    const ExpandLimits& limits, const ChaseBudget& budget) {
  return RunProcedure(program, ExpandRules(program, limits), tgds,
                      Mode::kPreliminary, budget);
}

}  // namespace datalog
