#ifndef DATALOG_TESTS_ORACLE_H_
#define DATALOG_TESTS_ORACLE_H_

// A deliberately simple reference evaluator for the differential tests:
// the stratified naive fixpoint, with every rule body matched by plain
// nested loops over std::set<Tuple>. It uses no Relation index, no join
// plan and no ValueDictionary -- only the AST and Values -- so an engine
// configuration that agrees with it agrees with the semantics of
// Section III, not merely with a sibling executor.

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <vector>

#include "ast/program.h"
#include "ast/rule.h"
#include "eval/database.h"

namespace datalog {
namespace oracle {

/// The facts of a database: per predicate, its non-empty set of tuples.
using Facts = std::map<PredicateId, std::set<Tuple>>;

/// A variable assignment built up while matching a body.
using Assignment = std::map<VariableId, Value>;

/// The facts stored in `db` (read row by row; empty relations omitted).
inline Facts FactsOf(const Database& db) {
  Facts facts;
  for (PredicateId pred : db.NonEmptyPredicates()) {
    for (const Tuple& row : db.relation(pred).rows()) facts[pred].insert(row);
  }
  return facts;
}

/// Extends `a` so that `atom` instantiates to `row`; false when a
/// constant or an already bound variable disagrees (`a` may then hold
/// some of the atom's bindings, which the caller erases).
inline bool Unify(const Atom& atom, const Tuple& row, Assignment* a) {
  if (row.size() != atom.args().size()) return false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const Term& t = atom.args()[i];
    if (t.is_constant()) {
      if (t.value() != row[i]) return false;
      continue;
    }
    auto [it, inserted] = a->emplace(t.var(), row[i]);
    if (!inserted && it->second != row[i]) return false;
  }
  return true;
}

/// `atom` under `a`; every variable of `atom` must be bound.
inline Tuple Instantiate(const Atom& atom, const Assignment& a) {
  Tuple tuple;
  for (const Term& t : atom.args()) {
    tuple.push_back(t.is_constant() ? t.value() : a.at(t.var()));
  }
  return tuple;
}

/// The rows each atom of a body reads, one set per atom: a relation's
/// facts, or a part of them (a semi-naive delta, an old snapshot).
using AtomRows = std::vector<const std::set<Tuple>*>;

/// Each atom of `atoms` reading all of its predicate's facts.
inline AtomRows FullRows(const std::vector<Atom>& atoms, const Facts& facts) {
  static const std::set<Tuple>* const kNone = new std::set<Tuple>();
  AtomRows rows;
  for (const Atom& atom : atoms) {
    auto it = facts.find(atom.predicate());
    rows.push_back(it == facts.end() ? kNone : &it->second);
  }
  return rows;
}

/// Calls `fn` with every assignment that instantiates atoms[i..] to rows
/// of rows[i..], extending `*a` (restored on return): nested loops in
/// textual order.
template <typename Fn>
void ForEachMatch(const std::vector<Atom>& atoms, const AtomRows& rows,
                  std::size_t i, Assignment* a, Fn& fn) {
  if (i == atoms.size()) {
    fn(*a);
    return;
  }
  // The variables this atom binds are the same for every row.
  std::vector<VariableId> fresh;
  for (const Term& t : atoms[i].args()) {
    if (t.is_variable() && !a->contains(t.var()) &&
        std::find(fresh.begin(), fresh.end(), t.var()) == fresh.end()) {
      fresh.push_back(t.var());
    }
  }
  for (const Tuple& row : *rows[i]) {
    if (Unify(atoms[i], row, a)) ForEachMatch(atoms, rows, i + 1, a, fn);
    for (VariableId v : fresh) a->erase(v);
  }
}

/// Every assignment of the body atoms `atoms` over `facts`.
inline std::vector<Assignment> Matches(const std::vector<Atom>& atoms,
                                       const Facts& facts) {
  std::vector<Assignment> out;
  auto collect = [&out](const Assignment& a) { out.push_back(a); };
  Assignment a;
  ForEachMatch(atoms, FullRows(atoms, facts), 0, &a, collect);
  return out;
}

/// The positive body atoms of `rule`, in body order.
inline std::vector<Atom> PositiveAtoms(const Rule& rule) {
  std::vector<Atom> atoms;
  for (const Literal& lit : rule.body()) {
    if (!lit.negated) atoms.push_back(lit.atom);
  }
  return atoms;
}

/// One application of `rule` with its positive atoms reading `rows` (see
/// PositiveAtoms): the head instance of every match whose negated
/// literals are all absent from `facts`, duplicates included (one per
/// substitution, Section III).
inline std::vector<Tuple> Apply(const Rule& rule, const AtomRows& rows,
                                const Facts& facts) {
  std::vector<Tuple> heads;
  auto emit = [&](const Assignment& a) {
    for (const Literal& lit : rule.body()) {
      if (!lit.negated) continue;
      auto it = facts.find(lit.atom.predicate());
      if (it != facts.end() && it->second.contains(Instantiate(lit.atom, a))) {
        return;
      }
    }
    heads.push_back(Instantiate(rule.head(), a));
  };
  Assignment a;
  ForEachMatch(PositiveAtoms(rule), rows, 0, &a, emit);
  return heads;
}

/// One application of `rule` to all of `facts`.
inline std::vector<Tuple> Apply(const Rule& rule, const Facts& facts) {
  return Apply(rule, FullRows(PositiveAtoms(rule), facts), facts);
}

/// The stratified naive fixpoint of `program` over `edb`. A predicate's
/// stratum is the least number at least that of every predicate its
/// rules read, plus one through negation; each stratum is evaluated by
/// applying all of its rules to all facts until nothing new appears.
inline Facts Evaluate(const Program& program, const Facts& edb) {
  std::map<PredicateId, int> stratum;
  const int num_rules = static_cast<int>(program.rules().size());
  for (bool changed = true; changed;) {
    changed = false;
    for (const Rule& rule : program.rules()) {
      int& head = stratum[rule.head().predicate()];
      for (const Literal& lit : rule.body()) {
        const int need = stratum[lit.atom.predicate()] + (lit.negated ? 1 : 0);
        // A stratified program needs at most one stratum per rule.
        if (need > head && need <= num_rules) {
          head = need;
          changed = true;
        }
      }
    }
  }
  int max_stratum = 0;
  for (const auto& [pred, s] : stratum) max_stratum = std::max(max_stratum, s);

  Facts facts = edb;
  for (int s = 0; s <= max_stratum; ++s) {
    for (bool grew = true; grew;) {
      grew = false;
      for (const Rule& rule : program.rules()) {
        if (stratum[rule.head().predicate()] != s) continue;
        for (Tuple& head : Apply(rule, facts)) {
          grew |= facts[rule.head().predicate()].insert(std::move(head)).second;
        }
      }
    }
  }
  return facts;
}

/// The fixpoint of `program` over the facts of `edb`.
inline Facts Evaluate(const Program& program, const Database& edb) {
  return Evaluate(program, FactsOf(edb));
}

}  // namespace oracle
}  // namespace datalog

#endif  // DATALOG_TESTS_ORACLE_H_
