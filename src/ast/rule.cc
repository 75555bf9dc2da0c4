#include "ast/rule.h"

#include "util/hash.h"

namespace datalog {

Rule Rule::Positive(Atom head, std::vector<Atom> body_atoms) {
  std::vector<Literal> body;
  body.reserve(body_atoms.size());
  for (Atom& a : body_atoms) {
    body.push_back(Literal{std::move(a), /*negated=*/false});
  }
  return Rule(std::move(head), std::move(body));
}

std::size_t Rule::Hash() const {
  std::size_t seed = head_.Hash();
  for (const Literal& lit : body_) {
    HashCombine(seed, lit.atom.Hash());
    HashCombine(seed, lit.negated ? 1 : 0);
  }
  return seed;
}

bool Rule::IsPositive() const {
  for (const Literal& lit : body_) {
    if (lit.negated) return false;
  }
  return true;
}

std::vector<Atom> Rule::PositiveBodyAtoms() const {
  std::vector<Atom> atoms;
  atoms.reserve(body_.size());
  for (const Literal& lit : body_) {
    if (!lit.negated) atoms.push_back(lit.atom);
  }
  return atoms;
}

std::set<VariableId> Rule::Variables() const {
  std::set<VariableId> vars = head_.Variables();
  for (const Literal& lit : body_) {
    std::set<VariableId> body_vars = lit.atom.Variables();
    vars.insert(body_vars.begin(), body_vars.end());
  }
  return vars;
}

std::set<VariableId> Rule::PositiveBodyVariables() const {
  std::set<VariableId> vars;
  for (const Literal& lit : body_) {
    if (lit.negated) continue;
    std::set<VariableId> atom_vars = lit.atom.Variables();
    vars.insert(atom_vars.begin(), atom_vars.end());
  }
  return vars;
}

bool Rule::IsSafe() const {
  std::set<VariableId> positive = PositiveBodyVariables();
  for (VariableId v : head_.Variables()) {
    if (!positive.contains(v)) return false;
  }
  for (const Literal& lit : body_) {
    if (!lit.negated) continue;
    for (VariableId v : lit.atom.Variables()) {
      if (!positive.contains(v)) return false;
    }
  }
  return true;
}

Rule Rule::WithoutBodyLiteral(std::size_t index) const {
  Rule copy = *this;
  copy.body_.erase(copy.body_.begin() + static_cast<std::ptrdiff_t>(index));
  return copy;
}

}  // namespace datalog
