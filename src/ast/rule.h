#ifndef DATALOG_AST_RULE_H_
#define DATALOG_AST_RULE_H_

#include <set>
#include <vector>

#include "ast/atom.h"

namespace datalog {

/// A Horn-clause rule `head :- body` (Section II). A rule with an empty
/// body is a fact and must have a ground head (the paper requires every
/// head variable to appear in the body).
class Rule {
 public:
  Rule() = default;
  Rule(Atom head, std::vector<Literal> body)
      : head_(std::move(head)), body_(std::move(body)) {}

  /// Convenience constructor for the common positive case.
  static Rule Positive(Atom head, std::vector<Atom> body_atoms);

  const Atom& head() const { return head_; }
  Atom& mutable_head() { return head_; }
  const std::vector<Literal>& body() const { return body_; }
  std::vector<Literal>& mutable_body() { return body_; }

  /// Where this rule came from in the source text (invalid for rules built
  /// programmatically). Ignored by equality.
  const SourceSpan& span() const { return span_; }
  void set_span(const SourceSpan& span) { span_ = span; }

  /// True if the body is empty (the rule is a ground fact).
  bool IsFact() const { return body_.empty(); }

  /// True if no body literal is negated.
  bool IsPositive() const;

  /// The positive body atoms, in order. Most of the optimization machinery
  /// operates on positive rules and uses this view.
  std::vector<Atom> PositiveBodyAtoms() const;

  /// All variables appearing anywhere in the rule.
  std::set<VariableId> Variables() const;

  /// Variables appearing in positive body literals.
  std::set<VariableId> PositiveBodyVariables() const;

  /// True if every head variable and every variable of a negated literal
  /// also appears in a positive body literal (the paper's safety
  /// assumption from Section II, extended to negation in the usual way).
  bool IsSafe() const;

  /// Returns a copy of this rule with the body literal at `index` removed.
  Rule WithoutBodyLiteral(std::size_t index) const;

  friend bool operator==(const Rule& a, const Rule& b) {
    return a.head_ == b.head_ && a.body_ == b.body_;
  }
  friend bool operator!=(const Rule& a, const Rule& b) { return !(a == b); }

  /// Hash of the head and body literals, consistent with operator== (the
  /// span is ignored).
  std::size_t Hash() const;

 private:
  Atom head_;
  std::vector<Literal> body_;
  SourceSpan span_;
};

struct RuleHash {
  std::size_t operator()(const Rule& r) const { return r.Hash(); }
};

}  // namespace datalog

#endif  // DATALOG_AST_RULE_H_
