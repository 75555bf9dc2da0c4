#include "ast/validate.h"

#include <set>
#include <string>

#include "ast/pretty_print.h"

namespace datalog {
namespace {

/// "rule #2 for predicate 'g'" (index omitted when unknown).
std::string RuleLabel(const Rule& rule, const SymbolTable& symbols,
                      std::size_t rule_index) {
  std::string label = "rule";
  if (rule_index != Diagnostic::kNoRule) {
    label += " #" + std::to_string(rule_index);
  }
  if (rule.head().predicate() >= 0) {
    label += " for predicate '" + symbols.PredicateName(rule.head().predicate()) +
             "'";
  }
  return label;
}

/// The span of argument `arg` of `atom`, preferring the exact token span
/// from the source map, then the atom span, then the whole-rule span.
SourceSpan ArgSpan(const AtomSourceSpans* atom_spans, const Atom& atom,
                   std::size_t arg, const Rule& rule) {
  if (atom_spans != nullptr && arg < atom_spans->arg_spans.size() &&
      atom_spans->arg_spans[arg].valid()) {
    return atom_spans->arg_spans[arg];
  }
  if (atom.span().valid()) return atom.span();
  return rule.span();
}

}  // namespace

std::vector<Diagnostic> SafetyDiagnostics(const Rule& rule,
                                          const SymbolTable& symbols,
                                          std::size_t rule_index,
                                          const RuleSourceSpans* spans) {
  std::vector<Diagnostic> out;
  // Formatting the rule costs more than checking it, and valid rules --
  // the common case, validated on every evaluation -- need neither
  // string: build both on the first diagnostic only.
  std::string label;
  std::string rule_text;
  auto describe = [&] {
    if (label.empty()) {
      label = RuleLabel(rule, symbols, rule_index);
      rule_text = ToString(rule, symbols);
    }
  };
  const AtomSourceSpans* head_spans = spans ? &spans->head : nullptr;

  if (rule.IsFact()) {
    const auto& args = rule.head().args();
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (!args[i].is_variable()) continue;
      describe();
      Diagnostic d;
      d.severity = Severity::kError;
      d.pass = "safety";
      d.code = "nonground-fact";
      d.message = "fact " + label + " must be ground: argument " +
                  std::to_string(i + 1) + " is the variable '" +
                  symbols.VariableName(args[i].var()) + "': " + rule_text;
      d.note = "replace '" + symbols.VariableName(args[i].var()) +
               "' with a constant, or give the rule a body that binds it";
      d.span = ArgSpan(head_spans, rule.head(), i, rule);
      d.rule_index = rule_index;
      out.push_back(std::move(d));
    }
    return out;
  }

  const std::set<VariableId> positive = rule.PositiveBodyVariables();

  // Head variables must be bound by a positive body literal.
  const auto& head_args = rule.head().args();
  std::set<VariableId> reported;
  for (std::size_t i = 0; i < head_args.size(); ++i) {
    if (!head_args[i].is_variable()) continue;
    VariableId v = head_args[i].var();
    if (positive.count(v) != 0 || !reported.insert(v).second) continue;
    describe();
    Diagnostic d;
    d.severity = Severity::kError;
    d.pass = "safety";
    d.code = "unsafe-rule";
    d.message = label + " is unsafe: head variable '" +
                symbols.VariableName(v) +
                "' does not appear in a positive body literal: " + rule_text;
    d.note = "bind '" + symbols.VariableName(v) +
             "' in a positive body atom (range restriction, Section II)";
    d.span = ArgSpan(head_spans, rule.head(), i, rule);
    d.rule_index = rule_index;
    out.push_back(std::move(d));
  }

  // Variables of negated literals must also be bound positively.
  const auto& body = rule.body();
  for (std::size_t j = 0; j < body.size(); ++j) {
    if (!body[j].negated) continue;
    const AtomSourceSpans* atom_spans =
        spans && j < spans->body.size() ? &spans->body[j] : nullptr;
    const auto& args = body[j].atom.args();
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (!args[i].is_variable()) continue;
      VariableId v = args[i].var();
      if (positive.count(v) != 0 || !reported.insert(v).second) continue;
      describe();
      Diagnostic d;
      d.severity = Severity::kError;
      d.pass = "safety";
      d.code = "unsafe-negation";
      d.message = label + " is unsafe: variable '" + symbols.VariableName(v) +
                  "' of negated literal '" + ToString(body[j], symbols) +
                  "' does not appear in a positive body literal: " + rule_text;
      d.note = "negation is evaluated as set difference, so every variable "
               "of a negated literal needs a positive binding";
      d.span = ArgSpan(atom_spans, body[j].atom, i, rule);
      d.rule_index = rule_index;
      out.push_back(std::move(d));
    }
  }
  return out;
}

Status ValidateRule(const Rule& rule, const SymbolTable& symbols,
                    std::size_t rule_index) {
  std::vector<Diagnostic> diagnostics =
      SafetyDiagnostics(rule, symbols, rule_index);
  if (diagnostics.empty()) return Status::OK();
  return diagnostics.front().ToStatus();
}

Status ValidateProgram(const Program& program) {
  const auto& rules = program.rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    DATALOG_RETURN_IF_ERROR(ValidateRule(rules[i], *program.symbols(), i));
  }
  return Status::OK();
}

Status ValidatePositiveProgram(const Program& program) {
  DATALOG_RETURN_IF_ERROR(ValidateProgram(program));
  const auto& rules = program.rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].IsPositive()) continue;
    Diagnostic d;
    d.severity = Severity::kError;
    d.pass = "validate";
    d.code = "negation-unsupported";
    d.message = "negation is not supported here (the optimization "
                "algorithms require positive programs): " +
                RuleLabel(rules[i], *program.symbols(), i) + ": " +
                ToString(rules[i], *program.symbols());
    d.span = rules[i].span();
    d.rule_index = i;
    return d.ToStatus();
  }
  return Status::OK();
}

}  // namespace datalog
