#include "core/uniform_containment.h"

#include "ast/validate.h"
#include "core/freeze.h"
#include "eval/compiled_rule.h"
#include "eval/seminaive.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace datalog {

Result<bool> UniformlyContainsRule(const Program& p, const Rule& r,
                                   CompiledRuleCache* cache) {
  DATALOG_RETURN_IF_ERROR(ValidatePositiveProgram(p));
  DATALOG_RETURN_IF_ERROR(ValidateRule(r, *p.symbols()));
  if (!r.IsPositive()) {
    return Status::InvalidArgument(
        "uniform containment requires positive rules");
  }

  TraceSpan span("containment/check");
  MetricsRegistry& metrics = MetricsRegistry::Get();
  if (metrics.enabled()) metrics.Add("containment.checks", {}, 1);
  DATALOG_ASSIGN_OR_RETURN(FrozenRule frozen, FreezeRule(r, p.symbols()));
  // Compute P(b theta). The fixpoint is finite: rule application introduces
  // no constants beyond those of b theta and of P's rules. `p` was
  // validated above, so the fixpoint runs without a second check.
  const EvalStats stats = EvaluateValidatedSemiNaive(p, &frozen.body, cache);
  bool contained = frozen.body.Contains(frozen.head_pred, frozen.head_tuple);
  if (span.active()) {
    span.Note("iterations", static_cast<std::uint64_t>(stats.iterations));
    span.Note("facts", stats.facts_derived);
    span.Note("contained", contained ? 1 : 0);
  }
  if (metrics.enabled() && contained) {
    metrics.Add("containment.holds", {}, 1);
  }
  return contained;
}

Result<std::optional<UniformContainmentWitness>>
RefuteUniformContainment(const Program& p, const Rule& r) {
  DATALOG_RETURN_IF_ERROR(ValidatePositiveProgram(p));
  DATALOG_RETURN_IF_ERROR(ValidateRule(r, *p.symbols()));
  if (!r.IsPositive()) {
    return Status::InvalidArgument(
        "uniform containment requires positive rules");
  }
  TraceSpan span("containment/refute");
  MetricsRegistry& metrics = MetricsRegistry::Get();
  if (metrics.enabled()) metrics.Add("containment.checks", {}, 1);
  DATALOG_ASSIGN_OR_RETURN(FrozenRule frozen, FreezeRule(r, p.symbols()));
  Database input(p.symbols());
  input.UnionWith(frozen.body);
  EvaluateValidatedSemiNaive(p, &frozen.body);
  if (frozen.body.Contains(frozen.head_pred, frozen.head_tuple)) {
    return std::optional<UniformContainmentWitness>();  // containment holds
  }
  return std::optional<UniformContainmentWitness>(UniformContainmentWitness{
      std::move(input), frozen.head_pred, frozen.head_tuple});
}

Result<bool> UniformlyContains(const Program& p1, const Program& p2,
                               CompiledRuleCache* cache) {
  // Every test evaluates p1: plan its rules once for all of them.
  CompiledRuleCache call_cache;
  if (cache == nullptr) cache = &call_cache;
  for (const Rule& rule : p2.rules()) {
    DATALOG_ASSIGN_OR_RETURN(bool contained,
                             UniformlyContainsRule(p1, rule, cache));
    if (!contained) return false;
  }
  return true;
}

Result<bool> UniformlyEquivalent(const Program& p1, const Program& p2) {
  DATALOG_ASSIGN_OR_RETURN(bool forward, UniformlyContains(p1, p2));
  if (!forward) return false;
  return UniformlyContains(p2, p1);
}

}  // namespace datalog
