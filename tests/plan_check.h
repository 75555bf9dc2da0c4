#ifndef DATALOG_TESTS_PLAN_CHECK_H_
#define DATALOG_TESTS_PLAN_CHECK_H_

// Checks compiled rule plans one (rule, delta position) variant at a time
// against the oracle (tests/oracle.h), and checks that every plan with a
// bytecode program derives through the VM: one run per Derive, counted
// by the VM's kHalt dispatch tally, and never through the depth-first
// Execute, which would derive the rows a second time.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ast/pretty_print.h"
#include "eval/compiled_rule.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "util/interning.h"

namespace datalog {
namespace testing {

/// VM runs so far in this process: every run ends at its program's one
/// kHalt (tallied while the metrics registry is enabled).
inline std::uint64_t VmRuns() {
  return MetricsRegistry::Get().Value("bytecode.dispatch", {{"op", "halt"}});
}

/// What ExpectPlansMatchOracle saw.
struct PlanCheckCounts {
  std::size_t plans = 0;     // variants derived
  std::size_t on_vm = 0;     // ... with a bytecode program
  std::size_t multiway = 0;  // ... of the multiway shape
};

/// Derives every variant of every rule of `rules` over `db` -- the full
/// join, and for each positive body position p the semi-naive pass with
/// atom p reading the newer half of its relation (the delta), earlier
/// atoms the older half and later atoms all of it -- and expects each to
/// derive exactly the oracle's head rows and substitution count, through
/// the VM exactly once when the plan has a bytecode program and never
/// otherwise.
inline PlanCheckCounts ExpectPlansMatchOracle(const std::vector<Rule>& rules,
                                              const Database& db,
                                              const std::string& label) {
  MetricsRegistry& metrics = MetricsRegistry::Get();
  const bool metrics_were_on = metrics.enabled();
  metrics.Enable();

  const oracle::Facts facts = oracle::FactsOf(db);
  OldLimits half;
  std::map<PredicateId, std::set<Tuple>> older, newer;
  for (PredicateId pred : db.NonEmptyPredicates()) {
    const Relation::Rows view = db.relation(pred).rows();
    const std::vector<Tuple> rows(view.begin(), view.end());
    const std::size_t limit = rows.size() / 2;
    half[pred] = limit;
    older[pred].insert(rows.begin(), rows.begin() + limit);
    newer[pred].insert(rows.begin() + limit, rows.end());
  }
  const DeltaRanges delta = DeltaRanges::Since(db, half);
  static const std::set<Tuple> kNone;
  auto part = [](const std::map<PredicateId, std::set<Tuple>>& parts,
                 PredicateId pred) {
    auto it = parts.find(pred);
    return it == parts.end() ? &kNone : &it->second;
  };

  constexpr std::size_t kNoDelta = std::numeric_limits<std::size_t>::max();
  ValueDictionary& dict = ValueDictionary::Global();
  PlanCheckCounts counts;
  for (const Rule& rule : rules) {
    std::vector<std::size_t> positions = {kNoDelta};
    for (std::size_t i = 0; i < rule.body().size(); ++i) {
      if (!rule.body()[i].negated) positions.push_back(i);
    }
    for (std::size_t pos : positions) {
      const bool semi_naive = pos != kNoDelta;
      const std::string where =
          label + " rule " + ToString(rule, *db.symbols()) +
          (semi_naive ? " delta at " + std::to_string(pos) : " full");
      oracle::AtomRows rows;
      for (std::size_t i = 0; i < rule.body().size(); ++i) {
        const Literal& lit = rule.body()[i];
        if (lit.negated) continue;
        const PredicateId pred = lit.atom.predicate();
        if (!semi_naive || i > pos) {
          rows.push_back(part(facts, pred));
        } else {
          rows.push_back(i == pos ? part(newer, pred) : part(older, pred));
        }
      }
      std::vector<Tuple> expected = oracle::Apply(rule, rows, facts);
      std::sort(expected.begin(), expected.end());
      std::size_t expected_matches = 0;
      auto count = [&](const oracle::Assignment&) { ++expected_matches; };
      oracle::Assignment none;
      oracle::ForEachMatch(oracle::PositiveAtoms(rule), rows, 0, &none,
                           count);

      const CompiledRule plan = CompiledRule::Compile(
          rule, pos, semi_naive, db, semi_naive ? &delta : nullptr);
      DerivedRows out;
      MatchStats stats;
      const std::uint64_t runs_before = VmRuns();
      plan.Derive(db, semi_naive ? &delta : nullptr,
                  semi_naive ? &half : nullptr, &out, &stats);
      const bool lowered = !plan.bytecode_program().empty();
      EXPECT_EQ(VmRuns() - runs_before, lowered ? 1u : 0u) << where;

      const std::size_t arity = static_cast<std::size_t>(rule.head().arity());
      std::vector<Tuple> derived(out.count);
      for (std::size_t r = 0; r < out.count; ++r) {
        for (std::size_t c = 0; c < arity; ++c) {
          derived[r].push_back(dict.Resolve(out.ids[r * arity + c]));
        }
      }
      std::sort(derived.begin(), derived.end());
      EXPECT_EQ(derived, expected) << where;
      EXPECT_EQ(stats.substitutions, expected_matches) << where;

      ++counts.plans;
      if (lowered) ++counts.on_vm;
      if (plan.shape() == PlanShape::kMultiway) ++counts.multiway;
    }
  }
  if (!metrics_were_on) metrics.Disable();
  return counts;
}

}  // namespace testing
}  // namespace datalog

#endif  // DATALOG_TESTS_PLAN_CHECK_H_
