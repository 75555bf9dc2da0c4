// The closed-loop driver shared by the eval and optimize workloads: one
// caller submits the next job only after the previous one completed.
#ifndef PERFBENCH_HARNESS_CLOSED_LOOP_H_
#define PERFBENCH_HARNESS_CLOSED_LOOP_H_

#include <functional>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct JobResult {
  double seconds = 0;  // wall time of the user-visible operation
  double work = 0;     // units of work it completed (facts, rules, ...)
};

/// Runs one job: times the operation itself, then checks its output
/// outside the timed region. Returns false (after recording the failure)
/// when the operation failed or its output is wrong.
using JobFn = std::function<bool(Tracer* tracer, std::uint64_t job,
                                 JobResult* out)>;

/// A class of jobs of similar size and shape. Each round of the rotation
/// runs `weight` jobs of every class, cycling through its inputs. The
/// gated job times are taken per input (`<class>#<index>`), so that a
/// class of inputs of different cost does not move them with its mixture.
struct JobClass {
  std::string name;
  int weight = 1;
  std::vector<JobFn> jobs;
};

struct ClosedLoopReport {
  std::string op_metric;    // e.g. "eval_s"
  std::string work_metric;  // e.g. "derived_facts_per_s"
  std::string work_unit;    // e.g. "1/s"
  double tail_cap_pct = 99;
};

/// Set-up is timed (see TimeSetups); the reference-building step is not.
/// `setup` returns the generated inputs; `build` turns them into job
/// classes with their expected outputs; `sweep` runs the per-layer sweeps
/// of a traced run.
template <typename Inputs>
void RunClosedLoop(Context* ctx, const ClosedLoopReport& report,
                   const std::function<Inputs()>& setup,
                   const std::function<std::vector<JobClass>(Inputs&)>& build,
                   const std::function<void(Inputs&, LayerTotals*)>& sweep);

// Non-template part, defined in closed_loop.cc.
void RunClosedLoopPhases(Context* ctx, const ClosedLoopReport& report,
                         const std::vector<JobClass>& classes,
                         const std::function<void(LayerTotals*)>& sweep);

template <typename Inputs>
void RunClosedLoop(Context* ctx, const ClosedLoopReport& report,
                   const std::function<Inputs()>& setup,
                   const std::function<std::vector<JobClass>(Inputs&)>& build,
                   const std::function<void(Inputs&, LayerTotals*)>& sweep) {
  Inputs inputs;
  TimeSetups([&] { inputs = Inputs{}; }, [&] { inputs = setup(); },
             ctx->results);
  std::vector<JobClass> classes = build(inputs);
  RunClosedLoopPhases(ctx, report, classes,
                      [&](LayerTotals* totals) { sweep(inputs, totals); });
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_CLOSED_LOOP_H_
