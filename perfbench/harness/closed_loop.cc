#include "closed_loop.h"

namespace perfbench {

namespace {

/// Runs the rotation until `seconds` have passed (at least one round),
/// with the host's speed sampled between jobs. `phase` gets each job's
/// time under its input, `by_class` under its class, `rates` its work per
/// second, `gaps` the harness time between one job and the next.
void TimedLoop(Context* ctx, const std::vector<JobClass>& classes,
               double seconds, Tracer* tracer, Phase* phase,
               std::map<std::string, std::vector<double>>* by_class,
               std::vector<double>* rates, std::vector<double>* gaps) {
  const Clock::time_point start = Clock::now();
  Clock::time_point last_end = start;
  std::uint64_t job_id = 1;
  for (std::size_t round = 0;; ++round) {
    for (const JobClass& cls : classes) {
      for (int w = 0; w < cls.weight; ++w) {
        const std::size_t index = (round * static_cast<std::size_t>(
                                                cls.weight) +
                                   static_cast<std::size_t>(w)) %
                                  cls.jobs.size();
        const JobFn& job = cls.jobs[index];
        const Clock::time_point begin = Clock::now();
        gaps->push_back(SecondsBetween(last_end, begin));
        JobResult result;
        ctx->results->Attempt();
        if (job(tracer, job_id++, &result)) {
          phase->Add(cls.name + "#" + std::to_string(index), Clock::now(),
                     result.seconds);
          (*by_class)[cls.name].push_back(result.seconds);
          if (result.seconds > 0) rates->push_back(result.work / result.seconds);
        }
        phase->host().MaybeSample();
        last_end = Clock::now();
      }
    }
    if (SecondsBetween(start, Clock::now()) >= seconds) break;
  }
  phase->host().MaybeSample();
}

}  // namespace

void RunClosedLoopPhases(Context* ctx, const ClosedLoopReport& report,
                         const std::vector<JobClass>& classes,
                         const std::function<void(LayerTotals*)>& sweep) {
  Results* r = ctx->results;
  // The reference outputs are built; from here on the peak RSS is the
  // engine's.
  ResetPeakRss();
  // Warm-up: every job once, untimed, so that lazy set-up (the global
  // value dictionary, allocator pools) is done before timing and every
  // input's counts are recorded by the determinism guard.
  for (const JobClass& cls : classes) {
    for (const JobFn& job : cls.jobs) {
      JobResult unused;
      r->Attempt();
      job(nullptr, 0, &unused);
    }
  }
  const double seconds = ctx->options.seconds;
  Phase untraced;
  std::map<std::string, std::vector<double>> by_class;
  std::vector<double> rates, gaps;
  TimedLoop(ctx, classes, ctx->options.trace ? seconds / 2 : seconds, nullptr,
            &untraced, &by_class, &rates, &gaps);
  if (!ctx->options.trace) {
    ReportJobTimes(untraced, r);
    // Wall times under the names of the workload's own metrics.
    r->SetSummary(report.op_metric,
                  Summarize(untraced.Times("", false), report.tail_cap_pct),
                  "s");
    for (const auto& [name, times] : by_class) {
      r->SetSummary(report.op_metric + "[" + name + "]",
                    Summarize(times, report.tail_cap_pct), "s");
    }
    r->Set(report.work_metric, Summarize(rates).trimmed_mean,
           report.work_unit);
    return;
  }
  Phase traced;
  LayerTotals totals;
  TimedLoop(ctx, classes, seconds / 2, ctx->tracer, &traced, &by_class,
            &rates, &totals.generator_lag_s);
  ReportTraceOverhead(traced, untraced, r);
  sweep(&totals);
  ReportLayers(totals, ctx);
}

}  // namespace perfbench
