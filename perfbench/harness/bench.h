// Shared declarations of the end-to-end benchmark harness: statistics,
// the result sheet, the determinism guard, the span recorder, the
// reference evaluator, and the per-layer sweeps every workload reuses.
//
// The harness drives the library only through the public functions a user
// of `datalog-opt` reaches (Parser, ParseDatabase, EvaluateStratified,
// MinimizeProgram, OptimizeUnderEquivalence, MaterializedView,
// DatalogServer/DatalogClient). Layer timings are taken from outside, by
// timing calls into each layer's public functions.
#ifndef PERFBENCH_HARNESS_BENCH_H_
#define PERFBENCH_HARNESS_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datalog.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- stats

/// Median, quartiles, coefficient of variation and tail of a sample. The
/// tail is the highest percentile of {50, 75, 90, 95, 99, 99.9}, capped at
/// `cap_pct`, that has at least ten samples beyond it; `tail_pct` records
/// which one it was (0 when the sample is too small for any).
///
/// `trimmed_mean` is the mean without the lowest and highest 10%;
/// `top_quartile_mean` is the mean of the slowest quarter of the samples.
struct Summary {
  std::size_t n = 0;
  double p50 = 0, q1 = 0, q3 = 0, mean = 0, cv = 0;
  double tail = 0, tail_pct = 0;
  double trimmed_mean = 0, top_quartile_mean = 0;
};

Summary Summarize(std::vector<double> values, double cap_pct = 99.9);
double GeoMean(const std::vector<double>& values);
/// Field selectors, for taking one statistic of every job class.
double Median(const Summary& s);
double TrimmedMean(const Summary& s);
double TopQuartileMean(const Summary& s);
/// Returns freed heap to the system and resets the process's peak
/// resident set to its current size, so that a later PeakRssMb covers
/// only what runs after this call.
void ResetPeakRss();
/// Peak resident set size of this process since the last ResetPeakRss,
/// in MB.
double PeakRssMb();

// --------------------------------------------------------------- results

/// The result sheet of one run: every metric by name with its unit, the
/// attempted/failed operation counts, and the distribution behind each
/// summarized timing (printed in the human report).
class Results {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Sets `name.p50` and `name.tail` and keeps the whole summary.
  void SetSummary(const std::string& name, const Summary& s,
                  const std::string& unit);
  void Attempt(std::uint64_t n = 1);
  /// Records one failed operation (a Status error, a server error or
  /// refusal, or a mismatch against the reference).
  void Fail(const std::string& what);
  /// Records a determinism-guard violation: the run is not correct.
  void Incorrect(const std::string& what);

  struct Metric {
    double value;
    std::string unit;
  };
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::map<std::string, Summary>& summaries() const {
    return summaries_;
  }
  double Get(const std::string& name) const;
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, Summary> summaries_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> messages_;
  std::mutex mu_;  // Fail/Attempt may be called from serve client threads
};

/// Determinism guard: the first time a key is seen its counts are
/// recorded; every later Check of the same key must repeat them exactly.
class CountGuard {
 public:
  void Check(const std::string& key, const std::vector<std::uint64_t>& counts,
             Results* results);
  /// Every recorded (key, counts) pair, printed in the report so that
  /// separate processes (traced vs untraced runs) can be compared.
  const std::map<std::string, std::vector<std::uint64_t>>& Counts() const {
    return seen_;
  }

 private:
  std::map<std::string, std::vector<std::uint64_t>> seen_;
  std::mutex mu_;
};

// ------------------------------------------------------------ host speed

/// The time of one run of the calibration kernel on the nominal host.
inline constexpr double kNominalKernelS = 1e-3;

/// Tracks the host's speed while a phase is measured. On a shared host
/// the speed moves by up to ~2x from one minute to the next, and a
/// thread's CPU time moves with its wall time: the cause is the
/// hardware's speed, not preemption. So the harness runs a fixed kernel
/// of its own alongside the measured work -- hash-table inserts and
/// probes over a 2 MB table, integer mixing, no library code -- and
/// scales each measured time by kNominalKernelS over the kernel's time at
/// that moment. A scaled time is the time the operation would take on a
/// host where the kernel takes kNominalKernelS; it moves with the
/// program, not with the host.
class HostSpeed {
 public:
  HostSpeed() = default;
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;
  ~HostSpeed() { StopBackground(); }

  /// Runs the kernel if kPeriodS have passed since it last ran.
  void MaybeSample();
  /// Runs the kernel every kPeriodS on a thread of its own until
  /// StopBackground: for phases whose work runs on other threads.
  void StartBackground();
  void StopBackground();
  /// The factor that scales a time measured around `t`: kNominalKernelS
  /// over the median of the five kernel times nearest to `t`.
  double ScaleAt(Clock::time_point t) const;
  /// Median kernel time over the phase.
  double MedianKernelS() const;

  static constexpr double kPeriodS = 0.02;

 private:
  void Sample();

  mutable std::mutex mu_;
  std::vector<std::pair<Clock::time_point, double>> samples_;  // time order
  std::thread background_;
  std::atomic<bool> stop_{false};
};

/// The timed operations of one measured phase, by class, with the host's
/// speed measured alongside them.
class Phase {
 public:
  void Add(const std::string& cls, Clock::time_point end, double seconds);
  /// Times of one class, or of every class pooled when `cls` is empty;
  /// scaled to the nominal host, or as measured.
  std::vector<double> Times(const std::string& cls, bool scaled) const;
  /// Geometric mean over the classes of one statistic of each class's
  /// times, scaled or as measured.
  double OverClasses(double (*statistic)(const Summary&), bool scaled) const;
  HostSpeed& host() { return host_; }
  const HostSpeed& host() const { return host_; }

 private:
  struct Sample {
    Clock::time_point end;
    double seconds;
  };
  std::map<std::string, std::vector<Sample>> per_class_;
  HostSpeed host_;
};

/// The job times of a phase, each a geometric mean over the phase's
/// classes (job inputs on the closed loops, request kinds on serve) of one
/// statistic of the class's scaled times: the gated `job_s.p50` (medians)
/// and `job_s.top_quartile_mean` (means of the slowest quarter), and
/// `job_s.mean` (10%-trimmed means). Per class, so that a changing mixture
/// of classes does not move them; from scaled times, so that the host does
/// not. Also the two gated figures from the times as measured
/// (`wall.job_s.*`) and the kernel's median time (`host.kernel_ms`).
void ReportJobTimes(const Phase& phase, Results* r);
/// `trace.overhead`: the traced phase's `job_s.p50` over the untraced
/// one's, minus 1.
void ReportTraceOverhead(const Phase& traced, const Phase& untraced,
                         Results* r);
/// Times set-up: runs `reset` (untimed; it discards the previous set-up)
/// and then `setup` (timed), at least ten times and for at least half a
/// second. Sets `setup_s`, the 10%-trimmed mean of the scaled times, and
/// `wall.setup_s`, the same of the times as measured.
void TimeSetups(const std::function<void()>& reset,
                const std::function<void()>& setup, Results* r);

// ---------------------------------------------------------------- tracing

/// In-memory span recorder. A span has a name ("layer.call"), start and
/// end times, the span that was open on the same thread when it began
/// (its parent) and the job id it belongs to. Disabled recorders record
/// nothing. Spans are written out once, when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  int Begin(const char* name, std::uint64_t job);
  void End(int id);
  /// Self time per layer (the span name up to its first '.'): each span's
  /// duration minus the time its child spans cover.
  std::map<std::string, double> SelfTimeByLayer() const;
  std::size_t NumSpans() const;
  /// Writes the spans as Chrome trace-event JSON.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0, end = -1;
    int parent = -1;
    std::uint64_t job = 0;
    std::uint64_t thread = 0;
  };
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null or disabled tracer makes it free.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t job)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ ? tracer_->Begin(name, job) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// -------------------------------------------------------------- reference

/// An order-independent digest of a fact set: the fact count and the sum
/// of a per-fact hash of (predicate name, integer arguments).
struct FactDigest {
  std::uint64_t count = 0;
  std::uint64_t checksum = 0;
  void Add(const std::string& pred, const std::int64_t* args, std::size_t n);
  bool operator==(const FactDigest& o) const {
    return count == o.count && checksum == o.checksum;
  }
  std::string ToString() const;
};

/// A deliberately simple evaluator that shares no code with the engine: it
/// parses program and facts text itself and runs a naive fixpoint with
/// nested-loop joins over per-column hash indexes. Integer constants only.
class ReferenceDb {
 public:
  /// Parses facts text ("p(1, 2). q(3).").
  bool AddFactsText(const std::string& text, std::string* error);
  /// Evaluates the positive program text to its least fixpoint.
  bool Evaluate(const std::string& program_text, std::string* error);
  /// Digest of the facts of the given predicates.
  FactDigest Digest(const std::vector<std::string>& preds) const;

 private:
  struct Rel;
  std::map<std::string, std::shared_ptr<Rel>> rels_;
  Rel& Mutable(const std::string& pred, std::size_t arity);
};

/// Reachability closure of a directed graph by BFS from every node: the
/// digest of path(x, y) for every y reachable from x in >= 1 step.
FactDigest ReferenceClosureDigest(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& edges);
/// The nodes reachable from `source` in >= 1 step, sorted.
std::vector<std::int64_t> ReferenceReachable(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& edges,
    std::int64_t source);
/// The binary facts of `pred` in facts text, in order.
std::vector<std::pair<std::int64_t, std::int64_t>> ParseBinaryFacts(
    const std::string& text, const std::string& pred);

// ----------------------------------------------------------------- layers

/// Linear transitive closure, the program of the TC jobs and of the served
/// view.
inline constexpr const char* kTcProgram =
    "path(x, y) :- edge(x, y).\n"
    "path(x, z) :- path(x, y), edge(y, z).\n";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
};

/// One evaluation input as the user hands it to `datalog-opt eval`, plus a
/// seeded batch of one-fact edits used to exercise incremental
/// maintenance: each (insert, then retract) pair returns to the baseline.
struct EvalInput {
  std::string id;
  std::string program_text;
  std::string facts_text;
  std::vector<std::string> idb_preds;  // predicates the digest covers
  std::vector<std::string> edit_facts;  // e.g. "edge(5, 9)."
  std::string query_text;               // a bound query, e.g. "path(1, x)"
};

/// Accumulated per-layer measurements of a traced run.
struct LayerTotals {
  // ast
  double parse_s = 0;
  double parse_bytes = 0;
  // eval: storage
  double load_s = 0;
  double insert_ns = 0, insert_facts = 0, dedup_ns = 0, dedup_facts = 0;
  // eval: fixpoint
  double fixpoint_s = 0;
  std::uint64_t iterations = 0, facts_derived = 0, substitutions = 0,
                index_lookups = 0, tuples_scanned = 0, rule_applications = 0;
  double write_s_estimate = 0;
  // eval: join
  double closure_round_s = 0;
  std::uint64_t multiway_bodies = 0;
  std::set<std::string> programs_seen;
  // core
  double minimize_s = 0, equivalence_s = 0;
  std::uint64_t containment_tests = 0, atoms_removed = 0, rules_removed = 0,
                chase_rounds = 0, equivalence_candidates = 0;
  std::vector<double> containment_s;
  // incr
  double create_s = 0;
  std::vector<double> apply_s;
  std::uint64_t commits = 0, incr_substitutions = 0, derived_changed = 0,
                overdeleted = 0;
  // server
  std::vector<double> ping_s, snapshot_query_s, snapshot_copy_s;
  std::uint64_t server_errors = 0, epochs_published = 0, live_epochs_max = 0;
  std::vector<double> generator_lag_s;
};

struct Context {
  const Options& options;
  Results* results;
  CountGuard* guard;
  Tracer* tracer;  // disabled in untraced phases
};

/// One `datalog-opt eval` job: ParseProgram, ParseGroundAtoms +
/// DatabaseFromAtoms (what ParseDatabase does), a copy of the EDB, and
/// EvaluateStratified -- the CLI's default single-threaded path.
struct EvalJobOutput {
  std::optional<datalog::Program> program;
  std::optional<datalog::Database> db;
  datalog::EvalStats stats;
  double parse_s = 0, load_s = 0, fixpoint_s = 0, total_s = 0;
};
bool RunEvalJob(const EvalInput& input, std::uint64_t job, Tracer* tracer,
                EvalJobOutput* out, Results* results);
/// Checks a job's fixpoint against the reference digest and its counts
/// against the determinism guard.
bool CheckEvalJob(const EvalInput& input, const EvalJobOutput& out,
                  const FactDigest& expected, Context* ctx);
/// Digest of the given predicates' facts in an engine database;
/// `all_ints` is cleared when a non-integer value is met.
FactDigest EngineDigest(const datalog::Database& db,
                        const std::vector<std::string>& preds,
                        bool* all_ints);

/// The eval layer on one input: parse, load, fixpoint, closure round,
/// storage replays. Checks the fixpoint against `expected`.
void SweepEval(const EvalInput& input, const FactDigest& expected,
               LayerTotals* totals, Context* ctx);
/// Fig. 2 + Section XI on one program, plus one timed containment call
/// per rule.
void SweepCore(const std::string& id, const std::string& program_text,
               LayerTotals* totals, Context* ctx);
/// MaterializedView::Create, the edit pairs applied one by one, and the
/// commit handler's snapshot copy. Returns the view (at its baseline).
std::unique_ptr<datalog::MaterializedView> SweepIncr(const EvalInput& input,
                                                     LayerTotals* totals,
                                                     Context* ctx);
/// QuerySnapshot on a snapshot with prebuilt indexes, in process.
void SweepSnapshotQueries(const datalog::Database& snapshot,
                          const std::string& query, int repetitions,
                          LayerTotals* totals, Context* ctx);
/// Idle round trips over an open connection.
void MeasurePings(datalog::DatalogClient* client, int n, LayerTotals* totals,
                  Context* ctx);
/// A DatalogServer (2 workers, the CLI default) hosting the input, pinged
/// at idle.
void SweepServer(const EvalInput& input, LayerTotals* totals, Context* ctx);
void RecordServerStats(const datalog::ServerStats& stats, LayerTotals* totals);
/// A socket path inside the output directory, unique to this process.
std::string SocketPath(const Options& options, const std::string& tag);
/// Writes every per-layer metric from `totals`, plus self times per layer.
void ReportLayers(const LayerTotals& totals, Context* ctx);

// -------------------------------------------------------------- workloads

void RunEvalRecursive(Context* ctx);
void RunEvalCyclic(Context* ctx);
void RunOptimize(Context* ctx);
void RunServe(Context* ctx);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_BENCH_H_
