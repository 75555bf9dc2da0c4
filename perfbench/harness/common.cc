// Statistics, host-speed scaling, the result sheet, the determinism guard
// and the span recorder.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

/// Linear-interpolated percentile of sorted values (p in [0, 100]).
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

Summary Summarize(std::vector<double> values, double cap_pct) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = Percentile(values, 50);
  s.q1 = Percentile(values, 25);
  s.q3 = Percentile(values, 75);
  double sum = 0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  double var = 0;
  for (double v : values) var += (v - s.mean) * (v - s.mean);
  var /= static_cast<double>(values.size());
  s.cv = s.mean > 0 ? std::sqrt(var) / s.mean : 0;
  for (double pct : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (pct > cap_pct) break;
    const double beyond =
        static_cast<double>(values.size()) * (100.0 - pct) / 100.0;
    if (beyond < 10.0) break;
    s.tail = Percentile(values, pct);
    s.tail_pct = pct;
  }
  const std::size_t cut = values.size() / 10;
  double trimmed = 0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) trimmed += values[i];
  s.trimmed_mean = trimmed / static_cast<double>(values.size() - 2 * cut);
  const std::size_t top = values.size() - values.size() * 3 / 4;
  double top_sum = 0;
  for (std::size_t i = values.size() - top; i < values.size(); ++i) {
    top_sum += values[i];
  }
  s.top_quartile_mean = top_sum / static_cast<double>(top);
  return s;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Median(const Summary& s) { return s.p50; }
double TrimmedMean(const Summary& s) { return s.trimmed_mean; }
double TopQuartileMean(const Summary& s) { return s.top_quartile_mean; }

void ResetPeakRss() {
  malloc_trim(0);
  // "5" resets the peak RSS (VmHWM) to the current RSS (proc(5)).
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  if (!clear_refs) {
    std::fprintf(stderr, "perfbench_harness: cannot reset the peak RSS; "
                         "peak_rss_mb includes the harness's set-up\n");
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

namespace {

/// The calibration kernel: open-addressing inserts and probes over a 2 MB
/// table, the kind of work the engine's storage layer does. Returns its
/// time in seconds. One kernel runs at a time (the closed loops sample
/// between jobs on their one thread; serve samples on one thread per
/// rung, one rung at a time), so the table is shared.
double KernelSeconds() {
  constexpr std::uint64_t kKeys = 60000;
  static std::vector<std::uint64_t> table(std::size_t{1} << 18);
  const Clock::time_point start = Clock::now();
  std::fill(table.begin(), table.end(), 0);
  const std::size_t mask = table.size() - 1;
  std::uint64_t found = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t i = 1; i <= kKeys; ++i) {
      const std::uint64_t key = Mix64(i);
      std::size_t slot = static_cast<std::size_t>(key) & mask;
      while (table[slot] != 0 && table[slot] != key) slot = (slot + 1) & mask;
      if (table[slot] == key) ++found;
      table[slot] = key;
    }
  }
  const double seconds = SecondsBetween(start, Clock::now());
  if (found != kKeys) std::abort();  // the second pass finds every key
  return seconds;
}

}  // namespace

void HostSpeed::Sample() {
  const double seconds = KernelSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  samples_.emplace_back(Clock::now(), seconds);
}

void HostSpeed::MaybeSample() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!samples_.empty() &&
        SecondsBetween(samples_.back().first, Clock::now()) < kPeriodS) {
      return;
    }
  }
  Sample();
}

void HostSpeed::StartBackground() {
  stop_ = false;
  background_ = std::thread([this] {
    while (!stop_) {
      Sample();
      std::this_thread::sleep_for(std::chrono::duration<double>(kPeriodS));
    }
  });
}

void HostSpeed::StopBackground() {
  stop_ = true;
  if (background_.joinable()) background_.join();
}

double HostSpeed::ScaleAt(Clock::time_point t) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 1;
  const std::size_t at = static_cast<std::size_t>(
      std::lower_bound(samples_.begin(), samples_.end(), t,
                       [](const auto& sample, Clock::time_point when) {
                         return sample.first < when;
                       }) -
      samples_.begin());
  const std::size_t window = std::min<std::size_t>(5, samples_.size());
  const std::size_t first =
      std::min(at >= window / 2 ? at - window / 2 : 0,
               samples_.size() - window);
  std::vector<double> near;
  for (std::size_t i = first; i < first + window; ++i) {
    near.push_back(samples_[i].second);
  }
  return kNominalKernelS / Summarize(near).p50;
}

double HostSpeed::MedianKernelS() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> times;
  for (const auto& sample : samples_) times.push_back(sample.second);
  return Summarize(times).p50;
}

void Phase::Add(const std::string& cls, Clock::time_point end,
                double seconds) {
  per_class_[cls].push_back(Sample{end, seconds});
}

std::vector<double> Phase::Times(const std::string& cls, bool scaled) const {
  std::vector<double> times;
  for (const auto& [name, samples] : per_class_) {
    if (!cls.empty() && name != cls) continue;
    for (const Sample& s : samples) {
      times.push_back(scaled ? s.seconds * host_.ScaleAt(s.end) : s.seconds);
    }
  }
  return times;
}

double Phase::OverClasses(double (*statistic)(const Summary&),
                          bool scaled) const {
  std::vector<double> values;
  for (const auto& [name, samples] : per_class_) {
    values.push_back(statistic(Summarize(Times(name, scaled))));
  }
  return GeoMean(values);
}

void ReportJobTimes(const Phase& phase, Results* r) {
  r->Set("job_s.p50", phase.OverClasses(Median, true), "s");
  r->Set("job_s.top_quartile_mean", phase.OverClasses(TopQuartileMean, true),
         "s");
  r->Set("job_s.mean", phase.OverClasses(TrimmedMean, true), "s");
  r->Set("wall.job_s.p50", phase.OverClasses(Median, false), "s");
  r->Set("wall.job_s.top_quartile_mean",
         phase.OverClasses(TopQuartileMean, false), "s");
  r->Set("host.kernel_ms", phase.host().MedianKernelS() * 1e3, "ms");
}

void ReportTraceOverhead(const Phase& traced, const Phase& untraced,
                         Results* r) {
  r->Set("trace.overhead",
         traced.OverClasses(Median, true) / untraced.OverClasses(Median, true) -
             1.0,
         "ratio");
}

void TimeSetups(const std::function<void()>& reset,
                const std::function<void()>& setup, Results* r) {
  Phase phase;
  const Clock::time_point first = Clock::now();
  for (int n = 0; n < 2000 && (n < 10 || SecondsBetween(first, Clock::now()) <
                                             0.5);
       ++n) {
    reset();
    phase.host().MaybeSample();
    const Clock::time_point start = Clock::now();
    setup();
    const Clock::time_point end = Clock::now();
    phase.Add("setup", end, SecondsBetween(start, end));
  }
  phase.host().MaybeSample();
  r->Set("setup_s", Summarize(phase.Times("", true)).trimmed_mean, "s");
  r->Set("wall.setup_s", Summarize(phase.Times("", false)).trimmed_mean, "s");
}

void Results::Set(const std::string& name, double value,
                  const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = Metric{value, unit};
}

void Results::SetSummary(const std::string& name, const Summary& s,
                         const std::string& unit) {
  Set(name + ".p50", s.p50, unit);
  Set(name + ".tail", s.tail, unit);
  std::lock_guard<std::mutex> lock(mu_);
  summaries_[name] = s;
}

double Results::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0 : it->second.value;
}

void Results::Attempt(std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Results::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (messages_.size() < 20) messages_.push_back("failed: " + what);
}

void Results::Incorrect(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  correct_ = false;
  if (messages_.size() < 20) messages_.push_back("incorrect: " + what);
}

void CountGuard::Check(const std::string& key,
                       const std::vector<std::uint64_t>& counts,
                       Results* results) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = seen_.emplace(key, counts);
  if (inserted || it->second == counts) return;
  std::string what = "counts of " + key + " changed between repetitions:";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    what += " " + std::to_string(i < it->second.size() ? it->second[i] : 0) +
            "->" + std::to_string(counts[i]);
  }
  results->Incorrect(what);
}

int Tracer::Begin(const char* name, std::uint64_t job) {
  thread_local std::vector<int> open;  // per-thread stack of open spans
  Span span;
  span.name = name;
  span.start = SecondsBetween(origin_, Clock::now());
  span.job = job;
  span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  // Drop ids of spans already ended (End does not see `open`).
  while (!open.empty() &&
         (static_cast<std::size_t>(open.back()) >= spans_.size() ||
          spans_[static_cast<std::size_t>(open.back())].end >= 0)) {
    open.pop_back();
  }
  span.parent = open.empty() ? -1 : open.back();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size() - 1);
  open.push_back(id);
  return id;
}

void Tracer::End(int id) {
  const double now = SecondsBetween(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

std::map<std::string, double> Tracer::SelfTimeByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_time(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_time[static_cast<std::size_t>(span.parent)] +=
          span.end - span.start;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string layer = span.name.substr(0, span.name.find('.'));
    self[layer] += std::max(0.0, span.end - span.start - child_time[i]);
  }
  return self;
}

std::size_t Tracer::NumSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": 1, \"tid\": %llu, \"args\": "
                  "{\"id\": %zu, \"parent\": %d, \"job\": %llu}}%s\n",
                  s.name.c_str(), s.start * 1e6, (s.end - s.start) * 1e6,
                  static_cast<unsigned long long>(s.thread % 100000), i,
                  s.parent, static_cast<unsigned long long>(s.job),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void FactDigest::Add(const std::string& pred, const std::int64_t* args,
                     std::size_t n) {
  std::uint64_t h = std::hash<std::string>{}(pred);
  for (std::size_t i = 0; i < n; ++i) {
    h = Mix64(h ^ Mix64(static_cast<std::uint64_t>(args[i]) + i + 1));
  }
  ++count;
  checksum += Mix64(h);
}

std::string FactDigest::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu facts #%016llx",
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(checksum));
  return buf;
}

}  // namespace perfbench
