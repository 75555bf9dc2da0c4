// perfbench_harness: runs one workload of the end-to-end benchmark and
// prints a human-readable report followed, on the last line, by one JSON
// object with every metric, its distribution, the determinism-guard
// counts and the run's provenance. perfbench/run.py builds this program
// and turns that line into the benchmark's result line.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     [--smoke] [--out-dir DIR]
//                     [--git-commit C] [--source-digest D]
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

constexpr rlim_t kAddressSpaceLimit = rlim_t{4} << 30;  // 4 GiB

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "eval-recursive|eval-cyclic|optimize|serve --seed N "
               "--seconds S --trace 0|1 [--smoke] [--out-dir DIR] "
               "[--git-commit C] [--source-digest D]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string git_commit = "unknown", source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::exit(Usage(("missing value for " + arg).c_str()));
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--out-dir") {
      options.out_dir = value();
    } else if (arg == "--git-commit") {
      git_commit = value();
    } else if (arg == "--source-digest") {
      source_digest = value();
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.seconds <= 0) return Usage("--seconds must be positive");

  // Timings from an unoptimized or assertion-enabled build say nothing
  // about the library; refuse to report them.
#ifndef NDEBUG
  const bool release = false;
#else
  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#endif
  if (!release) {
    std::fprintf(stderr,
                 "perfbench_harness: library build type is '%s'; results "
                 "are only reported from a Release build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  // Bound the address space, so that a runaway operation fails this run
  // instead of exhausting the memory of a machine shared with others.
  // (Sanitizer runtimes reserve terabytes of shadow memory up front.)
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  const rlimit address_space{kAddressSpaceLimit, kAddressSpaceLimit};
  setrlimit(RLIMIT_AS, &address_space);
#endif

  Results results;
  CountGuard guard;
  Tracer tracer(options.trace);
  Context ctx{options, &results, &guard, &tracer};
  if (options.workload == "eval-recursive") {
    RunEvalRecursive(&ctx);
  } else if (options.workload == "eval-cyclic") {
    RunEvalCyclic(&ctx);
  } else if (options.workload == "optimize") {
    RunOptimize(&ctx);
  } else if (options.workload == "serve") {
    RunServe(&ctx);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!options.trace) results.Set("peak_rss_mb", PeakRssMb(), "MB");
  const double error_rate =
      results.attempted() == 0
          ? 1.0
          : static_cast<double>(results.failed()) /
                static_cast<double>(results.attempted());
  std::string trace_path;
  if (options.trace) {
    trace_path = options.out_dir + "/trace-" + options.workload + "-" +
                 std::to_string(options.seed) + ".json";
    if (!tracer.WriteJson(trace_path)) {
      results.Fail("cannot write " + trace_path);
    }
  }

  // Human-readable report.
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.smoke ? " smoke" : "");
  std::printf("  build=%s compiler=%s commit=%s source=%s nproc=%u\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, git_commit.c_str(),
              source_digest.c_str(), nproc);
  std::printf("  attempted=%llu failed=%llu error_rate=%g correct=%s\n",
              static_cast<unsigned long long>(results.attempted()),
              static_cast<unsigned long long>(results.failed()), error_rate,
              results.correct() ? "yes" : "no");
  for (const std::string& message : results.messages()) {
    std::printf("  %s\n", message.c_str());
  }
  for (const auto& [name, metric] : results.metrics()) {
    std::printf("  %-44s %14.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const auto& [name, s] : results.summaries()) {
    std::printf("  %-44s n=%zu p50=%.6g q1=%.6g q3=%.6g cv=%.3f p%g=%.6g\n",
                name.c_str(), s.n, s.p50, s.q1, s.q3, s.cv, s.tail_pct,
                s.tail);
  }
  if (!trace_path.empty()) {
    std::printf("  spans=%zu written to %s\n", tracer.NumSpans(),
                trace_path.c_str());
  }

  // Machine-readable last line.
  std::string json = "{\"workload\": " + JsonString(options.workload);
  json += ", \"seed\": " + std::to_string(options.seed);
  json += ", \"seconds\": " + JsonNumber(options.seconds);
  json += ", \"trace\": " + std::string(options.trace ? "true" : "false");
  json += ", \"smoke\": " + std::string(options.smoke ? "true" : "false");
  json += ", \"provenance\": {\"build_type\": " +
          JsonString(PERFBENCH_BUILD_TYPE) +
          ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
          ", \"git_commit\": " + JsonString(git_commit) +
          ", \"source_digest\": " + JsonString(source_digest) +
          ", \"nproc\": " + std::to_string(nproc) + "}";
  json += ", \"correct\": " + std::string(results.correct() ? "true" : "false");
  json += ", \"attempted\": " + std::to_string(results.attempted());
  json += ", \"failed\": " + std::to_string(results.failed());
  json += ", \"error_rate\": " + JsonNumber(error_rate);
  json += ", \"messages\": [";
  for (std::size_t i = 0; i < results.messages().size(); ++i) {
    json += (i ? ", " : "") + JsonString(results.messages()[i]);
  }
  json += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : results.metrics()) {
    json += (first ? "" : ", ") + JsonString(name) +
            ": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": " + JsonString(metric.unit) + "}";
    first = false;
  }
  json += "}, \"distributions\": {";
  first = true;
  for (const auto& [name, s] : results.summaries()) {
    json += (first ? "" : ", ") + JsonString(name) +
            ": {\"n\": " + std::to_string(s.n) +
            ", \"p50\": " + JsonNumber(s.p50) + ", \"q1\": " + JsonNumber(s.q1) +
            ", \"q3\": " + JsonNumber(s.q3) + ", \"cv\": " + JsonNumber(s.cv) +
            ", \"tail\": " + JsonNumber(s.tail) +
            ", \"tail_pct\": " + JsonNumber(s.tail_pct) + "}";
    first = false;
  }
  json += "}, \"counts\": {";
  first = true;
  for (const auto& [key, counts] : guard.Counts()) {
    json += (first ? "" : ", ") + JsonString(key) + ": [";
    for (std::size_t i = 0; i < counts.size(); ++i) {
      json += (i ? ", " : "") + std::to_string(counts[i]);
    }
    json += "]";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
