#pragma once

// Shared plumbing of the repository benchmark: the command line, the
// result record every workload fills, order statistics, correctness checks
// on sampled solutions, and spans recorded around calls into the library.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cnf/formula.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

namespace cnf = hts::cnf;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of a workload reports.  `metrics` is the set BENCHMARK.json
/// names for the run's mode (end-to-end untraced, per-layer traced); `notes`
/// are printed for people and never parsed.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Records a correctness failure: counted against the run and fatal for
  /// the exit code.
  void fail(const std::string& why);
};

Outcome run_lib(const Args& args);
Outcome run_svc_open(const Args& args);

// ------------------------------------------------------------ statistics

/// Set-up is repeated at least this often and for at least this long, and
/// setup_s is the median repetition, so a short set-up still gets a steady
/// reading.
inline constexpr int kSetupMinReps = 5;
inline constexpr double kSetupMinSeconds = 1.0;

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double sum(const std::vector<double>& values);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// splitmix64 finalizer: derives independent streams from the run seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

// ------------------------------------------------------------ correctness

struct SolutionCheck {
  std::uint64_t invalid = 0;     // sampled assignments falsifying a clause
  std::uint64_t duplicates = 0;  // repeats among all the assignments
};

/// Evaluates up to `sample` evenly spaced assignments of `solutions`
/// against `formula` and counts repeated assignments among all of them.
[[nodiscard]] SolutionCheck check_solutions(
    const cnf::Formula& formula, const std::vector<cnf::Assignment>& solutions,
    std::size_t sample);

// ------------------------------------------------------------ tracing

/// Category of every event the benchmark records itself; spans the library
/// records internally carry their own categories.
inline constexpr const char* kBenchCat = "bench";

/// A complete event around one library call, recorded through the global
/// TraceSink when tracing is on.  The duration is measured either way, so
/// the same object times untraced runs.
class Span {
 public:
  explicit Span(const char* name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { (void)end(); }
  /// Closes the span (once) and returns its duration in milliseconds.
  double end();

 private:
  const char* name_;
  std::uint64_t begin_ns_;
  double ms_ = -1.0;
};

/// Self time of every benchmark span named `name`: its duration minus the
/// part of its interval covered by events nested in it on the same thread.
[[nodiscard]] std::vector<double> span_self_ms(
    const std::vector<hts::telemetry::TraceEvent>& events, const char* name);

/// Fails the run unless the trace is whole: no event dropped and every async
/// track, the benchmark's and the library's, balanced.
void check_trace(const std::vector<hts::telemetry::TraceEvent>& events,
                 Outcome& out);

}  // namespace perfbench
