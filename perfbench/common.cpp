#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_set>
#include <utility>

#include "telemetry/metrics.hpp"
#include "util/timer.hpp"

namespace perfbench {

void Outcome::fail(const std::string& why) {
  ++failed;
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  std::size_t index = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank - 1e-9);
  index = std::min(index, values.size() - 1);
  return values[index];
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

struct AssignmentHash {
  std::size_t operator()(const cnf::Assignment* a) const noexcept {
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::uint8_t byte : *a) h = (h ^ byte) * 1099511628211ULL;
    return static_cast<std::size_t>(h);
  }
};
struct AssignmentEq {
  bool operator()(const cnf::Assignment* a, const cnf::Assignment* b) const {
    return *a == *b;
  }
};

}  // namespace

SolutionCheck check_solutions(const cnf::Formula& formula,
                              const std::vector<cnf::Assignment>& solutions,
                              std::size_t sample) {
  SolutionCheck check;
  const std::size_t n = solutions.size();
  const std::size_t n_checked = std::min(sample, n);
  for (std::size_t k = 0; k < n_checked; ++k) {
    const cnf::Assignment& a = solutions[k * n / n_checked];
    if (a.size() < formula.n_vars() || !formula.satisfied_by(a)) {
      ++check.invalid;
    }
  }
  std::unordered_set<const cnf::Assignment*, AssignmentHash, AssignmentEq> seen;
  seen.reserve(n);
  for (const cnf::Assignment& a : solutions) {
    if (!seen.insert(&a).second) ++check.duplicates;
  }
  return check;
}

Span::Span(const char* name)
    : name_(name), begin_ns_(hts::util::monotonic_ns()) {}

double Span::end() {
  if (ms_ >= 0.0) return ms_;
  const std::uint64_t end_ns = hts::util::monotonic_ns();
  if (hts::telemetry::trace_enabled()) {
    hts::telemetry::TraceSink::global().complete(name_, kBenchCat, begin_ns_,
                                                 end_ns);
  }
  ms_ = static_cast<double>(end_ns - begin_ns_) * 1e-6;
  return ms_;
}

std::vector<double> span_self_ms(
    const std::vector<hts::telemetry::TraceEvent>& events, const char* name) {
  using hts::telemetry::TraceEvent;
  std::vector<double> out;
  for (const TraceEvent& parent : events) {
    if (parent.phase != TraceEvent::Phase::kComplete ||
        std::string(parent.cat) != kBenchCat ||
        std::string(parent.name) != name) {
      continue;
    }
    const std::uint64_t begin = parent.ts_ns;
    const std::uint64_t end = parent.ts_ns + parent.dur_ns;
    // Union of the nested intervals on the parent's thread.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> children;
    for (const TraceEvent& child : events) {
      if (&child == &parent || child.tid != parent.tid ||
          child.phase != TraceEvent::Phase::kComplete) {
        continue;
      }
      const std::uint64_t c_begin = child.ts_ns;
      const std::uint64_t c_end = child.ts_ns + child.dur_ns;
      if (c_begin >= begin && c_end <= end && child.dur_ns < parent.dur_ns) {
        children.emplace_back(c_begin, c_end);
      }
    }
    std::sort(children.begin(), children.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = begin;
    for (const auto& [c_begin, c_end] : children) {
      const std::uint64_t from = std::max(c_begin, reach);
      if (c_end > from) {
        covered += c_end - from;
        reach = c_end;
      }
    }
    out.push_back(static_cast<double>(parent.dur_ns - covered) * 1e-6);
  }
  return out;
}

void check_trace(const std::vector<hts::telemetry::TraceEvent>& events,
                 Outcome& out) {
  using hts::telemetry::TraceEvent;
  std::map<std::pair<std::string, std::uint64_t>, long> depth;
  for (const TraceEvent& event : events) {
    if (event.phase == TraceEvent::Phase::kAsyncBegin) {
      ++depth[{event.cat, event.id}];
    } else if (event.phase == TraceEvent::Phase::kAsyncEnd) {
      --depth[{event.cat, event.id}];
    }
  }
  std::size_t unbalanced = 0;
  for (const auto& [track, d] : depth) unbalanced += d != 0 ? 1 : 0;
  const std::uint64_t dropped = hts::telemetry::TraceSink::global().dropped();
  out.note("trace events " + std::to_string(events.size()) + ", dropped " +
           std::to_string(dropped) + ", async tracks " +
           std::to_string(depth.size()) + " of which unbalanced " +
           std::to_string(unbalanced));
  if (dropped != 0 || unbalanced != 0) out.fail("trace is incomplete");
}

}  // namespace perfbench
