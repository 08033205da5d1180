// Repository benchmark: command line, workload dispatch and the result line.
//
//   perfbench --workload <lib-large|lib-small|svc-open> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints a human-readable summary, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits nonzero when any output check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "telemetry/metrics.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<lib-large|lib-small|svc-open> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload != "lib-large" && args.workload != "lib-small" &&
      args.workload != "svc-open") {
    usage("unknown workload");
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

void print(const Args& args, const Outcome& out) {
  std::printf("perfbench %s seed %llu, %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced (per-layer)" : "untraced (end to end)");
  for (const std::string& note : out.notes) std::printf("  %s\n", note.c_str());
  for (const perfbench::Metric& m : out.metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-32s %16.6g %s  (%llu of %llu attempted)\n", "fail_frac",
              static_cast<double>(out.failed) /
                  static_cast<double>(out.attempted ? out.attempted : 1),
              "ratio", static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));

  std::string json = std::string("{\"correct\": ") +
                     (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    // JSON has no infinity; a latency percentile landing on a refused
    // request is reported as a very large number instead.
    const double value = std::isfinite(m.value) ? m.value : 1e300;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  hts::telemetry::set_trace_enabled(args.trace);
  Outcome out;
  try {
    out = args.workload == "svc-open" ? perfbench::run_svc_open(args)
                                      : perfbench::run_lib(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (out.attempted == 0) out.fail("no operation attempted");
  print(args, out);
  return out.correct ? 0 : 1;
}
