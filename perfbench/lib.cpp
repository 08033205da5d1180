// Library workloads: set-up is transform_cnf over the workload's formulas,
// the measured work is run_gd_loop to a fixed unique target.
//
//   lib-large  s15850a_3_2 + Prod-8, batch 4096.  The engine sweep carries
//              the loop and the transform carries set-up.
//   lib-small  75-10-1-q + or-50-10-7-UC-10, batch 65536.  The harvester and
//              the unique bank carry the loop; the transform is negligible.
//
// Both run one round-serial worker (n_workers = 1) on the default
// data-parallel engine, and no amplification (see README.md for why).

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/families.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "service/server.hpp"
#include "telemetry/metrics.hpp"
#include "transform/transform.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace hts;

struct LibSpec {
  std::vector<std::string> names;
  std::size_t batch = 0;
  std::size_t target = 0;
  // Calls per formula in one round, the workload's operation.  Rounds of
  // about 3 s keep one slow call from setting latency_p99_ms on its own.
  int calls_per_round = 1;
};

LibSpec spec_for(const std::string& workload) {
  if (workload == "lib-large") {
    return {{"s15850a_3_2", "Prod-8"}, 4096, 50000, 2};
  }
  return {{"75-10-1-q", "or-50-10-7-UC-10"}, 65536, 300000, 3};
}

// Solutions kept per call for the correctness check, and how many of them
// are evaluated against the CNF (all of them are checked for repeats).
constexpr std::size_t kStored = 256;
constexpr std::size_t kChecked = 64;
// A call that misses its target within this budget counts as failed.
constexpr double kCallBudgetMs = 60000.0;
constexpr int kMinRounds = 3;
// Traced run: service replay target per request (closed loop, one worker).
constexpr std::size_t kServiceTarget = 2000;
constexpr double kServiceDeadlineMs = 10000.0;

}  // namespace

Outcome run_lib(const Args& args) {
  Outcome out;
  const LibSpec spec = spec_for(args.workload);

  // The instances are the paper's fixed benchmark formulas; the seed picks
  // the sampling streams.  Re-generating the formulas per seed would move
  // uniques_per_s by up to 40% between seeds (Prod-8 is 75k-112k uniques/s
  // across benchgen seed_mix values), which no bound could absorb.
  std::vector<benchgen::Instance> instances;
  for (const std::string& name : spec.names) {
    instances.push_back(benchgen::make_instance(name));
  }

  std::vector<double> setup_s;
  std::vector<transform::Result> transformed(instances.size());
  const util::Timer setup_clock;
  for (int rep = 0;
       rep < kSetupMinReps || setup_clock.seconds() < kSetupMinSeconds; ++rep) {
    Span setup("setup");
    for (std::size_t i = 0; i < instances.size(); ++i) {
      Span span("transform_cnf");
      transformed[i] = transform::transform_cnf(instances[i].formula);
    }
    setup_s.push_back(setup.end() / 1e3);
  }

  sampler::GdLoopConfig config;
  config.batch = spec.batch;
  config.n_workers = 1;
  std::vector<sampler::GdProblem> problems;
  for (const transform::Result& tr : transformed) {
    problems.push_back({&tr.circuit, &tr.var_signal, &tr.input_vars, {}});
  }

  std::uint64_t call_index = 0;
  auto run_call = [&](std::size_t i) {
    sampler::RunOptions options;
    options.min_solutions = spec.target;
    options.budget_ms = kCallBudgetMs;
    options.seed = mix(args.seed, call_index++);
    options.store_limit = kStored;
    GdCall call =
        call_gd_loop(problems[i], instances[i].formula, options, config);
    // Checks run after the call returns, outside its timed span.
    ++out.attempted;
    const SolutionCheck check = check_solutions(
        instances[i].formula, call.result.solutions, kChecked);
    if (call.result.n_unique < spec.target) {
      out.fail(spec.names[i] + ": " + std::to_string(call.result.n_unique) +
               " uniques, target " + std::to_string(spec.target));
    } else if (check.invalid != 0 || check.duplicates != 0 ||
               call.result.solutions.size() != kStored) {
      out.fail(spec.names[i] + ": " + std::to_string(check.invalid) +
               " invalid / " + std::to_string(check.duplicates) +
               " repeated of " + std::to_string(call.result.solutions.size()) +
               " stored solutions");
    }
    return call;
  };

  // Warm-up: thread pool start and first-touch page faults are paid once per
  // process, not per call; they are checked but not timed.
  for (std::size_t i = 0; i < instances.size(); ++i) (void)run_call(i);

  // A round calls every formula calls_per_round times.  Its rate is the
  // uniques credited up to the target over the summed wall time of its
  // calls, and its latency that summed wall time.
  std::vector<double> rates, walls, traced_walls, untraced_walls;
  std::vector<GdCall> traced_calls;
  const util::Timer clock;
  for (int round = 0; round < kMinRounds || clock.seconds() < args.seconds;
       ++round) {
    // The traced run alternates tracing per round, so the overhead is
    // measured on the same calls the layer numbers come from.
    const bool traced_round = args.trace && round % 2 == 1;
    telemetry::set_trace_enabled(traced_round);
    double credited = 0.0, wall_ms = 0.0;
    for (int rep = 0; rep < spec.calls_per_round; ++rep) {
      for (std::size_t i = 0; i < instances.size(); ++i) {
        GdCall call = run_call(i);
        credited +=
            static_cast<double>(std::min(call.result.n_unique, spec.target));
        wall_ms += call.wall_ms;
        if (traced_round) traced_calls.push_back(std::move(call));
      }
    }
    rates.push_back(credited / (wall_ms / 1e3));
    walls.push_back(wall_ms);
    (traced_round ? traced_walls : untraced_walls).push_back(wall_ms);
  }
  telemetry::set_trace_enabled(args.trace);
  out.note("rounds " + std::to_string(rates.size()) + ", calls " +
           std::to_string(out.attempted) + ", target " +
           std::to_string(spec.target) + " uniques per call");

  if (!args.trace) {
    out.add("uniques_per_s", median(rates), "1/s");
    out.add("latency_p50_ms", percentile(walls, 0.5), "ms");
    out.add("latency_p99_ms", percentile(walls, 0.99), "ms");
    out.add("goodput_frac",
            static_cast<double>(out.attempted - out.failed) /
                static_cast<double>(out.attempted),
            "ratio");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  std::vector<ReplayInput> inputs;
  for (const benchgen::Instance& instance : instances) {
    inputs.push_back({&instance.formula, config});
  }
  replay_layers(inputs, args.seed, out);

  // Service layer replay: each formula submitted twice to a one-worker
  // server (compile, then a plan-cache hit), closed loop.
  {
    service::Server server({.n_workers = 1});
    std::vector<service::JobStats> jobs;
    std::vector<double> overrun_ms;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < instances.size(); ++i) {
        service::SamplingRequest request;
        request.formula = instances[i].formula;
        request.seed = mix(args.seed, 0x5e41 + 2 * i + pass);
        request.target_uniques = kServiceTarget;
        request.deadline_ms = kServiceDeadlineMs;
        request.config.batch = spec.batch;
        Span span("Server::submit->wait");
        const service::JobHandle handle = server.submit(std::move(request));
        const service::JobStatus status = handle.wait();
        overrun_ms.push_back(span.end() - kServiceDeadlineMs);
        ++out.attempted;
        std::vector<cnf::Assignment> solutions;
        handle.stream().drain(solutions);
        const SolutionCheck check =
            check_solutions(instances[i].formula, solutions, kChecked);
        if (status != service::JobStatus::kCompleted ||
            solutions.size() < kServiceTarget || check.invalid != 0 ||
            check.duplicates != 0) {
          out.fail(spec.names[i] + ": service replay ended " +
                   service::job_status_name(status));
        }
        jobs.push_back(handle.stats());
      }
    }
    report_service(server, jobs, overrun_ms, 0, out);
  }

  telemetry::set_trace_enabled(false);
  const auto events = telemetry::TraceSink::global().snapshot_events();
  report_gd_loop(traced_calls, events, out);
  out.add("trace.overhead_frac",
          median(traced_walls) / median(untraced_walls) - 1.0, "ratio");
  check_trace(events, out);
  return out;
}

}  // namespace perfbench
