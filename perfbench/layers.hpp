#pragma once

// The traced run's replay of a workload's inputs through each layer's
// public entry point, one span around every call: transform_cnf, the
// CompiledCircuit and EvalPlan constructors, prob::Engine (randomize,
// run_iteration, harden), Harvester::collect and Amplifier::amplify.  Also
// the per-layer readings of run_gd_loop calls and of a PlanCache / Server.

#include <cstdint>
#include <vector>

#include "cnf/formula.hpp"
#include "common.hpp"
#include "core/gd_loop.hpp"
#include "service/server.hpp"

namespace perfbench {

struct ReplayInput {
  const hts::cnf::Formula* formula = nullptr;
  hts::sampler::GdLoopConfig config;
};

/// Emits transform.*, compile.*, eval_plan.ms, engine.*, harvest.* and
/// amplify.* for `inputs`.  The amplifier runs on a second batch of each
/// input with amplification switched on, whatever the input's config says,
/// so its cost is measured on every workload's formulas.
void replay_layers(const std::vector<ReplayInput>& inputs, std::uint64_t seed,
                   Outcome& out);

/// One timed run_gd_loop call.
struct GdCall {
  double wall_ms = 0.0;
  hts::sampler::RunResult result;
  hts::sampler::GdLoopExtras extras;
};

/// Runs and times one run_gd_loop call inside a "run_gd_loop" span.
[[nodiscard]] GdCall call_gd_loop(const hts::sampler::GdProblem& problem,
                                  const hts::cnf::Formula& formula,
                                  const hts::sampler::RunOptions& options,
                                  const hts::sampler::GdLoopConfig& config);

/// Emits gd_loop.* from traced calls; self time comes from the spans.
void report_gd_loop(const std::vector<GdCall>& calls,
                    const std::vector<hts::telemetry::TraceEvent>& events,
                    Outcome& out);

/// Emits plan_cache.* and server.* for a finished service run from its
/// JobStats, PlanCache::Stats and ServerStats.  `overrun_ms` holds each
/// request's (terminal - due - deadline); `queue_depth_max` is the largest
/// sampled stats_snapshot().queue_depth.
void report_service(const hts::service::Server& server,
                    const std::vector<hts::service::JobStats>& jobs,
                    const std::vector<double>& overrun_ms,
                    std::size_t queue_depth_max, Outcome& out);

}  // namespace perfbench
