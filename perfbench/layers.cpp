#include "layers.hpp"

#include <algorithm>
#include <optional>

#include "circuit/eval_plan.hpp"
#include "core/amplifier.hpp"
#include "core/harvester.hpp"
#include "core/round_runner.hpp"
#include "core/unique_bank.hpp"
#include "prob/compiled.hpp"
#include "prob/engine.hpp"
#include "transform/transform.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace hts;

// Compiles are repeated and the median taken: they are short enough that
// one sample would be mostly scheduler noise.
constexpr int kCompileReps = 3;
// Rounds of the engine/harvest replay per input.
constexpr int kReplayRounds = 3;
// The amplifier replay widens a bounded number of bases per harvest, so a
// formula with many fresh solutions cannot make the traced run unbounded.
constexpr std::size_t kAmplifyBases = 64;

struct Totals {
  // Per-iteration engine times are medians per input, summed over inputs:
  // the cost of one iteration of every formula of the workload.
  double iter_ms = 0.0, harden_ms = 0.0, randomize_ms = 0.0;
  double transform_ms = 0.0;
  double circuit_ops = 0.0;
  double compile_ms = 0.0;
  double tape_ops = 0.0;
  double eval_plan_ms = 0.0;
  double row_ops = 0.0;         // tape ops x rows over every iteration
  double iterate_ms = 0.0;      // wall of those iterations
  double bytes_per_iter = 0.0;  // computed, summed over inputs
  double memory_bytes = 0.0;
  double rows_validated = 0.0, collect_ms = 0.0, solved = 0.0, uniques = 0.0;
  double amplify_ms = 0.0, candidates = 0.0, survivors = 0.0;
};

void replay_one(const ReplayInput& input, std::uint64_t seed, Totals& totals) {
  const cnf::Formula& formula = *input.formula;
  const sampler::GdLoopConfig& config = input.config;

  Span transform_span("transform_cnf");
  const transform::Result tr = transform::transform_cnf(formula);
  totals.transform_ms += transform_span.end();
  totals.circuit_ops += static_cast<double>(tr.stats.circuit_ops);
  sampler::GdProblem problem{&tr.circuit, &tr.var_signal, &tr.input_vars, {}};

  std::vector<double> compile_ms, eval_ms;
  std::optional<prob::CompiledCircuit> compiled;
  std::optional<circuit::EvalPlan> plan;
  for (int rep = 0; rep < kCompileReps; ++rep) {
    compiled.reset();
    plan.reset();
    Span compile_span("CompiledCircuit");
    compiled.emplace(tr.circuit, prob::CompiledCircuit::Options{
                                     config.cone_only, config.optimize_tape});
    compile_ms.push_back(compile_span.end());
    Span plan_span("EvalPlan");
    plan.emplace(tr.circuit);
    eval_ms.push_back(plan_span.end());
  }
  totals.compile_ms += median(compile_ms);
  totals.eval_plan_ms += median(eval_ms);
  totals.tape_ops += static_cast<double>(compiled->n_ops());

  prob::Engine engine(*compiled, sampler::engine_config_for(config, problem));
  totals.memory_bytes += static_cast<double>(engine.memory_bytes());
  // Model: each tape slot's activation and gradient, 4-byte floats, written
  // once and read once per row per iteration.
  totals.bytes_per_iter += 16.0 *
                           static_cast<double>(compiled->n_slots()) *
                           static_cast<double>(config.batch);
  const bool inline_eval = config.policy == tensor::Policy::kSerial;
  sampler::RunOptions options;
  options.min_solutions = 0;
  options.seed = seed;
  util::Rng rng(seed);
  std::vector<std::uint64_t> packed;

  std::vector<double> iter_ms, harden_ms, randomize_ms;
  {
    sampler::UniqueBank bank(sampler::bank_key_bits(problem, config));
    sampler::RunResult result;
    sampler::Harvester<sampler::UniqueBank> harvester(
        problem, formula, options, bank, result, &*plan, inline_eval,
        sampler::harvest_mode_for(problem, config));
    for (int round = 0; round < kReplayRounds; ++round) {
      {
        Span span("Engine::randomize");
        engine.randomize(rng);
        randomize_ms.push_back(span.end());
      }
      for (int iter = 1; iter <= config.iterations; ++iter) {
        Span iterate("Engine::run_iteration");
        engine.run_iteration();
        const double ms = iterate.end();
        iter_ms.push_back(ms);
        totals.iterate_ms += ms;
        totals.row_ops += static_cast<double>(compiled->n_ops()) *
                          static_cast<double>(config.batch);
        Span harden("Engine::harden");
        engine.harden(packed);
        harden_ms.push_back(harden.end());
        Span collect("Harvester::collect");
        harvester.collect(packed, engine.n_words(), config.batch);
        totals.collect_ms += collect.end();
      }
    }
    totals.rows_validated += static_cast<double>(harvester.rows_validated());
    totals.solved += static_cast<double>(result.n_valid);
    totals.uniques += static_cast<double>(bank.size());
  }
  totals.iter_ms += median(iter_ms);
  totals.harden_ms += median(harden_ms);
  totals.randomize_ms += median(randomize_ms);

  sampler::GdLoopConfig amp_config = config;
  amp_config.amplify.enabled = true;
  amp_config.amplify.max_bases_per_collect = kAmplifyBases;
  sampler::UniqueBank bank(sampler::bank_key_bits(problem, amp_config));
  sampler::RunResult result;
  sampler::Harvester<sampler::UniqueBank> harvester(
      problem, formula, options, bank, result, &*plan, inline_eval,
      sampler::harvest_mode_for(problem, amp_config));
  sampler::Amplifier<sampler::UniqueBank> amplifier(amp_config, harvester);
  engine.randomize(rng);
  for (int iter = 1; iter <= config.iterations; ++iter) {
    engine.run_iteration();
    engine.harden(packed);
    harvester.collect(packed, engine.n_words(), config.batch);
    Span span("Amplifier::amplify");
    amplifier.amplify();
    totals.amplify_ms += span.end();
  }
  totals.candidates += static_cast<double>(amplifier.amplified_candidates());
  totals.survivors += static_cast<double>(amplifier.amplified_uniques());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void replay_layers(const std::vector<ReplayInput>& inputs, std::uint64_t seed,
                   Outcome& out) {
  Totals t;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    replay_one(inputs[i], mix(seed, 0x1a7e5 + i), t);
  }
  out.add("transform.ms", t.transform_ms, "ms");
  out.add("transform.circuit_ops", t.circuit_ops, "count");
  out.add("compile.ms", t.compile_ms, "ms");
  out.add("compile.tape_ops", t.tape_ops, "count");
  out.add("eval_plan.ms", t.eval_plan_ms, "ms");
  out.add("engine.iter_ms", t.iter_ms, "ms");
  out.add("engine.harden_ms", t.harden_ms, "ms");
  out.add("engine.randomize_ms", t.randomize_ms, "ms");
  out.add("engine.row_ops_per_s", ratio(t.row_ops, t.iterate_ms / 1e3), "1/s");
  out.add("engine.bytes_per_iter", t.bytes_per_iter, "bytes_computed");
  out.add("engine.memory_bytes", t.memory_bytes, "bytes");
  out.add("harvest.rows_per_s", ratio(t.rows_validated, t.collect_ms / 1e3),
          "1/s");
  out.add("harvest.solved_ratio", ratio(t.solved, t.rows_validated), "ratio");
  out.add("harvest.unique_ratio", ratio(t.uniques, t.solved), "ratio");
  out.add("amplify.ms", t.amplify_ms, "ms");
  out.add("amplify.candidates_per_s", ratio(t.candidates, t.amplify_ms / 1e3),
          "1/s");
  out.add("amplify.survivor_ratio", ratio(t.survivors, t.candidates), "ratio");
}

GdCall call_gd_loop(const sampler::GdProblem& problem,
                    const cnf::Formula& formula,
                    const sampler::RunOptions& options,
                    const sampler::GdLoopConfig& config) {
  GdCall call;
  Span span("run_gd_loop");
  call.result = sampler::run_gd_loop(problem, formula, options, config,
                                     &call.extras);
  call.wall_ms = span.end();
  return call;
}

void report_gd_loop(const std::vector<GdCall>& calls,
                    const std::vector<telemetry::TraceEvent>& events,
                    Outcome& out) {
  std::vector<double> loop_ms, untimed_ms;
  double iterations = 0.0, restarted = 0.0;
  for (const GdCall& call : calls) {
    loop_ms.push_back(call.result.elapsed_ms);
    untimed_ms.push_back(call.wall_ms - call.result.elapsed_ms);
    iterations += static_cast<double>(call.extras.gd_iterations);
    restarted += static_cast<double>(call.extras.restarted_rows);
  }
  out.add("gd_loop.loop_ms", median(loop_ms), "ms");
  out.add("gd_loop.untimed_ms", median(untimed_ms), "ms");
  out.add("gd_loop.self_ms", median(span_self_ms(events, "run_gd_loop")), "ms");
  out.add("gd_loop.iterations", iterations, "count");
  out.add("gd_loop.restarted_rows", restarted, "count");
}

void report_service(const service::Server& server,
                    const std::vector<service::JobStats>& jobs,
                    const std::vector<double>& overrun_ms,
                    std::size_t queue_depth_max, Outcome& out) {
  const service::PlanCache::Stats cache = server.plan_cache_stats();
  std::vector<double> queue_wait, exec;
  double compile_ms = 0.0, wait_ms = 0.0;
  for (const service::JobStats& job : jobs) {
    queue_wait.push_back(job.queue_wait_ms);
    exec.push_back(job.exec_ms);
    compile_ms += job.compile_ms;
    wait_ms += job.cache_wait_ms;
  }
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  out.add("plan_cache.hit_ratio",
          lookups > 0.0 ? static_cast<double>(cache.hits) / lookups : 0.0,
          "ratio");
  out.add("plan_cache.compile_ms", compile_ms, "ms");
  out.add("plan_cache.wait_ms", wait_ms, "ms");
  out.add("server.queue_wait_p50_ms", percentile(queue_wait, 0.5), "ms");
  out.add("server.queue_wait_p99_ms", percentile(queue_wait, 0.99), "ms");
  out.add("server.exec_ms", median(exec), "ms");
  out.add("server.deadline_overrun_p99_ms", percentile(overrun_ms, 0.99), "ms");
  out.add("server.queue_depth_max", static_cast<double>(queue_depth_max),
          "count");
  out.add("server.retried", static_cast<double>(server.stats().retried),
          "count");
}

}  // namespace perfbench
