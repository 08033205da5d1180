// svc-open: an in-process service::Server with one worker per core, fed
// open loop.  Arrivals are Poisson at one fixed rate, precomputed from the
// seed and sent by one generator thread whatever the server's state, so a
// stall shows up as queueing for the requests behind it.  Latency counts
// from each request's due time, not from when it was actually sent.
//
// The mix (see README.md for why each class is there):
//   small      75-10-1-q, warm, the majority, so p50 falls inside one class
//   large      s15850a_3_2, warm
//   amplified  or-50-10-7-UC-10 with flip amplification and a tight deadline
//   cold       s15850a_3_2 regenerated with a fresh benchgen seed_mix, so it
//              misses the plan cache and runs the transform

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchgen/families.hpp"
#include "common.hpp"
#include "core/gradient_sampler.hpp"
#include "layers.hpp"
#include "service/server.hpp"
#include "telemetry/metrics.hpp"
#include "transform/transform.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace hts;

struct RequestClass {
  const char* name;
  const char* formula;
  double share;
  std::size_t target;
  std::size_t batch;
  double deadline_ms;
  bool amplify;
  bool cold;
};

const RequestClass kClasses[] = {
    {"small", "75-10-1-q", 0.78, 200, 1024, 250.0, false, false},
    {"large", "s15850a_3_2", 0.07, 500, 256, 1000.0, false, false},
    {"amplified", "or-50-10-7-UC-10", 0.07, 2000, 256, 50.0, true, false},
    {"cold", "s15850a_3_2", 0.08, 100, 256, 1500.0, false, true},
};
constexpr std::size_t kNumClasses = sizeof(kClasses) / sizeof(kClasses[0]);

// Offered load, requests per second.  Frozen: a later change must meet the
// same arrival process.  About half of the rate at which the fleet's
// backlog starts to grow on a 4-core host (see README.md for why not more).
constexpr double kRatePerS = 50.0;
// Solutions evaluated against the CNF per request (all are checked for
// repeats).
constexpr std::size_t kChecked = 8;
constexpr auto kPollInterval = std::chrono::microseconds(200);
constexpr std::uint64_t kDepthSampleNs = 10'000'000;
// A run whose generator falls this far behind its schedule measured the
// generator, not the server.
constexpr double kMaxLateP99Ms = 5.0;
constexpr double kMaxLateMs = 100.0;

struct Planned {
  std::size_t cls = 0;
  std::uint64_t due_ns = 0;  // offset from the schedule start
  std::uint64_t seed = 0;
  // Cold requests only: the benchgen seed_mix of a fresh formula.  Cold
  // formula j of every run is the same one (seed_mix j + 1, never the warm
  // 0), so seeds reorder and retime the cold corpus but do not resample how
  // hard it is.
  std::uint64_t seed_mix = 0;
};

struct Done {
  std::size_t k = 0;          // schedule index
  std::uint64_t due_ns = 0;   // absolute, monotonic_ns clock
  std::uint64_t done_ns = 0;  // when the collector saw it terminal
  std::shared_ptr<const cnf::Formula> formula;  // for the output check
  service::JobHandle handle;
};

/// What the collector keeps of a finished request.
struct Record {
  std::size_t cls = 0;
  double latency_ms = 0.0;  // due -> terminal; infinite when failed/rejected
  service::JobStatus status = service::JobStatus::kQueued;
  service::JobStats stats;
  bool output_ok = true;
};

/// Poisson arrivals at kRatePerS conditioned on their count: the count is
/// fixed by the run length and the arrival times are sorted uniform draws.
/// The class mix is exact (each class's share of the count, shuffled), so
/// seeds move when requests arrive and in what order, not how many of each
/// class a run holds.
std::vector<Planned> make_schedule(std::uint64_t seed, double seconds) {
  std::mt19937_64 rng(mix(seed, 0x5c4ed));
  const auto n = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::llround(kRatePerS * seconds)));
  std::vector<double> times(n);
  std::uniform_real_distribution<double> uniform(0.0, seconds);
  for (double& t : times) t = uniform(rng);
  std::sort(times.begin(), times.end());
  std::vector<std::size_t> classes;
  double cumulative = 0.0;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    cumulative += kClasses[c].share;
    const std::size_t upto =
        c + 1 == kNumClasses
            ? n
            : std::min(n, static_cast<std::size_t>(std::llround(
                              cumulative * static_cast<double>(n))));
    while (classes.size() < upto) classes.push_back(c);
  }
  std::shuffle(classes.begin(), classes.end(), rng);
  std::vector<Planned> schedule;
  std::uint64_t n_cold = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t cls = classes[k];
    schedule.push_back({cls, static_cast<std::uint64_t>(times[k] * 1e9),
                        mix(seed, k), kClasses[cls].cold ? ++n_cold : 0});
  }
  return schedule;
}

sampler::GradientConfig job_config(const RequestClass& cls) {
  sampler::GradientConfig config = service::default_job_config();
  config.batch = cls.batch;
  config.amplify.enabled = cls.amplify;
  return config;
}

service::SamplingRequest make_request(const RequestClass& cls,
                                      cnf::Formula formula,
                                      std::uint64_t seed) {
  service::SamplingRequest request;
  request.formula = std::move(formula);
  request.seed = seed;
  request.target_uniques = cls.target;
  request.deadline_ms = cls.deadline_ms;
  request.config = job_config(cls);
  return request;
}

double ms_between(std::uint64_t from_ns, std::uint64_t to_ns) {
  return (static_cast<double>(to_ns) - static_cast<double>(from_ns)) * 1e-6;
}

using FormulaPtr = std::shared_ptr<const cnf::Formula>;

struct Phase {
  std::uint64_t first_due_ns = 0;
  std::uint64_t last_done_ns = 0;
  std::vector<Record> records;
  std::vector<double> lateness_ms;  // send - due, per request
  std::vector<double> depth;        // stats_snapshot().queue_depth samples
};

/// Sends schedule[begin, end) open loop and waits for every request.  Three
/// threads besides the fleet: a generator sends on schedule, this thread
/// stamps completions, and a checker drains and checks outputs, so neither
/// input preparation nor output checks delay a timestamp.
Phase run_phase(service::Server& server, const std::vector<Planned>& schedule,
                std::size_t begin, std::size_t end,
                const std::vector<FormulaPtr>& warm) {
  Phase phase;
  phase.lateness_ms.assign(end - begin, 0.0);
  std::mutex sent_mutex;
  std::vector<Done> sent;       // guarded by sent_mutex
  bool generator_done = false;  // guarded by sent_mutex
  std::exception_ptr generator_error;  // read after the join
  const std::uint64_t start_ns =
      util::monotonic_ns() + 50'000'000 - schedule[begin].due_ns;
  phase.first_due_ns = start_ns + schedule[begin].due_ns;

  std::thread generator([&] {
    // An exception here (a formula that fails to generate, an allocation)
    // ends the phase; run_phase rethrows it after the joins.
    try {
      // Requests are built a few arrivals ahead, while the generator would
      // otherwise sleep; regenerating a cold formula takes milliseconds.
      constexpr std::size_t kLookahead = 8;
      std::deque<std::pair<service::SamplingRequest, FormulaPtr>> prepared;
      std::size_t next_prepared = begin;
      auto prepare_one = [&] {
        const Planned& p = schedule[next_prepared++];
        const RequestClass& cls = kClasses[p.cls];
        FormulaPtr formula =
            cls.cold ? std::make_shared<const cnf::Formula>(
                           benchgen::make_instance(cls.formula,
                                                   {.seed_mix = p.seed_mix})
                               .formula)
                     : warm[p.cls];
        prepared.emplace_back(make_request(cls, *formula, p.seed),
                              std::move(formula));
      };
      for (std::size_t k = begin; k < end; ++k) {
        const std::uint64_t due_ns = start_ns + schedule[k].due_ns;
        if (prepared.empty()) prepare_one();
        for (std::uint64_t now = util::monotonic_ns(); now < due_ns;
             now = util::monotonic_ns()) {
          const std::uint64_t left = due_ns - now;
          if (left > 5'000'000 && next_prepared < end &&
              prepared.size() < kLookahead) {
            prepare_one();
          } else {
            std::this_thread::sleep_for(std::chrono::nanoseconds(
                left > 2'000'000 ? left - 1'000'000
                                 : std::min<std::uint64_t>(left, 50'000)));
          }
        }
        const std::uint64_t sent_ns = util::monotonic_ns();
        Span span("Server::submit");
        service::JobHandle handle =
            server.submit(std::move(prepared.front().first));
        span.end();
        phase.lateness_ms[k - begin] = ms_between(due_ns, sent_ns);
        if (telemetry::trace_enabled()) {
          telemetry::TraceSink::global().async_begin("request", kBenchCat,
                                                     handle.id(), due_ns);
        }
        std::lock_guard<std::mutex> lock(sent_mutex);
        sent.push_back({k, due_ns, 0, std::move(prepared.front().second),
                        std::move(handle)});
        prepared.pop_front();
      }
    } catch (...) {
      generator_error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(sent_mutex);
    generator_done = true;
  });

  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::deque<Done> done_queue;  // guarded by done_mutex
  bool collector_done = false;  // guarded by done_mutex
  std::exception_ptr checker_error;  // read after the join
  std::thread checker([&] {
    try {
      for (;;) {
        Done done;
        {
          std::unique_lock<std::mutex> lock(done_mutex);
          done_cv.wait(lock,
                       [&] { return !done_queue.empty() || collector_done; });
          if (done_queue.empty()) return;
          done = std::move(done_queue.front());
          done_queue.pop_front();
        }
        Record record;
        record.cls = schedule[done.k].cls;
        record.status = done.handle.status();
        record.stats = done.handle.stats();
        const bool refused = record.status == service::JobStatus::kFailed ||
                             record.status == service::JobStatus::kRejected;
        record.latency_ms = refused ? std::numeric_limits<double>::infinity()
                                    : ms_between(done.due_ns, done.done_ns);
        std::vector<cnf::Assignment> solutions;
        done.handle.stream().drain(solutions);
        const SolutionCheck check =
            check_solutions(*done.formula, solutions, kChecked);
        record.output_ok = !refused && check.invalid == 0 &&
                           check.duplicates == 0 &&
                           solutions.size() == record.stats.delivered &&
                           record.stats.delivered <= record.stats.n_unique;
        phase.records.push_back(std::move(record));
      }
    } catch (...) {
      checker_error = std::current_exception();
    }
  });

  std::vector<Done> pending;
  std::size_t taken = 0;
  std::uint64_t next_depth_ns = 0;
  for (;;) {
    bool all_taken = false;
    {
      std::lock_guard<std::mutex> lock(sent_mutex);
      for (; taken < sent.size(); ++taken) {
        pending.push_back(std::move(sent[taken]));
      }
      all_taken = generator_done;
    }
    bool any_done = false;
    for (std::size_t i = 0; i < pending.size();) {
      if (!service::job_status_terminal(pending[i].handle.status())) {
        ++i;
        continue;
      }
      Done done = std::move(pending[i]);
      pending[i] = std::move(pending.back());
      pending.pop_back();
      done.done_ns = util::monotonic_ns();
      phase.last_done_ns = done.done_ns;
      if (telemetry::trace_enabled()) {
        telemetry::TraceSink::global().async_end(
            "request", kBenchCat, done.handle.id(), done.done_ns);
      }
      std::lock_guard<std::mutex> lock(done_mutex);
      done_queue.push_back(std::move(done));
      any_done = true;
    }
    if (any_done) done_cv.notify_one();
    const std::uint64_t now = util::monotonic_ns();
    if (now >= next_depth_ns) {
      phase.depth.push_back(
          static_cast<double>(server.stats_snapshot().queue_depth));
      next_depth_ns = now + kDepthSampleNs;
    }
    if (all_taken && pending.empty()) break;
    std::this_thread::sleep_for(kPollInterval);
  }
  {
    std::lock_guard<std::mutex> lock(done_mutex);
    collector_done = true;
  }
  done_cv.notify_one();
  generator.join();
  checker.join();
  if (generator_error) std::rethrow_exception(generator_error);
  if (checker_error) std::rethrow_exception(checker_error);
  return phase;
}

double max_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double mean_of(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : sum(values) / static_cast<double>(values.size());
}

}  // namespace

Outcome run_svc_open(const Args& args) {
  Outcome out;
  // Cold classes keep an (unused) entry too, so warm[] indexes by class.
  std::vector<FormulaPtr> warm;
  for (const RequestClass& cls : kClasses) {
    warm.push_back(std::make_shared<const cnf::Formula>(
        benchgen::make_instance(cls.formula).formula));
  }
  const std::size_t n_workers =
      std::max(1u, std::thread::hardware_concurrency());

  // Set-up: server construction plus one request per warm formula, which
  // compiles it into the plan cache.  Repeated; the last server is kept.
  std::vector<double> setup_s;
  std::unique_ptr<service::Server> server;
  const util::Timer setup_clock;
  for (int rep = 0;
       rep < kSetupMinReps || setup_clock.seconds() < kSetupMinSeconds; ++rep) {
    server.reset();
    Span setup("setup");
    server = std::make_unique<service::Server>(
        service::ServerConfig{.n_workers = n_workers});
    std::vector<service::JobHandle> warming;
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      if (kClasses[c].cold) continue;
      service::SamplingRequest request =
          make_request(kClasses[c], *warm[c], mix(args.seed, rep));
      request.target_uniques = 1;
      request.deadline_ms = 0.0;
      warming.push_back(server->submit(std::move(request)));
    }
    for (const service::JobHandle& handle : warming) {
      if (handle.wait() != service::JobStatus::kCompleted) {
        out.fail("set-up request ended " +
                 std::string(service::job_status_name(handle.status())));
      }
    }
    setup_s.push_back(setup.end() / 1e3);
  }

  // The untraced run sends the whole schedule.  The traced run sends its
  // first half untraced and, once the fleet is idle again, its second half
  // traced: the two halves give the tracing overhead, and every async track
  // opens and closes inside one traced phase.
  const std::vector<Planned> schedule = make_schedule(args.seed, args.seconds);
  const std::size_t half = args.trace ? schedule.size() / 2 : schedule.size();
  telemetry::set_trace_enabled(false);
  Phase first = run_phase(*server, schedule, 0, half, warm);
  Phase second;
  if (args.trace) {
    telemetry::set_trace_enabled(true);
    second = run_phase(*server, schedule, half, schedule.size(), warm);
    telemetry::set_trace_enabled(false);
  }

  std::vector<Record> records = first.records;
  records.insert(records.end(), second.records.begin(), second.records.end());
  std::vector<double> lateness = first.lateness_ms;
  lateness.insert(lateness.end(), second.lateness_ms.begin(),
                  second.lateness_ms.end());
  std::vector<double> depth = first.depth;
  depth.insert(depth.end(), second.depth.begin(), second.depth.end());

  std::vector<double> latency, overrun_ms;
  double credited = 0.0;  // uniques up to each request's target
  std::vector<std::vector<double>> class_latency(kNumClasses);
  std::vector<std::vector<double>> class_exec(kNumClasses);
  std::vector<service::JobStats> jobs;
  std::vector<std::size_t> by_status(16, 0);
  std::size_t good = 0;
  for (const Record& r : records) {
    const RequestClass& cls = kClasses[r.cls];
    ++out.attempted;
    latency.push_back(r.latency_ms);
    class_latency[r.cls].push_back(r.latency_ms);
    class_exec[r.cls].push_back(r.stats.exec_ms);
    overrun_ms.push_back(r.latency_ms - cls.deadline_ms);
    credited += static_cast<double>(std::min(r.stats.n_unique, cls.target));
    jobs.push_back(r.stats);
    ++by_status[static_cast<std::size_t>(r.status)];
    if (!r.output_ok) {
      out.fail(std::string(cls.name) + " request ended " +
               service::job_status_name(r.status) + " with " +
               std::to_string(r.stats.delivered) +
               " solutions delivered; output check failed");
    } else if (r.status == service::JobStatus::kCompleted &&
               r.stats.n_unique >= cls.target &&
               r.latency_ms <= cls.deadline_ms) {
      ++good;
    }
  }

  char line[256];
  const double late_p99 = percentile(lateness, 0.99);
  const double late_max = max_of(lateness);
  std::snprintf(line, sizeof line,
                "requests %zu at %.1f/s offered, %zu workers; generator late "
                "p99 %.3f ms, max %.3f ms",
                records.size(), kRatePerS, n_workers, late_p99, late_max);
  out.note(line);
  double busy_ms = 0.0;
  const double p99 = percentile(latency, 0.99);
  std::string tail = "slowest 1% by class:";
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    busy_ms += sum(class_exec[c]);
    std::snprintf(line, sizeof line,
                  "class %-9s n %4zu  latency p10/p50/p90/p99 %.2f / %.2f / "
                  "%.2f / %.2f ms, deadline %.0f ms, exec p50 %.2f ms",
                  kClasses[c].name, class_latency[c].size(),
                  percentile(class_latency[c], 0.1),
                  percentile(class_latency[c], 0.5),
                  percentile(class_latency[c], 0.9),
                  percentile(class_latency[c], 0.99), kClasses[c].deadline_ms,
                  median(class_exec[c]));
    out.note(line);
    const auto in_tail = std::count_if(
        class_latency[c].begin(), class_latency[c].end(),
        [p99](double ms) { return ms >= p99; });
    tail += std::string(" ") + kClasses[c].name + "=" + std::to_string(in_tail);
  }
  out.note(tail);
  std::snprintf(line, sizeof line,
                "fleet busy %.1f%% of %zu workers over %.1f s",
                100.0 * busy_ms /
                    (1e3 * args.seconds * static_cast<double>(n_workers)),
                n_workers, args.seconds);
  out.note(line);
  std::string statuses = "statuses:";
  for (std::size_t s = 0; s < by_status.size(); ++s) {
    if (by_status[s] == 0) continue;
    statuses += std::string(" ") +
                service::job_status_name(static_cast<service::JobStatus>(s)) +
                "=" + std::to_string(by_status[s]);
  }
  out.note(statuses);
  // Backlog: over the last quarter of the samples the queue must not hold
  // more than one waiting job per worker on average.
  const std::vector<double> last_quarter(
      first.depth.end() - static_cast<std::ptrdiff_t>(first.depth.size() / 4),
      first.depth.end());
  std::snprintf(line, sizeof line,
                "queue depth: mean %.2f, last-quarter mean %.2f, max %.0f "
                "(%zu samples)",
                mean_of(depth), mean_of(last_quarter), max_of(depth),
                depth.size());
  out.note(line);

  // A late generator or a growing backlog means the run measured something
  // other than the fleet at the offered load: the run is refused.
  if (late_p99 > kMaxLateP99Ms || late_max > kMaxLateMs) {
    out.fail("generator ran late; the run measured the generator");
  }
  if (mean_of(last_quarter) > static_cast<double>(n_workers)) {
    out.fail("queue backlog grew; the fleet fell behind the offered load");
  }

  if (!args.trace) {
    const double wall_ms = ms_between(first.first_due_ns, first.last_done_ns);
    out.add("uniques_per_s", credited / (wall_ms / 1e3), "1/s");
    out.add("latency_p50_ms", percentile(latency, 0.5), "ms");
    out.add("latency_p99_ms", percentile(latency, 0.99), "ms");
    out.add("goodput_frac",
            static_cast<double>(good) /
                static_cast<double>(std::max<std::size_t>(1, records.size())),
            "ratio");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  report_service(*server, jobs, overrun_ms,
                 static_cast<std::size_t>(max_of(depth)), out);
  server.reset();
  std::vector<double> untraced, traced;
  for (const Record& r : first.records) untraced.push_back(r.latency_ms);
  for (const Record& r : second.records) traced.push_back(r.latency_ms);
  out.add("trace.overhead_frac",
          percentile(traced, 0.5) / percentile(untraced, 0.5) - 1.0, "ratio");

  // Layer replay over the warm formulas with each class's job config, and
  // run_gd_loop on the same inputs: the service drives the loop's rounds
  // itself, so the loop's own numbers come from this replay.
  telemetry::set_trace_enabled(true);
  std::vector<ReplayInput> inputs;
  std::vector<GdCall> calls;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    if (kClasses[c].cold) continue;
    const sampler::GdLoopConfig config =
        sampler::make_gd_loop_config(job_config(kClasses[c]));
    inputs.push_back({warm[c].get(), config});

    const transform::Result tr = transform::transform_cnf(*warm[c]);
    const sampler::GdProblem problem{&tr.circuit, &tr.var_signal,
                                     &tr.input_vars, {}};
    sampler::RunOptions options;
    options.min_solutions = kClasses[c].target;
    options.seed = mix(args.seed, 0x6d1 + c);
    options.budget_ms = 10000.0;
    sampler::GdLoopConfig loop_config = config;
    // Library-path amplification ignores the target and the budget
    // (README.md, known defects), so the loop replay runs without it.
    loop_config.amplify.enabled = false;
    calls.push_back(call_gd_loop(problem, *warm[c], options, loop_config));
    ++out.attempted;
    if (calls.back().result.n_unique < options.min_solutions) {
      out.fail(std::string(kClasses[c].name) +
               ": run_gd_loop replay missed its target");
    }
  }
  replay_layers(inputs, args.seed, out);
  telemetry::set_trace_enabled(false);

  const auto events = telemetry::TraceSink::global().snapshot_events();
  report_gd_loop(calls, events, out);
  check_trace(events, out);
  return out;
}

}  // namespace perfbench
