// Cross-commit stream pin: absolute fixed-seed fingerprints of run_gd_loop on
// the four perfbench formulas.  The GoldenDeterminism tests compare policies
// with each other inside one build, so a change that moves every policy's
// stream the same way (a new plan order, a new row chunking, a new kernel)
// passes them unseen.  These values were recorded on an earlier commit and
// must not move unless a change means to move the stream; a change that does
// re-records them and says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "benchgen/families.hpp"
#include "core/gd_loop.hpp"
#include "transform/transform.hpp"

namespace hts::sampler {
namespace {

struct Pin {
  const char* name;
  std::size_t batch;
  std::size_t n_unique;
  /// FNV-1a over every stored solution, in bank insertion order.
  std::uint64_t solutions_hash;
};

// batch 1024, 2 rounds, seed 0x5712ea, n_workers 1, default loop knobs.
constexpr Pin kPins[] = {
    {"75-10-1-q", 1024, 10002, 0x842e860c88071dafULL},
    {"or-50-10-7-UC-10", 1024, 7755, 0x899ecfbd9a3c7af3ULL},
    {"s15850a_3_2", 1024, 4629, 0xa02b2cbc1e74223dULL},
    {"Prod-8", 1024, 4273, 0xfc30d06f2af69b2cULL},
};

std::uint64_t hash_solutions(const std::vector<cnf::Assignment>& solutions) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (const cnf::Assignment& solution : solutions) {
    for (const std::uint8_t bit : solution) mix(bit);
    mix(0xff);  // separator: solution boundaries are part of the stream
  }
  return h;
}

TEST(StreamPin, FixedSeedStreamsMatchRecordedFingerprints) {
  for (const Pin& pin : kPins) {
    const benchgen::Instance instance = benchgen::make_instance(pin.name);
    const transform::Result tr = transform::transform_cnf(instance.formula);
    const GdProblem problem{&tr.circuit, &tr.var_signal, &tr.input_vars, {}};
    for (const tensor::Policy policy :
         {tensor::Policy::kSerial, tensor::Policy::kDataParallel}) {
      GdLoopConfig config;
      config.batch = pin.batch;
      config.max_rounds = 2;
      config.n_workers = 1;
      config.policy = policy;
      RunOptions options;
      options.min_solutions = 0;  // only the round budget stops the run
      options.budget_ms = -1.0;
      options.seed = 0x5712ea;
      options.store_limit = 1 << 22;
      const RunResult result =
          run_gd_loop(problem, instance.formula, options, config);
      const std::string label =
          std::string(pin.name) + " " + tensor::policy_name(policy);
      ASSERT_EQ(result.solutions.size(), result.n_unique) << label;
      EXPECT_EQ(result.n_unique, pin.n_unique) << label;
      EXPECT_EQ(hash_solutions(result.solutions), pin.solutions_hash)
          << label << " hash 0x" << std::hex
          << hash_solutions(result.solutions);
    }
  }
}

}  // namespace
}  // namespace hts::sampler
