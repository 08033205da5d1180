// A/B parity suite for the vectorized tape engine: on every benchgen
// circuit family, the optimized tape (copy propagation, constant folding,
// CSE, fused NOTs, DCE, slot renumbering) running on the SIMD kernels must
// reproduce the unoptimized tape's activations
//   - bit for bit with the exact (std::exp) sigmoid embed, and
//   - within 1e-5 with the fast polynomial sigmoid.
// This is the contract that lets every sampler default to the optimized
// fast path while benches A/B against the pre-optimization engine.
//
// The schedulers get a stronger treatment: every policy executes the
// compiled plan through the opcode-run-batched kernels in the same order
// (forward in plan order, backward in reverse plan order), so the *full* GD
// trajectory — activations, loss, and V after descent — must be bitwise
// identical across serial and tile-parallel, on raw and optimized tapes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchgen/families.hpp"
#include "prob/compiled.hpp"
#include "prob/engine.hpp"
#include "util/rng.hpp"

namespace hts::prob {
namespace {

constexpr std::size_t kBatch = 256;
constexpr std::uint64_t kSeed = 4242;

class EngineParity : public ::testing::TestWithParam<const char*> {
 protected:
  static Engine make_engine(const CompiledCircuit& compiled, bool fast_sigmoid,
                            tensor::Policy policy = tensor::Policy::kSerial) {
    Engine::Config config;
    config.batch = kBatch;
    config.policy = policy;
    config.fast_sigmoid = fast_sigmoid;
    config.compute_loss = true;
    return Engine(compiled, config);
  }
};

TEST_P(EngineParity, OptimizedExactSigmoidForwardIsBitIdentical) {
  const benchgen::Instance instance = benchgen::make_instance(GetParam());
  const CompiledCircuit raw(instance.circuit,
                            CompiledCircuit::Options{false, false});
  const CompiledCircuit opt(instance.circuit);
  // The optimizer must be doing real work on every family.
  EXPECT_LT(opt.n_ops(), raw.n_ops()) << GetParam();
  EXPECT_LE(opt.n_slots(), raw.n_slots()) << GetParam();

  Engine eng_raw = make_engine(raw, /*fast_sigmoid=*/false);
  Engine eng_opt = make_engine(opt, /*fast_sigmoid=*/false);
  util::Rng rng_a(kSeed);
  util::Rng rng_b(kSeed);
  eng_raw.randomize(rng_a);
  eng_opt.randomize(rng_b);
  eng_raw.forward_only();
  eng_opt.forward_only();

  ASSERT_EQ(raw.outputs().size(), opt.outputs().size());
  for (std::size_t k = 0; k < raw.outputs().size(); ++k) {
    for (std::size_t r = 0; r < kBatch; ++r) {
      const float y_raw = eng_raw.activation(raw.outputs()[k].slot, r);
      const float y_opt = eng_opt.activation(opt.outputs()[k].slot, r);
      ASSERT_EQ(y_raw, y_opt) << GetParam() << " output " << k << " row " << r;
    }
  }
  EXPECT_EQ(eng_raw.last_loss(), eng_opt.last_loss()) << GetParam();
}

TEST_P(EngineParity, OptimizedFastSigmoidForwardWithin1e5) {
  const benchgen::Instance instance = benchgen::make_instance(GetParam());
  const CompiledCircuit raw(instance.circuit,
                            CompiledCircuit::Options{false, false});
  const CompiledCircuit opt(instance.circuit);

  Engine eng_raw = make_engine(raw, /*fast_sigmoid=*/false);
  Engine eng_opt = make_engine(opt, /*fast_sigmoid=*/true);
  util::Rng rng_a(kSeed);
  util::Rng rng_b(kSeed);
  eng_raw.randomize(rng_a);
  eng_opt.randomize(rng_b);
  eng_raw.forward_only();
  eng_opt.forward_only();

  for (std::size_t k = 0; k < raw.outputs().size(); ++k) {
    for (std::size_t r = 0; r < kBatch; ++r) {
      const float y_raw = eng_raw.activation(raw.outputs()[k].slot, r);
      const float y_opt = eng_opt.activation(opt.outputs()[k].slot, r);
      ASSERT_NEAR(y_raw, y_opt, 1e-5f)
          << GetParam() << " output " << k << " row " << r;
    }
  }
}

TEST_P(EngineParity, OptimizedGradientDescentTracksRaw) {
  // Gradient accumulation order can shift where copies were propagated, so
  // V agreement after descent is near-exact rather than bitwise.
  const benchgen::Instance instance = benchgen::make_instance(GetParam());
  const CompiledCircuit raw(instance.circuit,
                            CompiledCircuit::Options{false, false});
  const CompiledCircuit opt(instance.circuit);

  Engine eng_raw = make_engine(raw, /*fast_sigmoid=*/false);
  Engine eng_opt = make_engine(opt, /*fast_sigmoid=*/false);
  util::Rng rng_a(kSeed);
  util::Rng rng_b(kSeed);
  eng_raw.randomize(rng_a);
  eng_opt.randomize(rng_b);
  for (int iter = 0; iter < 3; ++iter) {
    eng_raw.run_iteration();
    eng_opt.run_iteration();
  }
  const std::size_t n_inputs = eng_raw.n_inputs();
  ASSERT_EQ(n_inputs, eng_opt.n_inputs());
  for (std::size_t i = 0; i < n_inputs; ++i) {
    for (std::size_t r = 0; r < kBatch; ++r) {
      ASSERT_NEAR(eng_raw.v_value(i, r), eng_opt.v_value(i, r), 1e-4f)
          << GetParam() << " input " << i << " row " << r;
    }
  }
}

TEST_P(EngineParity, TileParallelForwardIsBitIdentical) {
  // Serial vs tile-parallel, raw and optimized tapes, exact sigmoid: every
  // output activation and the loss must agree bit for bit.
  const benchgen::Instance instance = benchgen::make_instance(GetParam());
  for (const bool optimize : {false, true}) {
    const CompiledCircuit compiled(instance.circuit,
                                   CompiledCircuit::Options{false, optimize});
    Engine serial = make_engine(compiled, /*fast_sigmoid=*/false);
    Engine tiles = make_engine(compiled, /*fast_sigmoid=*/false,
                               tensor::Policy::kDataParallel);
    util::Rng rng_a(kSeed);
    util::Rng rng_b(kSeed);
    serial.randomize(rng_a);
    tiles.randomize(rng_b);
    serial.forward_only();
    tiles.forward_only();
    for (std::size_t k = 0; k < compiled.outputs().size(); ++k) {
      const std::uint32_t slot = compiled.outputs()[k].slot;
      for (std::size_t r = 0; r < kBatch; ++r) {
        ASSERT_EQ(serial.activation(slot, r), tiles.activation(slot, r))
            << GetParam() << (optimize ? "/opt" : "/raw") << " output " << k
            << " row " << r;
      }
    }
    EXPECT_EQ(serial.last_loss(), tiles.last_loss()) << GetParam();
  }
}

TEST_P(EngineParity, GdTrajectoryIsBitIdenticalAcrossAllPolicies) {
  // Every policy walks the plan in the same order — forward in plan order,
  // backward in reverse plan order, tile by tile — so the *entire* GD
  // trajectory (not just forward activations) is bitwise equal across
  // serial and tile-parallel, on raw and optimized tapes.
  const benchgen::Instance instance = benchgen::make_instance(GetParam());
  for (const bool optimize : {false, true}) {
    const CompiledCircuit compiled(instance.circuit,
                                   CompiledCircuit::Options{false, optimize});
    Engine serial = make_engine(compiled, /*fast_sigmoid=*/false);
    Engine tiles = make_engine(compiled, /*fast_sigmoid=*/false,
                               tensor::Policy::kDataParallel);
    Engine* engines[] = {&serial, &tiles};
    for (Engine* engine : engines) {
      util::Rng rng(kSeed);
      engine->randomize(rng);
    }
    for (int iter = 0; iter < 3; ++iter) {
      for (Engine* engine : engines) engine->run_iteration();
    }
    const std::size_t n_inputs = serial.n_inputs();
    for (std::size_t i = 0; i < n_inputs; ++i) {
      for (std::size_t r = 0; r < kBatch; ++r) {
        ASSERT_EQ(serial.v_value(i, r), tiles.v_value(i, r))
            << GetParam() << (optimize ? "/opt" : "/raw") << " tiles input "
            << i << " row " << r;
      }
    }
    EXPECT_EQ(serial.last_loss(), tiles.last_loss()) << GetParam();
  }
}

// A fresh engine's buffers are first-touched tile by tile under its own
// policy.  With no randomize(), V must read as all zeros, so every input
// embeds to sigmoid(0) = 0.5 and every constant slot holds its value —
// bit-identically whether the tiles were filled on one thread or on the
// pool.
TEST_P(EngineParity, FreshEngineIsZeroInitializedUnderEveryPolicy) {
  const benchgen::Instance instance = benchgen::make_instance(GetParam());
  const CompiledCircuit raw(instance.circuit,
                            CompiledCircuit::Options{false, false});
  const CompiledCircuit opt(instance.circuit);
  for (const CompiledCircuit* compiled : {&raw, &opt}) {
    Engine serial = make_engine(*compiled, /*fast_sigmoid=*/false);
    Engine tiles = make_engine(*compiled, /*fast_sigmoid=*/false,
                               tensor::Policy::kDataParallel);
    serial.forward_only();
    tiles.forward_only();
    for (std::uint32_t slot = 0; slot < compiled->n_slots(); ++slot) {
      for (std::size_t r = 0; r < kBatch; ++r) {
        ASSERT_EQ(serial.activation(slot, r), tiles.activation(slot, r))
            << GetParam() << " slot " << slot << " row " << r;
      }
    }
    for (std::size_t i = 0; i < compiled->n_circuit_inputs(); ++i) {
      const std::int32_t slot = compiled->input_slot()[i];
      for (std::size_t r = 0; r < kBatch; ++r) {
        ASSERT_EQ(tiles.v_value(i, r), 0.0f) << GetParam() << " input " << i;
        if (slot == kNoSlot) continue;
        ASSERT_EQ(tiles.activation(static_cast<std::uint32_t>(slot), r), 0.5f)
            << GetParam() << " input " << i << " row " << r;
      }
    }
    for (const CompiledCircuit::ConstSlot& c : compiled->const_slots()) {
      for (std::size_t r = 0; r < kBatch; ++r) {
        ASSERT_EQ(tiles.activation(c.slot, r), c.value) << GetParam();
      }
    }
    EXPECT_EQ(serial.last_loss(), tiles.last_loss()) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, EngineParity,
                         ::testing::Values("or-50-10-7-UC-10", "75-10-1-q",
                                           "s15850a_3_2", "Prod-8"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace hts::prob
