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
// identical across serial, tile-parallel, and level-parallel (including the
// stage-major dispatch forced by Config::force_level_stages), on raw and
// optimized tapes.

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
                            tensor::Policy policy = tensor::Policy::kSerial,
                            bool force_level_stages = false) {
    Engine::Config config;
    config.batch = kBatch;
    config.policy = policy;
    config.fast_sigmoid = fast_sigmoid;
    config.compute_loss = true;
    config.force_level_stages = force_level_stages;
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

TEST_P(EngineParity, LevelParallelForwardIsBitIdentical) {
  // Serial per-tile vs level-parallel (both fallback and forced stage-major
  // dispatch), raw and optimized tapes, exact sigmoid: every output
  // activation and the loss must agree bit for bit.
  const benchgen::Instance instance = benchgen::make_instance(GetParam());
  for (const bool optimize : {false, true}) {
    const CompiledCircuit compiled(instance.circuit,
                                   CompiledCircuit::Options{false, optimize});
    Engine serial = make_engine(compiled, /*fast_sigmoid=*/false);
    Engine level = make_engine(compiled, /*fast_sigmoid=*/false,
                               tensor::Policy::kLevelParallel);
    Engine staged = make_engine(compiled, /*fast_sigmoid=*/false,
                                tensor::Policy::kLevelParallel,
                                /*force_level_stages=*/true);
    util::Rng rng_a(kSeed);
    util::Rng rng_b(kSeed);
    util::Rng rng_c(kSeed);
    serial.randomize(rng_a);
    level.randomize(rng_b);
    staged.randomize(rng_c);
    serial.forward_only();
    level.forward_only();
    staged.forward_only();
    for (std::size_t k = 0; k < compiled.outputs().size(); ++k) {
      const std::uint32_t slot = compiled.outputs()[k].slot;
      for (std::size_t r = 0; r < kBatch; ++r) {
        ASSERT_EQ(serial.activation(slot, r), level.activation(slot, r))
            << GetParam() << (optimize ? "/opt" : "/raw") << " output " << k
            << " row " << r;
        ASSERT_EQ(serial.activation(slot, r), staged.activation(slot, r))
            << GetParam() << (optimize ? "/opt" : "/raw") << " output " << k
            << " row " << r;
      }
    }
    EXPECT_EQ(serial.last_loss(), level.last_loss()) << GetParam();
    EXPECT_EQ(serial.last_loss(), staged.last_loss()) << GetParam();
  }
}

TEST_P(EngineParity, GdTrajectoryIsBitIdenticalAcrossAllPolicies) {
  // Since the opcode-batched dispatch every policy walks the plan in the
  // same order — forward in plan order, backward in reverse plan order, with
  // level-parallel chunk boundaries fixed at plan time and aligned to
  // operand-disjoint groups — so the *entire* GD trajectory (not just
  // forward activations) is bitwise equal across serial, tile-parallel, and
  // level-parallel (both the tile-major fallback and the forced stage-major
  // dispatch), on raw and optimized tapes.
  const benchgen::Instance instance = benchgen::make_instance(GetParam());
  for (const bool optimize : {false, true}) {
    const CompiledCircuit compiled(instance.circuit,
                                   CompiledCircuit::Options{false, optimize});
    Engine serial = make_engine(compiled, /*fast_sigmoid=*/false);
    Engine tiles = make_engine(compiled, /*fast_sigmoid=*/false,
                               tensor::Policy::kDataParallel);
    Engine level = make_engine(compiled, /*fast_sigmoid=*/false,
                               tensor::Policy::kLevelParallel);
    Engine staged = make_engine(compiled, /*fast_sigmoid=*/false,
                                tensor::Policy::kLevelParallel,
                                /*force_level_stages=*/true);
    Engine* engines[] = {&serial, &tiles, &level, &staged};
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
        const float v = serial.v_value(i, r);
        ASSERT_EQ(v, tiles.v_value(i, r))
            << GetParam() << (optimize ? "/opt" : "/raw") << " tiles input "
            << i << " row " << r;
        ASSERT_EQ(v, level.v_value(i, r))
            << GetParam() << (optimize ? "/opt" : "/raw") << " level input "
            << i << " row " << r;
        ASSERT_EQ(v, staged.v_value(i, r))
            << GetParam() << (optimize ? "/opt" : "/raw") << " staged input "
            << i << " row " << r;
      }
    }
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
