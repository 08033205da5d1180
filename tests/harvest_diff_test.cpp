// Differential test harness for the word-parallel harvest pipeline.
//
// The compiled evaluator (circuit::EvalPlan) must be bit-identical to the
// scalar interpreter (Circuit::eval64) and to single-assignment evaluation
// (Circuit::eval) on *any* circuit — fuzzed here over seeded random circuits
// covering every gate type, n-ary fanins with duplicates, constants, BUF
// chains, and random output constraints — and the rewritten Harvester must
// reproduce the historical scalar unpack -> eval64 -> mask -> project
// pipeline result for result (counts, bank content, stored solutions, and
// solved masks) on the four benchgen families.
//
// The suite also pins the harvester's no-allocation contract: after the
// first collect() of a batch shape, repeated harvests perform zero heap
// allocations (measured by a global operator-new counting hook).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <iterator>
#include <new>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "benchgen/families.hpp"
#include "circuit/circuit.hpp"
#include "circuit/eval_plan.hpp"
#include "core/harvester.hpp"
#include "core/unique_bank.hpp"
#include "transform/transform.hpp"
#include "util/rng.hpp"

// --- global allocation counting hook ----------------------------------------
// Counts every operator-new in the test binary; tests snapshot the counter
// around a code region to assert it allocates nothing.  Deallocation
// functions must pair up for ASan builds, hence the full set of overloads.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// The replacement pair is internally consistent (new -> malloc, delete ->
// free), but GCC/Clang pair call sites against the *declared* global
// operator new and flag the free() as mismatched.
#if defined(__GNUC__) || defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms must be replaced too: libstdc++'s temporary buffers
// (std::stable_sort et al.) allocate through them but deallocate through the
// plain/sized operator delete, so a half-replaced set would pair the default
// allocator with our free().
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hts {
namespace {

// --- seeded random circuits --------------------------------------------------

circuit::Circuit random_circuit(util::Rng& rng) {
  circuit::Circuit c;
  const std::size_t n_inputs = 1 + rng.next_below(32);
  const std::size_t n_gates = rng.next_below(150);
  for (std::size_t i = 0; i < n_inputs; ++i) (void)c.add_input();
  if (rng.next_bool(0.5)) (void)c.add_const(false);
  if (rng.next_bool(0.5)) (void)c.add_const(true);

  constexpr circuit::GateType kTypes[] = {
      circuit::GateType::kBuf,  circuit::GateType::kNot,
      circuit::GateType::kAnd,  circuit::GateType::kOr,
      circuit::GateType::kXor,  circuit::GateType::kNand,
      circuit::GateType::kNor,  circuit::GateType::kXnor};
  for (std::size_t g = 0; g < n_gates; ++g) {
    const circuit::GateType type = kTypes[rng.next_below(std::size(kTypes))];
    const auto n_signals = static_cast<std::uint64_t>(c.n_signals());
    std::size_t n_fanins = 1;
    if (type != circuit::GateType::kBuf && type != circuit::GateType::kNot) {
      // 1-ary n-ary gates are a corner the binarizer must fold to NOT/COPY;
      // duplicate fanins exercise commutative reassociation.
      n_fanins = 1 + rng.next_below(6);
    }
    std::vector<circuit::SignalId> fanins;
    fanins.reserve(n_fanins);
    for (std::size_t f = 0; f < n_fanins; ++f) {
      fanins.push_back(static_cast<circuit::SignalId>(rng.next_below(n_signals)));
    }
    (void)c.add_gate(type, std::move(fanins));
  }
  const std::size_t n_outputs = rng.next_below(6);
  for (std::size_t o = 0; o < n_outputs; ++o) {
    c.add_output(static_cast<circuit::SignalId>(
                     rng.next_below(static_cast<std::uint64_t>(c.n_signals()))),
                 rng.next_bool());
  }
  return c;
}

std::vector<std::uint64_t> random_words(util::Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> words(n);
  for (std::uint64_t& w : words) w = rng.next_u64();
  return words;
}

// --- fuzz: compiled evaluator vs scalar eval64 vs single-row eval -----------

TEST(HarvestDiff, CompiledEvaluatorMatchesScalarOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng rng(seed);
    const circuit::Circuit c = random_circuit(rng);
    const circuit::EvalPlan plan(c);
    ASSERT_GE(plan.n_slots(), c.n_signals()) << "seed " << seed;

    const std::vector<std::uint64_t> inputs = random_words(rng, c.n_inputs());
    const std::vector<std::uint64_t> scalar = c.eval64(inputs);
    const std::vector<std::uint64_t> compiled = plan.eval64(inputs);
    ASSERT_EQ(scalar.size(), compiled.size()) << "seed " << seed;
    for (circuit::SignalId s = 0; s < scalar.size(); ++s) {
      ASSERT_EQ(scalar[s], compiled[s])
          << "seed " << seed << " signal " << s << " ("
          << circuit::gate_type_name(c.gate(s).type) << ")";
    }

    // Single-assignment evaluation agrees lane by lane.
    for (const std::size_t r : {std::size_t{0}, std::size_t{17}, std::size_t{63}}) {
      std::vector<std::uint8_t> bits(c.n_inputs());
      for (std::size_t i = 0; i < bits.size(); ++i) {
        bits[i] = static_cast<std::uint8_t>((inputs[i] >> r) & 1ULL);
      }
      const std::vector<std::uint8_t> row = c.eval(bits);
      for (circuit::SignalId s = 0; s < row.size(); ++s) {
        ASSERT_EQ(row[s], static_cast<std::uint8_t>((compiled[s] >> r) & 1ULL))
            << "seed " << seed << " signal " << s << " row " << r;
      }
    }
  }
}

TEST(HarvestDiff, BlockEvaluationMatchesScalarPerWordIncludingPartialBlocks) {
  // 7 words = one full 4-word block plus a 3-word tail; the packed layout is
  // the harden() one (packed[input * n_words + w]).
  constexpr std::size_t kWords = 7;
  for (std::uint64_t seed = 100; seed <= 130; ++seed) {
    util::Rng rng(seed);
    const circuit::Circuit c = random_circuit(rng);
    const circuit::EvalPlan plan(c);
    const std::vector<std::uint64_t> packed =
        random_words(rng, c.n_inputs() * kWords);

    std::vector<std::uint64_t> slots(plan.scratch_words());
    std::vector<std::uint64_t> word_inputs(c.n_inputs());
    for (std::size_t w0 = 0; w0 < kWords; w0 += circuit::EvalPlan::kBlockWords) {
      const std::size_t count =
          std::min(circuit::EvalPlan::kBlockWords, kWords - w0);
      plan.eval_block(packed.data(), kWords, w0, count, slots.data());
      for (std::size_t lane = 0; lane < count; ++lane) {
        const std::size_t w = w0 + lane;
        for (std::size_t i = 0; i < c.n_inputs(); ++i) {
          word_inputs[i] = packed[i * kWords + w];
        }
        const std::vector<std::uint64_t> scalar = c.eval64(word_inputs);
        for (circuit::SignalId s = 0; s < scalar.size(); ++s) {
          ASSERT_EQ(scalar[s],
                    circuit::EvalPlan::signal_word(slots.data(), s, lane))
              << "seed " << seed << " word " << w << " signal " << s;
        }
        ASSERT_EQ(c.outputs_satisfied64(scalar),
                  plan.satisfied(slots.data(), lane))
            << "seed " << seed << " word " << w;
      }
    }
  }
}

TEST(HarvestDiff, PlanRunsAreOpcodeUniformAndCoverThePlan) {
  for (std::uint64_t seed = 200; seed <= 220; ++seed) {
    util::Rng rng(seed);
    const circuit::Circuit c = random_circuit(rng);
    const circuit::EvalPlan plan(c);
    const circuit::EvalPlanStats& stats = plan.stats();
    if (stats.n_ops == 0) {
      EXPECT_EQ(stats.n_runs, 0u) << "seed " << seed;
      continue;
    }
    EXPECT_GE(stats.n_runs, 1u) << "seed " << seed;
    EXPECT_LE(stats.n_runs, stats.n_ops) << "seed " << seed;
    EXPECT_GE(stats.max_run_length, 1u) << "seed " << seed;
    EXPECT_LE(stats.max_run_length, stats.n_ops) << "seed " << seed;
    EXPECT_GE(stats.n_levels, 1u) << "seed " << seed;
  }
}

// --- end-to-end: Harvester vs the historical scalar pipeline ----------------

/// The pre-EvalPlan Harvester::collect, kept verbatim as the reference
/// implementation: per word, unpack the inputs, interpret the circuit with
/// eval64, mask, then project accepted rows.
struct ScalarReference {
  const sampler::GdProblem& problem;
  const cnf::Formula& formula;
  const sampler::RunOptions& options;
  sampler::UniqueBank& bank;
  sampler::RunResult& result;
  std::vector<std::uint64_t> solved_mask;

  void collect(const std::vector<std::uint64_t>& packed, std::size_t n_words,
               std::size_t batch) {
    const circuit::Circuit& circuit = *problem.circuit;
    const std::size_t n_inputs = circuit.n_inputs();
    std::vector<std::uint64_t> input_words(n_inputs);
    solved_mask.assign(n_words, 0);
    for (std::size_t w = 0; w < n_words; ++w) {
      for (std::size_t i = 0; i < n_inputs; ++i) {
        input_words[i] = packed[i * n_words + w];
      }
      const std::vector<std::uint64_t> values = circuit.eval64(input_words);
      std::uint64_t ok = circuit.outputs_satisfied64(values);
      const std::size_t rows_here = std::min<std::size_t>(64, batch - w * 64);
      if (rows_here < 64) ok &= (1ULL << rows_here) - 1;
      solved_mask[w] = ok;
      while (ok != 0) {
        const int r = std::countr_zero(ok);
        ok &= ok - 1;
        accept_row(input_words, values, static_cast<std::size_t>(r));
      }
    }
  }

  void accept_row(const std::vector<std::uint64_t>& input_words,
                  const std::vector<std::uint64_t>& values, std::size_t r) {
    std::vector<std::uint64_t> key(bank.n_words(), 0);
    for (std::size_t i = 0; i < input_words.size(); ++i) {
      if (((input_words[i] >> r) & 1ULL) != 0) key[i >> 6] |= (1ULL << (i & 63));
    }
    ++result.n_valid;
    const bool is_new = bank.insert(key);
    if (!is_new && !options.store_all_draws) return;
    const bool want_assignment =
        result.solutions.size() < options.store_limit ||
        (is_new && options.verify_against_cnf);
    if (!want_assignment) return;
    const auto& var_signal = *problem.var_signal;
    cnf::Assignment assignment(var_signal.size(), 0);
    for (cnf::Var v = 0; v < var_signal.size(); ++v) {
      assignment[v] =
          static_cast<std::uint8_t>((values[var_signal[v]] >> r) & 1ULL);
    }
    if (options.verify_against_cnf && !formula.satisfied_by(assignment)) {
      ++result.n_invalid;
    }
    if (result.solutions.size() < options.store_limit) {
      result.solutions.push_back(std::move(assignment));
    }
  }
};

class HarvestFamilies : public ::testing::TestWithParam<const char*> {};

TEST_P(HarvestFamilies, HarvesterMatchesScalarPipelineEndToEnd) {
  benchgen::GenOptions gen;
  gen.scale = 0.05;
  const benchgen::Instance instance = benchgen::make_instance(GetParam(), gen);
  const transform::Result transformed =
      transform::transform_cnf(instance.formula);
  sampler::GdProblem problem;
  problem.circuit = &transformed.circuit;
  problem.var_signal = &transformed.var_signal;

  sampler::RunOptions options;
  options.store_limit = 100000;
  options.verify_against_cnf = true;

  // Random hardened batches (uniform bits satisfy often enough on these
  // scaled instances to exercise the accept path), including a partial final
  // word: batch 300 rows over 5 words.
  constexpr std::size_t kWords = 5;
  constexpr std::size_t kBatch = 300;
  util::Rng rng(0xd1ff + std::string_view(GetParam()).size());
  const std::vector<std::uint64_t> packed =
      random_words(rng, transformed.circuit.n_inputs() * kWords);

  sampler::RunResult ref_result;
  sampler::UniqueBank ref_bank(transformed.circuit.n_inputs());
  ScalarReference reference{problem, instance.formula, options, ref_bank,
                            ref_result, {}};

  sampler::RunResult new_result;
  sampler::UniqueBank new_bank(transformed.circuit.n_inputs());
  sampler::Harvester<sampler::UniqueBank> harvester(
      problem, instance.formula, options, new_bank, new_result);

  // Two rounds over the same packed data: the second exercises the
  // duplicate-heavy path and the reused scratch.
  for (int round = 0; round < 2; ++round) {
    reference.collect(packed, kWords, kBatch);
    harvester.collect(packed, kWords, kBatch);
    ASSERT_EQ(reference.solved_mask, harvester.last_solved())
        << GetParam() << " round " << round;
    ASSERT_EQ(ref_result.n_valid, new_result.n_valid)
        << GetParam() << " round " << round;
    ASSERT_EQ(ref_result.n_invalid, new_result.n_invalid)
        << GetParam() << " round " << round;
    ASSERT_EQ(ref_bank.size(), new_bank.size())
        << GetParam() << " round " << round;
    ASSERT_EQ(ref_result.solutions, new_result.solutions)
        << GetParam() << " round " << round;
  }
  EXPECT_EQ(new_result.n_invalid, 0u) << GetParam();
  EXPECT_EQ(harvester.rows_validated(), 2 * kBatch) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, HarvestFamilies,
                         ::testing::Values("or-50-10-7-UC-10", "75-10-1-q",
                                           "s15850a_3_2", "Prod-8"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

// --- repeated harvests allocate nothing -------------------------------------

TEST(HarvestDiff, RepeatedHarvestsDoNotAllocate) {
  // OR(a, b) constrained true: 3 of 4 input patterns satisfy, so the first
  // collect banks every reachable key and the second is pure duplicates.
  circuit::Circuit c;
  const auto a = c.add_input();
  const auto b = c.add_input();
  const auto o = c.add_gate(circuit::GateType::kOr, {a, b});
  c.add_output(o, true);
  const std::vector<circuit::SignalId> var_signal = {a, b};
  sampler::GdProblem problem;
  problem.circuit = &c;
  problem.var_signal = &var_signal;
  const cnf::Formula formula;  // never consulted: verify_against_cnf off

  sampler::RunOptions options;
  options.store_limit = 0;  // storing solutions may allocate by design

  sampler::RunResult result;
  sampler::UniqueBank bank(c.n_inputs());
  sampler::Harvester<sampler::UniqueBank> harvester(problem, formula, options,
                                                    bank, result);

  // One word (64 rows): a single block, so collect() stays on the inline
  // path regardless of the machine's thread count.
  util::Rng rng(77);
  const std::vector<std::uint64_t> packed = random_words(rng, c.n_inputs());
  harvester.collect(packed, 1, 64);
  ASSERT_GT(result.n_valid, 0u);
  ASSERT_GT(bank.size(), 0u);
  const std::size_t valid_per_round = result.n_valid;
  const std::size_t uniques = bank.size();

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  harvester.collect(packed, 1, 64);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "repeated collect() performed heap allocations";
  EXPECT_EQ(result.n_valid, 2 * valid_per_round);
  EXPECT_EQ(bank.size(), uniques)
      << "second collect must re-observe exactly the first round's keys";
}

// --- transposed accept-path keys ----------------------------------------------
// The accept phase builds a solved word's 64 row keys with bit-matrix
// transposes.  These tests pin them against scalar per-row packing — bank
// membership and size, the diversity probe, and the full keys handed to the
// amplifier's fresh sink in bank-insertion order — across key widths that
// straddle the 64-bit block edges, on a batch that is not a multiple of 64.

/// Row g's bits over `bits` (input indices), packed bit k <- input bits[k]:
/// the scalar reference for full keys (bits = 0..n-1) and projected keys.
std::vector<std::uint64_t> scalar_key(const std::vector<std::uint64_t>& packed,
                                      std::size_t n_words, std::size_t g,
                                      const std::vector<std::size_t>& bits) {
  std::vector<std::uint64_t> key((bits.size() + 63) / 64, 0);
  for (std::size_t k = 0; k < bits.size(); ++k) {
    if (((packed[bits[k] * n_words + g / 64] >> (g % 64)) & 1ULL) != 0) {
      key[k / 64] |= 1ULL << (k % 64);
    }
  }
  return key;
}

struct TransposeCase {
  std::size_t n_inputs;
  bool projected;
  bool store;
};

class TransposedKeys : public ::testing::TestWithParam<TransposeCase> {};

TEST_P(TransposedKeys, MatchScalarRowPacking) {
  const TransposeCase tc = GetParam();
  const std::size_t n = tc.n_inputs;
  // Output: OR of three inputs (repeats allowed), so about 1/8 of the rows
  // stay unsolved and the solved masks are ragged.
  circuit::Circuit c;
  std::vector<circuit::SignalId> ins;
  for (std::size_t i = 0; i < n; ++i) ins.push_back(c.add_input());
  const std::vector<std::size_t> or_inputs = {0, n / 2, n - 1};
  c.add_output(c.add_gate(circuit::GateType::kOr,
                          {ins[or_inputs[0]], ins[or_inputs[1]],
                           ins[or_inputs[2]]}),
               true);
  const std::vector<circuit::SignalId> var_signal = c.inputs();

  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  sampler::GdProblem problem;
  problem.circuit = &c;
  problem.var_signal = &var_signal;
  std::vector<std::size_t> key_bits = all;
  sampler::HarvestMode mode;
  if (tc.projected) {
    // Every third variable plus the last: a set whose width crosses the
    // same block edges at a different phase than the inputs.
    key_bits.clear();
    for (std::size_t v = 0; v < n; v += 3) key_bits.push_back(v);
    if (key_bits.back() != n - 1) key_bits.push_back(n - 1);
    for (const std::size_t v : key_bits) {
      problem.sampling_set.push_back(static_cast<cnf::Var>(v));
    }
    mode.projected = true;
    mode.probe_projections = true;
  }
  const cnf::Formula formula;  // never consulted: verify_against_cnf off
  sampler::RunOptions options;
  options.store_limit = tc.store ? (1u << 20) : 0;
  sampler::RunResult result;
  sampler::UniqueBank bank(key_bits.size());
  sampler::Harvester<sampler::UniqueBank> harvester(
      problem, formula, options, bank, result, nullptr, false, mode);
  std::vector<std::uint64_t> sink;
  harvester.set_fresh_sink(&sink);

  constexpr std::size_t kBatch = 5 * 64 + 37;
  constexpr std::size_t kWords = (kBatch + 63) / 64;
  util::Rng rng(1000 + n);
  std::set<std::vector<std::uint64_t>> reference;
  std::vector<std::uint64_t> expected_sink;
  std::size_t expected_valid = 0;
  for (int round = 0; round < 2; ++round) {
    std::vector<std::uint64_t> packed = random_words(rng, n * kWords);
    // Few distinct rows on narrow keys: duplicates within and across
    // rounds exercise the bank's rejects too.
    if (n == 1 && round == 1) packed.assign(packed.size(), ~0ULL);
    // Padding rows are zero, as Engine::harden leaves them.
    for (std::size_t i = 0; i < n; ++i) {
      packed[i * kWords + kWords - 1] &= (1ULL << (kBatch % 64)) - 1;
    }
    sink.clear();
    expected_sink.clear();
    std::vector<bool> solved(kBatch);
    for (std::size_t g = 0; g < kBatch; ++g) {
      for (const std::size_t i : or_inputs) {
        solved[g] =
            solved[g] || ((packed[i * kWords + g / 64] >> (g % 64)) & 1ULL);
      }
      if (!solved[g]) continue;
      ++expected_valid;
      if (reference.insert(scalar_key(packed, kWords, g, key_bits)).second) {
        const std::vector<std::uint64_t> full =
            scalar_key(packed, kWords, g, all);
        expected_sink.insert(expected_sink.end(), full.begin(), full.end());
      }
    }
    harvester.collect(packed, kWords, kBatch);

    EXPECT_EQ(result.n_valid, expected_valid);
    EXPECT_EQ(bank.size(), reference.size());
    for (const std::vector<std::uint64_t>& key : reference) {
      ASSERT_TRUE(bank.contains(key));
    }
    ASSERT_EQ(sink, expected_sink) << "fresh-sink full keys, round " << round;
    if (!tc.projected) continue;
    // The probe flags exactly the unsolved rows whose projection is banked.
    const std::vector<std::uint64_t>& flagged =
        harvester.banked_projection_mask();
    for (std::size_t g = 0; g < kBatch; ++g) {
      const bool expect =
          !solved[g] &&
          reference.count(scalar_key(packed, kWords, g, key_bits)) != 0;
      ASSERT_EQ(((flagged[g / 64] >> (g % 64)) & 1ULL) != 0, expect)
          << "row " << g;
    }
  }
}

std::vector<TransposeCase> transpose_cases() {
  std::vector<TransposeCase> cases;
  for (const std::size_t n : {1u, 63u, 64u, 65u, 130u, 600u}) {
    for (const bool projected : {false, true}) {
      for (const bool store : {false, true}) {
        cases.push_back({n, projected, store});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Widths, TransposedKeys, ::testing::ValuesIn(transpose_cases()),
    [](const ::testing::TestParamInfo<TransposeCase>& info) {
      return std::to_string(info.param.n_inputs) +
             (info.param.projected ? "_projected" : "_full") +
             (info.param.store ? "_store" : "_keys");
    });

// Banking new solutions allocates only when the bank's two arrays grow
// geometrically — never once per key.
TEST(HarvesterAllocations, FreshKeysAllocateOnlyOnBankGrowth) {
  circuit::Circuit c;
  std::vector<circuit::SignalId> ins;
  for (int i = 0; i < 100; ++i) ins.push_back(c.add_input());
  c.add_output(c.add_gate(circuit::GateType::kOr, {ins[0], ins[99]}), true);
  const std::vector<circuit::SignalId> var_signal = c.inputs();
  sampler::GdProblem problem;
  problem.circuit = &c;
  problem.var_signal = &var_signal;
  const cnf::Formula formula;
  sampler::RunOptions options;
  options.store_limit = 0;
  sampler::RunResult result;
  sampler::UniqueBank bank(c.n_inputs());
  // Inline evaluation: no pool dispatch, so every allocation is the bank's.
  sampler::Harvester<sampler::UniqueBank> harvester(
      problem, formula, options, bank, result, nullptr, /*inline_eval=*/true);

  constexpr std::size_t kWords = 64;  // 4096 rows, ~3000 solved
  util::Rng rng(5);
  harvester.collect(random_words(rng, c.n_inputs() * kWords), kWords,
                    64 * kWords);
  const std::vector<std::uint64_t> fresh =
      random_words(rng, c.n_inputs() * kWords);
  const std::size_t before_size = bank.size();
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  harvester.collect(fresh, kWords, 64 * kWords);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  ASSERT_GT(bank.size() - before_size, 2000u);
  // Doubling from ~3000 to ~6000 keys is one or two growths, each a new
  // slot array plus an arena reserve.
  EXPECT_LE(after - before, 4u);
}

}  // namespace
}  // namespace hts
