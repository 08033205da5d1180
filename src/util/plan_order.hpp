#pragma once

// Shared levelization and opcode-run partitioning for compiled execution
// plans.
//
// Both compiled evaluators — the engine's float tape (prob::ExecPlan) and
// the harvest side's bitwise word plan (circuit::EvalPlan) — assign ASAP
// levels over their slot DAG, regroup ops by level (stable counting sort),
// order each level by opcode (stable, so ties keep tape order), and then
// dispatch kernels once per maximal same-opcode run.  The level, order and
// run boundary rules live here so the two plans can never diverge: an op's
// level is one past the highest operand level, each level holds exactly one
// run per distinct opcode, and runs never cross levels.

#include <algorithm>
#include <cstdint>
#include <vector>

namespace hts::util {

/// Result of levelize_asap: level l spans plan positions
/// [level_begin[l], level_begin[l + 1]), and order[k] is the original op
/// index at plan position k (stable within a level).
struct LevelOrder {
  std::vector<std::uint32_t> level_begin;
  std::vector<std::uint32_t> order;

  [[nodiscard]] std::size_t n_levels() const {
    return level_begin.empty() ? 0 : level_begin.size() - 1;
  }
};

/// ASAP-levelizes a topologically ordered op list: `op_level(i, slot_level)`
/// returns op i's level from its operands' slot levels (max over operands;
/// undefined slots sit at level 0), `dst(i)` the slot it defines.
template <typename OpLevelFn, typename DstFn>
[[nodiscard]] LevelOrder levelize_asap(std::size_t n_ops, std::size_t n_slots,
                                       OpLevelFn&& op_level, DstFn&& dst) {
  LevelOrder out;
  std::vector<std::uint32_t> slot_level(n_slots, 0);
  std::vector<std::uint32_t> levels(n_ops, 0);
  std::uint32_t n_levels = 0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    const std::uint32_t lvl = op_level(i, slot_level);
    levels[i] = lvl;
    slot_level[dst(i)] = lvl + 1;
    n_levels = std::max(n_levels, lvl + 1);
  }

  out.level_begin.assign(static_cast<std::size_t>(n_levels) + 1, 0);
  for (std::size_t i = 0; i < n_ops; ++i) ++out.level_begin[levels[i] + 1];
  for (std::size_t l = 1; l <= n_levels; ++l) {
    out.level_begin[l] += out.level_begin[l - 1];
  }
  out.order.resize(n_ops);
  std::vector<std::uint32_t> cursor(out.level_begin);
  for (std::size_t i = 0; i < n_ops; ++i) {
    out.order[cursor[levels[i]]++] = static_cast<std::uint32_t>(i);
  }
  return out;
}

/// Orders each level of `levels` by `opcode(op index)`, stable in the
/// levelized (tape) order, so a level's same-opcode ops sit contiguously.
/// Ops of one level are mutually independent, so any within-level order
/// computes the same forward values; the order is a fixed function of the
/// tape, so a reverse (backward) walk accumulates each shared operand's
/// gradient in one fixed sequence.
template <typename OpcodeFn>
void sort_levels_by_opcode(LevelOrder& levels, OpcodeFn&& opcode) {
  for (std::size_t l = 0; l < levels.n_levels(); ++l) {
    std::stable_sort(levels.order.begin() + levels.level_begin[l],
                     levels.order.begin() + levels.level_begin[l + 1],
                     [&opcode](std::uint32_t x, std::uint32_t y) {
                       return opcode(x) < opcode(y);
                     });
  }
}

/// Partitions `op` (plan order) into maximal same-opcode runs bounded by
/// `level_begin` (level l spans [level_begin[l], level_begin[l + 1])).
/// Returns the run boundaries: run k spans [result[k], result[k + 1]); a
/// plan of n ops always ends with result.back() == n (so an empty plan
/// yields {0} and zero runs).
template <typename Op>
[[nodiscard]] std::vector<std::uint32_t> partition_opcode_runs(
    const std::vector<Op>& op, const std::vector<std::uint32_t>& level_begin) {
  std::vector<std::uint32_t> run_begin;
  const auto n = static_cast<std::uint32_t>(op.size());
  std::size_t lvl = 0;
  for (std::uint32_t k = 0; k < n; ++k) {
    while (level_begin[lvl + 1] <= k) ++lvl;
    if (k == 0 || op[k] != op[k - 1] || level_begin[lvl] == k) {
      run_begin.push_back(k);
    }
  }
  run_begin.push_back(n);
  return run_begin;
}

/// Longest run of a partition returned by partition_opcode_runs.
[[nodiscard]] inline std::size_t max_run_length(
    const std::vector<std::uint32_t>& run_begin) {
  std::size_t longest = 0;
  for (std::size_t k = 0; k + 1 < run_begin.size(); ++k) {
    longest = std::max<std::size_t>(longest, run_begin[k + 1] - run_begin[k]);
  }
  return longest;
}

}  // namespace hts::util
