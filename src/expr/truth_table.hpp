#pragma once

// Dense truth tables over a small ordered support (<= 20 variables).
// Tables of up to 6 variables fit one inline word and never allocate.
//
// Row index encodes the assignment: bit j of the row index is the value of
// the j-th support variable.  Tables are the exact semantic backend for
// small expressions: equivalence, complement checks, and Quine-McCluskey
// resynthesis all operate on them.

#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace hts::expr {

inline constexpr std::uint32_t kMaxTruthTableVars = 20;

class TruthTable {
 public:
  TruthTable() = default;

  explicit TruthTable(std::uint32_t n_vars) : n_vars_(n_vars) {
    HTS_CHECK_MSG(n_vars <= kMaxTruthTableVars, "truth table support too large");
    if (n_vars > kInlineVars) heap_.assign(word_count(), 0);
  }

  [[nodiscard]] std::uint32_t n_vars() const { return n_vars_; }
  [[nodiscard]] std::uint64_t n_rows() const { return 1ULL << n_vars_; }

  [[nodiscard]] bool get(std::uint64_t row) const {
    HTS_DCHECK(row < n_rows());
    return ((words()[row >> 6] >> (row & 63)) & 1ULL) != 0;
  }

  void set(std::uint64_t row, bool value) {
    HTS_DCHECK(row < n_rows());
    const std::uint64_t mask = 1ULL << (row & 63);
    if (value) {
      words()[row >> 6] |= mask;
    } else {
      words()[row >> 6] &= ~mask;
    }
  }

  /// Builds the table of the j-th support variable (the classic 0101.. /
  /// 00110011.. patterns).
  [[nodiscard]] static TruthTable projection(std::uint32_t n_vars, std::uint32_t j);

  [[nodiscard]] static TruthTable constant(std::uint32_t n_vars, bool value);

  [[nodiscard]] TruthTable operator~() const;
  [[nodiscard]] TruthTable operator&(const TruthTable& other) const;
  [[nodiscard]] TruthTable operator|(const TruthTable& other) const;
  [[nodiscard]] TruthTable operator^(const TruthTable& other) const;
  TruthTable& operator&=(const TruthTable& other);
  TruthTable& operator|=(const TruthTable& other);
  TruthTable& operator^=(const TruthTable& other);

  [[nodiscard]] bool operator==(const TruthTable& other) const;

  [[nodiscard]] bool is_constant_false() const;
  [[nodiscard]] bool is_constant_true() const;

  /// Number of rows set to 1.
  [[nodiscard]] std::uint64_t popcount() const;

  /// Row indices of all ones (the minterms).
  [[nodiscard]] std::vector<std::uint64_t> minterms() const;

  /// Hash of (n_vars, rows); equal tables hash equally.
  [[nodiscard]] std::uint64_t hash() const;

 private:
  /// Tables of up to 2^6 rows live in one inline word and never allocate.
  static constexpr std::uint32_t kInlineVars = 6;

  [[nodiscard]] std::size_t word_count() const {
    return static_cast<std::size_t>((n_rows() + 63) >> 6);
  }
  [[nodiscard]] const std::uint64_t* words() const {
    return n_vars_ <= kInlineVars ? &inline_ : heap_.data();
  }
  [[nodiscard]] std::uint64_t* words() {
    return n_vars_ <= kInlineVars ? &inline_ : heap_.data();
  }
  /// Masks off the unused tail bits of the single word for n_vars < 6.
  void trim();

  std::uint32_t n_vars_ = 0;
  std::uint64_t inline_ = 0;          // the rows when n_vars <= kInlineVars
  std::vector<std::uint64_t> heap_;   // the rows otherwise
};

/// Hasher for unordered containers keyed by truth table.
struct TruthTableHash {
  std::size_t operator()(const TruthTable& tt) const noexcept {
    return static_cast<std::size_t>(tt.hash());
  }
};

}  // namespace hts::expr
