#include "expr/truth_table.hpp"

#include <algorithm>
#include <bit>

namespace hts::expr {

namespace {

/// The canonical 64-row pattern of variable j (valid for j < 6).
constexpr std::uint64_t kVarPattern[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
};

}  // namespace

void TruthTable::trim() {
  if (n_vars_ >= 6) return;
  inline_ &= (1ULL << n_rows()) - 1;
}

TruthTable TruthTable::projection(std::uint32_t n_vars, std::uint32_t j) {
  HTS_CHECK(j < n_vars);
  TruthTable tt(n_vars);
  std::uint64_t* w = tt.words();
  const std::size_t n_words = tt.word_count();
  if (j < 6) {
    std::fill(w, w + n_words, kVarPattern[j]);
  } else {
    // Variable j toggles every 2^j rows == every 2^(j-6) words.
    const std::size_t block = std::size_t{1} << (j - 6);
    for (std::size_t i = 0; i < n_words; ++i) {
      w[i] = ((i / block) & 1) != 0 ? ~0ULL : 0ULL;
    }
  }
  tt.trim();
  return tt;
}

TruthTable TruthTable::constant(std::uint32_t n_vars, bool value) {
  TruthTable tt(n_vars);
  if (value) {
    std::fill(tt.words(), tt.words() + tt.word_count(), ~0ULL);
    tt.trim();
  }
  return tt;
}

TruthTable TruthTable::operator~() const {
  TruthTable result(n_vars_);
  const std::uint64_t* src = words();
  std::uint64_t* dst = result.words();
  for (std::size_t w = 0; w < word_count(); ++w) dst[w] = ~src[w];
  result.trim();
  return result;
}

TruthTable& TruthTable::operator&=(const TruthTable& other) {
  HTS_CHECK(n_vars_ == other.n_vars_);
  std::uint64_t* dst = words();
  const std::uint64_t* src = other.words();
  for (std::size_t w = 0; w < word_count(); ++w) dst[w] &= src[w];
  return *this;
}

TruthTable& TruthTable::operator|=(const TruthTable& other) {
  HTS_CHECK(n_vars_ == other.n_vars_);
  std::uint64_t* dst = words();
  const std::uint64_t* src = other.words();
  for (std::size_t w = 0; w < word_count(); ++w) dst[w] |= src[w];
  return *this;
}

TruthTable& TruthTable::operator^=(const TruthTable& other) {
  HTS_CHECK(n_vars_ == other.n_vars_);
  std::uint64_t* dst = words();
  const std::uint64_t* src = other.words();
  for (std::size_t w = 0; w < word_count(); ++w) dst[w] ^= src[w];
  return *this;
}

TruthTable TruthTable::operator&(const TruthTable& other) const {
  TruthTable result = *this;
  return result &= other;
}

TruthTable TruthTable::operator|(const TruthTable& other) const {
  TruthTable result = *this;
  return result |= other;
}

TruthTable TruthTable::operator^(const TruthTable& other) const {
  TruthTable result = *this;
  return result ^= other;
}

bool TruthTable::operator==(const TruthTable& other) const {
  return n_vars_ == other.n_vars_ &&
         std::equal(words(), words() + word_count(), other.words());
}

bool TruthTable::is_constant_false() const {
  return std::all_of(words(), words() + word_count(),
                     [](std::uint64_t word) { return word == 0; });
}

bool TruthTable::is_constant_true() const { return *this == constant(n_vars_, true); }

std::uint64_t TruthTable::popcount() const {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < word_count(); ++w) total += std::popcount(words()[w]);
  return total;
}

std::vector<std::uint64_t> TruthTable::minterms() const {
  std::vector<std::uint64_t> rows;
  rows.reserve(popcount());
  for (std::uint64_t row = 0; row < n_rows(); ++row) {
    if (get(row)) rows.push_back(row);
  }
  return rows;
}

std::uint64_t TruthTable::hash() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ n_vars_;
  for (std::size_t w = 0; w < word_count(); ++w) {
    h = (h ^ words()[w]) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  return h;
}

}  // namespace hts::expr
