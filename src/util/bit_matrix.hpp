#pragma once

// 64 x 64 bit-matrix transpose, and the row-key gather built on it.
//
// The harvester holds a batch word-sliced: word i of a 64-row group carries
// bit i of all 64 rows.  Bank keys want the opposite orientation (one row's
// bits packed together).  Transposing 64-bit-wide blocks turns one gather of
// n_bits words into the keys of all 64 rows at once, instead of n_bits
// strided loads per row.

#include <cstddef>
#include <cstdint>

namespace hts::util {

/// Transposes the 64 x 64 bit matrix m in place: afterwards bit c of m[r]
/// holds what bit r of m[c] held.  Six rounds of block swaps (32, 16, ...,
/// 1); in round j, rows k and k + j (bit j of k clear) exchange the high
/// j-bit half of each 2j-bit column group in m[k] with the low half in
/// m[k + j].
inline void transpose64(std::uint64_t* m) {
  std::uint64_t mask = 0x00000000ffffffffULL;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
      m[k | j] ^= t;
      m[k] ^= t << j;
    }
  }
}

/// Builds the keys of all 64 rows of one word-sliced group: word_of(i) is
/// the word holding bit i (i < n_bits) of every row, and row r's key — bit
/// i of word i / 64 is bit r of word_of(i) — lands at keys[r * key_words],
/// key_words = ceil(n_bits / 64).  Bits past n_bits are zero.
template <typename WordOf>
inline void transpose_rows(std::size_t n_bits, WordOf&& word_of,
                           std::uint64_t* keys) {
  const std::size_t key_words = (n_bits + 63) / 64;
  std::uint64_t block[64];
  for (std::size_t b = 0; b < key_words; ++b) {
    const std::size_t base = b * 64;
    const std::size_t n = n_bits - base < 64 ? n_bits - base : 64;
    for (std::size_t i = 0; i < n; ++i) block[i] = word_of(base + i);
    for (std::size_t i = n; i < 64; ++i) block[i] = 0;
    transpose64(block);
    for (std::size_t r = 0; r < 64; ++r) keys[r * key_words + b] = block[r];
  }
}

}  // namespace hts::util
