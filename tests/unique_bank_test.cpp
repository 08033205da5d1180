// Differential tests for the flat unique banks: every insert() and
// contains() answer, and the final size(), must match a std::set reference
// over long duplicate-heavy streams.  An overcounted unique would inflate the
// paper's headline metric (unique solutions per second), so the bank is
// checked against the simplest container that is obviously right.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "core/unique_bank.hpp"
#include "util/rng.hpp"

namespace hts::sampler {
namespace {

using Key = std::vector<std::uint64_t>;

/// A duplicate-heavy key stream: about 70% of draws repeat an earlier key,
/// the rest are new.  New keys alternate between dense random words and
/// sparse ones (a single set bit, or one word equal to a small counter) so
/// that keys differing only in high bits or in one late word are exercised
/// too.
std::vector<Key> key_stream(std::size_t n_words, std::size_t n_draws,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Key> pool;
  std::vector<Key> stream;
  stream.reserve(n_draws);
  std::uint64_t counter = 0;
  for (std::size_t d = 0; d < n_draws; ++d) {
    if (!pool.empty() && rng.next_bool(0.7)) {
      stream.push_back(pool[rng.next_below(pool.size())]);
      continue;
    }
    Key key(n_words, 0);
    if (n_words > 0) {
      switch (rng.next_below(3)) {
        case 0:
          for (std::uint64_t& word : key) word = rng.next_u64();
          break;
        case 1: {
          const std::size_t bit = rng.next_below(64 * n_words);
          key[bit / 64] = 1ULL << (bit % 64);
          break;
        }
        default:
          key[rng.next_below(n_words)] = ++counter;
          break;
      }
    }
    pool.push_back(key);
    stream.push_back(std::move(key));
  }
  return stream;
}

/// Replays a stream through a bank and the reference, comparing every
/// answer; returns the reference's distinct count.
template <typename Bank>
std::size_t replay_against_reference(Bank& bank, const std::vector<Key>& stream) {
  std::set<Key> reference;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Key& key = stream[i];
    const bool known = reference.count(key) != 0;
    EXPECT_EQ(bank.contains(key), known) << "draw " << i;
    const bool is_new = reference.insert(key).second;
    EXPECT_EQ(bank.insert(key), is_new) << "draw " << i;
    EXPECT_TRUE(bank.contains(key)) << "draw " << i;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(bank.size(), reference.size());
  EXPECT_EQ(bank.size_bytes(),
            reference.size() * detail::key_footprint_bytes(bank.n_words()));
  return reference.size();
}

class UniqueBankDiff : public ::testing::TestWithParam<std::size_t> {};

// One million draws on the common two-word width, a quarter million on the
// others.  The table starts at 16 slots and doubles whenever it would pass
// half full, so n distinct keys force about log2(n / 8) growths; every width
// but 0 goes through at least five.
TEST_P(UniqueBankDiff, SerialBankMatchesStdSet) {
  const std::size_t n_words = GetParam();
  const std::size_t n_draws = n_words == 2 ? 1000000 : 250000;
  UniqueBank bank(64 * n_words);
  ASSERT_EQ(bank.n_words(), n_words);
  const std::size_t distinct =
      replay_against_reference(bank, key_stream(n_words, n_draws, 11 + n_words));
  if (n_words == 0) {
    EXPECT_EQ(distinct, 1u);  // every zero-width key is the same key
  } else {
    EXPECT_GE(distinct, 16u << 5);
    EXPECT_LT(distinct, n_draws / 2);  // the stream really is duplicate-heavy
  }
}

TEST_P(UniqueBankDiff, ShardedBankMatchesStdSet) {
  const std::size_t n_words = GetParam();
  ShardedUniqueBank bank(64 * n_words);
  (void)replay_against_reference(bank, key_stream(n_words, 250000, 23 + n_words));
}

// Four threads replay interleaved quarters of one duplicate-heavy stream into
// a shared sharded bank: duplicates race across threads, yet the bank must
// admit each distinct key exactly once.
TEST_P(UniqueBankDiff, ConcurrentShardedBankCountsDistinctKeys) {
  const std::size_t n_words = GetParam();
  const std::vector<Key> stream = key_stream(n_words, 400000, 37 + n_words);
  const std::set<Key> reference(stream.begin(), stream.end());
  ShardedUniqueBank bank(64 * n_words);
  constexpr std::size_t kThreads = 4;
  std::atomic<std::size_t> accepted{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::size_t mine = 0;
      for (std::size_t i = t; i < stream.size(); i += kThreads) {
        if (bank.insert(stream[i])) ++mine;
      }
      accepted.fetch_add(mine);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bank.size(), reference.size());
  EXPECT_EQ(accepted.load(), reference.size());
  for (const Key& key : reference) ASSERT_TRUE(bank.contains(key));
}

INSTANTIATE_TEST_SUITE_P(Widths, UniqueBankDiff,
                         ::testing::Values(0u, 1u, 2u, 3u, 10u));

TEST(UniqueBank, PointerAndVectorKeysAgree) {
  UniqueBank bank(130);
  const Key key = {1, 2, 3};
  EXPECT_TRUE(bank.insert(key.data()));
  EXPECT_FALSE(bank.insert(key));
  EXPECT_TRUE(bank.contains(key.data()));
  const Key other = {1, 2, 4};
  EXPECT_FALSE(bank.contains(other.data()));
  EXPECT_EQ(bank.size(), 1u);
}

}  // namespace
}  // namespace hts::sampler
