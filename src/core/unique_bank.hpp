#pragma once

// Deduplicating store for sampled solutions.
//
// Keys are packed bit vectors (one bit per tracked variable).  The paper
// reports *unique* solution throughput, so the bank is on the hot path of
// every sampler; it compares whole keys (no lossy fingerprints — an
// overcounted unique would inflate throughput).
//
// Storage is flat: keys sit back to back in one arena of n_words words each,
// in insertion order, and an open-addressing table (linear probing, at most
// half full) maps a key's hash to its arena index.  A new key costs no heap
// allocation of its own — the two arrays grow geometrically — and teardown
// frees exactly two arrays.
//
// Two variants share the interface:
//   UniqueBank         single-thread, zero synchronization (the serial loop).
//   ShardedUniqueBank  mutex-per-shard, for round-parallel workers merging
//                      concurrently; shard selection reuses the key hash so
//                      uncorrelated solutions spread across shards and
//                      contention stays proportional to 1/n_shards.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace hts::sampler {

namespace detail {

/// FNV-1a over the packed words with an extra avalanche xor-shift; shared by
/// both bank variants so a key lands in the same shard its table hash implies.
struct PackedKeyHash {
  std::size_t operator()(const std::uint64_t* key,
                         std::size_t n_words) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < n_words; ++i) {
      h ^= key[i];
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Heap bytes one banked key costs at the table's maximum load: its arena
/// words plus two 8-byte slots.  Shared by both bank variants so
/// size_bytes() means the same thing everywhere; it is an accounting
/// estimate for per-client memory caps, not an allocator audit.
[[nodiscard]] inline std::size_t key_footprint_bytes(std::size_t n_words) {
  return n_words * sizeof(std::uint64_t) + 2 * sizeof(std::uint64_t);
}

/// Packs a byte-per-bit assignment into the canonical key layout.  Shared by
/// both bank variants so they can never disagree on key identity.
[[nodiscard]] inline std::vector<std::uint64_t> pack_bits(
    const std::vector<std::uint8_t>& bits, std::size_t n_bits,
    std::size_t n_words) {
  std::vector<std::uint64_t> key(n_words, 0);
  for (std::size_t i = 0; i < n_bits; ++i) {
    if (bits[i] != 0) key[i >> 6] |= (1ULL << (i & 63));
  }
  return key;
}

/// The flat key set behind both bank variants.  A slot is 0 when empty,
/// otherwise (tag << 32) | (index + 1): the tag is 32 bits of the mixed key
/// hash, and its low bits are also the slot's home position, so growing the
/// table re-places slots without reading a single key.  The key width is
/// the owning bank's and passed to every call, which keeps the set
/// default-constructible for the sharded bank's (immovable) shards.
class FlatKeySet {
 public:
  /// Inserts a key of n_words words with hash h; true when it was new.
  bool insert(const std::uint64_t* key, std::size_t n_words, std::size_t h) {
    const std::uint32_t tag = mix(h);
    if (!slots_.empty()) {
      const std::size_t pos = probe(key, n_words, tag);
      if (slots_[pos] != 0) return false;
    }
    // Grow before the table would pass half full, then place the new key in
    // the first empty slot of its (re-computed) probe sequence.
    if (2 * (size_ + 1) > slots_.size()) grow(n_words);
    const std::size_t mask = slots_.size() - 1;
    std::size_t pos = tag & mask;
    while (slots_[pos] != 0) pos = (pos + 1) & mask;
    arena_.insert(arena_.end(), key, key + n_words);
    slots_[pos] = (static_cast<std::uint64_t>(tag) << 32) | (size_ + 1);
    ++size_;
    return true;
  }

  [[nodiscard]] bool contains(const std::uint64_t* key, std::size_t n_words,
                              std::size_t h) const {
    return !slots_.empty() && slots_[probe(key, n_words, mix(h))] != 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  /// Fibonacci mix of the key hash: the table indexes by low bits, which
  /// PackedKeyHash alone leaves weakly mixed for single-word keys.
  [[nodiscard]] static std::uint32_t mix(std::size_t h) {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(h) * 0x9e3779b97f4a7c15ULL) >> 32);
  }

  /// The slot holding `key`, or the empty slot that ends its probe run.
  [[nodiscard]] std::size_t probe(const std::uint64_t* key,
                                  std::size_t n_words,
                                  std::uint32_t tag) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t pos = tag & mask;; pos = (pos + 1) & mask) {
      const std::uint64_t slot = slots_[pos];
      if (slot == 0) return pos;
      if (static_cast<std::uint32_t>(slot >> 32) != tag) continue;
      const std::uint64_t* stored =
          arena_.data() + ((slot & 0xffffffffULL) - 1) * n_words;
      if (std::equal(key, key + n_words, stored)) return pos;
    }
  }

  void grow(std::size_t n_words) {
    const std::size_t capacity = slots_.empty() ? 16 : 2 * slots_.size();
    // Tags index at most 2^32 slots, and indices fit the low 32 bits.
    HTS_CHECK(capacity <= (std::size_t{1} << 32));
    std::vector<std::uint64_t> slots(capacity, 0);
    const std::size_t mask = capacity - 1;
    for (const std::uint64_t slot : slots_) {
      if (slot == 0) continue;
      std::size_t pos = (slot >> 32) & mask;
      while (slots[pos] != 0) pos = (pos + 1) & mask;
      slots[pos] = slot;
    }
    slots_.swap(slots);
    // Room for every key the grown table admits, so appends between two
    // growths never move the arena.
    arena_.reserve(capacity / 2 * n_words);
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> slots_;
  /// Banked keys, n_words words each, in insertion order.
  std::vector<std::uint64_t> arena_;
};

}  // namespace detail

class UniqueBank {
 public:
  explicit UniqueBank(std::size_t n_bits)
      : n_bits_(n_bits), n_words_((n_bits + 63) / 64) {}

  /// Inserts a packed key of n_words() words; returns true when it was new.
  bool insert(const std::uint64_t* key) {
    return set_.insert(key, n_words_, detail::PackedKeyHash{}(key, n_words_));
  }
  bool insert(const std::vector<std::uint64_t>& key) {
    HTS_CHECK(key.size() == n_words_);
    return insert(key.data());
  }

  /// Packs a byte-per-bit assignment and inserts it.
  bool insert_bits(const std::vector<std::uint8_t>& bits) {
    return insert(detail::pack_bits(bits, n_bits_, n_words_));
  }

  /// True when the key is already banked.  Powers the diversity objective's
  /// restart probe (is this row's projection already collected?).
  [[nodiscard]] bool contains(const std::uint64_t* key) const {
    return set_.contains(key, n_words_,
                         detail::PackedKeyHash{}(key, n_words_));
  }
  [[nodiscard]] bool contains(const std::vector<std::uint64_t>& key) const {
    HTS_CHECK(key.size() == n_words_);
    return contains(key.data());
  }

  [[nodiscard]] std::size_t size() const { return set_.size(); }
  [[nodiscard]] std::size_t n_words() const { return n_words_; }

  /// Approximate heap footprint of the banked keys (see
  /// detail::key_footprint_bytes); grows linearly with size().
  [[nodiscard]] std::size_t size_bytes() const {
    return set_.size() * detail::key_footprint_bytes(n_words_);
  }

 private:
  std::size_t n_bits_;
  std::size_t n_words_;
  detail::FlatKeySet set_;
};

/// Concurrent UniqueBank: the key hash picks a shard, the shard's mutex
/// serializes only the colliding sliver of traffic, and a relaxed atomic
/// keeps size() O(1) so the round-parallel target check (`bank.size() >=
/// min_solutions`, polled every iteration by every worker) never touches a
/// lock.
class ShardedUniqueBank {
 public:
  static constexpr std::size_t kDefaultShards = 64;

  explicit ShardedUniqueBank(std::size_t n_bits,
                             std::size_t n_shards = kDefaultShards)
      : n_bits_(n_bits),
        n_words_((n_bits + 63) / 64),
        shards_(round_up_pow2(n_shards)) {}

  /// Inserts a packed key of n_words() words; returns true when it was new.
  /// Safe to call from any number of threads concurrently.
  bool insert(const std::uint64_t* key) {
    const std::size_t h = detail::PackedKeyHash{}(key, n_words_);
    Shard& shard = shard_of(h);
    bool is_new = false;
    {
      util::LockGuard lock(shard.mutex);
      is_new = shard.set.insert(key, n_words_, h);
    }
    if (is_new) size_.fetch_add(1, std::memory_order_relaxed);
    return is_new;
  }
  bool insert(const std::vector<std::uint64_t>& key) {
    HTS_CHECK(key.size() == n_words_);
    return insert(key.data());
  }

  /// Packs a byte-per-bit assignment and inserts it.
  bool insert_bits(const std::vector<std::uint8_t>& bits) {
    return insert(detail::pack_bits(bits, n_bits_, n_words_));
  }

  /// True when the key is already banked — a point-in-time answer under
  /// concurrent inserts (another thread may bank the key right after).  The
  /// diversity probe only uses it as a restart heuristic, so a stale miss
  /// costs one wasted descent, never a duplicate unique.
  [[nodiscard]] bool contains(const std::uint64_t* key) {
    const std::size_t h = detail::PackedKeyHash{}(key, n_words_);
    Shard& shard = shard_of(h);
    util::LockGuard lock(shard.mutex);
    return shard.set.contains(key, n_words_, h);
  }
  [[nodiscard]] bool contains(const std::vector<std::uint64_t>& key) {
    HTS_CHECK(key.size() == n_words_);
    return contains(key.data());
  }

  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }

  /// Approximate heap footprint of the banked keys (see
  /// detail::key_footprint_bytes).  Lock-free like size(), so the service
  /// can poll per-request memory caps from any thread.
  [[nodiscard]] std::size_t size_bytes() const {
    return size() * detail::key_footprint_bytes(n_words_);
  }

  [[nodiscard]] std::size_t n_words() const { return n_words_; }
  [[nodiscard]] std::size_t n_shards() const { return shards_.size(); }

 private:
  /// Shard mutexes are leaf locks: at most one shard is held at a time and
  /// nothing else is acquired under it (see util/mutex.hpp's lock order).
  struct Shard {
    util::Mutex mutex;
    detail::FlatKeySet set HTS_GUARDED_BY(mutex);
  };

  /// High hash bits pick the shard; the shard's table indexes by a mix of
  /// the whole hash, so the two decisions stay independent.
  [[nodiscard]] Shard& shard_of(std::size_t h) {
    return shards_[(h >> 48) & (shards_.size() - 1)];
  }

  [[nodiscard]] static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  std::size_t n_bits_;
  std::size_t n_words_;
  std::vector<Shard> shards_;
  std::atomic<std::size_t> size_{0};
};

}  // namespace hts::sampler
