#pragma once

// Epoch-stamped membership over a dense index range [0, size).
//
// A reusable replacement for a per-call std::unordered_set<index>: clear()
// bumps the epoch in O(1) instead of touching every slot, and insert() /
// contains() are one array access.  Owners keep one StampSet per query kind
// and reuse it across calls, so steady-state queries never allocate.

#include <algorithm>
#include <cstdint>
#include <vector>

namespace hts::util {

class StampSet {
 public:
  /// Empties the set and makes indices [0, size) addressable.
  void clear(std::size_t size) {
    if (stamps_.size() < size) stamps_.resize(size, 0);
    if (++epoch_ == 0) {  // wrapped: old stamps could alias the new epoch
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Adds i; returns false if it was already present.
  bool insert(std::size_t i) {
    if (stamps_[i] == epoch_) return false;
    stamps_[i] = epoch_;
    return true;
  }

  [[nodiscard]] bool contains(std::size_t i) const {
    return i < stamps_.size() && stamps_[i] == epoch_;
  }

 private:
  std::vector<std::uint32_t> stamps_;
  std::uint32_t epoch_ = 1;  // stamps start at 0, so a fresh set is empty
};

}  // namespace hts::util
