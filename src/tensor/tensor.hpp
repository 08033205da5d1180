#pragma once

// Batched float storage and the data-parallel execution policy.
//
// This module stands in for the paper's PyTorch/V100 substrate: a tracked
// float Buffer, and parallel_for, which dispatches a batch loop either
// serially (models the CPU run of the Fig. 4 ablation) or across a thread
// pool (models the GPU's batch-parallel execution).  The kernels live with
// their callers (the prob engine's tape kernels, built on the width-8
// vectors of tensor/simd.hpp).  Allocation is tracked byte-accurately so the Fig. 3
// (right) memory-vs-batch-size curve can be measured without nvidia-smi.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <utility>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace hts::tensor {

/// Execution policy for batched kernels.
enum class Policy : std::uint8_t {
  kSerial,        // single thread ("CPU")
  kDataParallel,  // thread-pool over batch rows ("GPU simulator")
};

/// Short stable name for bench tables and JSON records.
[[nodiscard]] const char* policy_name(Policy policy);

/// Dispatches fn(begin, end) over [0, n) according to the policy.
void parallel_for(Policy policy, std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn);

// --- allocation accounting --------------------------------------------------

/// Live bytes currently held by Buffer instances.
[[nodiscard]] std::int64_t live_bytes();
/// High-water mark since the last reset_peak_bytes().
[[nodiscard]] std::int64_t peak_bytes();
void reset_peak_bytes();

namespace detail {
void record_alloc(std::int64_t bytes);
void record_free(std::int64_t bytes);
}  // namespace detail

/// A tracked, contiguous float buffer.  Deliberately minimal: the prob
/// engine addresses it as a tiled matrix ([tile][slot][row-in-tile]) so each
/// tile's working set is contiguous and the inner loops stream it per
/// operation.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::size_t n, float fill = 0.0f) {
    allocate(n);
    std::fill(data(), data() + size_, fill);
  }

  /// n floats with indeterminate contents.  The owner writes every element
  /// before reading it — the prob engine zero-fills tile by tile on the
  /// threads that will sweep the tiles, so pages fault in where they are
  /// used and in parallel.
  [[nodiscard]] static Buffer uninitialized(std::size_t n) {
    Buffer buffer;
    buffer.allocate(n);
    return buffer;
  }

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  Buffer(Buffer&& other) noexcept
      : data_(std::move(other.data_)), size_(std::exchange(other.size_, 0)) {}
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::move(other.data_);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~Buffer() { release(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] float* data() { return data_.get(); }
  [[nodiscard]] const float* data() const { return data_.get(); }
  [[nodiscard]] float& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] float operator[](std::size_t i) const { return data_[i]; }

 private:
  /// Replaces the storage with n uninitialized floats (new float[n]
  /// default-initializes, i.e. leaves them untouched).
  void allocate(std::size_t n) {
    release();
    data_.reset(new float[n]);
    size_ = n;
    detail::record_alloc(static_cast<std::int64_t>(size_ * sizeof(float)));
  }

  void release() {
    detail::record_free(static_cast<std::int64_t>(size_ * sizeof(float)));
    data_.reset();
    size_ = 0;
  }

  std::unique_ptr<float[]> data_;
  std::size_t size_ = 0;
};

}  // namespace hts::tensor
