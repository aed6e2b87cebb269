// Recycling pool of byte buffers for message staging.
//
// The zero-copy transport moves send payloads into the destination
// mailbox, so a sender cannot keep reusing one staging buffer: every
// isend gives its storage away. The pool is where a rank's staging
// buffers start; in steady state the executors recycle received payloads
// without it (core::detail::RankState::send_buffer), so after a warm-up
// epoch or two (while capacities converge to the largest message) no
// take() allocates.
//
// The high-water mark DECAYS: demand is tracked per window of
// kDecayWindow takes, and when a window closes the mark drops to that
// window's maximum and pooled buffers an old spike left behind (capacity
// beyond twice the new mark) are freed. A one-off large chain therefore
// stops pinning peak memory once steady-state traffic shrinks, while a
// steady workload — whose window maximum equals its message size — keeps
// its buffers and its zero-allocation property.
//
// Not thread-safe: one pool belongs to one rank thread. Buffers crossing
// ranks are handed over through the transport's mutex-protected mailbox.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "op2ca/util/aligned.hpp"

namespace op2ca {

class BufferPool {
public:
  /// Returns a buffer resized to `bytes`. Best fit: the smallest pooled
  /// buffer that already holds `bytes` (keeping larger ones for larger
  /// requests — mixed message sizes would otherwise re-grow a small
  /// buffer every epoch); with no fit, the largest one grows. Counts an
  /// allocation when storage is created or grown. Every reserve is
  /// rounded up to a whole number of cache lines so recycled storage
  /// stays line-granular (ByteBuf's allocator provides the 64-byte
  /// block starts themselves).
  ByteBuf take(std::size_t bytes) {
    high_water_ = std::max(high_water_, round_line(bytes));
    window_max_ = std::max(window_max_, round_line(bytes));
    if (++window_takes_ >= kDecayWindow) decay();
    if (free_.empty()) {
      ++allocations_;
      ByteBuf buf;
      buf.reserve(high_water_);  // one growth covers all future requests
      buf.resize(bytes);
      return buf;
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < free_.size(); ++i) {
      const std::size_t c = free_[i].capacity();
      const std::size_t b = free_[best].capacity();
      const bool better = b < bytes ? c > b : (c >= bytes && c < b);
      if (better) best = i;
    }
    ByteBuf buf = std::move(free_[best]);
    free_[best] = std::move(free_.back());
    free_.pop_back();
    if (buf.capacity() < bytes) {
      ++allocations_;
      buf.reserve(high_water_);
    }
    buf.resize(bytes);
    return buf;
  }

  /// Returns a buffer to the pool. Empty buffers are dropped, as are
  /// buffers an old demand spike oversized relative to the decayed
  /// high-water mark (letting their memory actually return to the heap).
  void release(ByteBuf buf) {
    if (buf.capacity() == 0) return;
    if (buf.capacity() > retain_cap()) return;  // spike leftover
    if (free_.size() >= kMaxPooled) return;     // let it free
    free_.push_back(std::move(buf));
  }

  /// Times take() had to allocate or grow storage (steady state: flat).
  std::int64_t allocations() const { return allocations_; }
  std::size_t pooled() const { return free_.size(); }
  /// Total capacity currently parked in the pool.
  std::size_t pooled_bytes() const {
    std::size_t total = 0;
    for (const auto& b : free_) total += b.capacity();
    return total;
  }
  /// Current (decaying) demand estimate new allocations reserve for.
  std::size_t high_water() const { return high_water_; }

private:
  static constexpr std::size_t kMaxPooled = 64;
  /// take() calls per demand window; one window of smaller requests is
  /// enough for the mark to follow demand down.
  static constexpr std::size_t kDecayWindow = 64;

  /// Reserve granularity: whole cache lines, matching the aligned block
  /// starts the ByteBuf allocator guarantees.
  static std::size_t round_line(std::size_t bytes) {
    return (bytes + util::kCacheLine - 1) & ~(util::kCacheLine - 1);
  }

  /// Retention threshold: 2x the mark tolerates allocator rounding and
  /// mild jitter without churning buffers at the boundary.
  std::size_t retain_cap() const { return 2 * high_water_; }

  /// Window rollover: the mark drops to the closing window's maximum and
  /// pooled capacities beyond the new retention threshold are freed.
  void decay() {
    high_water_ = window_max_;
    window_max_ = 0;
    window_takes_ = 0;
    free_.erase(std::remove_if(free_.begin(), free_.end(),
                               [this](const ByteBuf& b) {
                                 return b.capacity() > retain_cap();
                               }),
                free_.end());
  }

  std::vector<ByteBuf> free_;
  std::int64_t allocations_ = 0;
  std::size_t high_water_ = 0;   ///< decaying demand estimate.
  std::size_t window_max_ = 0;   ///< largest request this window.
  std::size_t window_takes_ = 0;
};

}  // namespace op2ca
