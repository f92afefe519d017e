// Bounded ring of the most recent slow requests, behind /v1/debug/slow.
// Lock-light by construction: only requests that crossed a slow
// threshold ever touch the mutex (fast-path requests pay nothing), and a
// push is a couple of string moves into a pre-sized slot.

#ifndef KPEF_OBS_SLOW_QUERY_RING_H_
#define KPEF_OBS_SLOW_QUERY_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/request_log.h"

namespace kpef::obs {

class SlowQueryRing {
 public:
  static constexpr size_t kMaxQueryBytes = 256;

  explicit SlowQueryRing(size_t capacity = 128);

  /// Records a slow request, evicting the oldest once full. Truncates
  /// record.query to at most kMaxQueryBytes, at a UTF-8 code-point
  /// boundary.
  void Push(RequestRecord record);

  /// Newest first.
  std::vector<RequestRecord> SnapshotNewestFirst() const;

  size_t capacity() const { return capacity_; }
  uint64_t TotalPushed() const {
    return pushed_.load(std::memory_order_relaxed);
  }
  void Clear();

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<RequestRecord> ring_;
  /// Next slot to overwrite once ring_ reached capacity.
  size_t next_ = 0;
  std::atomic<uint64_t> pushed_{0};
};

}  // namespace kpef::obs

#endif  // KPEF_OBS_SLOW_QUERY_RING_H_
