#include "obs/slow_query_ring.h"

#include <algorithm>

namespace kpef::obs {

SlowQueryRing::SlowQueryRing(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

void SlowQueryRing::Push(RequestRecord record) {
  std::string& query = record.query;
  if (query.size() > kMaxQueryBytes) {
    // Back the cut up past continuation bytes (10xxxxxx) so it never
    // splits a multi-byte character.
    size_t cut = kMaxQueryBytes;
    while (cut > 0 && (static_cast<unsigned char>(query[cut]) & 0xC0) == 0x80) {
      --cut;
    }
    query.resize(cut);
  }
  pushed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
    return;
  }
  ring_[next_] = std::move(record);
  next_ = (next_ + 1) % capacity_;
}

std::vector<RequestRecord> SlowQueryRing::SnapshotNewestFirst() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RequestRecord> out;
  out.reserve(ring_.size());
  // Insertion order is ring_[next_..end) then ring_[0..next_) once the
  // ring wrapped; before that it is simply ring_[0..size). Walk it
  // backwards for newest-first.
  const size_t n = ring_.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t idx =
        n < capacity_ ? n - 1 - i : (next_ + n - 1 - i) % capacity_;
    out.push_back(ring_[idx]);
  }
  return out;
}

void SlowQueryRing::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
}

}  // namespace kpef::obs
