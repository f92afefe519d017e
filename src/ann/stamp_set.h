// Epoch-stamped membership set over node ids, shared by the ANN build
// (NNDescent local joins) and the PG-Index search arenas. Begin() starts
// a fresh (empty) set in O(1) — no per-query O(n) clear — and TestAndSet
// is one array probe. Instances are meant to be reused across many
// queries (thread-local or arena-owned), so the backing array is
// allocated once and only grows.

#ifndef KPEF_ANN_STAMP_SET_H_
#define KPEF_ANN_STAMP_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace kpef {

class StampSet {
 public:
  /// Starts a fresh empty set over ids [0, n). O(1) amortized: bumps the
  /// epoch instead of clearing (the array is (re)allocated only when it
  /// must grow).
  void Begin(size_t n) {
    if (stamps_.size() < n) stamps_.assign(n, 0);
    ++epoch_;
  }

  /// Returns true if `id` was already present; marks it present.
  bool TestAndSet(int32_t id) {
    if (stamps_[id] == epoch_) return true;
    stamps_[id] = epoch_;
    return false;
  }

  /// Hints the cache that `id`'s stamp is about to be probed. The stamp
  /// array is 8 bytes per node — bigger than L2 for large corpora — so
  /// the probe in TestAndSet is otherwise a dependent miss on the search
  /// hot path.
  void Prefetch(int32_t id) const {
    __builtin_prefetch(stamps_.data() + id, /*rw=*/1, /*locality=*/3);
  }

 private:
  std::vector<uint64_t> stamps_;
  uint64_t epoch_ = 0;
};

/// Dense bitmap membership set over node ids: one bit per id, same
/// interface as StampSet. Begin() is a memset over n/8 bytes instead of
/// O(1) — but for ANN-search corpora that is a few tens of KB, and the
/// payoff is cache footprint: a 64-byte line holds 512 ids' bits, so a
/// whole query's visited set stays L1/L2-resident where the 8-byte
/// stamp array (MBs per query) turns every random probe into a far-cache
/// access. Each PG-Index search arena (one per searching thread) holds
/// one: ~40 KB of bitmap for a 320k-node graph versus ~2.5 MB of
/// stamps.
class VisitedBitset {
 public:
  /// Starts a fresh empty set over ids [0, n).
  void Begin(size_t n) {
    const size_t words = (n + 63) / 64;
    if (words_.size() < words) words_.resize(words);
    std::fill_n(words_.data(), words, uint64_t{0});
  }

  /// Returns true if `id` was already present; marks it present.
  bool TestAndSet(int32_t id) {
    const uint32_t uid = static_cast<uint32_t>(id);
    uint64_t& w = words_[uid >> 6];
    const uint64_t bit = uint64_t{1} << (uid & 63);
    const bool present = (w & bit) != 0;
    w |= bit;
    return present;
  }

  /// Hints the cache that `id`'s word is about to be probed.
  void Prefetch(int32_t id) const {
    __builtin_prefetch(words_.data() + (static_cast<uint32_t>(id) >> 6),
                       /*rw=*/1, /*locality=*/3);
  }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace kpef

#endif  // KPEF_ANN_STAMP_SET_H_
