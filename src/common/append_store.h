// AppendStore: the one prefix-shared, append-only array. Every array
// that streaming ingest grows (graph nodes, labels and edges, corpus
// documents, embedding rows, PG-Index points, codes and permutations)
// is one, so publishing a generation copies none of them (DESIGN.md
// §16).
//
// A copy is O(1): it shares the buffer and keeps its own length. An
// append writes in place only past every length a sharer can read: the
// buffer records a frontier (the slots written so far), and a store
// extends the buffer only while its own end is that frontier, claimed
// with one compare-and-swap, so two sharers never write the same slot.
// Otherwise, or when the buffer is full, the store moves to a fresh
// buffer of twice the capacity (amortized O(1) per element) and leaves
// the old one to its other readers. A copied store therefore reads the
// same prefix for as long as it lives, with no lock, while the original
// keeps appending.
//
// Elements are read-only, except through MutableData(), which first
// moves to a private copy of the buffer when another store shares it
// (copy on write), so in-place writers keep value semantics.

#ifndef KPEF_COMMON_APPEND_STORE_H_
#define KPEF_COMMON_APPEND_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace kpef {

template <typename T, typename Alloc = std::allocator<T>>
class AppendStore {
 public:
  AppendStore() = default;
  /// `n` copies of `value`.
  AppendStore(size_t n, const T& value)
      : AppendStore(std::vector<T, Alloc>(n, value)) {}
  /// Takes `items` over as the buffer, without copying them.
  explicit AppendStore(std::vector<T, Alloc> items) {
    const size_t size = items.size();
    if (size > 0) Adopt(std::move(items), size);
  }

  AppendStore(const AppendStore& other)
      : buffer_(other.buffer_), data_(other.data_), size_(other.size_) {
    if (buffer_ != nullptr) {
      buffer_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  AppendStore(AppendStore&& other) noexcept { swap(other); }
  AppendStore& operator=(AppendStore other) noexcept {
    swap(other);
    return *this;
  }
  ~AppendStore() { Release(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T* data() const { return data_; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& front() const { return data_[0]; }

  /// A std::vector copy. Implicit, so a `const std::vector<T>&` bound
  /// to a store (code written when these arrays were vectors) still
  /// compiles, to a copy; read through `const auto&` to avoid it.
  operator std::vector<T>() const { return std::vector<T>(begin(), end()); }

  /// Appends one element.
  void push_back(T value) { *Grow(1) = std::move(value); }

  /// Appends `n` value-initialized elements and returns them for the
  /// caller to fill before anyone copies this store.
  T* Grow(size_t n) {
    if (n == 0) return data_ + size_;
    const size_t end = size_ + n;
    size_t expected = size_;
    if (buffer_ == nullptr || end > buffer_->items.size() ||
        !buffer_->frontier.compare_exchange_strong(
            expected, end, std::memory_order_relaxed)) {
      Reallocate(std::max({end, 2 * capacity(), kMinCapacity}));
      buffer_->frontier.store(end, std::memory_order_relaxed);
    }
    T* tail = data_ + size_;
    // A slot past this store's end may hold what a dropped sharer wrote.
    std::fill(tail, tail + n, T());
    size_ = end;
    return tail;
  }

  /// The elements for in-place writing; copies the buffer first when
  /// another store shares it.
  T* MutableData() {
    if (buffer_ != nullptr &&
        buffer_->refs.load(std::memory_order_acquire) != 1) {
      Reallocate(capacity());
    }
    return data_;
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  void swap(AppendStore& other) noexcept {
    std::swap(buffer_, other.buffer_);
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }

  /// Slots of the current buffer.
  size_t capacity() const {
    return buffer_ == nullptr ? 0 : buffer_->items.size();
  }

  struct Buffer {
    Buffer(std::vector<T, Alloc> slots, size_t written)
        : items(std::move(slots)), frontier(written) {}
    /// Every slot of the buffer; never resized, so data() stays put.
    std::vector<T, Alloc> items;
    /// Slots written by some sharer; appends claim the slots past it.
    std::atomic<size_t> frontier;
    std::atomic<size_t> refs{1};
  };

  void Adopt(std::vector<T, Alloc> items, size_t size) {
    Release();
    buffer_ = new Buffer(std::move(items), size);
    data_ = buffer_->items.data();
    size_ = size;
  }

  /// Moves this store's elements to a fresh, unshared buffer of
  /// `slots` slots.
  void Reallocate(size_t slots) {
    std::vector<T, Alloc> items(slots);
    if (buffer_ != nullptr &&
        buffer_->refs.load(std::memory_order_acquire) == 1) {
      std::move(data_, data_ + size_, items.begin());
    } else {
      std::copy(begin(), end(), items.begin());
    }
    Adopt(std::move(items), size_);
  }

  void Release() {
    // acq_rel: a sharer's last reads happen before the buffer dies, and
    // before a remaining sole owner writes in place (MutableData).
    if (buffer_ != nullptr &&
        buffer_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete buffer_;
    }
    buffer_ = nullptr;
    data_ = nullptr;
    size_ = 0;
  }

  Buffer* buffer_ = nullptr;
  /// buffer_->items.data(), cached so element access is one load.
  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace kpef

#endif  // KPEF_COMMON_APPEND_STORE_H_
