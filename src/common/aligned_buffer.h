// Over-aligned storage for SIMD kernels.
//
// The distance kernels (embed/vector_ops.h) use 32-byte (AVX2-width)
// loads; vectors that flow through them are stored in AlignedVector /
// Matrix so the hot loops can assume aligned, 8-float-padded rows.

#ifndef KPEF_COMMON_ALIGNED_BUFFER_H_
#define KPEF_COMMON_ALIGNED_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

namespace kpef {

/// Alignment (bytes) guaranteed for kernel operands: one AVX2 register.
inline constexpr size_t kKernelAlignment = 32;

/// Number of floats per kernel lane group; row strides are padded to a
/// multiple of this so the 8-wide hot loop covers a row with no tail.
inline constexpr size_t kKernelWidthFloats = 8;

/// Rounds `n` up to the next multiple of kKernelWidthFloats.
constexpr size_t PadToKernelWidth(size_t n) {
  return (n + kKernelWidthFloats - 1) / kKernelWidthFloats *
         kKernelWidthFloats;
}

/// Minimal C++17 allocator handing out `Alignment`-aligned blocks
/// (defaults to the kernel operand alignment).
template <typename T, size_t Alignment = kKernelAlignment>
struct AlignedAllocator {
  using value_type = T;
  // The non-type Alignment parameter defeats allocator_traits' default
  // rebind, so spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  T* allocate(size_t n) {
    if (n == 0) return nullptr;
    void* p = ::operator new(n * sizeof(T), std::align_val_t(Alignment));
    return static_cast<T*>(p);
  }
  void deallocate(T* p, size_t) {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U, Alignment>&) const {
    return false;
  }
};

/// Float vector whose data() is 32-byte aligned.
using AlignedVector = std::vector<float, AlignedAllocator<float>>;

/// Copies `src[0..n)` into an AlignedVector padded with zeros to the
/// kernel width, so it can be paired with Matrix::PaddedRow spans.
template <typename Span>
AlignedVector PadToAligned(const Span& src) {
  AlignedVector out(PadToKernelWidth(src.size()), 0.0f);
  for (size_t i = 0; i < src.size(); ++i) out[i] = src[i];
  return out;
}

}  // namespace kpef

#endif  // KPEF_COMMON_ALIGNED_BUFFER_H_
