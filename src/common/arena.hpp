// Per-System bump arena and the arena-backed ring buffer used for C-FIFO
// and ring token storage (ISSUE 8: batched data plane).
//
// The steady-state simulator allocations left after PR3/PR6 come from
// std::deque nodes churned by C-FIFO deadline queues and ring injection
// queues. Both containers only ever grow to a small, workload-determined
// high-water mark and then recycle the same storage for the rest of the
// run, so a bump arena that never frees individual blocks is the right
// shape: growth costs one chunked allocation, and every token afterwards
// lives in a contiguous, cache-friendly ring.
//
// Ownership rule: an Arena must outlive every container carved from it.
// System owns one Arena and declares it BEFORE the interconnect and the
// C-FIFOs, so destruction order is safe by construction. Containers work
// without an arena too (plain heap blocks, freed on destruction) — that
// keeps standalone unit tests of CFifo/Ring allocation-correct.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/check.hpp"

namespace acc {

/// Chunked bump allocator. allocate() never fails over to the caller and
/// never frees; memory returns to the OS when the arena dies. Oversized
/// requests get a dedicated chunk so the chunk size is a tuning knob, not
/// a limit.
class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = 64 * 1024)
      : chunk_bytes_(chunk_bytes) {
    ACC_EXPECTS(chunk_bytes >= 64);
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align) {
    ACC_EXPECTS(align > 0 && (align & (align - 1)) == 0);
    if (bytes == 0) bytes = 1;
    std::size_t aligned = (used_ + align - 1) & ~(align - 1);
    if (chunks_.empty() || aligned + bytes > head_size_) {
      const std::size_t size = bytes > chunk_bytes_ ? bytes : chunk_bytes_;
      chunks_.push_back(std::make_unique<std::byte[]>(size));
      head_size_ = size;
      used_ = 0;
      aligned = 0;
      reserved_ += size;
    }
    used_ = aligned + bytes;
    allocated_ += bytes;
    return chunks_.back().get() + aligned;
  }

  /// Total bytes handed out (growth diagnostics; retired blocks from grown
  /// ring buffers stay counted — the arena never reclaims them).
  [[nodiscard]] std::size_t bytes_allocated() const { return allocated_; }
  /// Total bytes reserved from the OS.
  [[nodiscard]] std::size_t bytes_reserved() const { return reserved_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

 private:
  std::size_t chunk_bytes_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::size_t head_size_ = 0;  // capacity of chunks_.back()
  std::size_t used_ = 0;       // bump offset into chunks_.back()
  std::size_t allocated_ = 0;
  std::size_t reserved_ = 0;
};

/// Growable circular FIFO over trivially copyable tokens, optionally backed
/// by an Arena. Supports exactly the operations the simulator's token
/// queues need: push_back / pop_front / indexed access from the front.
/// Growth doubles the power-of-two capacity (index masking keeps the hot
/// paths modulo-free) and copies the live window; the old block is freed
/// when heap-backed and abandoned to the arena otherwise (bounded by the
/// doubling schedule at < 1x the peak footprint).
template <typename T>
class RingBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "RingBuffer tokens are relocated with memcpy");

 public:
  RingBuffer() = default;
  ~RingBuffer() { release(); }

  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  RingBuffer(RingBuffer&& other) noexcept { steal(other); }
  RingBuffer& operator=(RingBuffer&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }

  /// Attach an arena; takes effect on the next growth. Call before the
  /// container warms up (System wires it right after construction).
  void set_arena(Arena* arena) { arena_ = arena; }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  [[nodiscard]] const T& front() const { return buf_[head_]; }
  [[nodiscard]] const T& back() const {
    return buf_[(head_ + size_ - 1) & mask_];
  }
  /// i-th element from the front (deadline queues binary-search this).
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & mask_];
  }

  void push_back(const T& v) {
    if (size_ == cap_) grow();
    buf_[(head_ + size_) & mask_] = v;
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Replace the contents with `other`'s, keeping this buffer's own
  /// storage and arena (it grows the usual way when too small).
  void copy_from(const RingBuffer& other) {
    clear();
    for (std::size_t i = 0; i < other.size(); ++i) push_back(other[i]);
  }

 private:
  void grow() {
    const std::size_t new_cap = cap_ == 0 ? 8 : cap_ * 2;
    T* fresh;
    if (arena_ != nullptr) {
      fresh = static_cast<T*>(arena_->allocate(new_cap * sizeof(T), alignof(T)));
    } else {
      fresh = static_cast<T*>(::operator new(new_cap * sizeof(T)));
    }
    // Unroll the circular window into the front of the fresh block.
    if (size_ > 0) {
      const std::size_t tail = cap_ - head_ < size_ ? cap_ - head_ : size_;
      std::memcpy(fresh, buf_ + head_, tail * sizeof(T));
      if (tail < size_) std::memcpy(fresh + tail, buf_, (size_ - tail) * sizeof(T));
    }
    if (!from_arena_ && buf_ != nullptr) ::operator delete(buf_);
    buf_ = fresh;
    from_arena_ = arena_ != nullptr;
    cap_ = new_cap;
    mask_ = new_cap - 1;
    head_ = 0;
  }

  void release() {
    if (!from_arena_ && buf_ != nullptr) ::operator delete(buf_);
    buf_ = nullptr;
  }

  void steal(RingBuffer& other) {
    arena_ = other.arena_;
    buf_ = other.buf_;
    cap_ = other.cap_;
    mask_ = other.mask_;
    head_ = other.head_;
    size_ = other.size_;
    from_arena_ = other.from_arena_;
    other.buf_ = nullptr;
    other.cap_ = other.mask_ = other.head_ = other.size_ = 0;
    other.from_arena_ = false;
  }

  Arena* arena_ = nullptr;
  T* buf_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  bool from_arena_ = false;
};

}  // namespace acc
