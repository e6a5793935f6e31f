// plane_arena: storage for the engines' per-round bit planes and word
// sets.
//
// Why not std::vector: a giant trial (10^8-10^9 nodes, core/giant.hpp)
// is nothing *but* planes - a handful of O(n/64)-word arrays - and they
// deserve the allocation policy the heap cannot give them:
//
//  * anonymous mmap per large buffer (256 KiB and up), so the address
//    space is zero-filled on first touch and RSS grows only with the
//    words a trial actually writes (reserve-then-touch);
//  * MADV_HUGEPAGE on buffers of 2 MiB and up, with the mapping
//    aligned to a 2 MiB boundary so transparent huge pages can
//    actually back it - plane sweeps are pure sequential word streams
//    and TLB misses are their only non-compulsory stalls;
//  * small buffers bump-allocated from 64-byte-aligned heap blocks and
//    zeroed on hand-out, so the per-trial engines of an ordinary sweep
//    (n in the thousands) bind with no mmap or munmap call at all: a
//    finished trial's blocks go back to the heap for the next trial on
//    the same thread, and no munmap flushes the TLBs of the other
//    sweep workers.
//
// The arena never frees individual buffers - engines allocate their
// planes once in the constructor - and releases everything on
// destruction. Buffers are handed out as non-owning word_buffer views.
#pragma once

#include <cstddef>
#include <cstdint>

#include <vector>

namespace beepkit::support {

/// Non-owning view of an arena-backed array of 64-bit words. Mirrors
/// the slice of the std::vector<std::uint64_t> interface the engines
/// use (data/size/index/iterate), and models a contiguous sized range,
/// so std::span construction keeps working at every call site.
class word_buffer {
 public:
  word_buffer() = default;
  word_buffer(std::uint64_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint64_t* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::uint64_t& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] std::uint64_t* begin() const noexcept { return data_; }
  [[nodiscard]] std::uint64_t* end() const noexcept { return data_ + size_; }

 private:
  std::uint64_t* data_ = nullptr;
  std::size_t size_ = 0;
};

class plane_arena {
 public:
  plane_arena() = default;
  ~plane_arena();

  plane_arena(const plane_arena&) = delete;
  plane_arena& operator=(const plane_arena&) = delete;
  plane_arena(plane_arena&& other) noexcept;
  plane_arena& operator=(plane_arena&& other) noexcept;

  /// Allocates a zero-initialized buffer of `words` 64-bit words,
  /// 64-byte aligned. Throws std::bad_alloc when the mapping or heap
  /// block cannot be obtained.
  [[nodiscard]] word_buffer alloc_words(std::size_t words);

  /// Bytes held across mapped chunks and heap blocks (address space,
  /// as ulimit -v sees it).
  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    return reserved_;
  }
  /// mmap chunks held: one per large buffer. Small buffers come from
  /// heap blocks and map nothing.
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return chunks_.size();
  }

 private:
  struct chunk {
    void* base = nullptr;
    std::size_t bytes = 0;
  };

  std::byte* map_chunk(std::size_t bytes, bool want_huge);
  void release() noexcept;

  std::vector<chunk> chunks_;  // mapped, one per large buffer
  std::vector<chunk> blocks_;  // heap blocks behind the small buffers
  std::byte* bump_ = nullptr;  // free tail of the newest heap block
  std::size_t bump_left_ = 0;
  std::size_t reserved_ = 0;
};

}  // namespace beepkit::support
