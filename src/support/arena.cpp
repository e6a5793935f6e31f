#include "support/arena.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define BEEPKIT_ARENA_MMAP 1
#else
#include <cstdlib>
#define BEEPKIT_ARENA_MMAP 0
#endif

namespace beepkit::support {

namespace {

constexpr std::size_t kHugePage = 2u << 20;  // 2 MiB
// Buffers at or above this size get a dedicated mmap chunk, so giant
// planes keep lazy first-touch commit and huge pages. Smaller buffers
// are bump-allocated from heap blocks: binding a small engine then
// costs no mmap/munmap syscall, and the heap recycles a finished
// trial's blocks on the same thread instead of unmapping them (every
// munmap shoots down the TLBs of the other sweep workers).
constexpr std::size_t kBlockBytes = 256u << 10;
// Minimum heap block: one covers all fifteen word arrays of an engine
// up to n ~ 8k nodes; a larger small buffer gets a block of its size.
constexpr std::size_t kHeapBlockBytes = 16u << 10;
constexpr std::align_val_t kHeapAlign{64};

constexpr std::size_t round_up(std::size_t v, std::size_t align) noexcept {
  return (v + align - 1) / align * align;
}

std::size_t page_size() noexcept {
#if BEEPKIT_ARENA_MMAP
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
#else
  return 4096;
#endif
}

}  // namespace

plane_arena::~plane_arena() { release(); }

plane_arena::plane_arena(plane_arena&& other) noexcept
    : chunks_(std::move(other.chunks_)),
      blocks_(std::move(other.blocks_)),
      bump_(std::exchange(other.bump_, nullptr)),
      bump_left_(std::exchange(other.bump_left_, 0)),
      reserved_(std::exchange(other.reserved_, 0)) {
  other.chunks_.clear();
  other.blocks_.clear();
}

plane_arena& plane_arena::operator=(plane_arena&& other) noexcept {
  if (this != &other) {
    release();
    chunks_ = std::move(other.chunks_);
    other.chunks_.clear();
    blocks_ = std::move(other.blocks_);
    other.blocks_.clear();
    bump_ = std::exchange(other.bump_, nullptr);
    bump_left_ = std::exchange(other.bump_left_, 0);
    reserved_ = std::exchange(other.reserved_, 0);
  }
  return *this;
}

void plane_arena::release() noexcept {
#if BEEPKIT_ARENA_MMAP
  for (const chunk& c : chunks_) munmap(c.base, c.bytes);
#else
  for (const chunk& c : chunks_) std::free(c.base);
#endif
  for (const chunk& b : blocks_) ::operator delete(b.base, b.bytes, kHeapAlign);
  chunks_.clear();
  blocks_.clear();
  bump_ = nullptr;
  bump_left_ = 0;
  reserved_ = 0;
}

std::byte* plane_arena::map_chunk(std::size_t bytes, bool want_huge) {
#if BEEPKIT_ARENA_MMAP
  // Over-map by the huge-page stride so the usable range can be
  // trimmed to a 2 MiB-aligned start - transparent huge pages only
  // back mappings aligned to their own size.
  const std::size_t slack = want_huge ? kHugePage : 0;
  void* raw = mmap(nullptr, bytes + slack, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  auto* base = static_cast<std::byte*>(raw);
  if (want_huge) {
    const auto addr = reinterpret_cast<std::uintptr_t>(base);
    const std::size_t head = round_up(addr, kHugePage) - addr;
    if (head != 0) munmap(base, head);
    const std::size_t tail = slack - head;
    if (tail != 0) munmap(base + head + bytes, tail);
    base += head;
#if defined(MADV_HUGEPAGE)
    madvise(base, bytes, MADV_HUGEPAGE);
#endif
  }
  chunks_.push_back({base, bytes});
  reserved_ += bytes;
  return base;
#else
  void* raw = std::calloc(bytes, 1);
  if (raw == nullptr) throw std::bad_alloc();
  (void)want_huge;
  chunks_.push_back({raw, bytes});
  reserved_ += bytes;
  return static_cast<std::byte*>(raw);
#endif
}

word_buffer plane_arena::alloc_words(std::size_t words) {
  if (words == 0) return {};
  const std::size_t bytes = round_up(words * sizeof(std::uint64_t), 64);
  if (bytes >= kBlockBytes) {
    const std::size_t mapped =
        bytes >= kHugePage ? round_up(bytes, kHugePage) : round_up(bytes, page_size());
    return {reinterpret_cast<std::uint64_t*>(
                map_chunk(mapped, mapped >= kHugePage)),
            words};
  }
  if (bump_left_ < bytes) {
    const std::size_t block = std::max(kHeapBlockBytes, bytes);
    bump_ = static_cast<std::byte*>(::operator new(block, kHeapAlign));
    blocks_.push_back({bump_, block});
    reserved_ += block;
    bump_left_ = block;
  }
  std::byte* const out = bump_;
  bump_ += bytes;
  bump_left_ -= bytes;
  // Heap memory is recycled, not freshly mapped: zero what we hand out.
  std::memset(out, 0, bytes);
  return {reinterpret_cast<std::uint64_t*>(out), words};
}

}  // namespace beepkit::support
