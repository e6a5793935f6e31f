#include "support/arena.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "support/parallel.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define BEEPKIT_ARENA_MMAP 1
#else
#include <cstdlib>
#define BEEPKIT_ARENA_MMAP 0
#endif

#if defined(__linux__)
#include <sys/syscall.h>
#endif
#if defined(__linux__) && defined(SYS_mbind)
#define BEEPKIT_ARENA_NUMA 1
#else
#define BEEPKIT_ARENA_NUMA 0
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

#if BEEPKIT_ARENA_NUMA
/// Bitmask of online NUMA nodes (< 64) parsed from sysfs range syntax
/// ("0", "0-3", "0,2-3"). Falls back to node 0 when unreadable, which
/// makes the mbind a harmless identity on single-node boxes.
unsigned long online_nodemask() noexcept {
  FILE* f = std::fopen("/sys/devices/system/node/online", "re");
  if (f == nullptr) return 1UL;
  char buf[256];
  const std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[got] = '\0';
  unsigned long mask = 0;
  const char* s = buf;
  while (*s != '\0') {
    char* end = nullptr;
    const long lo = std::strtol(s, &end, 10);
    if (end == s) break;
    long hi = lo;
    s = end;
    if (*s == '-') {
      hi = std::strtol(s + 1, &end, 10);
      s = end;
    }
    for (long b = lo; b <= hi && b < 64; ++b) mask |= 1UL << b;
    if (*s == ',') ++s;
  }
  return mask == 0 ? 1UL : mask;
}
#endif

}  // namespace

plane_arena::~plane_arena() { release(); }

plane_arena::plane_arena(plane_arena&& other) noexcept
    : chunks_(std::move(other.chunks_)),
      blocks_(std::move(other.blocks_)),
      bump_(std::exchange(other.bump_, nullptr)),
      bump_left_(std::exchange(other.bump_left_, 0)),
      reserved_(std::exchange(other.reserved_, 0)),
      interleave_(other.interleave_) {
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
    interleave_ = other.interleave_;
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
  if (interleave_) apply_interleave(base, bytes);
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

void plane_arena::apply_interleave(void* base, std::size_t bytes) noexcept {
#if BEEPKIT_ARENA_NUMA
  static const unsigned long mask = online_nodemask();
  constexpr int kMpolInterleave = 3;  // MPOL_INTERLEAVE
  // Best-effort: EINVAL/EPERM just leaves the default first-touch
  // policy in place.
  syscall(SYS_mbind, base, bytes, kMpolInterleave, &mask,
          sizeof(mask) * 8, 0UL);
#else
  (void)base;
  (void)bytes;
#endif
}

bool plane_arena::set_numa_interleave(bool on) noexcept {
#if BEEPKIT_ARENA_NUMA
  interleave_ = on;
  return true;
#else
  interleave_ = false;
  return !on;
#endif
}

void plane_arena::distribute_first_touch(tile_executor& exec,
                                         std::size_t tile_words) {
  const std::size_t page = page_size();
  // Tiles are ranges of pages (not words), so concurrent tiles never
  // touch the same byte. tile_words is converted page-for-word so the
  // caller can pass the engine's tile size unchanged.
  const std::size_t tile_pages =
      tile_words == 0 ? 0
                      : std::max<std::size_t>(
                            1, tile_words * sizeof(std::uint64_t) / page);
  for (const chunk& c : chunks_) {
    auto* base = static_cast<std::byte*>(c.base);
    const std::size_t pages = (c.bytes + page - 1) / page;
    exec.run_tiles(pages, tile_pages,
                   [&](std::size_t, std::size_t pb, std::size_t pe) {
                     for (std::size_t pg = pb; pg < pe; ++pg) {
                       auto* p =
                           reinterpret_cast<volatile std::byte*>(base) +
                           pg * page;
                       *p = *p;  // same-value write: commits, preserves
                     }
                   });
  }
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
