#include "cache.hh"

#include <sys/mman.h>

#include "sim/logging.hh"

namespace cxlsim::cpu {

namespace {

/** Arrays at least one x86-64 huge page long go to mmap. */
constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

void *
allocZeroed(std::size_t bytes)
{
    if (bytes < kHugePageBytes)
        return std::calloc(bytes, 1);
    // Anonymous pages are zeroed lazily, like calloc's, so a
    // 100s-of-MB LLC still costs O(1) to construct. The advice is a
    // no-op where THP is disabled.
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        return nullptr;
    madvise(p, bytes, MADV_HUGEPAGE);
    return p;
}

}  // namespace

template <typename T>
std::unique_ptr<T[], Cache::FreeDeleter>
Cache::zeroedArray(std::size_t n)
{
    const std::size_t bytes = n * sizeof(T);
    return {static_cast<T *>(allocZeroed(bytes)), FreeDeleter{bytes}};
}

void
Cache::FreeDeleter::operator()(void *p) const
{
    if (bytes < kHugePageBytes)
        std::free(p);
    else
        munmap(p, bytes);
}

Cache::Cache(std::uint64_t size_bytes, unsigned ways)
    : sets_(size_bytes / (kCacheLineBytes * ways)), ways_(ways),
      tags_(zeroedArray<Addr>(sets_ * ways_)),
      meta_(zeroedArray<Meta>(sets_ * ways_)),
      mru_(zeroedArray<std::uint8_t>(sets_))
{
    SIM_ASSERT(sets_ >= 1, "cache too small");
    SIM_ASSERT(ways_ >= 1 && ways_ <= 255, "ways out of range");
    SIM_ASSERT(tags_ && meta_ && mru_, "cache allocation failed");
}

int
Cache::findWay(std::size_t set, Addr line_addr) const
{
    const Addr key = tagWord(line_addr);
    const Addr *t = &tags_[set * ways_];
    const unsigned m = mru_[set];
    if (t[m] == key)
        return static_cast<int>(m);
    for (unsigned w = 0; w < ways_; ++w)
        if (t[w] == key)
            return static_cast<int>(w);
    return -1;
}

LookupResult
Cache::lookup(Addr line_addr, Tick now, Tick *ready_at, StallTag *home)
{
    const std::size_t set = setIndex(line_addr);
    const int w = findWay(set, line_addr);
    if (w < 0) {
        ++misses_;
        return LookupResult::kMiss;
    }
    mru_[set] = static_cast<std::uint8_t>(w);
    Meta &m = meta_[set * ways_ + static_cast<unsigned>(w)];
    m.lruStamp = ++stamp_;
    if (m.readyAt > now) {
        ++pendingHits_;
        if (ready_at)
            *ready_at = m.readyAt;
        if (home)
            *home = m.home;
        return LookupResult::kPending;
    }
    ++hits_;
    return LookupResult::kHit;
}

bool
Cache::contains(Addr line_addr) const
{
    return findWay(setIndex(line_addr), line_addr) >= 0;
}

Eviction
Cache::insert(Addr line_addr, Tick ready_at, StallTag home, bool dirty)
{
    Eviction ev;
    const std::size_t set = setIndex(line_addr);
    Addr *t = &tags_[set * ways_];
    Meta *mb = &meta_[set * ways_];

    if (const int w = findWay(set, line_addr); w >= 0) {
        // Refill of a present line: refresh fill state.
        Meta &m = mb[w];
        m.readyAt = ready_at;
        m.home = home;
        m.dirty = m.dirty || dirty;
        m.lruStamp = ++stamp_;
        mru_[set] = static_cast<std::uint8_t>(w);
        return ev;
    }

    int victim = -1;
    for (unsigned w = 0; w < ways_; ++w) {
        if (t[w] == 0) {
            victim = static_cast<int>(w);
            break;
        }
        // Plain LRU victim selection (pending fills are treated
        // like any other line: a squashed in-flight prefetch).
        if (victim < 0 || mb[w].lruStamp < mb[victim].lruStamp)
            victim = static_cast<int>(w);
    }

    if (t[victim] != 0) {
        ev.valid = true;
        ev.dirty = mb[victim].dirty;
        ev.lineAddr = t[victim] & ~static_cast<Addr>(1);
    }
    t[victim] = tagWord(line_addr);
    mb[victim].readyAt = ready_at;
    mb[victim].home = home;
    mb[victim].dirty = dirty;
    mb[victim].lruStamp = ++stamp_;
    mru_[set] = static_cast<std::uint8_t>(victim);
    return ev;
}

void
Cache::markDirty(Addr line_addr)
{
    const std::size_t set = setIndex(line_addr);
    if (const int w = findWay(set, line_addr); w >= 0)
        meta_[set * ways_ + static_cast<unsigned>(w)].dirty = true;
}

void
Cache::invalidate(Addr line_addr)
{
    const std::size_t set = setIndex(line_addr);
    if (const int w = findWay(set, line_addr); w >= 0)
        tags_[set * ways_ + static_cast<unsigned>(w)] = 0;
}

}  // namespace cxlsim::cpu
