#include "cache.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace cxlsim::cpu {

namespace {

/** Arrays at least one x86-64 huge page long go to mmap. */
constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/**
 * The huge-page arrays this thread freed last, newest at the back:
 * two, the tags and metadata of one LLC.
 */
struct KeptArrays
{
    struct Entry
    {
        void *p = nullptr;
        std::size_t bytes = 0;
    };
    Entry kept[2];

    /** A kept array of @p bytes; else unmaps them all: nullptr. */
    void *
    take(std::size_t bytes)
    {
        for (Entry &e : kept)
            if (e.p && e.bytes == bytes)
                return std::exchange(e.p, nullptr);
        clear();
        return nullptr;
    }

    /** Keeps @p p, unmapping the oldest kept array. */
    void
    keep(void *p, std::size_t bytes)
    {
        if (kept[0].p)
            munmap(kept[0].p, kept[0].bytes);
        kept[0] = kept[1];
        kept[1] = {p, bytes};
    }

    void
    clear()
    {
        for (Entry &e : kept)
            if (e.p)
                munmap(std::exchange(e.p, nullptr), e.bytes);
    }

    ~KeptArrays() { clear(); }
};

thread_local KeptArrays t_kept;

/** @p bytes of storage; see Cache::allocArray(). */
void *
allocate(std::size_t bytes, bool zero)
{
    if (bytes < kHugePageBytes)
        return std::calloc(bytes, 1);
    if (void *p = t_kept.take(bytes)) {
        if (zero)
            std::memset(p, 0, bytes);
        return p;
    }
    // Anonymous pages are zeroed lazily, like calloc's. The advice
    // is a no-op where THP is disabled.
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
Cache::allocArray(std::size_t n, bool zero)
{
    const std::size_t bytes = n * sizeof(T);
    return {static_cast<T *>(allocate(bytes, zero)), FreeDeleter{bytes}};
}

void
Cache::FreeDeleter::operator()(void *p) const
{
    if (bytes < kHugePageBytes)
        std::free(p);
    else
        t_kept.keep(p, bytes);
}

Cache::Cache(std::uint64_t size_bytes, unsigned ways)
    : sets_(size_bytes / (kCacheLineBytes * ways)), ways_(ways),
      tags_(allocArray<Addr>(sets_ * ways_, true)),
      meta_(allocArray<Meta>(sets_ * ways_, false)),
      mru_(allocArray<std::uint8_t>(sets_, true))
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
Cache::fill(std::span<const LineRange> ranges, StallTag home)
{
    SIM_ASSERT(stamp_ == 0, "fill() needs an empty cache");
    std::vector<LineRange> sorted;
    for (const LineRange &r : ranges) {
        SIM_ASSERT(r.first == lineAlign(r.first),
                   "fill() range not line-aligned");
        if (r.lines)
            sorted.push_back(r);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const LineRange &a, const LineRange &b) {
                  return a.first < b.first;
              });
    for (std::size_t i = 1; i < sorted.size(); ++i)
        SIM_ASSERT(sorted[i - 1].first +
                           sorted[i - 1].lines * kCacheLineBytes <=
                       sorted[i].first,
                   "fill() ranges overlap");

    // Inserting consecutive lines visits consecutive sets, so a
    // range of n = q*sets + rem lines whose first line maps to set
    // `start` puts q+1 lines into the rem sets from `start` on
    // (cyclically) and q into the others. The k-th line to reach a
    // set lands in way k mod ways_ (the empty ways fill in order,
    // then LRU evicts the oldest way), and its stamp is its global
    // insert index + 1. So a set's final state is its last ways_
    // lines. Between the cuts at each range's `start` and
    // `start + rem`, every set gets the same count from each range,
    // so one plan (which range contributes how many survivors)
    // serves a whole run of sets.
    struct Range
    {
        Addr first;
        std::uint64_t base;  ///< insert index of the first line
        std::uint64_t q, rem, start;
    };
    std::vector<Range> rs;
    std::vector<std::uint64_t> cuts = {0, sets_};
    std::uint64_t total = 0;
    for (const LineRange &r : ranges) {
        const std::uint64_t start = (r.first / kCacheLineBytes) % sets_;
        const std::uint64_t rem = r.lines % sets_;
        rs.push_back({r.first, total, r.lines / sets_, rem, start});
        cuts.push_back(start);
        cuts.push_back((start + rem) % sets_);
        total += r.lines;
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    /** @p n survivors of @p r; @p off: range offset of the newest
     *  one in the run's first set. */
    struct Take
    {
        const Range *r;
        std::uint64_t off, n;
    };
    std::vector<Take> plan;
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
        const std::uint64_t a = cuts[k];
        std::uint64_t lines = 0;
        for (const Range &r : rs)
            lines += r.q + ((a + sets_ - r.start) % sets_ < r.rem);
        if (!lines)
            continue;
        plan.clear();
        std::uint64_t left = std::min<std::uint64_t>(lines, ways_);
        for (auto r = rs.rbegin(); left && r != rs.rend(); ++r) {
            const std::uint64_t off = (a + sets_ - r->start) % sets_;
            const std::uint64_t c = r->q + (off < r->rem);
            const std::uint64_t n = std::min(c, left);
            if (n) {
                plan.push_back({&*r, off + (c - 1) * sets_, n});
                left -= n;
            }
        }
        // No range's offset wraps inside the run: each `start` is a
        // cut, so a set's offsets are the first set's plus the gap.
        const auto newest = static_cast<unsigned>((lines - 1) % ways_);
        for (std::uint64_t set = a; set < cuts[k + 1]; ++set) {
            mru_[set] = static_cast<std::uint8_t>(newest);
            unsigned way = newest;
            for (const Take &t : plan) {
                std::uint64_t off = t.off + (set - a);
                for (std::uint64_t j = 0; j < t.n; ++j) {
                    const std::size_t i = set * ways_ + way;
                    tags_[i] = tagWord(t.r->first + off * kCacheLineBytes);
                    meta_[i] = Meta{0, t.r->base + off + 1, home, false};
                    off -= sets_;
                    way = way ? way - 1 : ways_ - 1;
                }
            }
        }
    }
    stamp_ = total;
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
