/**
 * @file
 * Set-associative cache with pending-line (fill-in-progress)
 * semantics.
 *
 * A line is inserted the moment its fill request is issued, with a
 * readyTick in the future; until then the line is "pending" and a
 * hit on it is a *delayed hit* that must wait for arrival. Each
 * pending line carries a home StallTag — the level a demand load
 * waiting on it is charged to. This is the substrate for the
 * paper's prefetch-timeliness findings (§5.4): a demand load that
 * catches a pending L2-streamer line stalls on "L2" (or LLC on
 * SPR/EMR) even though the data is actually in flight from CXL.
 *
 * Storage layout is split for the host machine's benefit: the probe
 * path scans a compact one-word-per-way tag array (tag | valid bit
 * packed into a single 8-byte word, so a 16-way set is two host
 * cachelines instead of ten), with an MRU-way first probe; the cold
 * per-line metadata (readyAt, LRU stamp, home, dirty) lives in a
 * parallel array that is only touched after a tag match. Arrays of
 * 2 MiB or more (LLC tags and metadata) are mmap'd and advised onto
 * transparent huge pages, so first touch faults once per 2 MiB
 * instead of once per 4 KiB; smaller ones come from calloc.
 *
 * Each thread keeps the huge-page arrays it freed last (an LLC's
 * tags and metadata) for its next allocations of the same sizes, so
 * a sweep that builds one LLC after another reuses their pages
 * instead of faulting fresh ones. Reused tags and MRU hints are
 * re-zeroed (a linear memset); metadata is not, since it is only
 * read after a tag match. An allocation that finds no kept array of
 * its size unmaps the kept ones before mapping its own, so kept
 * pages never add to a thread's peak. Construction on reused
 * arrays is therefore not O(1).
 *
 * fill() warms an empty cache in one pass: it writes the state that
 * inserting every line of a few disjoint line ranges would leave,
 * set by set, without replaying the inserts.
 */

#ifndef CXLSIM_CPU_CACHE_HH
#define CXLSIM_CPU_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <type_traits>

#include "cpu/counters.hh"
#include "sim/types.hh"

namespace cxlsim::cpu {

/** Result of a cache lookup. */
enum class LookupResult : std::uint8_t {
    kHit,       ///< Present and ready.
    kPending,   ///< Present but still filling; see readyAt.
    kMiss,      ///< Not present.
};

/** A victim evicted by insert(); valid==false when none. */
struct Eviction
{
    bool valid = false;
    bool dirty = false;
    Addr lineAddr = 0;
};

/**
 * One cache level. Addresses are line-aligned; LRU replacement.
 * Pending lines are never chosen as victims while filling unless
 * the whole set is pending (then the oldest fill is dropped —
 * models a squashed prefetch).
 */
class Cache
{
  public:
    /**
     * @param size_bytes Capacity.
     * @param ways       Associativity.
     */
    Cache(std::uint64_t size_bytes, unsigned ways);

    /**
     * Look up @p line_addr at time @p now. Updates LRU on hit.
     *
     * @param ready_at Out: arrival tick when kPending.
     * @param home     Out: stall attribution tag when kPending.
     */
    LookupResult lookup(Addr line_addr, Tick now, Tick *ready_at,
                        StallTag *home);

    /** True if the line is present (ready or pending). */
    bool contains(Addr line_addr) const;

    /**
     * Insert a line filling at @p ready_at with attribution
     * @p home; returns the eviction, if any.
     *
     * @param dirty Install in modified state (RFO fills).
     */
    Eviction insert(Addr line_addr, Tick ready_at, StallTag home,
                    bool dirty);

    /**
     * Warm an empty cache with every line of @p ranges, in order:
     * the same tags, metadata, MRU hints and stamp counter as
     * insert(line, 0, home, false) for each line would leave. The
     * ranges must be line-aligned and pairwise disjoint.
     */
    void fill(std::span<const LineRange> ranges, StallTag home);

    /** Mark a present line dirty (store commit); no-op on miss. */
    void markDirty(Addr line_addr);

    /** Invalidate a line if present (used by tests). */
    void invalidate(Addr line_addr);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t pendingHits() const { return pendingHits_; }

    std::uint64_t sets() const { return sets_; }
    unsigned ways() const { return ways_; }

  private:
    /** Read-only view of the raw state for white-box tests. */
    friend struct CacheInspector;

    /**
     * Cold per-line state; read only after a tag match, so the
     * backing array needs no initialization (trivial type,
     * written by insert() or fill() before any read).
     */
    struct Meta
    {
        Tick readyAt;
        std::uint64_t lruStamp;
        StallTag home;
        bool dirty;
    };
    static_assert(std::is_trivial_v<Meta>,
                  "Meta must be trivial: its array is never "
                  "value-initialized");

    // Line addresses have the low log2(kCacheLineBytes) bits clear,
    // so bit 0 doubles as the valid flag and 0 means "empty way".
    static_assert(kCacheLineBytes >= 2, "need a spare low bit");

    static Addr tagWord(Addr line_addr) { return line_addr | 1; }

    std::size_t setIndex(Addr line_addr) const
    {
        return (line_addr / kCacheLineBytes) % sets_;
    }

    /** Way holding @p line_addr in @p set, or -1. MRU-first probe. */
    int findWay(std::size_t set, Addr line_addr) const;

    /** Frees allocArray() storage; how depends on its size. */
    struct FreeDeleter
    {
        std::size_t bytes = 0;
        void operator()(void *p) const;
    };

    /**
     * @p n Ts, huge-page backed when large (see above). Zeroed
     * unless @p zero is false and a kept array is reused.
     */
    template <typename T>
    static std::unique_ptr<T[], FreeDeleter> allocArray(std::size_t n,
                                                        bool zero);

    std::uint64_t sets_;
    unsigned ways_;
    /** sets_*ways_ probe words: tagWord(addr) or 0 when invalid. */
    std::unique_ptr<Addr[], FreeDeleter> tags_;
    /** sets_*ways_ cold entries, parallel to tags_. */
    std::unique_ptr<Meta[], FreeDeleter> meta_;
    /** Per-set most-recently-hit way (probe hint only). */
    std::unique_ptr<std::uint8_t[], FreeDeleter> mru_;
    std::uint64_t stamp_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t pendingHits_ = 0;
};

}  // namespace cxlsim::cpu

#endif  // CXLSIM_CPU_CACHE_HH
