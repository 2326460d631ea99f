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
 * parallel array that is only touched after a tag match. The
 * arrays come from lazily-zeroed pages, so multi-hundred-MB LLCs
 * cost no up-front zeroing; arrays of 2 MiB or more (LLC tags and
 * metadata) are mmap'd and advised onto transparent huge pages,
 * so first touch faults once per 2 MiB instead of once per 4 KiB.
 */

#ifndef CXLSIM_CPU_CACHE_HH
#define CXLSIM_CPU_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
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
    /**
     * Cold per-line state; read only after a tag match, so the
     * backing array needs no initialization (trivial type,
     * written by insert() before any read).
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

    /** Frees zeroedArray() storage; how depends on its size. */
    struct FreeDeleter
    {
        std::size_t bytes = 0;
        void operator()(void *p) const;
    };

    /** @p n zeroed Ts, huge-page backed when large (see above). */
    template <typename T>
    static std::unique_ptr<T[], FreeDeleter> zeroedArray(std::size_t n);

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
