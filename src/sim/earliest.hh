/**
 * @file
 * EarliestFirst: the scheduler that picks which agent steps next.
 *
 * The MIO and MLC harnesses and MultiCore all advance many agents
 * (chasers, traffic slots, cores), each with its own next-action
 * time, and always step the earliest one. This is the one min-heap
 * they share. It is keyed on (tick, agent index), so equal ticks go
 * to the lowest index: exactly the order a linear scan with a
 * strict `<` gives. The shared backend therefore sees the same
 * request sequence whichever way the agent is found.
 */

#ifndef CXLSIM_SIM_EARLIEST_HH
#define CXLSIM_SIM_EARLIEST_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "types.hh"

namespace cxlsim::sim {

/**
 * Binary min-heap of (tick, index) keys. Each index is held at most
 * once. The usual loop steps top(), then re-keys it with
 * replaceTop() or drops it with popTop(). replaceTop() is a single
 * sift-down: when the stepped agent is still the earliest, it stops
 * after comparing against the root's children, so no separate
 * "same agent again" fast path is needed.
 */
class EarliestFirst
{
  public:
    struct Entry
    {
        Tick t;
        std::uint32_t index;
    };

    /** Size the storage once, before the stepping loop. */
    void reserve(std::size_t n) { heap_.reserve(n); }

    bool empty() const { return heap_.empty(); }

    /** Add agent @p index, next due at @p t. */
    void
    push(Tick t, std::uint32_t index)
    {
        const Entry e{t, index};
        heap_.push_back(e);
        std::size_t hole = heap_.size() - 1;
        while (hole > 0) {
            const std::size_t parent = (hole - 1) / 2;
            if (!before(e, heap_[parent]))
                break;
            heap_[hole] = heap_[parent];
            hole = parent;
        }
        heap_[hole] = e;
    }

    /** The earliest (t, index); only valid if !empty(). */
    const Entry &top() const { return heap_.front(); }

    /** Re-key the top agent to next be due at @p t. */
    void
    replaceTop(Tick t)
    {
        siftDown({t, heap_.front().index});
    }

    /** Drop the top agent. */
    void
    popTop()
    {
        const Entry last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(last);
    }

  private:
    static bool
    before(const Entry &a, const Entry &b)
    {
        return a.t < b.t || (a.t == b.t && a.index < b.index);
    }

    /** Place @p e at the root, then sink it to its slot. */
    void
    siftDown(const Entry &e)
    {
        const std::size_t n = heap_.size();
        std::size_t hole = 0;
        for (;;) {
            std::size_t child = 2 * hole + 1;
            if (child >= n)
                break;
            if (child + 1 < n && before(heap_[child + 1], heap_[child]))
                ++child;
            if (!before(heap_[child], e))
                break;
            heap_[hole] = heap_[child];
            hole = child;
        }
        heap_[hole] = e;
    }

    std::vector<Entry> heap_;
};

}  // namespace cxlsim::sim

#endif  // CXLSIM_SIM_EARLIEST_HH
