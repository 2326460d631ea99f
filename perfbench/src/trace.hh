/**
 * @file
 * Span recorder and timing memory backend for the benchmark's
 * traced run.
 *
 * Spans are recorded from the benchmark's own code, around the
 * calls it makes into each simulator layer: a span per sweep point
 * and per layer call, each with a parent link. Backend accesses are
 * not spans: TimingBackend adds each access's count and host time
 * to the innermost open span on the calling thread, so a layer's
 * self time is its span's duration minus its child spans and the
 * backend time it enclosed.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "mem/backend.hh"

namespace perfbench {

/** Host nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Backend accesses aggregated under one span. Every access is
 * counted; one in kTimeEvery is timed, and the rest are estimated
 * from the timed ones. Timing every access would cost two clock
 * reads (about 90 ns on a KVM guest) per access and nearly double a
 * memory-bound run. Timed durations are net of the clock's own cost
 * (Tracer calibrates it), so the estimate is not inflated by it.
 * The part of a timed duration above kCapNs (a preemption, not the
 * access) is added once rather than scaled up with the rest.
 */
struct MemAgg
{
    static constexpr std::uint32_t kTimeEvery = 16;
    static constexpr std::int64_t kCapNs = 50000;

    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t notOk = 0;
    std::uint64_t timedReads = 0;
    std::uint64_t timedWrites = 0;
    /** Timed ns, each access capped at kCapNs. */
    std::int64_t timedReadNs = 0;
    std::int64_t timedWriteNs = 0;
    /** Timed ns above the cap. */
    std::int64_t excessNs = 0;

    /** Estimated host ns of all reads: the timed mean times reads. */
    std::int64_t readNs() const
    {
        return scale(timedReadNs, timedReads, reads);
    }
    std::int64_t writeNs() const
    {
        return scale(timedWriteNs, timedWrites, writes);
    }
    std::int64_t busyNs() const { return readNs() + writeNs() + excessNs; }

    MemAgg &operator+=(const MemAgg &o);

  private:
    static std::int64_t scale(std::int64_t ns, std::uint64_t timed,
                              std::uint64_t all);
};

/** One finished span. */
struct Span
{
    std::uint64_t id = 0;
    /** 0 for a root span. */
    std::uint64_t parent = 0;
    /** Layer call: "point", "core.mio", "cpu.run", "mem.teardown",
     *  ... */
    std::string name;
    /** Point key or other free-form detail. */
    std::string detail;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    MemAgg mem;
    /** cpu.run only: simulated instructions and demand L3 misses,
     *  summed over the run's cores. */
    double instructions = 0.0;
    double l3Misses = 0.0;

    std::int64_t durNs() const { return endNs - startNs; }
};

/** Collects finished spans from every thread. */
class Tracer
{
  public:
    /** Open a span on the calling thread; closes on destruction.
     *  With a null tracer it does nothing. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, std::string name,
              std::string detail = std::string());
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** The open span, or null when tracing is off. */
        Span *span() { return tracer_ ? &span_ : nullptr; }

      private:
        Tracer *tracer_;
        Span span_;
        Span *prev_ = nullptr;
    };

    /** Measures the clock's own cost, which timed accesses are
     *  charged net of. */
    Tracer();

    /** Add one backend access to the calling thread's open span;
     *  @p ns is its host time when it was timed, else negative. */
    static void noteAccess(bool write, bool ok, std::int64_t ns);

    /** All finished spans, ordered by id. */
    std::vector<Span> spans() const;

    /** Write spans() as a JSON array. Returns false on I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    std::atomic<std::uint64_t> nextId_{1};
    mutable std::mutex mu_;
    std::vector<Span> done_;
};

/**
 * Host time of one traced run split by layer. Every span's self
 * time is its duration minus its child spans and its backend time
 * (the MemAgg estimate, capped at what the children leave); a
 * span's layer is its name up to the first '.', and all backend
 * time is "mem". A point span's own time is counted as "sim": with
 * every layer call, construction and teardown in spans of their
 * own, what is left is the point rendering its output through
 * sweep::Emit. The layers' self times partition the points' busy
 * time, by construction; clampedNs says how much backend estimate
 * the cap threw away, so a bad estimate still shows.
 */
struct LayerSplit
{
    /** Self ns by layer: core, cpu, mem, workloads, sim. */
    std::map<std::string, std::int64_t> selfNs;
    /** Self ns by span name ("core.mio", "cpu.run", ...). */
    std::map<std::string, std::int64_t> spanSelfNs;
    /** Span count by name. */
    std::map<std::string, std::uint64_t> calls;
    /** Backend accesses by enclosing span name (counts only). */
    std::map<std::string, MemAgg> memBySpan;
    /** Backend time over all spans, as charged to "mem". */
    std::int64_t memBusyNs = 0;
    /** Backend estimate above the owning span's own time, summed
     *  over spans: what the cap removed. */
    std::int64_t clampedNs = 0;
    /** Sum of point span durations. */
    std::int64_t pointNs = 0;
    /** Empty when every self time is non-negative, every span lies
     *  inside a point, and the layers sum to pointNs. */
    std::string error;
};

LayerSplit splitByLayer(const std::vector<Span> &spans);

/**
 * Forwarding MemoryBackend that times every access. It keeps its
 * own BackendStats in step with the wrapped backend's, so code that
 * reads stats() through it sees the same numbers.
 */
class TimingBackend : public cxlsim::mem::MemoryBackend
{
  public:
    explicit TimingBackend(cxlsim::mem::BackendPtr inner)
        : inner_(std::move(inner))
    {
    }

    cxlsim::Tick access(cxlsim::Addr addr, cxlsim::mem::ReqType type,
                        cxlsim::Tick now) override;
    cxlsim::mem::AccessResult accessEx(cxlsim::Addr addr,
                                       cxlsim::mem::ReqType type,
                                       cxlsim::Tick now) override;
    void rasReport(
        std::vector<cxlsim::ras::RasReportEntry> *out) const override
    {
        inner_->rasReport(out);
    }
    const std::string &name() const override { return inner_->name(); }

    const cxlsim::mem::MemoryBackend &inner() const { return *inner_; }

  private:
    cxlsim::mem::BackendPtr inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HH
