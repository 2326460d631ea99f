#include "mio.hh"

#include <algorithm>
#include <vector>

#include "cpu/hierarchy.hh"
#include "sim/earliest.hh"
#include "sim/rng.hh"

namespace melody {

using namespace cxlsim;

namespace {

constexpr std::uint64_t kChaseRegion = 256ULL << 20;  // > LLC
constexpr std::uint64_t kNoiseRegion = 64ULL << 20;

/** One request stream; its next issue time lives in the scheduler. */
struct Agent
{
    Addr base = 0;
    std::uint64_t spanLines = 0;
    Addr cursor = 0;
    bool chase = false;
    unsigned rwPhase = 0;
    std::uint64_t remaining = 0;  ///< chase samples left (chasers only)
};

}  // namespace

MioResult
mioChaseDirect(mem::MemoryBackend *backend, unsigned threads,
               std::uint64_t samples_per_thread, const MioNoise &noise,
               double peak_gbps, std::uint64_t seed)
{
    Rng rng(seed);
    const unsigned noiseSlots = noise.threads * noise.slotsPerThread;
    std::vector<Agent> agents;
    agents.reserve(threads + noiseSlots);
    sim::EarliestFirst sched;
    sched.reserve(threads + noiseSlots);

    Addr nextBase = 0;
    for (unsigned t = 0; t < threads; ++t) {
        Agent a;
        a.base = nextBase;
        nextBase += kChaseRegion;
        a.spanLines = kChaseRegion / kCacheLineBytes;
        a.chase = true;
        a.remaining = samples_per_thread;
        sched.push(t, t);  // deterministic stagger
        agents.push_back(a);
    }
    for (unsigned t = 0; t < noiseSlots; ++t) {
        Agent a;
        a.base = nextBase;
        nextBase += kNoiseRegion;
        a.spanLines = kNoiseRegion / kCacheLineBytes;
        a.cursor = a.base;
        a.chase = false;
        sched.push(rng.below(1000),
                   static_cast<std::uint32_t>(agents.size()));
        a.rwPhase = static_cast<unsigned>(rng.below(100));
        agents.push_back(a);
    }

    MioResult res;
    std::uint64_t bytes = 0;
    Tick lastTick = 0;
    std::uint64_t liveChasers = samples_per_thread > 0 ? threads : 0;

    while (liveChasers > 0) {
        Agent &a = agents[sched.top().index];
        const Tick issue = sched.top().t;

        Addr addr;
        bool isWrite = false;
        if (a.chase) {
            addr = a.base +
                   rng.below(a.spanLines) * kCacheLineBytes;
        } else {
            addr = a.cursor;
            a.cursor += kCacheLineBytes;
            if (a.cursor >= a.base + a.spanLines * kCacheLineBytes)
                a.cursor = a.base;
            a.rwPhase = (a.rwPhase + 1) % 100;
            isWrite = a.rwPhase >=
                      static_cast<unsigned>(noise.readFrac * 100.0);
        }

        const Tick done = backend->access(
            addr,
            isWrite ? mem::ReqType::kWriteback
                    : mem::ReqType::kDemandLoad,
            issue);
        bytes += kCacheLineBytes;
        lastTick = std::max(lastTick, done);

        if (!a.chase) {
            sched.replaceTop(done + nsToTicks(noise.paceNs));
            continue;
        }
        res.latencyNs.record(ticksToNs(done - issue));
        if (--a.remaining > 0) {
            // Dependent: next pointer known only after the load.
            sched.replaceTop(done + nsToTicks(2.0));
        } else {
            // Noise agents stop with the last chaser.
            if (--liveChasers == 0)
                break;
            sched.popTop();
        }
    }

    const double secs =
        static_cast<double>(lastTick) /
        static_cast<double>(kTicksPerSec);
    res.gbps = secs > 0 ? static_cast<double>(bytes) / 1e9 / secs : 0;
    res.utilization = peak_gbps > 0 ? res.gbps / peak_gbps : 0.0;
    return res;
}

MioResult
mioChaseViaCpu(const cpu::CpuProfile &profile,
               mem::MemoryBackend *backend, unsigned threads,
               std::uint64_t samples_per_thread, bool prefetchers_on,
               std::uint64_t seed)
{
    (void)seed;
    cpu::MemoryHierarchy hier(profile, threads, backend,
                              prefetchers_on);
    MioResult res;

    struct Chaser
    {
        Addr cursor = 0;
        std::uint64_t remaining = 0;
    };
    std::vector<Chaser> chasers(threads);
    sim::EarliestFirst sched;
    sched.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        chasers[t].cursor = static_cast<Addr>(t) * kChaseRegion;
        chasers[t].remaining = samples_per_thread;
        if (samples_per_thread > 0)
            sched.push(t, t);
    }

    std::uint64_t bytes = 0;
    Tick lastTick = 0;
    while (!sched.empty()) {
        const auto [now, idx] = sched.top();
        Chaser &c = chasers[idx];
        // Sequential pointer layout: the next pointer lives in the
        // next line, so the stride prefetcher can run ahead.
        const auto out =
            hier.demandLoad(idx, c.cursor, /*stream_id=*/idx, now);
        const Tick done = out.immediate ? now : out.readyAt;
        res.latencyNs.record(ticksToNs(done - now));
        bytes += kCacheLineBytes;
        lastTick = std::max(lastTick, done);
        c.cursor += kCacheLineBytes;
        if (--c.remaining > 0)
            sched.replaceTop(done + nsToTicks(2.0));
        else
            sched.popTop();
    }

    const double secs =
        static_cast<double>(lastTick) /
        static_cast<double>(kTicksPerSec);
    res.gbps = secs > 0 ? static_cast<double>(bytes) / 1e9 / secs : 0;
    return res;
}

}  // namespace melody
