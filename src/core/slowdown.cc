#include "slowdown.hh"

#include <cstdio>

#include "sim/parallel.hh"

#include "workloads/synthetic_kernel.hh"

namespace melody {

using namespace cxlsim;

cpu::RunResult
runWorkload(const workloads::WorkloadProfile &w,
            const Platform &platform, std::uint64_t seed,
            bool prefetchers_on, Tick sampling_interval)
{
    mem::BackendPtr backend = platform.makeBackend(seed ^ w.seed);
    cpu::MultiCore mc(platform.cpu(), w.exec, backend.get(),
                      workloads::makeKernels(w), prefetchers_on);
    if (sampling_interval)
        mc.enableSampling(sampling_interval);
    return mc.run();
}

double
slowdownPct(const cpu::RunResult &baseline,
            const cpu::RunResult &test)
{
    if (baseline.wallTicks == 0)
        return 0.0;
    return (static_cast<double>(test.wallTicks) /
                static_cast<double>(baseline.wallTicks) -
            1.0) *
           100.0;
}

namespace {

// The memo key below spells out every field of the profile. A new
// field changes these sizes and fails the build until it is added
// to the key (and the byte count here is updated).
static_assert(sizeof(cpu::CoreExecParams) == 4 * sizeof(double));
static_assert(sizeof(workloads::Phase) == 4 * sizeof(double));
static_assert(sizeof(workloads::WorkloadProfile) ==
              2 * sizeof(std::string) +
                  sizeof(std::vector<workloads::Phase>) +
                  sizeof(cpu::CoreExecParams) + 9 * sizeof(double) +
                  4 * sizeof(std::uint64_t) +
                  // threads and coldBurst, each padded to 8 bytes
                  2 * sizeof(std::uint64_t));

/** Memo key: the server and every field of the profile, doubles as
 *  exact hexfloats. Callers run scaled, reseeded and re-phased
 *  variants of one named workload, and each needs its own
 *  baseline. */
std::string
baselineKey(const workloads::WorkloadProfile &w,
            const std::string &server)
{
    std::string key = server + "/" + w.name + "/" + w.family;
    char buf[64];
    const auto num = [&](double v) {
        std::snprintf(buf, sizeof(buf), "/%a", v);
        key += buf;
    };
    const auto uint = [&](std::uint64_t v) {
        key += "/" + std::to_string(v);
    };
    uint(w.threads);
    uint(w.blocksPerCore);
    num(w.uopsPerBlock);
    num(w.loadsPerBlock);
    num(w.storesPerBlock);
    num(w.seqFrac);
    num(w.strideFrac);
    num(w.hotFrac);
    num(w.dependentFrac);
    num(w.storeHotFrac);
    uint(w.coldBurst);
    uint(w.workingSetBytes);
    num(w.zipfSkew);
    uint(w.hotBytes);
    num(w.exec.frontendStallFrac);
    num(w.exec.onePortFrac);
    num(w.exec.twoPortFrac);
    num(w.exec.serializeFrac);
    uint(w.phases.size());
    for (const workloads::Phase &ph : w.phases) {
        num(ph.weight);
        num(ph.intensity);
        num(ph.dependence);
        num(ph.stores);
    }
    uint(w.seed);
    return key;
}

}  // namespace

SlowdownStudy::Baseline
SlowdownStudy::acquire(const workloads::WorkloadProfile &w,
                       const std::string &server)
{
    const std::string key = baselineKey(w, server);
    std::promise<cpu::RunResult> owner;
    Baseline mine = owner.get_future().share();
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto [it, claimed] = baselines_.try_emplace(key, mine);
        if (!claimed)
            return it->second;
        ++baselineRuns_;
    }
    try {
        owner.set_value(runWorkload(w, Platform(server, "Local"), seed_));
    } catch (...) {
        // Unclaim first, so a later call reruns the baseline, then
        // wake the current waiters with the error.
        {
            std::lock_guard<std::mutex> lock(mu_);
            baselines_.erase(key);
        }
        owner.set_exception(std::current_exception());
        throw;
    }
    return mine;
}

const cpu::RunResult &
SlowdownStudy::baseline(const workloads::WorkloadProfile &w,
                        const std::string &server)
{
    // The memo holds another copy of the slot, which keeps the
    // result alive after this one goes.
    const Baseline base = acquire(w, server);
    return base.get();
}

double
SlowdownStudy::slowdown(const workloads::WorkloadProfile &w,
                        const std::string &server,
                        const std::string &memory)
{
    return slowdownWithRun(w, server, memory, nullptr);
}

double
SlowdownStudy::slowdownWithRun(const workloads::WorkloadProfile &w,
                               const std::string &server,
                               const std::string &memory,
                               cpu::RunResult *test_out)
{
    // The owner runs the baseline first, since others may wait on
    // it; everyone else runs the test while the owner computes.
    const Baseline base = acquire(w, server);
    cpu::RunResult test = runWorkload(w, Platform(server, memory), seed_);
    const double s = slowdownPct(base.get(), test);
    if (test_out)
        *test_out = std::move(test);
    return s;
}

std::vector<double>
SlowdownStudy::slowdownBatch(
    const std::vector<workloads::WorkloadProfile> &ws,
    const std::string &server, const std::string &memory,
    unsigned threads)
{
    std::vector<double> out(ws.size());
    parallelFor(
        ws.size(),
        [&](std::size_t i) {
            out[i] = slowdown(ws[i], server, memory);
        },
        threads);
    return out;
}

}  // namespace melody
