#include "slowdown.hh"

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

/** Memo key: everything runWorkload() draws on besides the study
 *  seed. Callers may run scaled or reseeded variants of the same
 *  named workload. */
std::string
baselineKey(const workloads::WorkloadProfile &w,
            const std::string &server)
{
    return server + "/" + w.name + "/" +
           std::to_string(w.blocksPerCore) + "/" +
           std::to_string(w.threads) + "/" + std::to_string(w.seed);
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
