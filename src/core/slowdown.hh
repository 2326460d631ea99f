/**
 * @file
 * Workload slowdown measurement (§3.1 "Performance metric"):
 * S = (P_DRAM / P_CXL - 1) * 100%, with socket-local DRAM as the
 * baseline. Performance is wall-clock execution time of the same
 * instruction stream, so S reflects the combined latency and
 * bandwidth impact of the memory setup.
 */

#ifndef MELODY_CORE_SLOWDOWN_HH
#define MELODY_CORE_SLOWDOWN_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/platform.hh"
#include "cpu/multicore.hh"
#include "workloads/profile.hh"

namespace melody {

/** Run @p w on @p platform once. */
cxlsim::cpu::RunResult
runWorkload(const cxlsim::workloads::WorkloadProfile &w,
            const Platform &platform, std::uint64_t seed,
            bool prefetchers_on = true,
            cxlsim::Tick sampling_interval = 0);

/** Slowdown percentage of @p test relative to @p baseline. */
double slowdownPct(const cxlsim::cpu::RunResult &baseline,
                   const cxlsim::cpu::RunResult &test);

/**
 * Runs workloads across setups, caching the per-server Local
 * baseline so each workload's baseline runs once, even when many
 * threads ask for it at the same moment. The memo keys on the
 * server and every field of the profile, so two profiles share a
 * baseline only when they are the same workload.
 *
 * The memo is single-flight: the first caller to claim a key runs
 * the baseline and publishes it through a shared future; later
 * callers wait on that future. A baseline run that throws is
 * erased from the memo (a later call reruns it) and its exception
 * is rethrown to every caller that was waiting on it.
 */
class SlowdownStudy
{
  public:
    explicit SlowdownStudy(std::uint64_t seed = 1234) : seed_(seed) {}

    /**
     * Baseline result for (workload, server), memoized. The
     * reference stays valid for the study's lifetime.
     */
    const cxlsim::cpu::RunResult &
    baseline(const cxlsim::workloads::WorkloadProfile &w,
             const std::string &server);

    /** Slowdown of @p w on (server, memory) vs the local baseline. */
    double slowdown(const cxlsim::workloads::WorkloadProfile &w,
                    const std::string &server,
                    const std::string &memory);

    /**
     * As slowdown(), but also expose the test run. A caller that
     * finds the baseline claimed by another thread runs its test
     * first and only then waits for the baseline.
     */
    double slowdownWithRun(const cxlsim::workloads::WorkloadProfile &w,
                           const std::string &server,
                           const std::string &memory,
                           cxlsim::cpu::RunResult *test_out);

    /**
     * Slowdowns of many workloads on one setup, computed in
     * parallel (each run is independent and deterministic).
     * Results are returned in input order.
     */
    std::vector<double> slowdownBatch(
        const std::vector<cxlsim::workloads::WorkloadProfile> &ws,
        const std::string &server, const std::string &memory,
        unsigned threads = 0);

    /** Baseline runs started so far (failed ones included). */
    unsigned baselineRuns() const { return baselineRuns_.load(); }

  private:
    using Baseline = std::shared_future<cxlsim::cpu::RunResult>;

    /**
     * The memo slot for (w, server). If this call claims it, the
     * baseline runs before it returns, and its error is rethrown;
     * otherwise the slot may still be filling.
     */
    Baseline acquire(const cxlsim::workloads::WorkloadProfile &w,
                     const std::string &server);

    std::uint64_t seed_;
    std::mutex mu_;
    std::map<std::string, Baseline> baselines_;
    std::atomic<unsigned> baselineRuns_{0};
};

}  // namespace melody

#endif  // MELODY_CORE_SLOWDOWN_HH
