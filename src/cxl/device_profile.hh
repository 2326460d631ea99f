/**
 * @file
 * Per-vendor CXL device profiles.
 *
 * The paper characterizes four real CXL memory expanders (Table 1):
 *
 *   CXL-A: ASIC, CXL 1.1 x8, 2 x DDR4, 214ns idle, 24 GB/s read,
 *          32 GB/s mixed peak; tails grow from ~30% utilization.
 *   CXL-B: ASIC, CXL 1.1 x8, 1 x DDR5, 271ns idle, 22 GB/s read,
 *          26 GB/s peak; large tails even at idle (p99.9-p50 up to
 *          ~160ns, p99.99 ~1us).
 *   CXL-C: FPGA, CXL 1.1 x8, 2 x DDR4, 394ns idle, 18 GB/s read,
 *          21 GB/s peak (read-only best: cannot exploit the duplex
 *          link); worst tails, spikes to ~3us.
 *   CXL-D: ASIC, CXL 1.1 x16, 2 x DDR5, 239ns idle, 52 GB/s read,
 *          59 GB/s peak; best stability, tails only near saturation.
 *
 * Each profile bundles the link, controller and DRAM parameters
 * that produce those behaviours in the model. The vendors are
 * anonymous in the paper; these are calibrated stand-ins.
 */

#ifndef CXLSIM_CXL_DEVICE_PROFILE_HH
#define CXLSIM_CXL_DEVICE_PROFILE_HH

#include <cstdint>
#include <string>

#include "dram/timing.hh"
#include "link/link.hh"

namespace cxlsim::cxl {

/**
 * Parameters of the controller's latency "hiccup" process — the
 * abstraction for scheduler immaturity, flow-control backpressure
 * accumulation, and thermal/power management pauses that the paper
 * identifies as candidate causes of CXL tail latency (§3.2,
 * "Reasoning"). A hiccup blocks the request scheduler for a
 * bounded-Pareto-distributed duration.
 */
struct HiccupParams
{
    /** @throw ConfigError on out-of-range values. */
    void validate() const;

    /** Per-request hiccup probability at idle. */
    double baseProb = 0.0;
    /** Additional probability at full utilization. */
    double loadProb = 0.0;
    /** Utilization exponent: >1 concentrates hiccups near saturation. */
    double loadExponent = 2.0;
    /** Utilization at which load-coupled hiccups begin. */
    double onsetUtil = 0.3;
    /** Pause duration bounds (ns) and Pareto shape. */
    double minNs = 100.0;
    double maxNs = 1000.0;
    double alpha = 1.5;
};

/** Thermal throttling: sustained high power forces service pauses. */
struct ThermalParams
{
    /** @throw ConfigError on out-of-range values. */
    void validate() const;

    /** Sustained bandwidth (GB/s) above which throttling may engage. */
    double bwThresholdGBps = 1e9;  // effectively disabled by default
    /** Probability per request of a throttle pause once engaged. */
    double throttleProb = 0.0;
    /** Throttle pause duration, ns. */
    double pauseNs = 0.0;
};

/** Complete description of one CXL memory expander. */
struct DeviceProfile
{
    std::string name;

    /** Link (Flex Bus) parameters. */
    link::LinkConfig linkCfg;
    /** FPGA devices cannot drive both directions concurrently. */
    bool halfDuplexLink = false;

    /** DRAM configuration behind the controller. */
    dram::DramTiming dramTiming;
    unsigned dramChannels = 1;
    /** Refresh hiding quality of this controller (see dram::Channel). */
    double refreshHiding = 0.9;

    /** Fixed controller processing latency (parse + queue + sched), ns. */
    double controllerNs = 60.0;
    /** Scheduler occupancy per request, ns — caps total request rate. */
    double schedulerPerReqNs = 2.0;
    /** Request queue capacity (steers backpressure onset). */
    unsigned queueCapacity = 64;

    HiccupParams hiccups;
    ThermalParams thermal;

    /**
     * Extra latency when the device is accessed from a remote
     * socket (Table 1 "Remote" column); varies per vendor: +161,
     * +202, +227, +94 ns for A-D.
     */
    double numaExtraNs = 160.0;

    /** Device capacity in bytes (CXL-C has only 16 GB). */
    std::uint64_t capacityBytes = 128ULL << 30;

    /** Peak total bandwidth implied by the scheduler rate, GB/s. */
    double
    schedPeakGBps() const
    {
        return 64.0 / schedulerPerReqNs;
    }

    /**
     * Bounds-check every field (probabilities in [0,1], latencies
     * non-negative, channel/queue counts non-zero) so a bad value
     * fails loudly at construction instead of silently propagating
     * NaNs through the latency model.
     *
     * @throw ConfigError with the offending field named.
     */
    void validate() const;
};

/** The four calibrated device presets. */
DeviceProfile cxlA();
DeviceProfile cxlB();
DeviceProfile cxlC();
DeviceProfile cxlD();

/** Look up a preset by name ("CXL-A".."CXL-D"). */
DeviceProfile profileByName(const std::string &name);

}  // namespace cxlsim::cxl

#endif  // CXLSIM_CXL_DEVICE_PROFILE_HH
