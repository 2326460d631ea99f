/**
 * @file
 * Fundamental simulation types and time-unit helpers.
 *
 * The simulator's time base is the Tick, defined as one picosecond.
 * All component latencies are expressed in ticks internally; helpers
 * convert from ns/us and from CPU cycles at a given frequency.
 */

#ifndef CXLSIM_SIM_TYPES_HH
#define CXLSIM_SIM_TYPES_HH

#include <cstdint>

namespace cxlsim {

/** Simulation time in picoseconds. */
using Tick = std::uint64_t;

/** CPU cycle count. */
using Cycle = std::uint64_t;

/** Byte address in a simulated physical address space. */
using Addr = std::uint64_t;

/** Ticks per common time units. */
constexpr Tick kTicksPerNs = 1000;
constexpr Tick kTicksPerUs = 1000 * kTicksPerNs;
constexpr Tick kTicksPerMs = 1000 * kTicksPerUs;
constexpr Tick kTicksPerSec = 1000 * kTicksPerMs;

/** Convert a duration in (possibly fractional) nanoseconds to ticks. */
constexpr Tick
nsToTicks(double ns)
{
    return static_cast<Tick>(ns * static_cast<double>(kTicksPerNs) + 0.5);
}

/** Convert ticks to nanoseconds (fractional). */
constexpr double
ticksToNs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kTicksPerNs);
}

/** Convert microseconds to ticks. */
constexpr Tick
usToTicks(double us)
{
    return nsToTicks(us * 1000.0);
}

/** Size of one cache line in bytes; fixed across the simulator. */
constexpr unsigned kCacheLineBytes = 64;

/** Strip the within-line offset from an address. */
constexpr Addr
lineAlign(Addr a)
{
    return a & ~static_cast<Addr>(kCacheLineBytes - 1);
}

/** @p lines consecutive cache lines starting at line @p first. */
struct LineRange
{
    Addr first = 0;
    std::uint64_t lines = 0;
};

/**
 * Ticks consumed by one CPU cycle at the given core frequency.
 *
 * @param ghz Core frequency in GHz.
 */
constexpr double
ticksPerCycle(double ghz)
{
    return 1000.0 / ghz;  // ps per cycle
}

}  // namespace cxlsim

#endif  // CXLSIM_SIM_TYPES_HH
