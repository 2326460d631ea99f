/**
 * @file
 * The benchmark's workloads: figure-shaped sweeps generated from a
 * seed and declared on the public sweep::Sweep engine.
 *
 *   loaded-latency  fig03 shape: MLC delay ladder, MIO chase at 1-32
 *                   threads, chase beside 24 background readers.
 *   chase-rw        fig04 shape: one chase beside 0-7 paced noise
 *                   threads at read fractions 1.0, 0.67 and 0.5.
 *   suite-slowdown  fig08 shape: a family-stratified sample of the
 *                   workload suite, slowdown vs a Local baseline.
 *
 * The seed changes random streams and jittered loads, never the
 * amount of work, so host time stays comparable across seeds.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <atomic>
#include <climits>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep.hh"
#include "trace.hh"

namespace perfbench {

/** State shared by the points of one benchmark instance. */
struct Ctx
{
    /** Null for the untraced (timed) run. */
    Tracer *tracer = nullptr;
    /** Simulated memory requests issued by all points. */
    std::atomic<std::uint64_t> requests{0};
    /** Points whose closure threw. */
    std::atomic<std::uint64_t> failedPoints{0};
    /** Host ns (nowNs) at which the first point started. */
    std::atomic<std::int64_t> firstPointNs{INT64_MAX};
    /** Points declared. */
    std::size_t points = 0;
    /** Output-check failures, one line each (set by the serial
     *  check gather at render time). */
    std::vector<std::string> checkErrors;
    /** FNV-1a over every point's exact (hexfloat) values. */
    std::uint64_t valuesDigest = 0;
};

/** Workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Declare @p workload's points, and a final gather that runs the
 * output checks, on @p S. @p small shrinks every point for the
 * self-tests; the benchmark always runs full size.
 *
 * @throw std::invalid_argument on an unknown workload name.
 */
void declareWorkload(const std::string &workload, std::uint64_t seed,
                     bool small, Ctx *ctx, cxlsim::sweep::Sweep &S);

/** 64-bit FNV-1a, continuing from @p h. */
std::uint64_t fnv1a(const std::string &s,
                    std::uint64_t h = 14695981039346656037ULL);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HH
