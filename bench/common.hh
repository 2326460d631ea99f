/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Every bench declares the rows/series of one table or figure from
 * the paper onto a sweep::Sweep (see src/sim/sweep.hh). Absolute
 * values come from the simulator; EXPERIMENTS.md records
 * paper-vs-measured for each experiment.
 */

#ifndef MELODY_BENCH_COMMON_HH
#define MELODY_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/platform.hh"
#include "core/slowdown.hh"
#include "sim/sweep.hh"
#include "stats/summary.hh"
#include "stats/table.hh"
#include "workloads/suite.hh"

namespace bench {

inline std::string
headerText(const std::string &fig, const std::string &what)
{
    std::string s;
    const std::string rule(60, '=');
    s += rule + "\n";
    s += fig + " — " + what + "\n";
    s += rule + "\n";
    return s;
}

inline std::string
sectionText(const std::string &name)
{
    return "\n--- " + name + " ---\n";
}

/**
 * Cell separator for table rows carried through sweep-point slots:
 * points emit joined cells, a gather splits them and feeds a
 * stats::Table so column padding still sees every row.
 */
inline constexpr char kCellSep = '\x1f';

inline std::string
joinCells(const std::vector<std::string> &cells)
{
    std::string s;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            s += kCellSep;
        s += cells[i];
    }
    return s;
}

inline std::vector<std::string>
splitCells(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t sep = s.find(kCellSep, pos);
        if (sep == std::string::npos)
            break;
        out.push_back(s.substr(pos, sep - pos));
        pos = sep + 1;
    }
    out.push_back(s.substr(pos));
    return out;
}

/** Cap a workload's run length so suite-wide sweeps stay fast. */
inline cxlsim::workloads::WorkloadProfile
scaled(const cxlsim::workloads::WorkloadProfile &w,
       std::uint64_t max_blocks)
{
    cxlsim::workloads::WorkloadProfile s = w;
    s.blocksPerCore = std::min(s.blocksPerCore, max_blocks);
    return s;
}

/** Slowdown-CDF summary line for one setup. */
inline std::string
cdfSummaryLine(const std::string &setup,
               const std::vector<double> &slowdowns)
{
    using cxlsim::stats::fractionBelow;
    using cxlsim::stats::quantile;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%-16s n=%-3zu  <5%%:%5.1f%%  <10%%:%5.1f%%  "
                  "<25%%:%5.1f%%  <50%%:%5.1f%%  p50=%6.1f  "
                  "p90=%7.1f  max=%8.1f\n",
                  setup.c_str(), slowdowns.size(),
                  100 * fractionBelow(slowdowns, 5.0),
                  100 * fractionBelow(slowdowns, 10.0),
                  100 * fractionBelow(slowdowns, 25.0),
                  100 * fractionBelow(slowdowns, 50.0),
                  quantile(slowdowns, 0.5), quantile(slowdowns, 0.9),
                  quantile(slowdowns, 1.0));
    return buf;
}

}  // namespace bench

#endif  // MELODY_BENCH_COMMON_HH
