/**
 * @file
 * Figure 8: CXL workload slowdowns across the full suite.
 *  (a) slowdown CDFs for 265 workloads on NUMA and CXL-A/B/D
 *      (+ CXL-C over its 60-workload capacity subset);
 *  (b) the tail: worst slowdowns per setup (bandwidth-bound);
 *  (c) CXL+NUMA vs 2-hop NUMA (SKX8S-410ns) on 121 workloads;
 *  (d) 520.omnetpp latency CDF and slowdown vs workload intensity
 *      under CXL+NUMA (tail-latency causality);
 *  (e) SPR vs EMR slowdown CDFs under CXL-A/B;
 *  (f) NUMA vs one and two interleaved CXL-D on SPEC (EMR2S').
 */

#include <algorithm>
#include <memory>

#include "bench/common.hh"
#include "bench/figures.hh"

using namespace cxlsim;

namespace {
constexpr std::uint64_t kMaxBlocks = 40000;
}

namespace figs {

void
buildFig08(sweep::Sweep &S)
{
    S.text(bench::headerText("Figure 8",
                             "Workload slowdowns at scale"));
    // Shared across points: the study's single-flight memo runs
    // each local baseline once, however many points ask for it at
    // the same moment.
    auto study = std::make_shared<melody::SlowdownStudy>(4242);
    const auto &all = workloads::suite();

    S.text(bench::sectionText(
        "(a) slowdown CDFs, 265 workloads (EMR)"));
    std::vector<workloads::WorkloadProfile> scaledAll;
    for (const auto &w : all)
        scaledAll.push_back(bench::scaled(w, kMaxBlocks));
    // Slot 0: the (a) CDF line; slot 1: the (b) tail line — one
    // batch feeds both sections.
    std::vector<std::size_t> tailIds;
    for (const char *mem : {"NUMA", "CXL-D", "CXL-A", "CXL-B"}) {
        const std::size_t id = S.point(
            std::string("a|") + mem + "|n=" +
                std::to_string(scaledAll.size()) + "|seed=4242",
            2, [study, scaledAll, mem](sweep::Emit *slots) {
                std::vector<double> s = study->slowdownBatch(
                    scaledAll, "EMR2S", mem);
                slots[0].text(bench::cdfSummaryLine(mem, s));
                std::sort(s.begin(), s.end());
                slots[1].printf(
                    "%-7s p90=%7.1f%%  p95=%7.1f%%  p99=%7.1f%%  "
                    "max=%7.1f%%\n",
                    mem, stats::quantile(s, 0.90),
                    stats::quantile(s, 0.95),
                    stats::quantile(s, 0.99),
                    stats::quantile(s, 1.0));
            });
        S.place(id, 0);
        tailIds.push_back(id);
    }
    {
        std::vector<workloads::WorkloadProfile> sub;
        for (const auto &w : workloads::cxlCSubset())
            sub.push_back(bench::scaled(w, kMaxBlocks));
        S.point(std::string("a|CXL-C|n=") +
                    std::to_string(sub.size()) + "|seed=4242",
                [study, sub](sweep::Emit &out) {
                    out.text(bench::cdfSummaryLine(
                        "CXL-C (60 wl)",
                        study->slowdownBatch(sub, "EMR2S",
                                             "CXL-C")));
                });
    }
    S.text("Paper: NUMA 98%<50%; <10%: D 60%, A 54%, "
           "B 32%; <5%: 43/35/22%.\n");

    S.text(bench::sectionText("(b) the slowdown tail "
                              "(p90 and above)"));
    for (const std::size_t id : tailIds)
        S.place(id, 1);
    S.text("Paper: 7% of workloads at 1.5-5.8x on CXL-A/B "
           "(bandwidth-bound); no such tail on NUMA/CXL-D.\n");

    S.text(bench::sectionText(
        "(c) CXL+NUMA vs 2-hop NUMA (121 workloads)"));
    {
        std::vector<workloads::WorkloadProfile> sub;
        for (std::size_t i = 0; i < all.size() && sub.size() < 121;
             i += 2)
            sub.push_back(bench::scaled(all[i], kMaxBlocks));
        struct Setup
        {
            const char *label;
            const char *server;
            const char *memory;
        };
        const Setup setups[] = {
            {"CXL-A", "EMR2S", "CXL-A"},
            {"SKX8S-410ns", "SKX8S", "NUMA-410ns"},
            {"CXL-A+NUMA", "EMR2S", "CXL-A+NUMA"},
        };
        for (const auto &c : setups) {
            S.point(std::string("c|") + c.label + "|n=" +
                        std::to_string(sub.size()) + "|seed=4242",
                    [study, sub, c](sweep::Emit &out) {
                        out.text(bench::cdfSummaryLine(
                            c.label,
                            study->slowdownBatch(sub, c.server,
                                                 c.memory)));
                    });
        }
        S.text("Paper: CXL+NUMA is WORSE than 2-hop NUMA "
               "despite better average latency/bandwidth "
               "(tail-latency interference).\n");
    }

    S.text(bench::sectionText(
        "(d) 520.omnetpp under CXL+NUMA vs intensity"));
    {
        for (double scale : {1.0, 0.5, 0.25}) {
            S.point("d|520.omnetpp_r|scale=" +
                        stats::Table::num(scale, 2) + "|seed=4242",
                    [study, scale](sweep::Emit &out) {
                        auto v = workloads::byName("520.omnetpp_r");
                        for (auto &ph : v.phases)
                            ph.intensity *= scale;
                        if (v.phases.empty())
                            v.phases.push_back(
                                {1.0, scale, 1.0, 1.0});
                        const double sCxl = study->slowdown(
                            v, "EMR2S", "CXL-A");
                        const double sCn = study->slowdown(
                            v, "EMR2S", "CXL-A+NUMA");
                        out.printf(
                            "intensity %4.2fx: CXL-A %6.1f%%   "
                            "CXL-A+NUMA %6.1f%%\n",
                            scale, sCxl, sCn);
                    });
        }
        S.text("Paper: full intensity ~290% under CXL+NUMA "
               "vs <5% under CXL; halving intensity drops it "
               "to ~65%, quartering to ~58% — tails, not "
               "bandwidth, cause the slowdown.\n");
    }

    S.text(bench::sectionText(
        "(e) SPR vs EMR under CXL-A / CXL-B"));
    {
        std::vector<workloads::WorkloadProfile> sub;
        for (std::size_t i = 0; i < all.size(); i += 2)
            sub.push_back(bench::scaled(all[i], kMaxBlocks));
        for (const char *srv : {"SPR2S", "EMR2S"})
            for (const char *mem : {"CXL-A", "CXL-B"}) {
                S.point(std::string("e|") + srv + "|" + mem +
                            "|n=" + std::to_string(sub.size()) +
                            "|seed=4242",
                        [study, sub, srv, mem](sweep::Emit &out) {
                            out.text(bench::cdfSummaryLine(
                                std::string(srv) + ":" + mem,
                                study->slowdownBatch(sub, srv,
                                                     mem)));
                        });
            }
    }
    S.text("Paper: EMR's larger LLC yields similar CDFs — "
           "cache size alone cannot absorb CXL latency.\n");

    S.text(bench::sectionText(
        "(f) NUMA vs CXL-D x1 vs x2 (SPEC on EMR2S')"));
    {
        std::vector<workloads::WorkloadProfile> spec;
        for (const auto &w : workloads::familyWorkloads("SPEC"))
            spec.push_back(bench::scaled(w, kMaxBlocks));
        for (const char *mem : {"NUMA", "CXL-D", "CXL-Dx2"}) {
            S.point(std::string("f|") + mem + "|n=" +
                        std::to_string(spec.size()) + "|seed=4242",
                    [study, spec, mem](sweep::Emit &out) {
                        out.text(bench::cdfSummaryLine(
                            mem, study->slowdownBatch(spec, "EMR2S'",
                                                      mem)));
                    });
        }
        S.text("Paper: interleaving two CXL-D (104GB/s) closes "
               "most of the gap to NUMA for bandwidth-bound "
               "workloads.\n");
    }
}

}  // namespace figs
