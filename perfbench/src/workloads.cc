#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "core/mio.hh"
#include "core/mlc.hh"
#include "core/platform.hh"
#include "core/slowdown.hh"
#include "sim/rng.hh"
#include "stats/summary.hh"
#include "workloads/suite.hh"
#include "workloads/synthetic_kernel.hh"

namespace perfbench {

using namespace cxlsim;
using Scope = Tracer::Scope;

namespace {

/** Per-point sizes. The benchmark runs kFull: each instance is a
 *  few host seconds at four workers, so one timed run holds several
 *  instances. The self-tests run kSmall. */
struct Sizes
{
    /** MLC window and warmup, simulated us (fig03: 200 / 50). */
    double mlcWindowUs;
    double mlcWarmupUs;
    /** Chase samples per thread: chaseBase / threads + chaseMin
     *  (fig03: 60000 / threads + 4000). */
    std::uint64_t chaseBase;
    std::uint64_t chaseMin;
    /** Chase samples beside background readers (fig03: 25000). */
    std::uint64_t loadedSamples;
    /** Chase samples beside read/write noise (fig04: 30000). */
    std::uint64_t noiseSamples;
    /** Suite per-core block cap (fig08: 40000). */
    std::uint64_t suiteMaxBlocks;
};

constexpr Sizes kFull = {40.0, 10.0, 8000, 500, 3200, 120000, 40000};
constexpr Sizes kSmall = {10.0, 2.5, 400, 25, 160, 6000, 2000};

/** Suite sample size (fig08 runs all 265). */
constexpr std::size_t kSuiteSample = 16;

const char *const kSetups[] = {"Local", "NUMA",  "CXL-A",
                               "CXL-B", "CXL-C", "CXL-D"};

const char *
serverFor(const std::string &mem)
{
    return mem == "CXL-D" ? "EMR2S'" : "EMR2S";
}

bool
isCxl(const std::string &mem)
{
    return mem.rfind("CXL-", 0) == 0;
}

/** @p v scaled by a log-uniform factor in [0.8, 1.25), rounded. */
double
jitter(Rng &rng, double v)
{
    return std::round(v * std::exp(std::log(0.8) +
                                   rng.uniform() * std::log(1.5625)));
}

/** A point's identity for the output checks. */
struct PointTag
{
    std::string setup;
    /** Group the orderings compare within ("b|thr=4", ...). */
    std::string group;
};

/**
 * Declares points that each fill a visible slot 0 and a hidden
 * slot 1 of exact values, then one gather over every hidden slot
 * that digests the values and runs the output checks.
 */
class Points
{
  public:
    using Body = std::function<void(sweep::Emit &out,
                                    std::vector<double> &values)>;
    /** Checks over (tag, values) of every point, in order. */
    using Check = std::function<void(
        const std::vector<PointTag> &tags,
        const std::vector<std::vector<double>> &values,
        std::vector<std::string> *errors)>;

    Points(sweep::Sweep &S, Ctx *ctx) : S_(S), ctx_(ctx) {}

    void
    add(std::string key, PointTag tag, Body body)
    {
        Ctx *ctx = ctx_;
        const std::size_t id = S_.point(
            key, 2, [ctx, key, body](sweep::Emit *slots) {
                std::int64_t unset = INT64_MAX;
                ctx->firstPointNs.compare_exchange_strong(unset, nowNs());
                Scope span(ctx->tracer, "point", key);
                std::vector<double> values;
                try {
                    body(slots[0], values);
                } catch (const std::exception &e) {
                    ctx->failedPoints.fetch_add(1);
                    slots[0].printf("point %s failed: %s\n",
                                    key.c_str(), e.what());
                    return;
                }
                slots[1].hexDoubles(values);
            });
        S_.place(id, 0);
        hidden_.push_back({id, 1});
        tags_.push_back(std::move(tag));
        ++ctx_->points;
    }

    void
    finish(Check check)
    {
        Ctx *ctx = ctx_;
        std::vector<PointTag> tags = tags_;
        S_.gather(hidden_, [ctx, tags, check](
                               const std::vector<std::string> &in,
                               sweep::Emit &) {
            std::uint64_t h = fnv1a("");
            std::vector<std::vector<double>> values;
            for (std::size_t i = 0; i < in.size(); ++i) {
                h = fnv1a(in[i], h);
                values.push_back(sweep::parseHexDoubles(in[i]));
                if (values.back().empty())
                    ctx->checkErrors.push_back(
                        "point " + tags[i].setup + " " +
                        tags[i].group + " did not complete");
            }
            ctx->valuesDigest = h;
            if (ctx->checkErrors.empty())
                check(tags, values, &ctx->checkErrors);
        });
    }

  private:
    sweep::Sweep &S_;
    Ctx *ctx_;
    std::vector<sweep::Sweep::SlotRef> hidden_;
    std::vector<PointTag> tags_;
};

/**
 * A platform and a fresh backend built from it, wrapped for timing
 * when tracing. Building them and releasing the backend are each a
 * `mem` span, so neither lands in the point's own time.
 */
class Memory
{
  public:
    Memory(Ctx *ctx, const std::string &server, const std::string &mem,
           std::uint64_t seed)
        : ctx_(ctx)
    {
        Scope span(ctx->tracer, "mem.construct");
        plat_.emplace(server, mem);
        be_ = plat_->makeBackend(seed);
        if (ctx->tracer)
            be_ = std::make_unique<TimingBackend>(std::move(be_));
    }

    ~Memory()
    {
        Scope span(ctx_->tracer, "mem.teardown");
        be_.reset();
    }

    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;

    const melody::Platform &platform() const { return *plat_; }
    mem::MemoryBackend *backend() const { return be_.get(); }

  private:
    Ctx *ctx_;
    std::optional<melody::Platform> plat_;
    mem::BackendPtr be_;
};

melody::MioResult
chase(Ctx *ctx, mem::MemoryBackend *be, unsigned threads,
      std::uint64_t samples, const melody::MioNoise &noise,
      double peakGBps, std::uint64_t seed)
{
    melody::MioResult r;
    {
        Scope span(ctx->tracer, "core.mio");
        r = melody::mioChaseDirect(be, threads, samples, noise,
                                   peakGBps, seed);
    }
    ctx->requests.fetch_add(be->stats().requests());
    return r;
}

std::vector<double>
chaseValues(const melody::MioResult &r, const mem::MemoryBackend &be)
{
    return {r.latencyNs.percentile(0.5),
            r.latencyNs.percentile(0.99),
            r.latencyNs.percentile(0.999),
            r.latencyNs.percentile(0.9999),
            r.latencyNs.max(),
            r.gbps,
            r.utilization,
            static_cast<double>(be.stats().reads),
            static_cast<double>(be.stats().writes)};
}

/** Every CXL setup's chase p50 (values[0]) lies above Local's, in
 *  each group that has a Local point. */
void
checkLocalFastest(const std::vector<PointTag> &tags,
                  const std::vector<std::vector<double>> &values,
                  const std::string &groupPrefix,
                  std::vector<std::string> *errors)
{
    std::map<std::string, double> local;
    for (std::size_t i = 0; i < tags.size(); ++i)
        if (tags[i].setup == "Local" &&
            tags[i].group.rfind(groupPrefix, 0) == 0)
            local[tags[i].group] = values[i][0];
    for (std::size_t i = 0; i < tags.size(); ++i) {
        const auto it = local.find(tags[i].group);
        if (it == local.end() || !isCxl(tags[i].setup))
            continue;
        if (!(values[i][0] > it->second))
            errors->push_back(tags[i].group + ": " + tags[i].setup +
                              " chase p50 " +
                              std::to_string(values[i][0]) +
                              " ns is not above Local's " +
                              std::to_string(it->second) + " ns");
    }
}

void
declareLoadedLatency(std::uint64_t seed, const Sizes &sz, Ctx *ctx,
                     sweep::Sweep &S)
{
    Rng in(seed ^ 0x6c6f616465642d6cULL);
    Points pts(S, ctx);
    const std::string sd = "|seed=" + std::to_string(seed);

    S.text("loaded-latency: MLC ladder, chase 1-32 threads, chase "
           "beside 24 background readers\n");
    S.text("(a) Setup delay(cyc) BW(GB/s) avg(ns) p99.9(ns)\n");
    for (const char *mem : kSetups) {
        for (const double band :
             {20000.0, 5000.0, 1200.0, 500.0, 200.0, 80.0, 0.0}) {
            const double delay = jitter(in, band);
            const std::uint64_t beSeed = in.next();
            const std::uint64_t mlcSeed = in.next();
            pts.add(
                std::string("a|") + mem + "|delay=" +
                    std::to_string(delay) + sd,
                {mem, band == 0.0 ? "a|load" : "a|idle"},
                [ctx, mem, delay, beSeed, mlcSeed,
                 sz](sweep::Emit &out, std::vector<double> &v) {
                    melody::MlcConfig cfg;
                    cfg.readFrac = 1.0;
                    cfg.windowUs = sz.mlcWindowUs;
                    cfg.warmupUs = sz.mlcWarmupUs;
                    cfg.delayCycles = delay;
                    cfg.seed = mlcSeed;
                    const Memory m(ctx, serverFor(mem), mem, beSeed);
                    mem::MemoryBackend *be = m.backend();
                    melody::MlcPoint p;
                    {
                        Scope span(ctx->tracer, "core.mlc");
                        p = melody::mlcMeasure(be, cfg);
                    }
                    ctx->requests.fetch_add(be->stats().requests());
                    out.printf("%-7s %10.0f %10.2f %10.0f %10.0f\n",
                               mem, p.delayCycles, p.gbps, p.avgNs,
                               p.p999Ns);
                    v = {p.gbps,
                         p.avgNs,
                         p.p50Ns,
                         p.p999Ns,
                         p.p9999Ns,
                         static_cast<double>(p.samples),
                         static_cast<double>(be->stats().reads)};
                });
        }
    }

    S.text("(b) Setup thr p50 p99 p99.9 p99.99 max(ns)\n");
    for (const char *mem : kSetups) {
        for (const unsigned thr : {1u, 4u, 16u, 32u}) {
            const std::uint64_t beSeed = in.next();
            const std::uint64_t chaseSeed = in.next();
            const std::uint64_t samples =
                sz.chaseBase / thr + sz.chaseMin;
            pts.add(std::string("b|") + mem + "|thr=" +
                        std::to_string(thr) + sd,
                    {mem, "b|thr=" + std::to_string(thr)},
                    [ctx, mem, thr, samples, beSeed, chaseSeed](
                        sweep::Emit &out, std::vector<double> &v) {
                        const Memory m(ctx, serverFor(mem), mem, beSeed);
                        mem::MemoryBackend *be = m.backend();
                        const auto r = chase(ctx, be, thr,
                                             samples, {}, 0.0,
                                             chaseSeed);
                        v = chaseValues(r, *be);
                        out.printf("%-7s %4u %8.0f %8.0f %8.0f %9.0f "
                                   "%9.0f\n",
                                   mem, thr, v[0], v[1], v[2], v[3],
                                   v[4]);
                    });
        }
    }

    S.text("(c) Setup util(%) BW(GB/s) p99.9-p50(ns)\n");
    for (const char *mem : kSetups) {
        for (const double band : {3000.0, 500.0, 120.0, 30.0, 0.0}) {
            const double pace = jitter(in, band);
            const std::uint64_t beSeed = in.next();
            const std::uint64_t chaseSeed = in.next();
            const std::uint64_t samples = sz.loadedSamples;
            pts.add(
                std::string("c|") + mem + "|pace=" +
                    std::to_string(pace) + sd,
                {mem, "c"},
                [ctx, mem, pace, samples, beSeed, chaseSeed](
                    sweep::Emit &out, std::vector<double> &v) {
                    const Memory m(ctx, serverFor(mem), mem, beSeed);
                    mem::MemoryBackend *be = m.backend();
                    melody::MioNoise noise;
                    noise.threads = 24;
                    noise.slotsPerThread = 8;
                    noise.readFrac = 1.0;
                    noise.paceNs = pace;
                    const auto r = chase(
                        ctx, be, 1, samples, noise,
                        melody::paperPeakGBps(serverFor(mem), mem),
                        chaseSeed);
                    v = chaseValues(r, *be);
                    out.printf("%-7s %8.0f %10.2f %12.0f\n", mem,
                               100.0 * v[6], v[5], v[2] - v[0]);
                });
        }
    }

    pts.finish([](const std::vector<PointTag> &tags,
                const std::vector<std::vector<double>> &values,
                std::vector<std::string> *errors) {
        checkLocalFastest(tags, values, "b|", errors);
        // Unpaced traffic moves more bytes, at higher mean latency,
        // than the lightest rung of the ladder.
        std::map<std::string, std::vector<double>> idle;
        for (std::size_t i = 0; i < tags.size(); ++i)
            if (tags[i].group == "a|idle" && !idle.count(tags[i].setup))
                idle[tags[i].setup] = values[i];
        for (std::size_t i = 0; i < tags.size(); ++i) {
            if (tags[i].group != "a|load")
                continue;
            const auto &lo = idle[tags[i].setup];
            const auto &hi = values[i];
            if (!(hi[0] > lo[0] && hi[1] >= lo[1]))
                errors->push_back(
                    "a: " + tags[i].setup +
                    " unpaced MLC point is not busier and slower "
                    "than the lightest rung");
        }
    });
}

void
declareChaseRw(std::uint64_t seed, const Sizes &sz, Ctx *ctx,
               sweep::Sweep &S)
{
    Rng in(seed ^ 0x63686173652d7277ULL);
    Points pts(S, ctx);
    const std::string sd = "|seed=" + std::to_string(seed);

    S.text("chase-rw: chase beside 0-7 paced read/write noise "
           "threads\n");
    S.text("Setup rd% #noise p50(ns) p99 p99.9 p99.99\n");
    for (const char *mem : kSetups) {
        for (const double readFrac : {1.0, 0.67, 0.5}) {
            for (unsigned threads = 0; threads <= 7; ++threads) {
                const double pace = jitter(in, 400.0);
                const std::uint64_t beSeed = in.next();
                const std::uint64_t chaseSeed = in.next();
                const std::uint64_t samples = sz.noiseSamples;
                const std::string group =
                    "rd=" + std::to_string(readFrac) +
                    "|noise=" + std::to_string(threads);
                pts.add(
                    std::string(mem) + "|" + group +
                        "|pace=" + std::to_string(pace) + sd,
                    {mem, group},
                    [ctx, mem, readFrac, threads, pace, samples,
                     beSeed, chaseSeed](sweep::Emit &out,
                                        std::vector<double> &v) {
                        const Memory m(ctx, serverFor(mem), mem, beSeed);
                        mem::MemoryBackend *be = m.backend();
                        melody::MioNoise noise;
                        noise.threads = threads;
                        noise.readFrac = readFrac;
                        noise.paceNs = pace;
                        noise.slotsPerThread = 2;
                        const auto r = chase(ctx, be, 1,
                                             samples, noise, 0.0,
                                             chaseSeed);
                        v = chaseValues(r, *be);
                        out.printf("%-7s %4.0f %6u %8.0f %8.0f %8.0f "
                                   "%9.0f\n",
                                   mem, 100.0 * readFrac, threads,
                                   v[0], v[1], v[2], v[3]);
                    });
            }
        }
    }

    pts.finish([](const std::vector<PointTag> &tags,
                const std::vector<std::vector<double>> &values,
                std::vector<std::string> *errors) {
        checkLocalFastest(tags, values, "rd=", errors);
        // Writes take the reverse link direction and the
        // controller's write path: a write-mixing point records
        // writes, a read-only one none.
        for (std::size_t i = 0; i < tags.size(); ++i) {
            const bool readOnly =
                tags[i].group.rfind("rd=1.0", 0) == 0 ||
                tags[i].group.find("noise=0") != std::string::npos;
            if (readOnly != (values[i][8] == 0.0))
                errors->push_back(tags[i].setup + " " +
                                  tags[i].group +
                                  ": unexpected write count");
        }
    });
}

/**
 * Family-stratified sample of the suite: each family gets a share
 * of @p n in proportion to its size (at least one). Within a family,
 * workloads are ranked by simulated work and cut into that many
 * contiguous strata, and the middle one of each is taken. The seed
 * draws each sampled workload's kernel seed (its synthetic address
 * stream), not the sample itself: a seed-drawn sample of 16-32
 * workloads changes the simulated request count by 17-30% (spread
 * between quartiles over ten seeds), which would swamp the
 * benchmark's regression bounds.
 */
std::vector<workloads::WorkloadProfile>
suiteSample(Rng &in, std::size_t n, std::uint64_t maxBlocks)
{
    const auto &all = workloads::suite();
    std::vector<workloads::WorkloadProfile> out;
    for (const std::string &fam : workloads::familyNames()) {
        std::vector<workloads::WorkloadProfile> ws =
            workloads::familyWorkloads(fam);
        for (auto &w : ws)
            w.blocksPerCore = std::min(w.blocksPerCore, maxBlocks);
        const auto work = [](const workloads::WorkloadProfile &w) {
            return static_cast<double>(w.threads) *
                   static_cast<double>(w.instructionsPerCore());
        };
        std::stable_sort(ws.begin(), ws.end(),
                         [&](const auto &a, const auto &b) {
                             return work(a) < work(b);
                         });
        const std::size_t k = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(
                   static_cast<double>(n * ws.size()) /
                   static_cast<double>(all.size()))));
        for (std::size_t s = 0; s < k; ++s) {
            out.push_back(ws[(2 * s + 1) * ws.size() / (2 * k)]);
            out.back().seed = in.next();
        }
    }
    return out;
}

/** The slowdown study's baseline memo, for the traced run. */
struct TracedStudy
{
    std::uint64_t seed = 0;
    std::mutex mu;
    std::map<std::string, cpu::RunResult> baselines;
};

/** melody::runWorkload, with a span around each layer call,
 *  teardown included. The run span's detail names the workload and
 *  memory setup, so repeated runs can be told apart. */
cpu::RunResult
tracedRun(Ctx *ctx, const workloads::WorkloadProfile &w,
          const std::string &server, const std::string &memory,
          std::uint64_t seed)
{
    const std::string detail = w.name + "@" + memory;
    const Memory m(ctx, server, memory, seed ^ w.seed);
    std::vector<std::unique_ptr<cpu::Kernel>> kernels;
    {
        Scope span(ctx->tracer, "workloads.make_kernels", detail);
        kernels = workloads::makeKernels(w);
    }
    const double cores = static_cast<double>(kernels.size());
    std::unique_ptr<cpu::MultiCore> mc;
    {
        Scope span(ctx->tracer, "cpu.construct", detail);
        mc = std::make_unique<cpu::MultiCore>(m.platform().cpu(), w.exec,
                                              m.backend(),
                                              std::move(kernels), true);
    }
    cpu::RunResult r;
    {
        Scope span(ctx->tracer, "cpu.run", detail);
        r = mc->run();
        if (Span *s = span.span()) {
            s->instructions = r.counters.instructions * cores;
            s->l3Misses =
                static_cast<double>(r.counters.demandL3Miss) * cores;
        }
    }
    {
        // Frees the LLC arrays and the kernels; before the backend
        // the cores point at.
        Scope span(ctx->tracer, "cpu.teardown", detail);
        mc.reset();
    }
    return r;
}

/** SlowdownStudy::baseline, traced. Same memo key. */
const cpu::RunResult &
tracedBaseline(Ctx *ctx, TracedStudy *st,
               const workloads::WorkloadProfile &w,
               const std::string &server)
{
    const std::string key = server + "/" + w.name + "/" +
                            std::to_string(w.blocksPerCore) + "/" +
                            std::to_string(w.threads);
    {
        std::lock_guard<std::mutex> lock(st->mu);
        const auto it = st->baselines.find(key);
        if (it != st->baselines.end())
            return it->second;
    }
    // As in SlowdownStudy::baseline, the run happens outside the
    // lock, so points that miss the memo at once each run it.
    cpu::RunResult r = tracedRun(ctx, w, server, "Local", st->seed);
    std::lock_guard<std::mutex> lock(st->mu);
    return st->baselines.emplace(key, std::move(r)).first->second;
}

void
declareSuiteSlowdown(std::uint64_t seed, const Sizes &sz, Ctx *ctx,
                     sweep::Sweep &S)
{
    Rng in(seed ^ 0x73756974652d736cULL);
    const std::uint64_t studySeed = in.next();
    const auto sample =
        std::make_shared<const std::vector<workloads::WorkloadProfile>>(
            suiteSample(in, kSuiteSample, sz.suiteMaxBlocks));
    const auto study =
        std::make_shared<melody::SlowdownStudy>(studySeed);
    const auto traced = std::make_shared<TracedStudy>();
    traced->seed = studySeed;
    Points pts(S, ctx);

    S.textf("suite-slowdown: %zu sampled workloads on EMR2S, "
            "slowdown vs Local (%%)\n",
            sample->size());
    for (const auto &w : *sample)
        S.textf("  %s (%s, %u threads)\n", w.name.c_str(),
                w.family.c_str(), w.threads);
    S.text("Setup n p50 p90 max <10%\n");
    bool first = true;
    for (const char *mem : {"NUMA", "CXL-A", "CXL-B", "CXL-D"}) {
        // One point counts the baselines' requests, once each.
        const bool countBaselines = first;
        first = false;
        pts.add(
            std::string(mem) + "|n=" + std::to_string(sample->size()) +
                "|seed=" + std::to_string(seed),
            {mem, "suite"},
            [ctx, mem, sample, study, traced,
             countBaselines](sweep::Emit &out, std::vector<double> &v) {
                std::vector<double> slow;
                std::uint64_t requests = 0;
                for (const auto &w : *sample) {
                    cpu::RunResult test;
                    if (ctx->tracer) {
                        const cpu::RunResult &base = tracedBaseline(
                            ctx, traced.get(), w, "EMR2S");
                        test = tracedRun(ctx, w, "EMR2S", mem,
                                         traced->seed);
                        slow.push_back(melody::slowdownPct(base, test));
                    } else {
                        slow.push_back(study->slowdownWithRun(
                            w, "EMR2S", mem, &test));
                    }
                    requests += test.backendStats.requests();
                    if (countBaselines)
                        requests +=
                            (ctx->tracer
                                 ? tracedBaseline(ctx, traced.get(), w,
                                                  "EMR2S")
                                 : study->baseline(w, "EMR2S"))
                                .backendStats.requests();
                    v.push_back(static_cast<double>(test.wallTicks));
                }
                ctx->requests.fetch_add(requests);
                out.printf("%-7s %3zu %7.2f %7.2f %8.2f %5.1f%%\n", mem,
                           slow.size(), stats::quantile(slow, 0.5),
                           stats::quantile(slow, 0.9),
                           stats::quantile(slow, 1.0),
                           100.0 * stats::fractionBelow(slow, 10.0));
                v.insert(v.begin(), slow.begin(), slow.end());
            });
    }

    const std::size_t n = sample->size();
    pts.finish([n](const std::vector<PointTag> &tags,
                 const std::vector<std::vector<double>> &values,
                 std::vector<std::string> *errors) {
        std::map<std::string, double> median;
        for (std::size_t i = 0; i < tags.size(); ++i) {
            const std::vector<double> slow(values[i].begin(),
                                           values[i].begin() + n);
            for (const double s : slow)
                if (!std::isfinite(s) || s <= -100.0)
                    errors->push_back(tags[i].setup +
                                      ": slowdown out of range");
            median[tags[i].setup] = stats::quantile(slow, 0.5);
        }
        // One NUMA hop costs less than the slow CXL expanders.
        for (const char *mem : {"CXL-A", "CXL-B"})
            if (!(median["NUMA"] < median[mem]))
                errors->push_back(std::string("median slowdown on ") +
                                  mem + " is not above NUMA's");
    });
}

}  // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "loaded-latency", "chase-rw", "suite-slowdown"};
    return names;
}

void
declareWorkload(const std::string &workload, std::uint64_t seed,
                bool small, Ctx *ctx, sweep::Sweep &S)
{
    const Sizes &sz = small ? kSmall : kFull;
    if (workload == "loaded-latency")
        declareLoadedLatency(seed, sz, ctx, S);
    else if (workload == "chase-rw")
        declareChaseRw(seed, sz, ctx, S);
    else if (workload == "suite-slowdown")
        declareSuiteSlowdown(seed, sz, ctx, S);
    else
        throw std::invalid_argument("unknown workload '" + workload +
                                    "'");
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h)
{
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

}  // namespace perfbench
