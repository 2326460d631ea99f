/**
 * @file
 * melody_perfbench: runs one cold instance of a benchmark workload
 * through sweep::Sweep and prints one JSON line of measurements.
 *
 *   melody_perfbench run --workload W --seed N --jobs J
 *                        --cache-dir D [--trace-out F]
 *   melody_perfbench selftest
 *
 * `run` is meant to be started in a fresh process with an empty
 * cache directory (perfbench/run.py does both). With --trace-out it
 * wraps every backend in a TimingBackend, records spans around each
 * layer call, writes them to F and adds per-layer figures to its
 * JSON line.
 */

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <set>
#include <string>

#include "core/mio.hh"
#include "core/platform.hh"
#include "core/slowdown.hh"
#include "stats/json.hh"
#include "workloads.hh"
#include "workloads/suite.hh"
#include "workloads/synthetic_kernel.hh"

using namespace cxlsim;
using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned jobs = 1;
    std::string cacheDir;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "melody_perfbench: %s\n"
                 "usage: melody_perfbench run --workload W --seed N "
                 "--jobs J --cache-dir D [--trace-out F]\n"
                 "       melody_perfbench selftest\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "--jobs")
            a.jobs = static_cast<unsigned>(std::atoi(v.c_str()));
        else if (flag == "--cache-dir")
            a.cacheDir = v;
        else if (flag == "--trace-out")
            a.traceOut = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (a.workload.empty() || a.cacheDir.empty() || a.jobs == 0)
        usage("--workload, --cache-dir and --jobs >= 1 are required");
    return a;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** One instance's rendered output, digest and sweep report. */
struct Outcome
{
    std::string digest;
    sweep::Sweep::Report report;
    std::int64_t runStartNs = 0;
    std::int64_t runEndNs = 0;
};

Outcome
runInstance(const std::string &workload, std::uint64_t seed,
            bool small, unsigned jobs, const std::string &cacheDir,
            Ctx *ctx)
{
    sweep::Options o;
    o.jobs = jobs;
    o.cache = !cacheDir.empty();
    if (o.cache)
        o.cacheDir = cacheDir;
    o.checkInvariants = false;
    sweep::Sweep S("perfbench-" + workload, o);
    declareWorkload(workload, seed, small, ctx, S);
    Outcome out;
    out.runStartNs = nowNs();
    const std::string text = S.renderToString(&out.report);
    out.runEndNs = nowNs();
    out.digest = hex64(fnv1a(hex64(ctx->valuesDigest), fnv1a(text)));
    return out;
}

/**
 * Peak resident set of this process image in MB: VmHWM, which exec
 * resets. (ru_maxrss is not used: it carries over the launching
 * process's peak across exec.)
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f))
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kb = std::strtod(line + 6, nullptr);
    std::fclose(f);
    return kb / 1024.0;
}

double
secs(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

/** Per-layer figures of one traced instance, named as in
 *  BENCHMARK.json's per_layer list. */
void
writeLayers(stats::JsonWriter &w, const LayerSplit &L,
            const std::vector<Span> &spans, const Outcome &o,
            unsigned jobs, std::size_t points)
{
    const auto self = [&](const char *name) {
        const auto it = L.spanSelfNs.find(name);
        return it == L.spanSelfNs.end() ? 0 : it->second;
    };
    const auto calls = [&](const char *name) {
        const auto it = L.calls.find(name);
        return it == L.calls.end() ? 0 : it->second;
    };
    const auto memOf = [&](const char *name) {
        const auto it = L.memBySpan.find(name);
        return it == L.memBySpan.end() ? MemAgg{} : it->second;
    };
    MemAgg mem;
    std::int64_t readNs = 0, writeNs = 0;
    double instructions = 0.0, l3 = 0.0;
    std::int64_t pointMax = 0, queueWait = 0;
    std::int64_t firstStart = INT64_MAX, lastEnd = 0;
    // Runs of one workload on one setup beyond the first: baselines
    // that several points missed in the memo at once.
    std::set<std::string> distinctRuns;
    std::uint64_t duplicateRuns = 0;
    for (const Span &s : spans) {
        if (s.name == "cpu.run" && !distinctRuns.insert(s.detail).second)
            ++duplicateRuns;
        mem += s.mem;
        readNs += s.mem.readNs();
        writeNs += s.mem.writeNs();
        instructions += s.instructions;
        l3 += s.l3Misses;
        if (s.name == "point") {
            pointMax = std::max(pointMax, s.durNs());
            queueWait += s.startNs - o.runStartNs;
            firstStart = std::min(firstStart, s.startNs);
            lastEnd = std::max(lastEnd, s.endNs);
        }
    }
    const double total = static_cast<double>(L.pointNs);
    const auto share = [&](const char *layer) {
        return ratio(static_cast<double>(L.selfNs.at(layer)), total);
    };
    const std::int64_t runNs = o.runEndNs - o.runStartNs;
    const unsigned workers = static_cast<unsigned>(
        std::max<std::size_t>(1, std::min<std::size_t>(jobs, points)));
    const MemAgg mio = memOf("core.mio"), mlc = memOf("core.mlc");

    w.key("layers").beginObject();
    w.field("core.mio.calls", calls("core.mio"));
    w.field("core.mio.self_s", secs(self("core.mio")));
    w.field("core.mio.ns_per_req",
            ratio(static_cast<double>(self("core.mio")),
                  static_cast<double>(mio.reads + mio.writes)));
    w.field("core.mlc.calls", calls("core.mlc"));
    w.field("core.mlc.self_s", secs(self("core.mlc")));
    w.field("core.mlc.ns_per_req",
            ratio(static_cast<double>(self("core.mlc")),
                  static_cast<double>(mlc.reads + mlc.writes)));
    w.field("mem.reads", mem.reads);
    w.field("mem.writes", mem.writes);
    w.field("mem.busy_s", secs(L.memBusyNs));
    w.field("mem.read_ns", ratio(static_cast<double>(readNs),
                                 static_cast<double>(mem.reads)));
    w.field("mem.write_ns", ratio(static_cast<double>(writeNs),
                                  static_cast<double>(mem.writes)));
    w.field("mem.not_ok", mem.notOk);
    w.field("mem.construct_s", secs(self("mem.construct")));
    w.field("mem.teardown_s", secs(self("mem.teardown")));
    w.field("cpu.runs", calls("cpu.run"));
    w.field("cpu.duplicate_runs", duplicateRuns);
    w.field("cpu.construct_s", secs(self("cpu.construct")));
    w.field("cpu.teardown_s", secs(self("cpu.teardown")));
    w.field("cpu.self_s", secs(self("cpu.run")));
    w.field("cpu.instructions", instructions);
    w.field("cpu.ns_per_instr",
            ratio(static_cast<double>(self("cpu.run")), instructions));
    w.field("cpu.l3_miss_per_kinstr", ratio(1000.0 * l3, instructions));
    w.field("workloads.make_kernels_s",
            secs(self("workloads.make_kernels")));
    w.field("sim.sweep.points", static_cast<std::uint64_t>(points));
    w.field("sim.sweep.point_busy_s", secs(L.pointNs));
    w.field("sim.sweep.point_max_s", secs(pointMax));
    w.field("sim.sweep.queue_wait_s", secs(queueWait));
    w.field("sim.sweep.idle_frac",
            1.0 - ratio(total, static_cast<double>(runNs) * workers));
    w.field("sim.sweep.overhead_s",
            secs(runNs - (lastEnd > firstStart ? lastEnd - firstStart
                                               : 0)));
    w.field("sim.sweep.cache_stores",
            static_cast<std::uint64_t>(o.report.cacheStores));
    for (const char *layer : {"core", "cpu", "mem", "workloads", "sim"})
        w.field(std::string("layer.") + layer + "_share", share(layer));
    w.endObject();
}

int
runMain(const Args &a)
{
    const std::int64_t t0 = nowNs();
    // Constructed only when tracing: it calibrates the clock, which
    // would otherwise count as set-up time.
    std::unique_ptr<Tracer> tracer;
    Ctx ctx;
    if (!a.traceOut.empty()) {
        tracer = std::make_unique<Tracer>();
        ctx.tracer = tracer.get();
    }
    const Outcome o =
        runInstance(a.workload, a.seed, false, a.jobs, a.cacheDir, &ctx);
    const std::int64_t t1 = nowNs();

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double cpu =
        static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                   ru.ru_stime.tv_usec);
    const std::int64_t first = ctx.firstPointNs.load();

    stats::JsonWriter w;
    w.beginObject()
        .field("workload", a.workload)
        .field("seed", a.seed)
        .field("wall_s", secs(t1 - t0))
        .field("cpu_s", cpu)
        .field("setup_s", secs((first == INT64_MAX ? t1 : first) - t0))
        .field("peak_rss_mb", peakRssMb())
        .field("requests", ctx.requests.load())
        .field("points", static_cast<std::uint64_t>(ctx.points))
        .field("failed_points", ctx.failedPoints.load())
        .field("digest", o.digest);
    w.key("check_errors").beginArray();
    for (const std::string &e : ctx.checkErrors)
        w.value(e);
    w.endArray();
    if (ctx.tracer) {
        const std::vector<Span> spans = tracer->spans();
        const LayerSplit L = splitByLayer(spans);
        if (!L.error.empty())
            w.field("trace_error", L.error);
        w.field("trace_clamped_s", secs(L.clampedNs));
        writeLayers(w, L, spans, o, a.jobs, ctx.points);
        if (!tracer->writeJson(a.traceOut))
            w.field("trace_error", "cannot write " + a.traceOut);
    }
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

// ---------------------------------------------------------------
// Self-tests.

int g_failures = 0;

/** Largest share of point time the backend estimate may lose to the
 *  cap in splitByLayer before the self-test fails. */
constexpr double kMaxClampedShare = 0.01;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

bool
sameStats(const mem::BackendStats &a, const mem::BackendStats &b)
{
    return a.reads == b.reads && a.writes == b.writes;
}

/** TimingBackend forwards every access unchanged and keeps
 *  BackendStats identical to the backend it wraps. */
void
testWrapperTransparent()
{
    Tracer tracer;
    Tracer::Scope span(&tracer, "point", "selftest");
    melody::MioNoise noise;
    noise.threads = 3;
    noise.readFrac = 0.5;
    noise.paceNs = 400.0;
    for (const char *mem : {"Local", "CXL-C"}) {
        const melody::Platform plat("EMR2S", mem);
        const mem::BackendPtr plain = plat.makeBackend(5);
        TimingBackend timed(plat.makeBackend(5));
        const auto a = melody::mioChaseDirect(plain.get(), 1, 400, noise);
        const auto b = melody::mioChaseDirect(&timed, 1, 400, noise);
        expect(a.latencyNs.percentile(0.99) ==
                       b.latencyNs.percentile(0.99) &&
                   a.gbps == b.gbps,
               std::string("wrapped chase is unchanged on ") + mem);
        expect(sameStats(plain->stats(), timed.stats()) &&
                   sameStats(timed.stats(), timed.inner().stats()) &&
                   timed.stats().writes > 0,
               std::string("wrapped BackendStats match on ") + mem);
    }

    workloads::WorkloadProfile w = workloads::suite().front();
    w.blocksPerCore = 2000;
    const melody::Platform plat("EMR2S", "CXL-A");
    const cpu::RunResult a = melody::runWorkload(w, plat, 9);
    TimingBackend timed(plat.makeBackend(9 ^ w.seed));
    cpu::MultiCore mc(plat.cpu(), w.exec, &timed,
                      workloads::makeKernels(w), true);
    const cpu::RunResult b = mc.run();
    expect(a.wallTicks == b.wallTicks &&
               sameStats(a.backendStats, b.backendStats) &&
               sameStats(b.backendStats, timed.inner().stats()) &&
               a.counters.instructions == b.counters.instructions,
           "wrapped MultiCore run is unchanged (" + w.name + ")");
}

/** Per workload, on a small instance: traced and untraced runs give
 *  one digest and request count, the output checks pass, and the
 *  layers' self times partition every point. */
void
testTracedMatchesUntraced()
{
    for (const std::string &wl : workloadNames()) {
        Ctx plain;
        const Outcome a = runInstance(wl, 3, true, 2, "", &plain);
        Tracer tracer;
        Ctx traced;
        traced.tracer = &tracer;
        const Outcome b = runInstance(wl, 3, true, 1, "", &traced);
        expect(plain.failedPoints == 0 && plain.checkErrors.empty(),
               wl + ": every point completes and passes its checks" +
                   (plain.checkErrors.empty()
                        ? std::string()
                        : " (" + plain.checkErrors.front() + ")"));
        expect(a.digest == b.digest &&
                   plain.requests.load() == traced.requests.load() &&
                   plain.requests.load() > 0,
               wl + ": traced digest and requests equal untraced");
        const std::vector<Span> spans = tracer.spans();
        const LayerSplit L = splitByLayer(spans);
        expect(L.error.empty() && L.pointNs > 0,
               wl + ": layer self times partition the points" +
                   (L.error.empty() ? std::string() : " (" + L.error + ")"));
        // The partition holds by construction; what can go wrong is
        // a backend estimate that overshoots its span and is cut.
        const double clamped = ratio(static_cast<double>(L.clampedNs),
                                     static_cast<double>(L.pointNs));
        expect(clamped <= kMaxClampedShare,
               wl + ": backend estimate cut by the cap is " +
                   std::to_string(100.0 * clamped) +
                   "% of point time (at most " +
                   std::to_string(100.0 * kMaxClampedShare) + "%)");
        std::uint64_t accesses = 0;
        for (const Span &s : spans)
            accesses += s.mem.reads + s.mem.writes;
        expect(accesses == traced.requests.load(),
               wl + ": every backend access is attributed to a span");
    }
}

int
selftestMain()
{
    testWrapperTransparent();
    testTracedMatchesUntraced();
    std::printf("%s: %d failure(s)\n", g_failures ? "FAIL" : "PASS",
                g_failures);
    return g_failures ? 1 : 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("missing mode");
    try {
        if (std::strcmp(argv[1], "selftest") == 0)
            return selftestMain();
        if (std::strcmp(argv[1], "run") == 0)
            return runMain(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "melody_perfbench: %s\n", e.what());
        return 1;
    }
    usage("unknown mode");
}
