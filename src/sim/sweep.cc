#include "sweep.hh"

#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <mutex>
#include <utility>

#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/run_cache.hh"
#include "sim/supervisor.hh"

namespace cxlsim::sweep {

// -----------------------------------------------------------------
// Emit
// -----------------------------------------------------------------

void
Emit::vappend(const char *fmt, std::va_list ap)
{
    std::va_list ap2;
    va_copy(ap2, ap);
    char small[512];
    const int n = std::vsnprintf(small, sizeof(small), fmt, ap);
    SIM_ASSERT(n >= 0, "vsnprintf failed in sweep::Emit");
    if (static_cast<std::size_t>(n) < sizeof(small)) {
        buf_.append(small, static_cast<std::size_t>(n));
    } else {
        const std::size_t old = buf_.size();
        buf_.resize(old + static_cast<std::size_t>(n) + 1);
        std::vsnprintf(&buf_[old], static_cast<std::size_t>(n) + 1,
                       fmt, ap2);
        buf_.resize(old + static_cast<std::size_t>(n));
    }
    va_end(ap2);
}

void
Emit::hexDoubles(const std::vector<double> &vs)
{
    for (std::size_t i = 0; i < vs.size(); ++i)
        this->printf("%s%a", i ? " " : "", vs[i]);
    text("\n");
}

std::vector<double>
parseHexDoubles(std::string_view s)
{
    std::vector<double> out;
    const char *p = s.data();
    const char *end = p + s.size();
    while (p < end) {
        char *next = nullptr;
        // The slot is NUL-free and strtod stops at whitespace, so
        // a bounded copy is unnecessary; s comes from Emit and is
        // '\n'-terminated by hexDoubles.
        const double v = std::strtod(p, &next);
        if (next == p)
            break;
        out.push_back(v);
        p = next;
    }
    return out;
}

// -----------------------------------------------------------------
// Options
// -----------------------------------------------------------------

Options
optionsFromEnv()
{
    Options o;
    if (const char *jobs = std::getenv("MELODY_SWEEP_JOBS")) {
        char *endp = nullptr;
        const unsigned long v = std::strtoul(jobs, &endp, 10);
        if (endp == jobs || *endp != '\0')
            throw ConfigError(
                "MELODY_SWEEP_JOBS must be a non-negative "
                "integer, got '" +
                std::string(jobs) + "'");
        o.jobs = static_cast<unsigned>(v);
    }
    if (const char *cache = std::getenv("MELODY_SWEEP_CACHE"))
        o.cache = !(std::strcmp(cache, "0") == 0 ||
                    std::strcmp(cache, "off") == 0);
    if (const char *dir = std::getenv("MELODY_SWEEP_CACHE_DIR"))
        o.cacheDir = dir;
    if (const char *iso = std::getenv("MELODY_SWEEP_ISOLATE"))
        o.isolate = !(std::strcmp(iso, "0") == 0 ||
                      std::strcmp(iso, "off") == 0);
    if (const char *inv =
            std::getenv("MELODY_SWEEP_CHECK_INVARIANTS"))
        o.checkInvariants = !(std::strcmp(inv, "0") == 0 ||
                              std::strcmp(inv, "off") == 0);
    return o;
}

// -----------------------------------------------------------------
// Sweep
// -----------------------------------------------------------------

struct Sweep::Item
{
    enum class Kind { kText, kSlot, kGather };
    Kind kind;
    std::string text;     // kText
    SlotRef slot{0, 0};   // kSlot
    std::size_t gather = 0;  // kGather
};

struct Sweep::Point
{
    std::string key;  // scoped, as fed to the cache
    std::size_t nSlots;
    PointFn fn;
    std::vector<std::string> slots;
    // Isolated-mode permanent failure (attempt budget exhausted):
    // the point renders a deterministic placeholder instead.
    bool failed = false;
    unsigned attempts = 0;
    std::string cause;
};

struct Sweep::Gather
{
    std::vector<SlotRef> inputs;
    GatherFn fn;
};

Sweep::Sweep(std::string name, Options opts)
    : scope_(std::move(name)), opts_(std::move(opts))
{
    if (opts_.cache)
        cache_ = std::make_unique<RunCache>(
            opts_.cacheDir,
            opts_.salt.empty() ? kSweepSalt : opts_.salt);
}

Sweep::~Sweep() = default;

void
Sweep::scope(std::string scope)
{
    scope_ = std::move(scope);
}

void
Sweep::text(std::string s)
{
    Item it;
    it.kind = Item::Kind::kText;
    it.text = std::move(s);
    items_.push_back(std::move(it));
}

void
Sweep::textf(const char *fmt, ...)
{
    Emit e;
    std::va_list ap;
    va_start(ap, fmt);
    e.vappend(fmt, ap);
    va_end(ap);
    text(e.take());
}

std::size_t
Sweep::point(std::string key, std::size_t slots, PointFn fn)
{
    SIM_ASSERT(slots > 0, "sweep point needs at least one slot");
    SIM_ASSERT(key.find('\n') == std::string::npos,
               "sweep point key must be single-line: " + key);
    Point p;
    p.key = scope_ + "|" + key;
    p.nSlots = slots;
    p.fn = std::move(fn);
    points_.push_back(std::move(p));
    return points_.size() - 1;
}

void
Sweep::point(std::string key, std::function<void(Emit &)> fn)
{
    const std::size_t id =
        point(std::move(key), 1,
              [fn = std::move(fn)](Emit *slots) { fn(slots[0]); });
    place(id, 0);
}

void
Sweep::place(std::size_t id, std::size_t slot)
{
    SIM_ASSERT(id < points_.size(), "place(): unknown point");
    SIM_ASSERT(slot < points_[id].nSlots,
               "place(): slot out of range for point " +
                   points_[id].key);
    Item it;
    it.kind = Item::Kind::kSlot;
    it.slot = {id, slot};
    items_.push_back(std::move(it));
}

void
Sweep::gather(std::vector<SlotRef> inputs, GatherFn fn)
{
    for (const auto &in : inputs) {
        SIM_ASSERT(in.point < points_.size(),
                   "gather(): unknown point");
        SIM_ASSERT(in.slot < points_[in.point].nSlots,
                   "gather(): slot out of range");
    }
    gathers_.push_back(Gather{std::move(inputs), std::move(fn)});
    Item it;
    it.kind = Item::Kind::kGather;
    it.gather = gathers_.size() - 1;
    items_.push_back(std::move(it));
}

std::vector<Sweep::SlotRef>
Sweep::slotsOf(std::size_t id) const
{
    SIM_ASSERT(id < points_.size(), "slotsOf(): unknown point");
    std::vector<SlotRef> out;
    out.reserve(points_[id].nSlots);
    for (std::size_t s = 0; s < points_[id].nSlots; ++s)
        out.push_back({id, s});
    return out;
}

void
Sweep::compute(Report *report)
{
    SIM_ASSERT(!ran_, "Sweep::run() called twice");
    ran_ = true;
    report->points = points_.size();

    // Phase 1: satisfy points from the cache, serially (cheap file
    // reads); survivors go to the simulator. A rerun of a crashed
    // or interrupted run resumes here: every point that finished
    // before is a hit.
    std::vector<std::size_t> pending;
    pending.reserve(points_.size());
    for (std::size_t i = 0; i < points_.size(); ++i) {
        Point &p = points_[i];
        if (!cache_ || !cache_->lookup(p.key, p.nSlots, &p.slots))
            pending.push_back(i);
    }

    // Phase 2: compute the misses — supervised subprocesses under
    // isolation, otherwise the in-process worker pool.
    if (opts_.isolate)
        computeIsolated(pending, report);
    else
        computeInProcess(pending, report);

    // Both paths of phase 2 store each success the moment it
    // finishes, so a later crash, throw or kill cannot lose it.
    if (cache_) {
        report->cacheHits = cache_->stats().hits;
        report->cacheStores = cache_->stats().stores;
        report->corruptEntries = cache_->stats().corrupt;
        report->cacheDegraded = cache_->degraded();
    }
}

void
Sweep::computeInProcess(const std::vector<std::size_t> &pending,
                        Report *report)
{
    // Fan out over the worker pool in declaration order. Each
    // closure writes only into its own pre-sized slot storage, so
    // scheduling cannot affect the rendered bytes. A throwing
    // closure is captured and re-thrown from the lowest point
    // index so the failure is deterministic too. Each success is
    // stored at once, one store at a time (RunCache is not
    // thread-safe).
    std::vector<std::exception_ptr> errors(pending.size());
    std::mutex storeMu;
    std::vector<sim::Invariants> invs(
        opts_.checkInvariants ? pending.size() : 0);
    parallelFor(
        pending.size(),
        [&](std::size_t i) {
            Point &p = points_[pending[i]];
            std::vector<Emit> slots(p.nSlots);
            try {
                sim::InvariantScope scope(
                    opts_.checkInvariants ? &invs[i] : nullptr);
                p.fn(slots.data());
            } catch (...) {
                errors[i] = std::current_exception();
                return;
            }
            p.slots.reserve(p.nSlots);
            for (auto &s : slots)
                p.slots.push_back(s.take());
            if (cache_) {
                const std::lock_guard<std::mutex> lock(storeMu);
                cache_->store(p.key, p.slots);
            }
        },
        opts_.jobs);
    for (const auto &err : errors)
        if (err)
            std::rethrow_exception(err);
    for (std::size_t i = 0; i < invs.size(); ++i)
        for (const auto &v : invs[i].violations())
            report->invariantDiags.push_back(
                {points_[pending[i]].key, v.invariant, v.where,
                 v.values});
}

void
Sweep::computeIsolated(const std::vector<std::size_t> &pending,
                        Report *report)
{
    // task.index keeps the point id, so storage and render order
    // follow declaration order.
    std::vector<SupervisorTask> tasks;
    tasks.reserve(pending.size());
    for (const std::size_t idx : pending)
        tasks.push_back({idx, points_[idx].key,
                         points_[idx].nSlots, &points_[idx].fn});

    SupervisorConfig cfg;
    cfg.jobs = opts_.jobs;
    cfg.maxAttempts = opts_.maxAttempts;
    cfg.timeoutMs = opts_.timeoutMs;
    cfg.checkInvariants = opts_.checkInvariants;

    // Workers complete in nondeterministic order; buffer the
    // per-point diagnostics and flatten by point index so the
    // report is stable.
    std::map<std::size_t, std::vector<sim::InvariantViolation>>
        diags;

    const SupervisorReport srep = runSupervised(
        tasks, cfg,
        [&](std::size_t idx, std::vector<std::string> slots,
            std::vector<sim::InvariantViolation> violations) {
            Point &p = points_[idx];
            p.slots = std::move(slots);
            if (cache_)
                cache_->store(p.key, p.slots);
            if (!violations.empty())
                diags[idx] = std::move(violations);
        });
    report->retries = srep.retries;
    for (const auto &f : srep.failures) {
        Point &p = points_[f.index];
        p.failed = true;
        p.attempts = f.attempts;
        p.cause = f.cause;
        report->failures.push_back(
            {f.index, p.key, f.attempts, f.cause});
    }
    for (const auto &[idx, vs] : diags)
        for (const auto &v : vs)
            report->invariantDiags.push_back(
                {points_[idx].key, v.invariant, v.where,
                 v.values});
}

void
Sweep::render(std::FILE *out, std::string *str)
{
    auto put = [&](const std::string &s) {
        if (str)
            str->append(s);
        else if (!s.empty())
            std::fwrite(s.data(), 1, s.size(), out);
    };
    // Deterministic degraded rendering: a permanently failed point
    // (isolated mode only) renders a placeholder per placed slot,
    // and a gather depending on one is skipped rather than fed
    // partial inputs.
    const auto placeholder = [](const Point &p) {
        return "[melody] point failed: " + p.key + " (" + p.cause +
               ", " + std::to_string(p.attempts) + " attempt(s))\n";
    };
    for (const Item &it : items_) {
        switch (it.kind) {
          case Item::Kind::kText:
            put(it.text);
            break;
          case Item::Kind::kSlot: {
            const Point &p = points_[it.slot.point];
            put(p.failed ? placeholder(p)
                         : p.slots[it.slot.slot]);
            break;
          }
          case Item::Kind::kGather: {
            const Gather &g = gathers_[it.gather];
            const Point *failedDep = nullptr;
            for (const auto &in : g.inputs)
                if (points_[in.point].failed) {
                    failedDep = &points_[in.point];
                    break;
                }
            if (failedDep) {
                put("[melody] gather skipped: depends on failed "
                    "point: " +
                    failedDep->key + "\n");
                break;
            }
            std::vector<std::string> inputs;
            inputs.reserve(g.inputs.size());
            for (const auto &in : g.inputs)
                inputs.push_back(
                    points_[in.point].slots[in.slot]);
            Emit e;
            g.fn(inputs, e);
            put(e.str());
            break;
          }
        }
    }
    if (!str)
        std::fflush(out);
}

Sweep::Report
Sweep::run(std::FILE *out)
{
    Report report;
    compute(&report);
    render(out, nullptr);
    return report;
}

std::string
Sweep::renderToString(Report *report)
{
    Report local;
    compute(&local);
    std::string s;
    render(nullptr, &s);
    if (report)
        *report = local;
    return s;
}

}  // namespace cxlsim::sweep
