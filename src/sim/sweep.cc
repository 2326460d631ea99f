#include "sweep.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "sim/cost_model.hh"
#include "sim/journal.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/run_cache.hh"
#include "sim/supervisor.hh"
#include "stats/rows.hh"

namespace cxlsim::sweep {

/**
 * --progress status line: "\r"-refreshed on stderr only, so stdout
 * stays byte-clean for redirection and the byte-compare harnesses.
 * Redraws are rate-limited to one per 500 ms (plus the final
 * state), per the flag's contract of at most two updates a second.
 * The ETA comes from the cost model's remaining predicted work
 * divided by the job count; with no predictions it reads "--".
 * Timing here is steady_clock (a monotonic duration source) and
 * never feeds simulation — it only decides when to repaint.
 */
class ProgressMeter
{
  public:
    ProgressMeter(std::size_t total, std::size_t done,
                  double remainingPredUs, unsigned jobs)
        : total_(total), done_(done),
          remainingUs_(remainingPredUs), jobs_(jobs ? jobs : 1)
    {
        last_ = Clock::now();
        draw();
    }

    /** One point resolved; @p predictedUs was its forecast (0 when
     *  unknown). Called from pool workers — mutex-serialized. */
    void
    tick(double predictedUs)
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++done_;
        remainingUs_ = std::max(0.0, remainingUs_ - predictedUs);
        const Clock::time_point now = Clock::now();
        if (done_ != total_ &&
            now - last_ < std::chrono::milliseconds(500))
            return;
        last_ = now;
        draw();
    }

    /** Terminate the status line so later stderr output starts
     *  clean. */
    void
    finish()
    {
        std::lock_guard<std::mutex> lk(mu_);
        draw();
        std::fputc('\n', stderr);
        std::fflush(stderr);
    }

  private:
    using Clock = std::chrono::steady_clock;

    void
    draw()
    {
        char eta[32];
        if (done_ < total_ && remainingUs_ > 0.0)
            std::snprintf(eta, sizeof(eta), "ETA %.0fs",
                          remainingUs_ / jobs_ / 1e6);
        else
            std::snprintf(eta, sizeof(eta), "ETA --");
        // lint:allow(err-stray-stream: opt-in progress meter IS a stderr status line; stdout stays byte-clean)
        std::fprintf(stderr,
                     "\r[melody] sweep: %zu/%zu points, %s   ",
                     done_, total_, eta);
        std::fflush(stderr);
    }

    std::mutex mu_;
    std::size_t total_;
    std::size_t done_;
    double remainingUs_;
    unsigned jobs_;
    Clock::time_point last_;
};

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
    if (const char *sched = std::getenv("MELODY_SWEEP_SCHED")) {
        if (std::strcmp(sched, "fifo") == 0)
            o.sched = Sched::kFifo;
        else if (std::strcmp(sched, "lpt") == 0)
            o.sched = Sched::kLpt;
        else
            throw ConfigError(
                "MELODY_SWEEP_SCHED must be 'fifo' or 'lpt', "
                "got '" +
                std::string(sched) + "'");
    }
    // "0"/"off" disables the cost DB entirely; any other value is
    // an explicit DB path (empty keeps the default placement).
    if (const char *db = std::getenv("MELODY_SWEEP_COSTDB")) {
        if (std::strcmp(db, "0") == 0 ||
            std::strcmp(db, "off") == 0)
            o.costDb = false;
        else
            o.costDbPath = db;
    }
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
    bool fromCache = false;
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

struct Sweep::SchedCtx
{
    /**
     * Dispatch permutation over the *pending* vector (positions,
     * not point ids): workers claim pending[order[t]] for ticket t.
     * Identity = FIFO; lptOrder() output = longest-predicted-first.
     * Purely a scheduling hint — results land by point index and
     * render in declaration order regardless.
     */
    std::vector<std::size_t> order;
    /** Salted point hash per pending position (cost-DB key);
     *  empty when no cost model is active. */
    std::vector<std::string> hashes;
    /** Prediction per pending position (µs; 0 = unknown); empty
     *  when no cost model is active. */
    std::vector<double> predictedUs;
    /** Cost model to record observations into; may be null. */
    CostModel *cm = nullptr;
    /** --progress meter; null when disabled. */
    ProgressMeter *progress = nullptr;
};

Sweep::Sweep(std::string name, Options opts)
    : name_(std::move(name)), scope_(name_), opts_(std::move(opts))
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

    const std::string salt =
        opts_.salt.empty() ? kSweepSalt : opts_.salt;
    // Journal records are addressed exactly like run-cache entries,
    // so a salt bump orphans both at once.
    const auto hashOf = [&](const std::string &key) {
        return stats::hex64(
            stats::fnv1a64(key, stats::fnv1a64(salt)));
    };
    const bool isolate = opts_.isolate || opts_.resume;

    // Cost model: strictly a dispatch hint (see cost_model.hh).
    // Default location is inside the cache directory; an explicit
    // path also works with the cache off (byte-equality harnesses
    // seed adversarial DBs that way). Every load failure mode
    // degrades to zero predictions, i.e. FIFO dispatch.
    std::unique_ptr<CostModel> cm;
    if (opts_.costDb) {
        std::string cmPath = opts_.costDbPath;
        if (cmPath.empty() && opts_.cache)
            cmPath = opts_.cacheDir + "/" + kCostDbFileName;
        if (!cmPath.empty()) {
            cm = std::make_unique<CostModel>(cmPath, salt);
            cm->load();
        }
    }

    // Phase 0: load journaled completions (resume mode). A salt or
    // format mismatch is a user-facing configuration error. The
    // journaled per-point wall-clocks seed the cost model so a
    // crashed run's measurements still reach the DB.
    std::map<std::string, std::vector<std::string>> journaled;
    if (opts_.resume) {
        if (opts_.journalPath.empty())
            throw ConfigError(
                "sweep resume requires a journal path");
        std::string err;
        std::map<std::string, std::uint64_t> journalElapsed;
        if (!Journal::load(opts_.journalPath, salt, &journaled,
                           &err, cm ? &journalElapsed : nullptr))
            throw ConfigError(err);
        if (cm)
            for (const auto &[hash, us] : journalElapsed)
                cm->record(hash, static_cast<double>(us));
    }

    // Phase 1: satisfy points from the journal, then the cache,
    // serially (cheap file reads); survivors go to the simulator.
    std::vector<std::size_t> pending;
    pending.reserve(points_.size());
    for (std::size_t i = 0; i < points_.size(); ++i) {
        Point &p = points_[i];
        if (opts_.resume) {
            const auto it = journaled.find(hashOf(p.key));
            if (it != journaled.end() &&
                it->second.size() == p.nSlots) {
                p.slots = it->second;
                p.fromCache = true;
                ++report->resumedPoints;
                continue;
            }
        }
        if (cache_ && cache_->lookup(p.key, p.nSlots, &p.slots)) {
            p.fromCache = true;
            continue;
        }
        pending.push_back(i);
    }

    // Scheduling context: hashes + predictions per pending
    // position, the dispatch permutation, and the progress meter.
    SchedCtx sched;
    sched.cm = cm.get();
    sched.order.resize(pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i)
        sched.order[i] = i;
    double remainingPredUs = 0.0;
    if (cm) {
        sched.hashes.reserve(pending.size());
        sched.predictedUs.reserve(pending.size());
        for (const std::size_t idx : pending) {
            sched.hashes.push_back(hashOf(points_[idx].key));
            sched.predictedUs.push_back(
                cm->predictUs(sched.hashes.back()));
            remainingPredUs += sched.predictedUs.back();
        }
        if (opts_.sched == Sched::kLpt)
            sched.order = lptOrder(sched.predictedUs);
    }

    std::unique_ptr<ProgressMeter> progress;
    if (opts_.progress) {
        unsigned jobsEff = opts_.jobs
                               ? opts_.jobs
                               : std::thread::hardware_concurrency();
        jobsEff = std::max(
            1u, std::min<unsigned>(
                    jobsEff,
                    static_cast<unsigned>(std::max<std::size_t>(
                        pending.size(), 1))));
        progress = std::make_unique<ProgressMeter>(
            points_.size(), points_.size() - pending.size(),
            remainingPredUs, jobsEff);
        sched.progress = progress.get();
    }

    // Phase 2: compute the misses — supervised subprocesses under
    // isolation, otherwise the in-process worker pool.
    if (isolate)
        computeIsolated(pending, salt, hashOf, &sched, report);
    else
        computeInProcess(pending, &sched, report);
    if (progress)
        progress->finish();

    // Phase 3: persist fresh results (isolated successes were
    // stored the moment each worker reported back, so a later
    // crash cannot lose them). The cost model persists alongside:
    // a save failure is silent by contract — a hint, not data.
    if (cache_) {
        if (!isolate)
            for (const std::size_t idx : pending)
                cache_->store(points_[idx].key,
                              points_[idx].slots);
        report->cacheHits = cache_->stats().hits;
        report->cacheStores = cache_->stats().stores;
        report->corruptEntries = cache_->stats().corrupt;
        report->cacheDegraded = cache_->degraded();
    }
    if (cm)
        cm->save();
}

void
Sweep::computeInProcess(const std::vector<std::size_t> &pending,
                        SchedCtx *sched, Report *report)
{
    // Fan out over the worker pool, dispatching in sched->order
    // (LPT when the cost model has predictions, FIFO otherwise).
    // Each closure writes only into its own pre-sized slot storage,
    // so scheduling order cannot affect the rendered bytes. A
    // throwing closure is captured and re-thrown from the lowest
    // point index so the failure is deterministic too.
    std::vector<std::exception_ptr> errors(pending.size());
    std::vector<sim::Invariants> invs(
        opts_.checkInvariants ? pending.size() : 0);
    parallelForOrder(
        sched->order,
        [&](std::size_t i) {
            Point &p = points_[pending[i]];
            const auto t0 = std::chrono::steady_clock::now();
            std::vector<Emit> slots(p.nSlots);
            try {
                sim::InvariantScope scope(
                    opts_.checkInvariants ? &invs[i] : nullptr);
                p.fn(slots.data());
            } catch (...) {
                errors[i] = std::current_exception();
                if (sched->progress)
                    sched->progress->tick(
                        sched->predictedUs.empty()
                            ? 0.0
                            : sched->predictedUs[i]);
                return;
            }
            if (sched->cm) {
                const double us =
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                sched->cm->record(sched->hashes[i], us);
            }
            p.slots.reserve(p.nSlots);
            for (auto &s : slots)
                p.slots.push_back(s.take());
            if (sched->progress)
                sched->progress->tick(sched->predictedUs.empty()
                                          ? 0.0
                                          : sched->predictedUs[i]);
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
Sweep::computeIsolated(
    const std::vector<std::size_t> &pending,
    const std::string &salt,
    const std::function<std::string(const std::string &)> &hashOf,
    SchedCtx *sched, Report *report)
{
    Journal journal;
    if (!opts_.journalPath.empty()) {
        journal.open(opts_.journalPath, opts_.resume);
        journal.begin(name_, salt, opts_.resume);
    }
    for (const std::size_t idx : pending)
        journal.queued(hashOf(points_[idx].key), idx,
                       points_[idx].key);

    // Hand the tasks to the supervisor in dispatch order (LPT when
    // the cost model predicts, FIFO otherwise); task.index keeps
    // the original point id, so journaling, storage and render
    // order are untouched by the permutation. posOf maps a point id
    // back to its pending position for prediction lookups.
    std::vector<SupervisorTask> tasks;
    tasks.reserve(pending.size());
    std::map<std::size_t, std::size_t> posOf;
    for (const std::size_t pos : sched->order) {
        const std::size_t idx = pending[pos];
        posOf[idx] = pos;
        tasks.push_back({idx, points_[idx].key,
                         points_[idx].nSlots, &points_[idx].fn});
    }

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

    // Per-point attempt start times (steady_clock): the elapsed
    // wall-clock of each *successful* attempt feeds the cost model
    // and the journal. Callbacks run on the single supervisor
    // thread, so no locking is needed here.
    std::map<std::size_t, std::chrono::steady_clock::time_point>
        startAt;
    const auto predictionOf = [&](std::size_t idx) {
        if (sched->predictedUs.empty())
            return 0.0;
        const auto it = posOf.find(idx);
        return it == posOf.end() ? 0.0
                                 : sched->predictedUs[it->second];
    };

    SupervisorCallbacks cb;
    cb.onStart = [&](std::size_t idx, unsigned attempt) {
        startAt[idx] = std::chrono::steady_clock::now();
        journal.started(hashOf(points_[idx].key), attempt);
    };
    cb.onSuccess = [&](std::size_t idx, unsigned attempt,
                       std::vector<std::string> slots,
                       std::vector<sim::InvariantViolation>
                           violations) {
        Point &p = points_[idx];
        p.slots = std::move(slots);
        if (cache_)
            cache_->store(p.key, p.slots);
        double elapsedUs = 0.0;
        const auto t0 = startAt.find(idx);
        if (t0 != startAt.end())
            elapsedUs =
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - t0->second)
                    .count();
        if (sched->cm && elapsedUs > 0.0)
            sched->cm->record(hashOf(p.key), elapsedUs);
        journal.finished(hashOf(p.key), attempt, p.slots,
                         static_cast<std::uint64_t>(elapsedUs));
        if (!violations.empty())
            diags[idx] = std::move(violations);
        if (sched->progress)
            sched->progress->tick(predictionOf(idx));
    };
    cb.onFailure = [&](std::size_t idx, unsigned attempt,
                       const std::string &cause, bool final) {
        journal.failed(hashOf(points_[idx].key), attempt, cause,
                       final);
        if (final) {
            Point &p = points_[idx];
            p.failed = true;
            p.attempts = attempt;
            p.cause = cause;
            if (sched->progress)
                sched->progress->tick(predictionOf(idx));
        }
    };

    const SupervisorReport srep = runSupervised(tasks, cfg, cb);
    report->retries = srep.retries;
    report->journalError = journal.failure();
    for (const auto &f : srep.failures)
        report->failures.push_back({f.index,
                                    points_[f.index].key,
                                    f.attempts, f.cause});
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
