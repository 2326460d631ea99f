#include "trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "stats/json.hh"

namespace perfbench {

using namespace cxlsim;

namespace {

/** Innermost open span of the calling thread. */
thread_local Span *t_open = nullptr;

/** Backend accesses seen by the calling thread, for sampling. */
thread_local std::uint32_t t_accesses = 0;

/** Host ns an empty nowNs()..nowNs() interval reads. */
std::atomic<std::int64_t> g_clockNs{0};

}  // namespace

MemAgg &
MemAgg::operator+=(const MemAgg &o)
{
    reads += o.reads;
    writes += o.writes;
    notOk += o.notOk;
    timedReads += o.timedReads;
    timedWrites += o.timedWrites;
    timedReadNs += o.timedReadNs;
    timedWriteNs += o.timedWriteNs;
    excessNs += o.excessNs;
    return *this;
}

std::int64_t
MemAgg::scale(std::int64_t ns, std::uint64_t timed, std::uint64_t all)
{
    if (timed == 0)
        return 0;
    return static_cast<std::int64_t>(
        std::llround(static_cast<double>(std::max<std::int64_t>(ns, 0)) *
                     static_cast<double>(all) /
                     static_cast<double>(timed)));
}

Tracer::Tracer()
{
    // Median of batch means: robust to a preemption in one batch.
    std::vector<std::int64_t> means;
    for (int b = 0; b < 9; ++b) {
        std::int64_t sum = 0;
        for (int i = 0; i < 2000; ++i) {
            const std::int64_t t0 = nowNs();
            sum += nowNs() - t0;
        }
        means.push_back(sum / 2000);
    }
    std::nth_element(means.begin(), means.begin() + 4, means.end());
    g_clockNs.store(means[4], std::memory_order_relaxed);
}

Tracer::Scope::Scope(Tracer *tracer, std::string name,
                     std::string detail)
    : tracer_(tracer)
{
    if (!tracer_)
        return;
    span_.id = tracer_->nextId_.fetch_add(1, std::memory_order_relaxed);
    span_.name = std::move(name);
    span_.detail = std::move(detail);
    prev_ = t_open;
    span_.parent = prev_ ? prev_->id : 0;
    t_open = &span_;
    span_.startNs = nowNs();
}

Tracer::Scope::~Scope()
{
    if (!tracer_)
        return;
    span_.endNs = nowNs();
    t_open = prev_;
    std::lock_guard<std::mutex> lk(tracer_->mu_);
    tracer_->done_.push_back(std::move(span_));
}

void
Tracer::noteAccess(bool write, bool ok, std::int64_t ns)
{
    Span *s = t_open;
    if (!s)
        return;
    MemAgg &m = s->mem;
    ++(write ? m.writes : m.reads);
    if (!ok)
        ++m.notOk;
    if (ns < 0)
        return;
    std::int64_t net = ns - g_clockNs.load(std::memory_order_relaxed);
    if (net > MemAgg::kCapNs) {
        m.excessNs += net - MemAgg::kCapNs;
        net = MemAgg::kCapNs;
    }
    if (write) {
        ++m.timedWrites;
        m.timedWriteNs += net;
    } else {
        ++m.timedReads;
        m.timedReadNs += net;
    }
}

std::vector<Span>
Tracer::spans() const
{
    std::vector<Span> out;
    {
        std::lock_guard<std::mutex> lk(mu_);
        out = done_;
    }
    std::sort(out.begin(), out.end(),
              [](const Span &a, const Span &b) { return a.id < b.id; });
    return out;
}

bool
Tracer::writeJson(const std::string &path) const
{
    stats::JsonWriter w;
    w.beginArray();
    for (const Span &s : spans()) {
        w.beginObject()
            .field("id", s.id)
            .field("parent", s.parent)
            .field("name", s.name)
            .field("detail", s.detail)
            .field("start_ns", s.startNs)
            .field("end_ns", s.endNs)
            .field("mem_reads", s.mem.reads)
            .field("mem_writes", s.mem.writes)
            .field("mem_read_ns", s.mem.readNs())
            .field("mem_write_ns", s.mem.writeNs())
            .field("mem_not_ok", s.mem.notOk);
        if (s.name == "cpu.run")
            w.field("instructions", s.instructions)
                .field("l3_misses", s.l3Misses);
        w.endObject();
    }
    w.endArray();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string &text = w.str();
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

LayerSplit
splitByLayer(const std::vector<Span> &spans)
{
    LayerSplit out;
    std::map<std::uint64_t, const Span *> byId;
    std::map<std::uint64_t, std::int64_t> childNs;
    for (const Span &s : spans) {
        byId[s.id] = &s;
        childNs[s.parent] += s.durNs();
    }
    for (const std::string layer :
         {"core", "cpu", "mem", "workloads", "sim"})
        out.selfNs[layer] = 0;
    for (const Span &s : spans) {
        const std::int64_t own = s.durNs() - childNs[s.id];
        // Backend time is an estimate from sampled accesses; where
        // a span is nearly all backend time it can overshoot, so it
        // is capped at the span's own time, and the overshoot kept.
        const std::int64_t mem =
            std::min(s.mem.busyNs(), std::max<std::int64_t>(own, 0));
        out.clampedNs += s.mem.busyNs() - mem;
        const std::int64_t self = own - mem;
        if (self < 0 && out.error.empty())
            out.error = "span " + s.name + " " + s.detail +
                        " has negative self time";
        const bool point = s.name == "point";
        if (point) {
            out.pointNs += s.durNs();
        } else {
            // Walk up to the enclosing point.
            const Span *p = &s;
            while (p && p->name != "point")
                p = p->parent ? byId[p->parent] : nullptr;
            if (!p && out.error.empty())
                out.error = "span " + s.name + " lies outside a point";
        }
        const std::string layer =
            point ? "sim" : s.name.substr(0, s.name.find('.'));
        out.selfNs[layer] += self;
        out.selfNs["mem"] += mem;
        out.memBusyNs += mem;
        out.spanSelfNs[s.name] += self;
        ++out.calls[s.name];
        out.memBySpan[s.name] += s.mem;
    }
    std::int64_t sum = 0;
    for (const auto &kv : out.selfNs)
        sum += kv.second;
    if (out.selfNs.size() != 5 && out.error.empty())
        out.error = "a span belongs to no known layer";
    if (sum != out.pointNs && out.error.empty())
        out.error = "layer self times do not sum to point time";
    return out;
}

Tick
TimingBackend::access(Addr addr, mem::ReqType type, Tick now)
{
    note(type);
    if (++t_accesses % MemAgg::kTimeEvery != 0) {
        Tracer::noteAccess(!mem::isRead(type), true, -1);
        return inner_->access(addr, type, now);
    }
    const std::int64_t t0 = nowNs();
    const Tick done = inner_->access(addr, type, now);
    Tracer::noteAccess(!mem::isRead(type), true, nowNs() - t0);
    return done;
}

mem::AccessResult
TimingBackend::accessEx(Addr addr, mem::ReqType type, Tick now)
{
    note(type);
    const bool timed = ++t_accesses % MemAgg::kTimeEvery == 0;
    const std::int64_t t0 = timed ? nowNs() : 0;
    const mem::AccessResult r = inner_->accessEx(addr, type, now);
    Tracer::noteAccess(!mem::isRead(type), r.status == ras::Status::kOk,
                       timed ? nowNs() - t0 : -1);
    return r;
}

}  // namespace perfbench
