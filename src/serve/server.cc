#include "server.hh"

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "serve/session.hh"
#include "sim/interrupt.hh"
#include "sim/io_fault.hh"
#include "sim/logging.hh"
#include "sim/retry_io.hh"
#include "sim/worker.hh"

namespace cxlsim::serve {

namespace {

using Clock = std::chrono::steady_clock;

/** A coalesced duplicate request riding on another's worker. */
struct Waiter
{
    int clientFd = -1;
    std::uint64_t id = 0;
};

/** A sweep request admitted but not yet running. */
struct PendingReq
{
    std::uint64_t id = 0;
    int clientFd = -1;
    SweepJob job;
    /** Single-flight key (figure + arg); identical keys share one
     *  worker. */
    std::string key;
    /** Duplicate requests attached while this one was queued. */
    std::vector<Waiter> waiters;
    /** Admission time, for the queue-wait histogram. */
    Clock::time_point admitted;
};

/** One in-flight forked request worker. */
struct Worker
{
    /** The child. Its forced cause "cancelled" means the client
     *  vanished: reap silently, send nothing. Never set while
     *  waiters remain — a waiter is promoted instead. */
    sim::ForkWorker proc;
    int clientFd = -1;
    std::uint64_t id = 0;
    /** Single-flight key; duplicates arriving mid-flight attach
     *  here and receive the same result bytes. */
    std::string key;
    /** Duplicate requests sharing this worker's result. */
    std::vector<Waiter> waiters;
    /** Fork time, for the per-cause worker-time accounting. */
    Clock::time_point spawned;
};

/** @p s as a quoted JSON string: outside text (a client's figure,
 *  a failure cause) can neither break its journal line nor forge
 *  another record. */
std::string
quoted(std::string_view s)
{
    std::string out;
    appendJsonString(&out, s);
    return out;
}

/**
 * Append-only JSONL lifecycle journal (one flushed write per
 * line, so a crash tears at
 * most the final line).
 */
class ServeJournal
{
  public:
    ~ServeJournal()
    {
        if (f_)
            sim::iofault::xfclose(f_);
    }

    void
    open(const std::string &path)
    {
        if (path.empty())
            return;
        f_ = sim::iofault::xfopen(path.c_str(), "wbe");
        if (!f_) {
            degraded_ = true;
            SIM_WARN("serve journal: cannot open '" + path +
                     "'; journaling disabled");
        }
    }

    void
    line(const std::string &json)
    {
        namespace iof = sim::iofault;
        if (!f_)
            return;
        std::string l = json;
        l.push_back('\n');
        if (iof::xfwrite(l.data(), 1, l.size(), f_) != l.size() ||
            iof::xfflush(f_) != 0) {
            iof::xfclose(f_);
            f_ = nullptr;
            degraded_ = true;
            SIM_WARN("serve journal: write failed; "
                     "journaling disabled");
        }
    }

    /** True once journaling was requested but lost (open or write
     *  failure). Surfaced in stats/health so operators see the
     *  audit trail stopped; never true when no journal was asked
     *  for. */
    bool degraded() const { return degraded_; }

  private:
    std::FILE *f_ = nullptr;
    bool degraded_ = false;
};

class ServerImpl
{
  public:
    explicit ServerImpl(const ServerConfig &cfg) : cfg_(cfg)
    {
        if (cfg_.workers == 0)
            cfg_.workers = 1;
    }

    int run();

    ServerStats stats_;

  private:
    void
    log(const std::string &msg)
    {
        if (!cfg_.logToStderr)
            return;
        const std::string line = "melody serve: " + msg + "\n";
        std::fwrite(line.data(), 1, line.size(), stderr);
        std::fflush(stderr);
    }

    int listenUnix();
    int listenTcp();

    void acceptClients(int lfd);
    void pumpSession(int fd);
    void handleRequest(Session *s, const std::string &payload);
    void respond(int clientFd, const std::string &payload);
    void failRequest(int clientFd, std::uint64_t id,
                     const std::string &cause,
                     const std::string &message);
    void closeSession(int fd);
    void dispatch();
    void spawnWorker(const PendingReq &req);
    void pumpWorker(int pipeFd);
    void finishWorker(Worker w);
    void checkWatchdogs();
    void startDrain(const std::string &reason);
    Clock::time_point pollDeadline() const;
    std::string healthJson(std::uint64_t id) const;
    std::string statsJson(std::uint64_t id) const;

    ServerConfig cfg_;
    std::vector<int> listeners_;
    std::map<int, Session> sessions_;
    std::deque<PendingReq> queue_;
    /** Keyed by result-pipe read fd. */
    std::map<int, Worker> workers_;
    ServeJournal journal_;
    std::uint64_t lastId_ = 0;
    bool draining_ = false;
    bool shutdownRequested_ = false;
    bool warnedAcceptFailure_ = false;
    Clock::time_point startTime_;
    Clock::time_point drainDeadline_;
};

int
ServerImpl::listenUnix()
{
    struct sockaddr_un sa;
    std::memset(&sa, 0, sizeof(sa));
    if (cfg_.socketPath.size() >= sizeof(sa.sun_path))
        throw ConfigError("socket path too long: '" +
                          cfg_.socketPath + "'");
    sa.sun_family = AF_UNIX;
    std::memcpy(sa.sun_path, cfg_.socketPath.c_str(),
                cfg_.socketPath.size());
    ::unlink(cfg_.socketPath.c_str());
    const int fd =
        ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throw ConfigError(std::string("cannot create socket: ") +
                          std::strerror(errno));
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&sa),
               sizeof(sa)) != 0 ||
        ::listen(fd, 128) != 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw ConfigError("cannot listen on '" + cfg_.socketPath +
                          "': " + why);
    }
    return fd;
}

int
ServerImpl::listenTcp()
{
    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throw ConfigError(std::string("cannot create TCP socket: ") +
                          std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port =
        htons(static_cast<std::uint16_t>(cfg_.tcpPort));
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&sa),
               sizeof(sa)) != 0 ||
        ::listen(fd, 128) != 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw ConfigError("cannot listen on TCP port " +
                          std::to_string(cfg_.tcpPort) + ": " + why);
    }
    socklen_t len = sizeof(sa);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr *>(&sa),
                      &len) == 0)
        log("TCP listener on 127.0.0.1:" +
            std::to_string(ntohs(sa.sin_port)));
    return fd;
}

void
ServerImpl::acceptClients(int lfd)
{
    for (;;) {
        const int cfd = sim::retryAccept4(
            lfd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (cfd < 0) {
            // EAGAIN: accepted everything pending. Anything else
            // (ECONNABORTED, EMFILE, ...) is per-connection — the
            // daemon must survive it either way, shedding that one
            // client and telling the operator via stats/log.
            if (errno != EAGAIN && errno != EWOULDBLOCK) {
                ++stats_.acceptFailures;
                if (!warnedAcceptFailure_) {
                    warnedAcceptFailure_ = true;
                    log("accept failed (" +
                        sim::iofault::errnoName(errno) +
                        "); shedding connection attempts "
                        "(counted in stats as accept_failures)");
                }
            }
            return;
        }
        if (sessions_.size() >= cfg_.maxSessions) {
            // Explicit refusal; a silent close would look like a
            // daemon crash to the client. The frame is far smaller
            // than a fresh socket's empty send buffer, so it
            // flushes whole despite SOCK_NONBLOCK.
            Session tmp;
            tmp.fd = cfd;
            sessionSend(&tmp,
                        frame(errorResponse(
                            0, "too-many-sessions",
                            "session limit reached; retry later")));
            ::close(cfd);
            continue;
        }
        Session s;
        s.fd = cfd;
        sessions_.emplace(cfd, std::move(s));
        ++stats_.connections;
    }
}

void
ServerImpl::respond(int clientFd, const std::string &payload)
{
    const auto it = sessions_.find(clientFd);
    if (it == sessions_.end())
        return;  // client vanished; caller already accounted it
    if (sessionSend(&it->second, frame(payload)) ==
        SessionIo::kClosed)
        closeSession(clientFd);
}

void
ServerImpl::failRequest(int clientFd, std::uint64_t id,
                        const std::string &cause,
                        const std::string &message)
{
    ++stats_.failed;
    ++stats_.failuresByCause[cause];
    journal_.line("{\"event\":\"done\",\"id\":" +
                  std::to_string(id) +
                  ",\"status\":\"error\",\"cause\":" +
                  quoted(cause) + "}");
    respond(clientFd, errorResponse(id, cause, message));
}

void
ServerImpl::closeSession(int fd)
{
    const auto it = sessions_.find(fd);
    if (it == sessions_.end())
        return;
    // Abandoned work must not occupy queue slots or workers — but
    // coalesced work is shared: a departing waiter is just dropped,
    // and a departing *primary* promotes its first waiter rather
    // than cancelling work someone still wants.
    const auto cancelOne = [&](std::uint64_t id) {
        ++stats_.cancelled;
        journal_.line("{\"event\":\"done\",\"id\":" +
                      std::to_string(id) +
                      ",\"status\":\"cancelled\"}");
    };
    const auto dropWaiters = [&](std::vector<Waiter> *waiters) {
        for (auto wit = waiters->begin();
             wit != waiters->end();) {
            if (wit->clientFd == fd) {
                cancelOne(wit->id);
                wit = waiters->erase(wit);
            } else {
                ++wit;
            }
        }
    };
    for (auto qit = queue_.begin(); qit != queue_.end();) {
        dropWaiters(&qit->waiters);
        if (qit->clientFd == fd) {
            cancelOne(qit->id);
            if (!qit->waiters.empty()) {
                qit->clientFd = qit->waiters.front().clientFd;
                qit->id = qit->waiters.front().id;
                qit->waiters.erase(qit->waiters.begin());
                ++qit;
            } else {
                qit = queue_.erase(qit);
            }
        } else {
            ++qit;
        }
    }
    for (auto &[pipeFd, w] : workers_) {
        dropWaiters(&w.waiters);
        if (w.clientFd == fd && w.proc.forcedCause() != "cancelled") {
            if (!w.waiters.empty()) {
                // Promote: the shared worker keeps running for the
                // surviving duplicates (mid-flight disconnects must
                // not fail them). The departed primary's id is
                // journaled cancelled like any abandonment.
                cancelOne(w.id);
                w.clientFd = w.waiters.front().clientFd;
                w.id = w.waiters.front().id;
                w.waiters.erase(w.waiters.begin());
            } else {
                w.proc.kill("cancelled");
            }
        }
    }
    ::close(fd);
    sessions_.erase(it);
}

void
ServerImpl::handleRequest(Session *s, const std::string &payload)
{
    const std::uint64_t id = ++lastId_;
    Request req;
    std::string cause, message;
    if (!parseRequest(payload, &req, &cause, &message)) {
        // Hostile or malformed input is a *per-request* structured
        // error; the connection (and daemon) keep serving.
        failRequest(s->fd, id, cause, message);
        return;
    }
    if (req.op == "health") {
        respond(s->fd, healthJson(id));
        return;
    }
    if (req.op == "stats") {
        respond(s->fd, statsJson(id));
        return;
    }
    if (req.op == "shutdown") {
        shutdownRequested_ = true;
        respond(s->fd, "{\"status\":\"ok\",\"id\":" +
                           std::to_string(id) +
                           ",\"draining\":true}");
        return;
    }
    // op == "sweep"
    if (draining_) {
        failRequest(s->fd, id, "shutting-down",
                    "daemon is draining; no new work accepted");
        return;
    }
    // Single-flight coalescing: a request identical to one already
    // in flight (or queued) attaches as a waiter and shares its
    // result — checked *before* bounded admission, since a waiter
    // consumes no queue slot and no worker. In-flight workers are
    // preferred so a duplicate of a nearly-done request doesn't
    // jump behind a full queue; workers already condemned (any
    // forced cause, cancellation included) are not joinable.
    const std::string key = req.figure + '\x1f' + req.arg;
    const auto admitCoalesced = [&](std::uint64_t intoId,
                                    std::vector<Waiter> *waiters) {
        ++stats_.admitted;
        ++stats_.coalescedHits;
        journal_.line("{\"event\":\"request\",\"id\":" +
                      std::to_string(id) + ",\"figure\":" +
                      quoted(req.figure) + "}");
        journal_.line("{\"event\":\"coalesced\",\"id\":" +
                      std::to_string(id) + ",\"into\":" +
                      std::to_string(intoId) + "}");
        waiters->push_back({s->fd, id});
    };
    for (auto &[pipeFd, w] : workers_) {
        if (w.key == key && w.proc.forcedCause().empty()) {
            admitCoalesced(w.id, &w.waiters);
            return;
        }
    }
    for (auto &p : queue_) {
        if (p.key == key) {
            admitCoalesced(p.id, &p.waiters);
            return;
        }
    }
    if (queue_.size() >= cfg_.queueDepth) {
        // Bounded admission: explicit backpressure, never a silent
        // drop. The client owns the retry.
        ++stats_.rejected;
        journal_.line("{\"event\":\"done\",\"id\":" +
                      std::to_string(id) +
                      ",\"status\":\"busy\"}");
        respond(s->fd, busyResponse(id, cfg_.retryAfterMs));
        return;
    }
    ++stats_.admitted;
    journal_.line("{\"event\":\"request\",\"id\":" +
                  std::to_string(id) + ",\"figure\":" +
                  quoted(req.figure) + "}");
    PendingReq p;
    p.id = id;
    p.clientFd = s->fd;
    p.job.figure = req.figure;
    p.job.arg = req.arg;
    p.key = key;
    p.admitted = Clock::now();
    queue_.push_back(std::move(p));
}

void
ServerImpl::pumpSession(int fd)
{
    const auto it = sessions_.find(fd);
    if (it == sessions_.end())
        return;
    Session &s = it->second;
    if (sessionRead(&s) == SessionIo::kClosed) {
        closeSession(fd);
        return;
    }
    if (s.closeWhenFlushed)
        return;  // stream already condemned; ignore further input
    for (;;) {
        std::string payload;
        const FrameStatus st = takeFrame(&s.in, &payload);
        if (st == FrameStatus::kNeedMore)
            return;
        if (st == FrameStatus::kFrame) {
            handleRequest(&s, payload);
            if (sessions_.find(fd) == sessions_.end())
                return;  // request handling closed the session
            continue;
        }
        // kBadHeader / kTooLarge: the byte stream is beyond
        // recovery (framing lost), so answer once and hang up —
        // but only this client; the daemon keeps serving.
        const bool tooLarge = st == FrameStatus::kTooLarge;
        failRequest(fd, ++lastId_,
                    tooLarge ? "frame-too-large" : "bad-frame",
                    tooLarge ? "declared frame length exceeds limit"
                             : "malformed length header");
        if (sessions_.find(fd) == sessions_.end())
            return;
        s.in.clear();
        s.closeWhenFlushed = true;
        return;
    }
}

void
ServerImpl::dispatch()
{
    while (!draining_ && !queue_.empty() &&
           workers_.size() < cfg_.workers) {
        const PendingReq req = queue_.front();
        queue_.pop_front();
        spawnWorker(req);
    }
}

void
ServerImpl::spawnWorker(const PendingReq &req)
{
    // The child shares none of the parent's sockets or pipes.
    std::vector<int> parentFds = listeners_;
    for (const auto &[fd, s] : sessions_)
        parentFds.push_back(fd);
    for (const auto &[pipeFd, w] : workers_)
        parentFds.push_back(pipeFd);
    Worker w;
    const std::string failed = w.proc.spawn(
        [&] {
            const SweepResult r = cfg_.runner(req.job);
            if (r.ok)
                return std::vector<std::string>{
                    "ok", r.output, std::to_string(r.cacheHits),
                    std::to_string(r.cacheStores)};
            return std::vector<std::string>{
                "err", r.cause.empty() ? "runner-error" : r.cause,
                r.output};
        },
        parentFds, cfg_.timeoutMs);
    if (!failed.empty()) {
        // A spawn failure fails everyone riding the request — each
        // admitted id gets exactly one reply, coalesced or not.
        const std::string message =
            "could not start a worker; daemon unaffected";
        failRequest(req.clientFd, req.id, failed, message);
        for (const Waiter &wt : req.waiters)
            failRequest(wt.clientFd, wt.id, failed, message);
        return;
    }
    ++stats_.forked;
    // Bounded queue-wait sample window: enough for percentiles,
    // never unbounded memory on a long-lived daemon.
    if (stats_.queueWaitMsSamples.size() >= 4096)
        stats_.queueWaitMsSamples.erase(
            stats_.queueWaitMsSamples.begin());
    stats_.queueWaitMsSamples.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  req.admitted)
            .count());
    w.clientFd = req.clientFd;
    w.id = req.id;
    w.key = req.key;
    w.waiters = req.waiters;
    w.spawned = Clock::now();
    workers_.emplace(w.proc.fd(), std::move(w));
}

void
ServerImpl::pumpWorker(int pipeFd)
{
    const auto it = workers_.find(pipeFd);
    if (it == workers_.end() || !it->second.proc.pump())
        return;  // more to come
    Worker done = std::move(it->second);
    workers_.erase(it);
    finishWorker(std::move(done));
}

void
ServerImpl::finishWorker(Worker w)
{
    const sim::WorkerOutcome out = w.proc.reap();
    const double workerMs =
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  w.spawned)
            .count();
    const auto chargeCause = [&](const std::string &cause) {
        auto &ct = stats_.workerMsByCause[cause];
        ++ct.count;
        ct.totalMs += workerMs;
    };

    if (w.proc.forcedCause() == "cancelled") {
        // Invariant: a cancelled worker has no waiters (the primary
        // is only cancelled when nobody was left to promote).
        ++stats_.cancelled;
        chargeCause("cancelled");
        journal_.line("{\"event\":\"done\",\"id\":" +
                      std::to_string(w.id) +
                      ",\"status\":\"cancelled\"}");
        return;
    }

    const std::vector<std::string> &rows = out.rows;
    if (out.ok() && rows.size() >= 2 && rows[0] == "ok") {
        if (rows.size() >= 4) {
            stats_.cacheHits += std::strtoull(rows[2].c_str(),
                                              nullptr, 10);
            stats_.cacheStores += std::strtoull(rows[3].c_str(),
                                                nullptr, 10);
        }
        chargeCause("ok");
        // Fan the one result out to the primary and every
        // coalesced waiter: identical bytes, each under its own
        // request id, each counted as its own completion.
        const auto deliver = [&](int clientFd, std::uint64_t id) {
            ++stats_.completed;
            journal_.line("{\"event\":\"done\",\"id\":" +
                          std::to_string(id) +
                          ",\"status\":\"ok\"}");
            respond(clientFd, okResponse(id, rows[1]));
        };
        deliver(w.clientFd, w.id);
        for (const Waiter &wt : w.waiters)
            deliver(wt.clientFd, wt.id);
        return;
    }

    // The cause is the worker ladder's (sim/worker.hh) unless the
    // runner reported its own error rows; serve adds the message.
    using Kind = sim::WorkerOutcome::Kind;
    std::string cause = out.cause;
    std::string message = "worker produced a torn result payload";
    if (out.ok() && rows.size() >= 2 && rows[0] == "err") {
        cause = rows[1];
        message = rows.size() > 2 ? rows[2] : "";
    } else if (out.ok()) {
        cause = "protocol-error";
    } else if (out.kind == Kind::kForced) {
        message = "request exceeded its wall-clock budget";
    } else if (out.kind == Kind::kSignal) {
        message = "worker killed by " + cause + "; daemon unaffected";
    } else if (out.kind == Kind::kException) {
        message = "worker threw; daemon unaffected";
    } else if (out.kind == Kind::kExitCode) {
        message = "worker exited abnormally";
    }
    chargeCause(cause);
    failRequest(w.clientFd, w.id, cause, message);
    for (const Waiter &wt : w.waiters)
        failRequest(wt.clientFd, wt.id, cause, message);
}

void
ServerImpl::checkWatchdogs()
{
    const auto now = Clock::now();
    const bool drainExpired = draining_ && now >= drainDeadline_;
    for (auto &[pipeFd, w] : workers_) {
        if (!w.proc.forcedCause().empty())
            continue;  // already killed (watchdog, drain, cancel)
        if (now >= w.proc.deadline())
            w.proc.kill("watchdog-timeout");
        else if (drainExpired)
            w.proc.kill("drain-timeout");
    }
}

void
ServerImpl::startDrain(const std::string &reason)
{
    draining_ = true;
    drainDeadline_ =
        Clock::now() + std::chrono::milliseconds(cfg_.drainTimeoutMs);
    for (const int lfd : listeners_)
        ::close(lfd);
    listeners_.clear();
    log("draining (" + reason + "): " +
        std::to_string(workers_.size()) + " in flight, " +
        std::to_string(queue_.size()) + " queued");
    journal_.line("{\"event\":\"drain\",\"reason\":" +
                  quoted(reason) + "}");
    // Queued-but-unstarted work is failed *explicitly*: every
    // admitted request gets exactly one reply, drain included.
    std::deque<PendingReq> cut;
    cut.swap(queue_);
    for (const auto &r : cut) {
        failRequest(r.clientFd, r.id, "shutting-down",
                    "daemon is draining; request not started");
        for (const Waiter &wt : r.waiters)
            failRequest(wt.clientFd, wt.id, "shutting-down",
                        "daemon is draining; request not started");
    }
}

Clock::time_point
ServerImpl::pollDeadline() const
{
    // Earliest timer the loop must act on: armed worker watchdogs
    // (kill() disarms one) and the drain budget until it has fired
    // on every worker. Once it has, only pipe EOFs remain — an
    // expired timer here would spin poll at zero timeout until the
    // reap. retryPollDeadline does the ms arithmetic (and
    // EINTR-restart budget recomputation) from this.
    Clock::time_point next = Clock::time_point::max();
    bool unkilled = false;
    for (const auto &[pipeFd, w] : workers_) {
        next = std::min(next, w.proc.deadline());
        unkilled = unkilled || w.proc.forcedCause().empty();
    }
    if (draining_ && (unkilled || Clock::now() < drainDeadline_))
        next = std::min(next, drainDeadline_);
    return next;
}

std::string
ServerImpl::healthJson(std::uint64_t id) const
{
    const auto up =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - startTime_)
            .count();
    std::string out = "{\"status\":\"ok\",\"id\":";
    out += std::to_string(id);
    out += ",\"health\":{\"uptime_ms\":";
    out += std::to_string(up);
    out += ",\"queue_depth\":";
    out += std::to_string(queue_.size());
    out += ",\"queue_capacity\":";
    out += std::to_string(cfg_.queueDepth);
    out += ",\"workers_active\":";
    out += std::to_string(workers_.size());
    out += ",\"workers_max\":";
    out += std::to_string(cfg_.workers);
    out += ",\"sessions\":";
    out += std::to_string(sessions_.size());
    out += ",\"draining\":";
    out += draining_ ? "true" : "false";
    out += ",\"journal_degraded\":";
    out += journal_.degraded() ? "true" : "false";
    out += "}}";
    return out;
}

std::string
ServerImpl::statsJson(std::uint64_t id) const
{
    const std::uint64_t looked =
        stats_.cacheHits + stats_.cacheStores;
    std::string out = "{\"status\":\"ok\",\"id\":";
    out += std::to_string(id);
    out += ",\"stats\":{\"connections\":";
    out += std::to_string(stats_.connections);
    out += ",\"admitted\":";
    out += std::to_string(stats_.admitted);
    out += ",\"completed\":";
    out += std::to_string(stats_.completed);
    out += ",\"failed\":";
    out += std::to_string(stats_.failed);
    out += ",\"rejected\":";
    out += std::to_string(stats_.rejected);
    out += ",\"cancelled\":";
    out += std::to_string(stats_.cancelled);
    out += ",\"coalesced_hits\":";
    out += std::to_string(stats_.coalescedHits);
    out += ",\"forked\":";
    out += std::to_string(stats_.forked);
    out += ",\"accept_failures\":";
    out += std::to_string(stats_.acceptFailures);
    out += ",\"journal_degraded\":";
    out += journal_.degraded() ? "true" : "false";
    out += ",\"queue_depth\":";
    out += std::to_string(queue_.size());
    out += ",\"workers_active\":";
    out += std::to_string(workers_.size());
    out += ",\"cache_hits\":";
    out += std::to_string(stats_.cacheHits);
    out += ",\"cache_stores\":";
    out += std::to_string(stats_.cacheStores);
    out += ",\"cache_hit_rate\":";
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.4f",
                  looked ? static_cast<double>(stats_.cacheHits) /
                               static_cast<double>(looked)
                         : 0.0);
    out += rate;
    // Queue-wait percentiles over the bounded sample window.
    // nth_element on a scratch copy: the live sample order is the
    // arrival order and must stay that way for the window bound.
    out += ",\"queue_wait_ms\":{\"count\":";
    out += std::to_string(stats_.queueWaitMsSamples.size());
    std::vector<double> scratch = stats_.queueWaitMsSamples;
    const auto pct = [&](double p) {
        if (scratch.empty())
            return 0.0;
        const std::size_t k = static_cast<std::size_t>(
            p * static_cast<double>(scratch.size() - 1));
        std::nth_element(scratch.begin(), scratch.begin() + k,
                         scratch.end());
        return scratch[k];
    };
    char num[32];
    std::snprintf(num, sizeof(num), ",\"p50\":%.2f", pct(0.50));
    out += num;
    std::snprintf(num, sizeof(num), ",\"p90\":%.2f", pct(0.90));
    out += num;
    std::snprintf(num, sizeof(num), ",\"p99\":%.2f", pct(0.99));
    out += num;
    out += "}";
    out += ",\"worker_ms_by_cause\":{";
    bool firstCause = true;
    for (const auto &[cause, ct] : stats_.workerMsByCause) {
        if (!firstCause)
            out += ",";
        firstCause = false;
        appendJsonString(&out, cause);
        out += ":{\"count\":";
        out += std::to_string(ct.count);
        std::snprintf(num, sizeof(num), ",\"total_ms\":%.2f",
                      ct.totalMs);
        out += num;
        out += "}";
    }
    out += "}";
    out += ",\"failures_by_cause\":{";
    bool first = true;
    for (const auto &[cause, n] : stats_.failuresByCause) {
        if (!first)
            out += ",";
        first = false;
        appendJsonString(&out, cause);
        out += ":";
        out += std::to_string(n);
    }
    out += "}}}";
    return out;
}

int
ServerImpl::run()
{
    if (!cfg_.runner)
        throw ConfigError("serve: no runner configured");
    if (cfg_.socketPath.empty())
        throw ConfigError("serve: socket path required");

    startTime_ = Clock::now();
    listeners_.push_back(listenUnix());
    if (cfg_.tcpPort >= 0)
        listeners_.push_back(listenTcp());
    journal_.open(cfg_.journalPath);
    journal_.line("{\"event\":\"serve\",\"socket\":" +
                  quoted(cfg_.socketPath) + ",\"workers\":" +
                  std::to_string(cfg_.workers) +
                  ",\"queue_depth\":" +
                  std::to_string(cfg_.queueDepth) + "}");

    ::signal(SIGPIPE, SIG_IGN);
    sim::installInterruptHandlers();
    log("listening on " + cfg_.socketPath);

    for (;;) {
        if (!draining_ &&
            (sim::interruptRequested() || shutdownRequested_))
            startDrain(sim::interruptRequested()
                           ? "signal"
                           : "shutdown-request");

        if (draining_ && workers_.empty() && queue_.empty()) {
            // In-flight work is done; give client buffers until
            // the drain deadline to flush, then leave regardless.
            bool flushed = true;
            for (const auto &[fd, s] : sessions_)
                if (!s.out.empty())
                    flushed = false;
            if (flushed || Clock::now() >= drainDeadline_)
                break;
        }

        dispatch();

        // Poll set: [listeners][wake][workers][sessions]. Parallel
        // fd vectors keep handling robust against map mutation.
        std::vector<struct pollfd> pfds;
        pfds.reserve(listeners_.size() + 1 + workers_.size() +
                     sessions_.size());
        for (const int lfd : listeners_)
            pfds.push_back({lfd, POLLIN, 0});
        const std::size_t nListeners = listeners_.size();
        const int wakeFd = sim::interruptWakeFd();
        const bool haveWake = wakeFd >= 0 && !draining_;
        if (haveWake)
            pfds.push_back({wakeFd, POLLIN, 0});
        std::vector<int> workerFds;
        workerFds.reserve(workers_.size());
        for (const auto &[pipeFd, w] : workers_) {
            workerFds.push_back(pipeFd);
            pfds.push_back({pipeFd, POLLIN, 0});
        }
        std::vector<int> sessionFds;
        sessionFds.reserve(sessions_.size());
        for (const auto &[fd, s] : sessions_) {
            sessionFds.push_back(fd);
            short ev = POLLIN;
            if (!s.out.empty())
                ev |= POLLOUT;
            pfds.push_back({fd, ev, 0});
        }

        const int rc = sim::retryPollDeadline(
            pfds.data(), static_cast<nfds_t>(pfds.size()),
            pollDeadline());
        if (rc < 0)
            SIM_PANIC(std::string("serve: poll failed: ") +
                      std::strerror(errno));

        checkWatchdogs();

        std::size_t idx = 0;
        for (; idx < nListeners; ++idx)
            if (pfds[idx].revents & POLLIN)
                acceptClients(pfds[idx].fd);
        if (haveWake) {
            if (pfds[idx].revents & POLLIN)
                sim::drainInterruptWake();
            ++idx;
        }
        for (std::size_t k = 0; k < workerFds.size(); ++k, ++idx)
            if (pfds[idx].revents & (POLLIN | POLLHUP | POLLERR))
                pumpWorker(workerFds[k]);
        for (std::size_t k = 0; k < sessionFds.size();
             ++k, ++idx) {
            const int fd = sessionFds[k];
            const short re = pfds[idx].revents;
            if (re == 0)
                continue;
            if (sessions_.find(fd) == sessions_.end())
                continue;  // closed earlier this turn
            if (re & (POLLIN | POLLHUP | POLLERR)) {
                pumpSession(fd);
                if (sessions_.find(fd) == sessions_.end())
                    continue;
            }
            if (re & POLLOUT) {
                Session &s = sessions_.at(fd);
                if (sessionFlush(&s) == SessionIo::kClosed) {
                    closeSession(fd);
                    continue;
                }
            }
            Session &s = sessions_.at(fd);
            if (s.closeWhenFlushed && s.out.empty())
                closeSession(fd);
        }
    }

    // Drained: every admitted request was answered or journaled.
    for (const int lfd : listeners_)
        ::close(lfd);
    std::vector<int> left;
    for (const auto &[fd, s] : sessions_)
        left.push_back(fd);
    for (const int fd : left)
        closeSession(fd);
    ::unlink(cfg_.socketPath.c_str());
    // New fields go AFTER "ok":true — consumers grep the literal
    // prefix '"event":"drained","ok":true'.
    journal_.line("{\"event\":\"drained\",\"ok\":true"
                  ",\"coalesced_hits\":" +
                  std::to_string(stats_.coalescedHits) +
                  ",\"forked\":" + std::to_string(stats_.forked) +
                  "}");
    log("drained cleanly; exiting");
    sim::resetInterruptHandlers();
    return 0;
}

}  // namespace

int
runServer(const ServerConfig &cfg, ServerStats *statsOut)
{
    ServerImpl impl(cfg);
    const int rc = impl.run();
    if (statsOut)
        *statsOut = impl.stats_;
    return rc;
}

}  // namespace cxlsim::serve
