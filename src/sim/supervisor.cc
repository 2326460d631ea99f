#include "supervisor.hh"

#include <poll.h>

#include <algorithm>
#include <deque>
#include <thread>
#include <utility>

#include "sim/interrupt.hh"
#include "sim/logging.hh"
#include "sim/retry_io.hh"
#include "sim/sweep.hh"
#include "sim/worker.hh"

namespace cxlsim::sweep {

namespace {

/** One in-flight worker and the attempt it runs. */
struct InFlight
{
    sim::ForkWorker proc;
    std::size_t taskPos = 0;
    unsigned attempt = 1;
};

/**
 * Worker body: compute one point. Rows: the encoded slots, then
 * three (invariant, where, values) rows per recorded invariant
 * violation.
 */
std::vector<std::string>
pointRows(const SupervisorTask &task, bool checkInvariants)
{
    sim::Invariants inv;
    std::vector<Emit> slots(task.nSlots);
    {
        sim::InvariantScope scope(checkInvariants ? &inv : nullptr);
        (*task.fn)(slots.data());
    }
    std::vector<std::string> rows;
    for (auto &s : slots)
        rows.push_back(s.take());
    for (const auto &v : inv.violations())
        rows.insert(rows.end(), {v.invariant, v.where, v.values});
    if (inv.dropped())
        rows.insert(rows.end(),
                    {"invariants/dropped", "Invariants",
                     "dropped=" + std::to_string(inv.dropped())});
    return rows;
}

}  // namespace

SupervisorReport
runSupervised(const std::vector<SupervisorTask> &tasks,
              const SupervisorConfig &cfg,
              const SupervisorOnSuccess &onSuccess)
{
    SupervisorReport report;
    if (tasks.empty())
        return report;

    unsigned jobs = cfg.jobs;
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    jobs = static_cast<unsigned>(std::min<std::size_t>(
        jobs, tasks.size()));
    const unsigned maxAttempts = std::max(1u, cfg.maxAttempts);

    // (taskPos, attempt) work queue; retries re-enter at the back.
    std::deque<std::pair<std::size_t, unsigned>> queue;
    for (std::size_t i = 0; i < tasks.size(); ++i)
        queue.emplace_back(i, 1u);

    std::vector<InFlight> inflight;
    inflight.reserve(jobs);

    auto handleFailure = [&](std::size_t pos, unsigned attempt,
                             const std::string &cause) {
        // An interrupted run refuses retries: the budget exists to
        // ride out transient faults, not to keep the parent alive
        // after the user asked it to stop.
        if (attempt >= maxAttempts || sim::interruptRequested()) {
            report.failures.push_back(
                {tasks[pos].index, attempt, cause});
        } else {
            ++report.retries;
            queue.emplace_back(pos, attempt + 1);
        }
    };

    auto spawn = [&](std::size_t pos, unsigned attempt) {
        const SupervisorTask &task = tasks[pos];
        // The child drops its inherited read ends of sibling pipes.
        std::vector<int> siblings;
        for (const InFlight &c : inflight)
            siblings.push_back(c.proc.fd());
        InFlight c{{}, pos, attempt};
        const std::string failed = c.proc.spawn(
            [&] { return pointRows(task, cfg.checkInvariants); },
            siblings, cfg.timeoutMs);
        if (!failed.empty()) {
            // Resource exhaustion (pipe-failed: EMFILE, fork-failed:
            // EAGAIN) is a *point* failure with a retry budget, not
            // a sweep abort: by the retry the pressure may have
            // drained.
            handleFailure(pos, attempt, failed);
            return;
        }
        inflight.push_back(std::move(c));
        ++report.launched;
    };

    // Graceful interruption (SIGINT/SIGTERM with the CLI's
    // handlers installed), in two stages. First signal: stop
    // dispatching and fail every queued point with the distinct
    // cause "interrupted" (final, so the failure table names what
    // was cut), but let in-flight workers finish — their results
    // reach the run cache, so a rerun skips them.
    // Second signal: the user is done waiting (a hung point would
    // otherwise pin the drain forever without --timeout-ms), so
    // SIGKILL in-flight workers too with the forced cause
    // "interrupted", not an anonymous signal death.
    bool inflightKilled = false;
    auto onInterrupt = [&] {
        if (!sim::interruptRequested())
            return;
        sim::drainInterruptWake();
        if (!queue.empty()) {
            std::deque<std::pair<std::size_t, unsigned>> cut;
            cut.swap(queue);
            for (const auto &[pos, attempt] : cut)
                handleFailure(pos, attempt, "interrupted");
        }
        if (sim::interruptCount() >= 2 && !inflightKilled) {
            inflightKilled = true;
            for (InFlight &c : inflight)
                c.proc.kill("interrupted");
        }
    };

    while (!queue.empty() || !inflight.empty()) {
        onInterrupt();
        while (inflight.size() < jobs && !queue.empty()) {
            const auto [pos, attempt] = queue.front();
            queue.pop_front();
            spawn(pos, attempt);
        }
        if (inflight.empty())
            continue;  // every spawn failed outright; drain queue

        std::vector<pollfd> pfds;
        pfds.reserve(inflight.size() + 1);
        auto next = sim::ForkWorker::Clock::time_point::max();
        for (const InFlight &c : inflight) {
            pfds.push_back({c.proc.fd(), POLLIN, 0});
            next = std::min(next, c.proc.deadline());
        }
        // The interrupt self-pipe wakes a poll blocked on healthy
        // long-running workers the moment a signal lands. Polled
        // until the second signal has been acted on — after that
        // no further signal changes any decision. No busy-spin:
        // onInterrupt() drains the pipe whenever the flag is set,
        // so a level-triggered POLLIN only fires on a fresh
        // signal.
        const int wakeFd = sim::interruptWakeFd();
        if (wakeFd >= 0 && !inflightKilled)
            pfds.push_back({wakeFd, POLLIN, 0});

        const int rc = sim::retryPollDeadline(pfds.data(),
                                              pfds.size(), next);
        if (rc < 0)
            SIM_PANIC("supervisor: poll() failed");

        // Fire expired watchdogs (SIGKILL; the pipe EOF that
        // follows reaps and classifies the child).
        const auto now = sim::ForkWorker::Clock::now();
        for (InFlight &c : inflight)
            if (now >= c.proc.deadline())
                c.proc.kill("watchdog-timeout");

        // Drain readable pipes; EOF means the worker is done. The
        // optional wake-fd entry sits past the inflight range and
        // is not a worker pipe — iterate workers only.
        for (std::size_t i = 0; i < inflight.size();) {
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) ||
                !inflight[i].proc.pump()) {
                ++i;
                continue;
            }
            sim::WorkerOutcome out = inflight[i].proc.reap();
            const std::size_t pos = inflight[i].taskPos;
            const unsigned attempt = inflight[i].attempt;
            inflight.erase(inflight.begin() +
                           static_cast<std::ptrdiff_t>(i));
            pfds.erase(pfds.begin() +
                       static_cast<std::ptrdiff_t>(i));
            if (!out.ok() || out.rows.size() < tasks[pos].nSlots) {
                handleFailure(pos, attempt,
                              out.ok() ? "protocol-error" : out.cause);
                continue;
            }
            std::vector<sim::InvariantViolation> violations;
            const std::vector<std::string> &r = out.rows;
            for (std::size_t k = tasks[pos].nSlots; k + 3 <= r.size();
                 k += 3)
                violations.push_back({r[k], r[k + 1], r[k + 2]});
            out.rows.resize(tasks[pos].nSlots);
            if (onSuccess)
                onSuccess(tasks[pos].index, std::move(out.rows),
                          std::move(violations));
        }
    }

    std::sort(report.failures.begin(), report.failures.end(),
              [](const SupervisedFailure &a,
                 const SupervisedFailure &b) {
                  return a.index < b.index;
              });
    return report;
}

}  // namespace cxlsim::sweep
