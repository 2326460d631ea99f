/**
 * @file
 * One fork-worker primitive for both places Melody-Sim runs work in
 * a child process: crash-isolated sweeps (sim/supervisor.cc, DESIGN
 * §10) and the `melody serve` daemon (serve/server.cc, §12). They
 * keep only their policy; forking, reading, killing, reaping and
 * classifying live here.
 *
 * The child resets SIGINT/SIGTERM, ignores SIGPIPE, closes the fds
 * the caller lists, runs the caller's body, writes its rows up a
 * pipe as one stats::encodeRows payload and _exit(0)s; a throw
 * becomes "exception: <what>". The parent pump()s the pipe until
 * EOF, may kill() the child with a forced cause, and reap()s it into
 * an outcome decided by one ladder:
 *
 *  1. a complete payload wins (a worker that finished before a kill
 *     landed keeps its result);
 *  2. else the latest forced cause ("watchdog-timeout",
 *     "drain-timeout", "interrupted", "cancelled");
 *  3. else the signal ("SIGSEGV", ..., "signal N"), "exit-code N",
 *     then "protocol-error".
 *
 * Spawn failures are causes too: "pipe-failed: EMFILE",
 * "fork-failed: EAGAIN". Deadlines are steady_clock durations: they
 * decide *whether* a worker is hung, never what it computes.
 */

#ifndef CXLSIM_SIM_WORKER_HH
#define CXLSIM_SIM_WORKER_HH

#include <sys/types.h>

#include <chrono>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace cxlsim::sim {

/** How a reaped worker ended; kinds in ladder order. */
struct WorkerOutcome
{
    enum class Kind { kOk, kException, kForced, kSignal, kExitCode,
                      kProtocolError };
    Kind kind = Kind::kProtocolError;
    /** Structured cause; empty for kOk. */
    std::string cause;
    /** The body's rows (kOk only). */
    std::vector<std::string> rows;

    bool ok() const { return kind == Kind::kOk; }
};

/** One forked child, from spawn() to reap(). */
class ForkWorker
{
  public:
    using Clock = std::chrono::steady_clock;
    /** Runs in the child; its rows become the payload. */
    using Body = std::function<std::vector<std::string>()>;

    ForkWorker() = default;
    /** Moves hand the child over (assignment swaps), so each child
     *  has exactly one owner. */
    ForkWorker(ForkWorker &&o) noexcept { *this = std::move(o); }
    ForkWorker &operator=(ForkWorker &&o) noexcept;
    /** Kills and reaps a child that was never reaped. */
    ~ForkWorker();

    /**
     * Fork a child that closes @p closeInChild and runs @p body.
     * @p timeoutMs > 0 arms a watchdog deadline (see deadline()).
     * @return "" once the child runs, else the spawn-failure cause.
     */
    std::string spawn(const Body &body,
                      const std::vector<int> &closeInChild,
                      unsigned timeoutMs);

    /** Read end of the result pipe; poll it for POLLIN. */
    int fd() const { return fd_; }

    /** Take the payload bytes that are ready without blocking;
     *  true once the pipe is at EOF and the child can be reaped. */
    bool pump();

    /** SIGKILL the child with @p cause (a later kill's cause
     *  replaces an earlier one) and disarm the deadline. */
    void kill(const std::string &cause);

    /** Latest forced cause; empty until kill(). */
    const std::string &forcedCause() const { return forced_; }

    /** Armed watchdog deadline; time_point::max() when none is
     *  armed (no timeout, or disarmed by kill()). */
    Clock::time_point deadline() const { return deadline_; }

    /** Close the pipe, wait for the child and classify it. */
    WorkerOutcome reap();

  private:
    pid_t pid_ = -1;
    int fd_ = -1;
    Clock::time_point deadline_ = Clock::time_point::max();
    std::string forced_;
    std::string payload_;
};

}  // namespace cxlsim::sim

#endif  // CXLSIM_SIM_WORKER_HH
