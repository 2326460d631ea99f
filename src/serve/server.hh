/**
 * @file
 * `melody serve` — a crash-tolerant simulation-as-a-service daemon
 * (DESIGN.md §12).
 *
 * The daemon accepts figure/sweep requests over a Unix-domain (and
 * optionally loopback-TCP) socket, executes each on a forked
 * worker subprocess, and shares one content-addressed run cache
 * across every client. The robustness contract, in order of
 * importance:
 *
 *  - **Crash containment**: a SIGSEGV/SIGABRT/OOM-kill inside one
 *    request kills only that request's worker; the client gets a
 *    structured error ("SIGSEGV", "exit-code N", ...) and the
 *    daemon keeps serving everyone else. Workers are forked,
 *    killed, reaped and classified by sim/worker.hh, the same
 *    primitive (and cause ladder) the sweep supervisor uses; a
 *    failed spawn is "pipe-failed: EMFILE" / "fork-failed: EAGAIN".
 *  - **Bounded admission**: at most `queueDepth` requests wait
 *    beyond the `workers` in flight. Requests over the bound get
 *    an explicit `busy` reply with `retry_after_ms` — never a
 *    silent drop, never unbounded memory.
 *  - **Single-flight coalescing**: identical requests (same
 *    figure + arg — simulation output is deterministic, so same
 *    key means same bytes) share ONE forked worker: later
 *    arrivals attach as waiters to the queued entry or in-flight
 *    worker and every attached client receives the same result
 *    under its own request id. A waiter disconnecting never kills
 *    the shared worker, and the primary disconnecting promotes a
 *    waiter instead of cancelling the work.
 *  - **Watchdog**: each request has a wall-clock budget
 *    (`timeoutMs`); an expired worker is SIGKILLed and its client
 *    told "watchdog-timeout".
 *  - **Cancellation**: a client that disconnects mid-request gets
 *    its queued entries discarded and its in-flight worker
 *    SIGKILLed and reaped — abandoned work never occupies a slot.
 *  - **Graceful drain**: SIGTERM/SIGINT (or a "shutdown" request)
 *    stops accepting, fails queued requests with "shutting-down",
 *    lets in-flight workers finish within `drainTimeoutMs`,
 *    flushes every client buffer, journals the drain, and exits 0.
 *
 * The server itself is strictly single-threaded: one poll(2) loop
 * multiplexes listeners, client sockets, worker result pipes and
 * the signal wake pipe. All syscalls ride the blessed EINTR
 * wrappers (src/sim/retry_io.hh, lint rule srv-eintr-retry).
 */

#ifndef CXLSIM_SERVE_SERVER_HH
#define CXLSIM_SERVE_SERVER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/protocol.hh"

namespace cxlsim::serve {

/** Daemon configuration (CLI flags map 1:1 onto these). */
struct ServerConfig
{
    /** Unix-domain socket path (required). */
    std::string socketPath;
    /** Loopback TCP port; -1 disables, 0 picks an ephemeral one. */
    int tcpPort = -1;
    /** Max concurrent forked workers (>= 1). */
    unsigned workers = 2;
    /** Max requests waiting beyond the in-flight set. */
    unsigned queueDepth = 16;
    /** Per-request wall-clock watchdog in ms; 0 disables it. */
    unsigned timeoutMs = 0;
    /** Hint returned in `busy` replies. */
    unsigned retryAfterMs = 200;
    /** Budget for in-flight workers after a drain begins. */
    unsigned drainTimeoutMs = 10000;
    /** Max simultaneously connected clients. */
    unsigned maxSessions = 64;
    /** Serve journal (JSONL) path; empty disables journaling. */
    std::string journalPath;
    /** Executes sweep jobs (inside the forked worker). */
    Runner runner;
    /** Emit lifecycle lines on stderr. */
    bool logToStderr = true;
};

/** Daemon counters (also exposed via the "stats" request). */
struct ServerStats
{
    std::uint64_t connections = 0;
    /** Sweep requests admitted to queue or a worker. */
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    /** Structured error responses (any cause). */
    std::uint64_t failed = 0;
    /** `busy` backpressure replies. */
    std::uint64_t rejected = 0;
    /** Requests abandoned because their client disconnected. */
    std::uint64_t cancelled = 0;
    /**
     * Admitted requests satisfied by attaching to an identical
     * queued or in-flight request instead of forking their own
     * worker (single-flight coalescing: same figure+arg ⇒ same
     * bytes, so one worker answers everyone).
     */
    std::uint64_t coalescedHits = 0;
    /** Worker processes actually forked. */
    std::uint64_t forked = 0;
    /** accept(2) failures other than EAGAIN (fd exhaustion,
     *  aborted handshakes); each costs one connection attempt,
     *  never the daemon. */
    std::uint64_t acceptFailures = 0;
    /** Run-cache counters aggregated over worker reports. */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheStores = 0;
    /** Per-cause failure counts (ordered: deterministic emit). */
    std::map<std::string, std::uint64_t> failuresByCause;
    /**
     * Admission-to-spawn queue wait of each forked request, in ms
     * (bounded sample window; coalesced waiters inherit their
     * primary's wait and are not sampled separately).
     */
    std::vector<double> queueWaitMsSamples;
    /** Wall-clock spent in workers, split by outcome cause ("ok",
     *  "SIGSEGV", "watchdog-timeout", ...). */
    struct CauseTime
    {
        std::uint64_t count = 0;
        double totalMs = 0.0;
    };
    std::map<std::string, CauseTime> workerMsByCause;
};

/**
 * Run the daemon until a drain completes. Returns the process
 * exit code: 0 after a graceful drain (including one triggered by
 * SIGTERM/SIGINT), nonzero only for setup errors. Throws
 * ConfigError for invalid configuration (bad socket path etc.).
 *
 * Installs SIGINT/SIGTERM handlers via sim::installInterruptHandlers
 * and ignores SIGPIPE for the calling process.
 */
int runServer(const ServerConfig &cfg, ServerStats *statsOut = nullptr);

}  // namespace cxlsim::serve

#endif  // CXLSIM_SERVE_SERVER_HH
