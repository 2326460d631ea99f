#include "worker.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <exception>
#include <utility>

#include "sim/interrupt.hh"
#include "sim/io_fault.hh"
#include "sim/retry_io.hh"
#include "stats/rows.hh"

namespace cxlsim::sim {

namespace {

std::string
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV: return "SIGSEGV";
      case SIGABRT: return "SIGABRT";
      case SIGBUS: return "SIGBUS";
      case SIGFPE: return "SIGFPE";
      case SIGILL: return "SIGILL";
      case SIGKILL: return "SIGKILL";
      case SIGTERM: return "SIGTERM";
      default: return "signal " + std::to_string(sig);
    }
}

/** Child side: run @p body, write ["ok", rows...] or ["ex", what]
 *  up @p wfd and _exit: no atexit handlers, no second flush of the
 *  parent's inherited stdio buffers. */
[[noreturn]] void
runChild(const ForkWorker::Body &body,
         const std::vector<int> &closeInChild, int wfd)
{
    // A terminal Ctrl-C signals the whole process group. A parent
    // with the interrupt handlers installed winds down on it: it
    // lets the point in flight finish and reach the cache, and
    // SIGKILLs it on a second signal or its watchdog. So the child
    // ignores SIGINT then; otherwise SIGINT, like SIGTERM, is
    // default and the child dies with its parent. The shared wake
    // pipe closes first: the reset drains it, and its bytes belong
    // to the parent.
    struct sigaction inherited = {};
    ::sigaction(SIGINT, nullptr, &inherited);
    const bool parentWindsDown = inherited.sa_handler != SIG_DFL &&
                                 inherited.sa_handler != SIG_IGN;
    if (interruptWakeFd() >= 0)
        ::close(interruptWakeFd());
    resetInterruptHandlers();
    if (parentWindsDown)
        ::signal(SIGINT, SIG_IGN);
    ::signal(SIGPIPE, SIG_IGN);
    for (const int fd : closeInChild)
        ::close(fd);
    std::vector<std::string> rows;
    try {
        rows = body();
        rows.insert(rows.begin(), "ok");
    } catch (const std::exception &e) {
        rows = {"ex", e.what()};
    } catch (...) {
        rows = {"ex", "unknown"};
    }
    // A failed write means the parent is gone or the pipe broke;
    // the torn payload classifies as protocol-error upstream.
    (void)retryWriteAll(wfd, stats::encodeRows(rows));
    ::_exit(0);
}

}  // namespace

ForkWorker &
ForkWorker::operator=(ForkWorker &&o) noexcept
{
    std::swap(pid_, o.pid_);
    std::swap(fd_, o.fd_);
    std::swap(deadline_, o.deadline_);
    forced_.swap(o.forced_);
    payload_.swap(o.payload_);
    return *this;
}

ForkWorker::~ForkWorker()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        (void)reap();
    }
}

std::string
ForkWorker::spawn(const Body &body, const std::vector<int> &closeInChild,
                  unsigned timeoutMs)
{
    int fds[2];
    if (retryPipe2(fds, O_CLOEXEC) != 0)
        return "pipe-failed: " + iofault::errnoName(errno);
    // The child inherits the parent's stdio buffers; flush so its
    // _exit cannot strand (or a crash dump duplicate) them.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = retryFork();
    if (pid < 0) {
        const int err = errno;
        ::close(fds[0]);
        ::close(fds[1]);
        return "fork-failed: " + iofault::errnoName(err);
    }
    if (pid == 0) {
        ::close(fds[0]);
        runChild(body, closeInChild, fds[1]);
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, ::fcntl(fds[0], F_GETFL) | O_NONBLOCK);
    pid_ = pid;
    fd_ = fds[0];
    if (timeoutMs > 0)
        deadline_ = Clock::now() + std::chrono::milliseconds(timeoutMs);
    return {};
}

bool
ForkWorker::pump()
{
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = retryRead(fd_, buf, sizeof(buf));
        if (n > 0) {
            payload_.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        // EAGAIN: more to come. EOF, or a hard read error: the child
        // is done (a torn payload classifies in reap()).
        return n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
    }
}

void
ForkWorker::kill(const std::string &cause)
{
    forced_ = cause;
    deadline_ = Clock::time_point::max();
    if (pid_ > 0)  // never kill(-1, ...): that signals everything
        ::kill(pid_, SIGKILL);
}

WorkerOutcome
ForkWorker::reap()
{
    using Kind = WorkerOutcome::Kind;
    // Closing first turns a child still writing into an EPIPE exit
    // instead of a writer blocked on a pipe nobody drains.
    ::close(fd_);
    int status = 0;
    if (pid_ > 0)  // never waitpid(-1, ...): that reaps any child
        retryWaitpid(pid_, &status, 0);
    fd_ = -1;
    pid_ = -1;
    std::vector<std::string> rows;
    const bool decoded =
        stats::decodeRows(payload_, &rows) && !rows.empty();
    if (decoded && rows[0] == "ok") {
        rows.erase(rows.begin());
        return {Kind::kOk, "", std::move(rows)};
    }
    if (decoded && rows[0] == "ex" && rows.size() == 2)
        return {Kind::kException, "exception: " + rows[1], {}};
    if (!forced_.empty())
        return {Kind::kForced, forced_, {}};
    if (WIFSIGNALED(status))
        return {Kind::kSignal, signalName(WTERMSIG(status)), {}};
    if (WIFEXITED(status) && WEXITSTATUS(status) != 0)
        return {Kind::kExitCode,
                "exit-code " + std::to_string(WEXITSTATUS(status)), {}};
    return {Kind::kProtocolError, "protocol-error", {}};
}

}  // namespace cxlsim::sim
