/**
 * @file
 * Fork-worker primitive tests (sim/worker.hh): the outcome ladder
 * on real short-lived children — a complete payload beats a later
 * kill, the latest forced cause beats the SIGKILL it caused, then
 * the signal, the exit code and a torn payload — plus deadline
 * disarming, errno-named spawn failures, the child's fd hygiene
 * and its SIGINT disposition.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/interrupt.hh"
#include "sim/io_fault.hh"
#include "sim/worker.hh"

using namespace cxlsim;
using Kind = sim::WorkerOutcome::Kind;

namespace {

/** Pump @p w until its pipe reaches EOF (bounded, so a broken
 *  primitive fails the test instead of hanging it). */
bool
pumpToEof(sim::ForkWorker &w)
{
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < giveUp) {
        pollfd p{w.fd(), POLLIN, 0};
        if (::poll(&p, 1, 100) > 0 && w.pump())
            return true;
    }
    return false;
}

std::vector<std::string>
sleepForever()
{
    for (;;)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

struct LadderCase
{
    const char *name;
    sim::ForkWorker::Body body;
    /** Forced causes, applied in order. */
    std::vector<std::string> kills;
    /** Kill only once the payload is complete (the kill/exit
     *  race); otherwise kill right after spawn. */
    bool killAfterPayload;
    Kind kind;
    std::string cause;
};

}  // namespace

TEST(ForkWorker, OutcomeLadder)
{
    const std::vector<LadderCase> cases = {
        {"payload-then-kill",
         [] { return std::vector<std::string>{"a", "b"}; },
         {"watchdog-timeout"}, true, Kind::kOk, ""},
        {"latest-forced-cause", sleepForever,
         {"watchdog-timeout", "interrupted"}, false, Kind::kForced,
         "interrupted"},
        {"sigsegv",
         []() -> std::vector<std::string> {
             ::signal(SIGSEGV, SIG_DFL);
             ::raise(SIGSEGV);
             return {};
         },
         {}, false, Kind::kSignal, "SIGSEGV"},
        {"exit-code",
         []() -> std::vector<std::string> { ::_exit(7); },
         {}, false, Kind::kExitCode, "exit-code 7"},
        {"torn-payload",
         [] {
             // Half the payload reaches the pipe, then the write
             // fails and the child exits 0.
             sim::iofault::install("write:short@#1 write:eio@#2");
             return std::vector<std::string>{std::string(4096, 'x')};
         },
         {}, false, Kind::kProtocolError, "protocol-error"},
        {"exception",
         []() -> std::vector<std::string> {
             throw std::runtime_error("boom");
         },
         {}, false, Kind::kException, "exception: boom"},
        {"unknown-exception",
         []() -> std::vector<std::string> { throw 42; },
         {}, false, Kind::kException, "exception: unknown"},
    };
    for (const LadderCase &c : cases) {
        SCOPED_TRACE(c.name);
        sim::ForkWorker w;
        ASSERT_EQ(w.spawn(c.body, {}, 0), "");
        if (!c.killAfterPayload)
            for (const std::string &k : c.kills)
                w.kill(k);
        ASSERT_TRUE(pumpToEof(w));
        if (c.killAfterPayload)
            for (const std::string &k : c.kills)
                w.kill(k);
        const sim::WorkerOutcome out = w.reap();
        EXPECT_EQ(out.kind, c.kind);
        EXPECT_EQ(out.cause, c.cause);
        EXPECT_EQ(out.ok(), c.kind == Kind::kOk);
        if (out.ok()) {
            EXPECT_EQ(out.rows, (std::vector<std::string>{"a", "b"}));
        }
    }
}

TEST(ForkWorker, KillDisarmsTheDeadline)
{
    // A killed worker reports no armed deadline, so poll loops stop
    // counting its expired watchdog while they wait for the reap.
    sim::ForkWorker w;
    EXPECT_EQ(w.deadline(), sim::ForkWorker::Clock::time_point::max());
    ASSERT_EQ(w.spawn(sleepForever, {}, 60000), "");
    EXPECT_LT(w.deadline(), sim::ForkWorker::Clock::time_point::max());
    w.kill("watchdog-timeout");
    EXPECT_EQ(w.deadline(), sim::ForkWorker::Clock::time_point::max());
    ASSERT_TRUE(pumpToEof(w));
    EXPECT_EQ(w.reap().cause, "watchdog-timeout");
}

TEST(ForkWorker, SpawnFailuresNameTheErrno)
{
    const auto body = [] { return std::vector<std::string>{}; };
    sim::ForkWorker w;
    sim::iofault::install("pipe:emfile@#1");
    EXPECT_EQ(w.spawn(body, {}, 0), "pipe-failed: EMFILE");
    sim::iofault::install("fork:eagain@#1");
    EXPECT_EQ(w.spawn(body, {}, 0), "fork-failed: EAGAIN");
    sim::iofault::reset();
    EXPECT_EQ(w.fd(), -1);
}

TEST(ForkWorker, ChildClosesTheListedFds)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    sim::ForkWorker w;
    ASSERT_EQ(w.spawn(
                  [&] {
                      const bool closed =
                          ::fcntl(fds[1], F_GETFD) < 0;
                      return std::vector<std::string>{
                          closed ? "closed" : "open"};
                  },
                  {fds[1]}, 0),
              "");
    ASSERT_TRUE(pumpToEof(w));
    EXPECT_EQ(w.reap().rows, std::vector<std::string>{"closed"});
    ::close(fds[0]);
    ::close(fds[1]);
}

namespace {

/**
 * Spawn a child that reports its pid on a side pipe, then works for
 * 300 ms; SIGINT it directly and reap the outcome.
 */
sim::WorkerOutcome
sigintMidPoint()
{
    int side[2];
    if (::pipe(side) != 0)
        return {Kind::kProtocolError, "pipe", {}};
    sim::ForkWorker w;
    const std::string failed = w.spawn(
        [&] {
            const pid_t me = ::getpid();
            (void)!::write(side[1], &me, sizeof(me));
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
            return std::vector<std::string>{"done"};
        },
        {side[0]}, 0);
    ::close(side[1]);
    pid_t pid = -1;
    const bool told = failed.empty() &&
                      ::read(side[0], &pid, sizeof(pid)) ==
                          static_cast<ssize_t>(sizeof(pid));
    ::close(side[0]);
    if (told)
        ::kill(pid, SIGINT);
    if (!pumpToEof(w))
        return {Kind::kProtocolError, "no eof", {}};
    return w.reap();
}

}  // namespace

TEST(ForkWorker, SigintLeavesAPointFinishingUnderAWindingDownParent)
{
    // With the interrupt handlers installed, the parent winds down on
    // a Ctrl-C, so the child must live to deliver its point.
    sim::installInterruptHandlers();
    const sim::WorkerOutcome out = sigintMidPoint();
    sim::resetInterruptHandlers();
    EXPECT_EQ(out.kind, Kind::kOk) << out.cause;
    EXPECT_EQ(out.rows, std::vector<std::string>{"done"});
}

TEST(ForkWorker, SigintKillsTheChildOfAParentThatDies)
{
    // Without the handlers the parent dies on SIGINT; so does the
    // child, rather than run on as an orphan.
    const sim::WorkerOutcome out = sigintMidPoint();
    EXPECT_EQ(out.kind, Kind::kSignal);
    EXPECT_EQ(out.cause, "signal 2");
}
