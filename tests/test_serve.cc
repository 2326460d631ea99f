/**
 * @file
 * Serve-daemon tests: wire-protocol hardening against hostile
 * input (truncated frames, oversized lengths, non-UTF-8, malformed
 * JSON), crash containment (a SIGSEGV/SIGABRT worker yields a
 * structured error while the daemon keeps serving), watchdog
 * timeouts, bounded admission with explicit busy replies,
 * client-disconnect cancellation, graceful drain with a clean
 * journal, a multi-client soak with injected faults, and
 * byte-identical serve-vs-offline output for a real figure through
 * the shared run cache.
 *
 * Server cases fork a real daemon process per test (synthetic
 * runners keep them fast); clients talk to it over the same
 * Unix-domain socket path `melody request` uses.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdlib>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/figures.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/io_fault.hh"
#include "sim/retry_io.hh"
#include "sim/sweep.hh"

using namespace cxlsim;

namespace {

using Clock = std::chrono::steady_clock;

std::string
tempPath(const std::string &leaf)
{
    namespace fs = std::filesystem;
    const fs::path p = fs::path(testing::TempDir()) / leaf;
    fs::remove_all(p);
    return p.string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
}

/** Last non-empty line of a JSONL file. */
std::string
lastLine(const std::string &path)
{
    const std::string text = slurp(path);
    std::size_t end = text.size();
    while (end > 0 && text[end - 1] == '\n')
        --end;
    const std::size_t nl = text.rfind('\n', end ? end - 1 : 0);
    return text.substr(nl == std::string::npos ? 0 : nl + 1,
                       end - (nl == std::string::npos ? 0 : nl + 1));
}

/**
 * Synthetic runner: the "figure" name selects a behaviour, so one
 * daemon exercises every failure class without real simulations.
 */
serve::Runner
syntheticRunner()
{
    return [](const serve::SweepJob &job) {
        serve::SweepResult r;
        if (job.figure == "echo") {
            r.ok = true;
            r.output = "echo:" + job.arg;
            return r;
        }
        if (job.figure == "sleep") {
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::atoi(job.arg.c_str())));
            r.ok = true;
            r.output = "slept";
            return r;
        }
        if (job.figure == "segv") {
#if defined(__SANITIZE_ADDRESS__)
            // The ASan+UBSan build turns a null store into exit 1;
            // deliver the SIGSEGV directly there.
            std::signal(SIGSEGV, SIG_DFL);
            std::raise(SIGSEGV);
#endif
            volatile int *p = nullptr;
            *p = 42;
        }
        if (job.figure == "abort")
            std::abort();
        if (job.figure == "throw")
            throw std::runtime_error("runner boom");
        if (job.figure == "exit")
            ::_exit(7);
        if (job.figure == "hang")
            for (;;)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
        if (job.figure == "fail") {
            r.cause = "synthetic-fail";
            r.output = "it failed";
            return r;
        }
        r.cause = "unknown-figure";
        return r;
    };
}

serve::ServerConfig
baseConfig(const char *leaf)
{
    serve::ServerConfig cfg;
    cfg.socketPath = tempPath(std::string(leaf) + ".sock");
    cfg.journalPath = tempPath(std::string(leaf) + ".jsonl");
    cfg.logToStderr = false;
    cfg.runner = syntheticRunner();
    return cfg;
}

/**
 * Fork the daemon and wait until its socket accepts. A non-empty
 * @p ioFaultSpec arms the host-I/O fault injector
 * (sim/io_fault.hh) in the daemon — installed in the child after
 * fork, because spawnServer forks without exec: the injector's
 * MELODY_IO_FAULTS hook already ran at this test binary's
 * static-init, so an env variable set here would be invisible.
 * The test process itself stays injection-free (its clients must
 * observe the chaos, not suffer it).
 */
pid_t
spawnServer(const serve::ServerConfig &cfg,
            const std::string &ioFaultSpec = "")
{
    // Client sockets can die under us by design in these tests;
    // the write error must come back as EPIPE, not a signal.
    ::signal(SIGPIPE, SIG_IGN);
    const pid_t pid = ::fork();
    if (pid == 0) {
        int rc = 9;
        try {
            if (!ioFaultSpec.empty())
                sim::iofault::install(ioFaultSpec);
            rc = serve::runServer(cfg, nullptr);
        } catch (...) {
        }
        ::_exit(rc);
    }
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
        const int fd = serve::connectUnix(cfg.socketPath);
        if (fd >= 0) {
            ::close(fd);
            return pid;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ADD_FAILURE() << "daemon never came up on " << cfg.socketPath;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return -1;
}

/** Signal (optional) and reap the daemon; returns wait status. */
int
stopServer(pid_t pid, int sig = SIGTERM)
{
    if (sig != 0)
        ::kill(pid, sig);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return status;
}

/**
 * Kills the daemon if a test bails out before its graceful stop:
 * a leaked daemon would otherwise outlive the test binary and hold
 * its inherited stdio pipes open forever. Disarm (pid = -1) right
 * after stopServer() reaps, so a recycled pid is never signalled.
 */
struct DaemonGuard
{
    pid_t pid = -1;

    ~DaemonGuard()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }
};

std::string
sweepPayload(const std::string &figure, const std::string &arg = "")
{
    std::string p = "{\"op\":\"sweep\",\"figure\":";
    serve::appendJsonString(&p, figure);
    if (!arg.empty()) {
        p += ",\"arg\":";
        serve::appendJsonString(&p, arg);
    }
    p += "}";
    return p;
}

/** requestOnce + parse, with gtest failure on transport errors. */
serve::JsonValue
ask(const std::string &socket, const std::string &payload,
    unsigned timeoutMs = 30000)
{
    std::string resp, err;
    EXPECT_TRUE(serve::requestOnce(socket, payload, timeoutMs,
                                   &resp, &err))
        << payload << ": " << err;
    serve::JsonValue v;
    EXPECT_TRUE(serve::parseJson(resp, &v, &err))
        << resp << ": " << err;
    return v;
}

/** One numeric counter from the "stats" op; -1 on any failure. */
double
statValue(const std::string &socket, const std::string &key)
{
    std::string resp, err;
    if (!serve::requestOnce(socket, "{\"op\":\"stats\"}", 10000,
                            &resp, &err))
        return -1.0;
    serve::JsonValue v;
    if (!serve::parseJson(resp, &v, &err))
        return -1.0;
    const serve::JsonValue *st = v.get("stats");
    return st ? st->getNumber(key, -1.0) : -1.0;
}

bool
waitForStat(const std::string &socket, const std::string &key,
            double atLeast, unsigned timeoutMs)
{
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeoutMs);
    while (Clock::now() < deadline) {
        if (statValue(socket, key) >= atLeast)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
}

}  // namespace

// ---------------------------------------------------------------
// Wire protocol: framing against hostile byte streams.
// ---------------------------------------------------------------

TEST(ServeProtocol, FrameRoundtripAndPartialDelivery)
{
    const std::string one = serve::frame("hello");
    EXPECT_EQ(one, "5\nhello");

    // Two frames plus a partial third in one buffer.
    std::string buf = serve::frame("a") + serve::frame("") + "3\nxy";
    std::string payload;
    EXPECT_EQ(serve::takeFrame(&buf, &payload),
              serve::FrameStatus::kFrame);
    EXPECT_EQ(payload, "a");
    EXPECT_EQ(serve::takeFrame(&buf, &payload),
              serve::FrameStatus::kFrame);
    EXPECT_EQ(payload, "");
    EXPECT_EQ(serve::takeFrame(&buf, &payload),
              serve::FrameStatus::kNeedMore);
    buf += "z";
    EXPECT_EQ(serve::takeFrame(&buf, &payload),
              serve::FrameStatus::kFrame);
    EXPECT_EQ(payload, "xyz");
    EXPECT_TRUE(buf.empty());

    // Byte-at-a-time delivery converges on the same frame.
    const std::string wire = serve::frame("drip-fed");
    std::string acc;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        acc.push_back(wire[i]);
        EXPECT_EQ(serve::takeFrame(&acc, &payload),
                  serve::FrameStatus::kNeedMore);
    }
    acc.push_back(wire.back());
    EXPECT_EQ(serve::takeFrame(&acc, &payload),
              serve::FrameStatus::kFrame);
    EXPECT_EQ(payload, "drip-fed");
}

TEST(ServeProtocol, FrameRejectsHostileHeaders)
{
    std::string payload;

    std::string nonNumeric = "not-a-number\n";
    EXPECT_EQ(serve::takeFrame(&nonNumeric, &payload),
              serve::FrameStatus::kBadHeader);

    std::string emptyHeader = "\npayload";
    EXPECT_EQ(serve::takeFrame(&emptyHeader, &payload),
              serve::FrameStatus::kBadHeader);

    std::string negative = "-5\nabc";
    EXPECT_EQ(serve::takeFrame(&negative, &payload),
              serve::FrameStatus::kBadHeader);

    // A header that can never terminate legally is rejected
    // before any '\n' arrives — no unbounded buffering.
    std::string endless(serve::kMaxHeaderBytes + 1, '1');
    EXPECT_EQ(serve::takeFrame(&endless, &payload),
              serve::FrameStatus::kBadHeader);

    // Oversized declared lengths are structural errors even though
    // the digits are valid; the payload never gets buffered.
    std::string tooLarge =
        std::to_string(serve::kMaxFrameBytes + 1) + "\n";
    EXPECT_EQ(serve::takeFrame(&tooLarge, &payload),
              serve::FrameStatus::kTooLarge);

    std::string absurd = "99999999999999\n";
    EXPECT_EQ(serve::takeFrame(&absurd, &payload),
              serve::FrameStatus::kTooLarge);

    // The largest legal frame is still accepted.
    std::string maxed = serve::frame(
        std::string(serve::kMaxFrameBytes, 'x'));
    EXPECT_EQ(serve::takeFrame(&maxed, &payload),
              serve::FrameStatus::kFrame);
    EXPECT_EQ(payload.size(), serve::kMaxFrameBytes);
}

// ---------------------------------------------------------------
// Wire protocol: JSON and UTF-8 hardening.
// ---------------------------------------------------------------

TEST(ServeProtocol, JsonParserSurvivesHostileInput)
{
    serve::JsonValue v;
    std::string err;

    EXPECT_TRUE(serve::parseJson(
        "{\"a\":1,\"b\":[true,null,{\"c\":\"d\"}],\"e\":-2.5e3}",
        &v, &err))
        << err;
    EXPECT_EQ(v.getNumber("a"), 1.0);
    EXPECT_EQ(v.getNumber("e"), -2500.0);

    // Escapes, including \u BMP forms.
    EXPECT_TRUE(serve::parseJson(
        "{\"s\":\"line\\nquote\\\" u\\u00e9\"}", &v, &err))
        << err;
    EXPECT_EQ(v.getString("s"), "line\nquote\" u\xc3\xa9");

    const char *hostile[] = {
        "",                        // empty
        "{",                       // unterminated object
        "{\"a\":}",                // missing value
        "{\"a\":1,}",              // trailing comma
        "{\"a\" 1}",               // missing colon
        "{\"a\":\"b}",             // unterminated string
        "{\"a\":\"\\q\"}",         // bad escape
        "{\"a\":\"\\u12g4\"}",     // bad \u escape
        "{\"a\":\"\\u12\"}",       // truncated \u escape
        "{\"a\":tru}",             // bad literal
        "{\"a\":1e}",              // bad number
        "nan",                     // not a JSON literal
        "{} trailing",             // trailing garbage
        "\"top\" \"second\"",      // two documents
        "{\"a\":\"\x01\"}",        // raw control byte in string
    };
    for (const char *h : hostile) {
        serve::JsonValue out;
        err.clear();
        EXPECT_FALSE(serve::parseJson(h, &out, &err))
            << "accepted hostile input: " << h;
        EXPECT_FALSE(err.empty());
    }

    // Nesting past the depth bound is rejected, not recursed into.
    std::string deep;
    for (int i = 0; i < 64; ++i)
        deep += "[";
    EXPECT_FALSE(serve::parseJson(deep, &v, &err));
    EXPECT_NE(err.find("deep"), std::string::npos);
}

TEST(ServeProtocol, Utf8ValidationRejectsSmuggledForms)
{
    EXPECT_TRUE(serve::validUtf8("plain ascii"));
    EXPECT_TRUE(serve::validUtf8("caf\xc3\xa9"));          // 2-byte
    EXPECT_TRUE(serve::validUtf8("\xe2\x82\xac"));         // 3-byte
    EXPECT_TRUE(serve::validUtf8("\xf0\x9f\x92\xa1"));     // 4-byte

    EXPECT_FALSE(serve::validUtf8("\xc0\xaf"));         // overlong /
    EXPECT_FALSE(serve::validUtf8("\xe0\x80\xaf"));     // overlong
    EXPECT_FALSE(serve::validUtf8("\xed\xa0\x80"));     // surrogate
    EXPECT_FALSE(serve::validUtf8("\xf4\x90\x80\x80")); // > U+10FFFF
    EXPECT_FALSE(serve::validUtf8("\xe2\x82"));         // truncated
    EXPECT_FALSE(serve::validUtf8("\x80"));       // stray trail byte
    EXPECT_FALSE(serve::validUtf8("\xff\xfe"));   // never valid
}

TEST(ServeProtocol, ParseRequestYieldsStructuredCauses)
{
    serve::Request req;
    std::string cause, message;

    EXPECT_TRUE(serve::parseRequest(
        "{\"op\":\"sweep\",\"figure\":\"fig16\",\"arg\":\"x\"}",
        &req, &cause, &message));
    EXPECT_EQ(req.op, "sweep");
    EXPECT_EQ(req.figure, "fig16");
    EXPECT_EQ(req.arg, "x");

    for (const char *op : {"health", "stats", "shutdown"}) {
        EXPECT_TRUE(serve::parseRequest(
            std::string("{\"op\":\"") + op + "\"}", &req, &cause,
            &message))
            << op;
        EXPECT_EQ(req.op, op);
    }

    struct Case { const char *payload; const char *cause; };
    const Case bad[] = {
        {"{\"op\":\"sweep\",\"figure\":\"\xc0\xaf\"}",
         "invalid-utf8"},
        {"{\"op\":", "bad-json"},
        {"42", "bad-request"},
        {"{}", "bad-request"},
        {"{\"op\":\"sweep\"}", "bad-request"},
        {"{\"op\":\"frobnicate\"}", "unknown-request"},
    };
    for (const Case &c : bad) {
        cause.clear();
        message.clear();
        EXPECT_FALSE(
            serve::parseRequest(c.payload, &req, &cause, &message))
            << c.payload;
        EXPECT_EQ(cause, c.cause) << c.payload;
        EXPECT_FALSE(message.empty()) << c.payload;
    }
}

TEST(ServeProtocol, ResponseBuildersRoundTrip)
{
    serve::JsonValue v;
    std::string err;

    ASSERT_TRUE(serve::parseJson(
        serve::okResponse(7, "line1\nline2 \"quoted\"\t\x01"),
        &v, &err))
        << err;
    EXPECT_EQ(v.getString("status"), "ok");
    EXPECT_EQ(v.getNumber("id"), 7.0);
    EXPECT_EQ(v.getString("output"), "line1\nline2 \"quoted\"\t\x01");

    ASSERT_TRUE(serve::parseJson(
        serve::errorResponse(8, "SIGSEGV", "worker died"), &v,
        &err));
    EXPECT_EQ(v.getString("status"), "error");
    EXPECT_EQ(v.getString("cause"), "SIGSEGV");

    ASSERT_TRUE(serve::parseJson(serve::busyResponse(9, 250), &v,
                                 &err));
    EXPECT_EQ(v.getString("status"), "busy");
    EXPECT_EQ(v.getString("cause"), "queue-full");
    EXPECT_EQ(v.getNumber("retry_after_ms"), 250.0);
}

// ---------------------------------------------------------------
// Daemon: request round trips and graceful drain.
// ---------------------------------------------------------------

TEST(ServeDaemon, RoundTripsAndDrainsOnShutdownRequest)
{
    const serve::ServerConfig cfg = baseConfig("serve-roundtrip");
    const pid_t pid = spawnServer(cfg);
    ASSERT_GT(pid, 0);
    DaemonGuard guard{pid};

    serve::JsonValue v = ask(cfg.socketPath, "{\"op\":\"health\"}");
    EXPECT_EQ(v.getString("status"), "ok");
    const serve::JsonValue *h = v.get("health");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->getNumber("workers_active"), 0.0);

    v = ask(cfg.socketPath, sweepPayload("echo", "ping"));
    EXPECT_EQ(v.getString("status"), "ok");
    EXPECT_EQ(v.getString("output"), "echo:ping");

    // A runner-reported failure is a structured per-request error.
    v = ask(cfg.socketPath, sweepPayload("fail", "x"));
    EXPECT_EQ(v.getString("status"), "error");
    EXPECT_EQ(v.getString("cause"), "synthetic-fail");
    EXPECT_EQ(v.getString("message"), "it failed");

    // Graceful drain via the protocol itself.
    v = ask(cfg.socketPath, "{\"op\":\"shutdown\"}");
    EXPECT_EQ(v.getString("status"), "ok");
    const int status = stopServer(pid, 0);
    guard.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    const std::string journal = slurp(cfg.journalPath);
    EXPECT_NE(journal.find("\"event\":\"serve\""),
              std::string::npos);
    EXPECT_NE(journal.find("\"event\":\"drain\""),
              std::string::npos);
    EXPECT_NE(lastLine(cfg.journalPath).find("\"event\":\"drained\""),
              std::string::npos);
}

TEST(ServeDaemon, JournalEscapesClientStrings)
{
    const serve::ServerConfig cfg = baseConfig("serve-forge");
    const pid_t pid = spawnServer(cfg);
    ASSERT_GT(pid, 0);
    DaemonGuard guard{pid};

    // Figures that, copied raw into a JSONL line, would break it or
    // add a parseable terminal record of their own.
    for (const std::string figure :
         {"x\"\n{\"event\":\"drained\",\"ok\":true}",
          "x\"}\n{\"event\":\"drained\",\"ok\":true,\"y\":\""}) {
        const serve::JsonValue v =
            ask(cfg.socketPath, sweepPayload(figure));
        EXPECT_EQ(v.getString("status"), "error");
    }
    ask(cfg.socketPath, "{\"op\":\"shutdown\"}");
    const int status = stopServer(pid, 0);
    guard.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    std::istringstream journal(slurp(cfg.journalPath));
    std::string line, last;
    int lines = 0, drained = 0;
    while (std::getline(journal, line)) {
        ++lines;
        serve::JsonValue v;
        std::string err;
        if (!serve::parseJson(line, &v, &err)) {
            ADD_FAILURE() << line << ": " << err;
            continue;
        }
        EXPECT_EQ(v.kind, serve::JsonValue::Kind::kObject) << line;
        if (v.getString("event") == "drained")
            ++drained;
        last = v.getString("event");
    }
    // serve, 2 x (request, done), drain, drained.
    EXPECT_EQ(lines, 7);
    EXPECT_EQ(drained, 1);
    EXPECT_EQ(last, "drained");
}

TEST(ServeDaemon, ContainsWorkerCrashesAndKeepsServing)
{
    const serve::ServerConfig cfg = baseConfig("serve-crash");
    const pid_t pid = spawnServer(cfg);
    ASSERT_GT(pid, 0);
    DaemonGuard guard{pid};

    // Several crashes and recoveries over ONE connection: the
    // session (and daemon) survive every worker death.
    const int fd = serve::connectUnix(cfg.socketPath);
    ASSERT_GE(fd, 0);
    std::string resp, err;
    serve::JsonValue v;

    ASSERT_TRUE(serve::sendRequest(fd, sweepPayload("segv")));
    ASSERT_TRUE(serve::recvResponse(fd, &resp, 30000, &err)) << err;
    ASSERT_TRUE(serve::parseJson(resp, &v, &err)) << resp;
    EXPECT_EQ(v.getString("status"), "error");
    EXPECT_EQ(v.getString("cause"), "SIGSEGV");
    EXPECT_NE(v.getString("message").find("daemon unaffected"),
              std::string::npos);

    ASSERT_TRUE(serve::sendRequest(fd, sweepPayload("abort")));
    ASSERT_TRUE(serve::recvResponse(fd, &resp, 30000, &err)) << err;
    ASSERT_TRUE(serve::parseJson(resp, &v, &err)) << resp;
    EXPECT_EQ(v.getString("status"), "error");
    EXPECT_EQ(v.getString("cause"), "SIGABRT");

    ASSERT_TRUE(serve::sendRequest(fd, sweepPayload("echo", "ok")));
    ASSERT_TRUE(serve::recvResponse(fd, &resp, 30000, &err)) << err;
    ASSERT_TRUE(serve::parseJson(resp, &v, &err)) << resp;
    EXPECT_EQ(v.getString("status"), "ok");
    EXPECT_EQ(v.getString("output"), "echo:ok");
    ::close(fd);

    // The failure taxonomy reaches the stats surface.
    std::string sresp;
    ASSERT_TRUE(serve::requestOnce(cfg.socketPath,
                                   "{\"op\":\"stats\"}", 10000,
                                   &sresp, &err))
        << err;
    ASSERT_TRUE(serve::parseJson(sresp, &v, &err)) << sresp;
    const serve::JsonValue *st = v.get("stats");
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->getNumber("completed"), 1.0);
    EXPECT_EQ(st->getNumber("failed"), 2.0);
    const serve::JsonValue *byCause = st->get("failures_by_cause");
    ASSERT_NE(byCause, nullptr);
    EXPECT_EQ(byCause->getNumber("SIGSEGV"), 1.0);
    EXPECT_EQ(byCause->getNumber("SIGABRT"), 1.0);

    // A runner that throws and one that exits early are contained
    // the same way, each under the worker ladder's cause.
    v = ask(cfg.socketPath, sweepPayload("throw"));
    EXPECT_EQ(v.getString("status"), "error");
    EXPECT_EQ(v.getString("cause"), "exception: runner boom");
    EXPECT_NE(v.getString("message").find("daemon unaffected"),
              std::string::npos);
    v = ask(cfg.socketPath, sweepPayload("exit"));
    EXPECT_EQ(v.getString("status"), "error");
    EXPECT_EQ(v.getString("cause"), "exit-code 7");
    v = ask(cfg.socketPath, sweepPayload("echo", "still"));
    EXPECT_EQ(v.getString("output"), "echo:still");

    const int status = stopServer(pid);
    guard.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeDaemon, ForkFailureUsesTheSupervisorsCause)
{
    // The daemon's first fork fails (injected EAGAIN): that request
    // alone gets the errno-named cause the sweep supervisor uses,
    // and the next one is served normally.
    const serve::ServerConfig cfg = baseConfig("serve-forkfail");
    const pid_t pid = spawnServer(cfg, "fork:eagain@#1");
    ASSERT_GT(pid, 0);
    DaemonGuard guard{pid};

    serve::JsonValue v = ask(cfg.socketPath, sweepPayload("echo", "a"));
    EXPECT_EQ(v.getString("status"), "error");
    EXPECT_EQ(v.getString("cause"), "fork-failed: EAGAIN");

    std::string resp, err;
    ASSERT_TRUE(serve::requestOnce(cfg.socketPath,
                                   "{\"op\":\"stats\"}", 10000,
                                   &resp, &err))
        << err;
    ASSERT_TRUE(serve::parseJson(resp, &v, &err)) << resp;
    const serve::JsonValue *st = v.get("stats");
    ASSERT_NE(st, nullptr);
    const serve::JsonValue *byCause = st->get("failures_by_cause");
    ASSERT_NE(byCause, nullptr);
    EXPECT_EQ(byCause->getNumber("fork-failed: EAGAIN"), 1.0);

    v = ask(cfg.socketPath, sweepPayload("echo", "b"));
    EXPECT_EQ(v.getString("status"), "ok");
    EXPECT_EQ(v.getString("output"), "echo:b");

    const int status = stopServer(pid);
    guard.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeDaemon, WatchdogKillsHungRequest)
{
    serve::ServerConfig cfg = baseConfig("serve-watchdog");
    cfg.timeoutMs = 300;
    const pid_t pid = spawnServer(cfg);
    ASSERT_GT(pid, 0);
    DaemonGuard guard{pid};

    const serve::JsonValue v =
        ask(cfg.socketPath, sweepPayload("hang"), 30000);
    EXPECT_EQ(v.getString("status"), "error");
    EXPECT_EQ(v.getString("cause"), "watchdog-timeout");

    // The slot is free again: a healthy request completes.
    const serve::JsonValue ok =
        ask(cfg.socketPath, sweepPayload("echo", "after"));
    EXPECT_EQ(ok.getString("output"), "echo:after");

    const int status = stopServer(pid);
    guard.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeDaemon, BoundedAdmissionRepliesBusy)
{
    serve::ServerConfig cfg = baseConfig("serve-busy");
    cfg.workers = 1;
    cfg.queueDepth = 1;
    cfg.retryAfterMs = 123;
    const pid_t pid = spawnServer(cfg);
    ASSERT_GT(pid, 0);
    DaemonGuard guard{pid};

    // Fill the single worker, then the single queue slot.
    const int c1 = serve::connectUnix(cfg.socketPath);
    const int c2 = serve::connectUnix(cfg.socketPath);
    const int c3 = serve::connectUnix(cfg.socketPath);
    ASSERT_GE(c1, 0);
    ASSERT_GE(c2, 0);
    ASSERT_GE(c3, 0);
    ASSERT_TRUE(serve::sendRequest(c1, sweepPayload("sleep", "1500")));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ASSERT_TRUE(serve::sendRequest(c2, sweepPayload("sleep", "10")));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ASSERT_TRUE(serve::sendRequest(c3, sweepPayload("echo", "x")));

    // The third request is refused *immediately and explicitly* —
    // no silent drop, no unbounded queue.
    std::string resp, err;
    serve::JsonValue v;
    ASSERT_TRUE(serve::recvResponse(c3, &resp, 5000, &err)) << err;
    ASSERT_TRUE(serve::parseJson(resp, &v, &err)) << resp;
    EXPECT_EQ(v.getString("status"), "busy");
    EXPECT_EQ(v.getString("cause"), "queue-full");
    EXPECT_EQ(v.getNumber("retry_after_ms"), 123.0);

    // The admitted requests still finish normally.
    ASSERT_TRUE(serve::recvResponse(c1, &resp, 30000, &err)) << err;
    ASSERT_TRUE(serve::parseJson(resp, &v, &err)) << resp;
    EXPECT_EQ(v.getString("status"), "ok");
    ASSERT_TRUE(serve::recvResponse(c2, &resp, 30000, &err)) << err;
    ASSERT_TRUE(serve::parseJson(resp, &v, &err)) << resp;
    EXPECT_EQ(v.getString("status"), "ok");
    ::close(c1);
    ::close(c2);
    ::close(c3);

    EXPECT_EQ(statValue(cfg.socketPath, "rejected"), 1.0);

    const int status = stopServer(pid);
    guard.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeDaemon, DisconnectedClientCancelsItsWork)
{
    serve::ServerConfig cfg = baseConfig("serve-cancel");
    cfg.workers = 1;
    const pid_t pid = spawnServer(cfg);
    ASSERT_GT(pid, 0);
    DaemonGuard guard{pid};

    // Occupy the only worker, then vanish without reading.
    const int fd = serve::connectUnix(cfg.socketPath);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve::sendRequest(fd, sweepPayload("sleep", "30000")));
    ASSERT_TRUE(waitForStat(cfg.socketPath, "workers_active", 1.0,
                            10000));
    ::close(fd);

    // The abandoned worker is SIGKILLed and reaped; the slot frees
    // up long before the 30 s sleep would have finished.
    EXPECT_TRUE(
        waitForStat(cfg.socketPath, "cancelled", 1.0, 10000));
    const serve::JsonValue v =
        ask(cfg.socketPath, sweepPayload("echo", "alive"), 10000);
    EXPECT_EQ(v.getString("output"), "echo:alive");

    const int status = stopServer(pid);
    guard.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeDaemon, HostileBytesFailOneClientNotTheDaemon)
{
    const serve::ServerConfig cfg = baseConfig("serve-hostile");
    const pid_t pid = spawnServer(cfg);
    ASSERT_GT(pid, 0);
    DaemonGuard guard{pid};

    std::string resp, err;
    serve::JsonValue v;

    // Garbage framing: one structured error, then that connection
    // (and only that connection) is closed.
    int fd = serve::connectUnix(cfg.socketPath);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sim::retryWriteAll(fd, "not-a-number\n"));
    ASSERT_TRUE(serve::recvResponse(fd, &resp, 10000, &err)) << err;
    ASSERT_TRUE(serve::parseJson(resp, &v, &err)) << resp;
    EXPECT_EQ(v.getString("status"), "error");
    EXPECT_EQ(v.getString("cause"), "bad-frame");
    EXPECT_FALSE(serve::recvResponse(fd, &resp, 10000, &err));
    EXPECT_NE(err.find("closed"), std::string::npos);
    ::close(fd);

    // An absurd declared length is refused without buffering.
    fd = serve::connectUnix(cfg.socketPath);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sim::retryWriteAll(fd, "99999999999999\n"));
    ASSERT_TRUE(serve::recvResponse(fd, &resp, 10000, &err)) << err;
    ASSERT_TRUE(serve::parseJson(resp, &v, &err)) << resp;
    EXPECT_EQ(v.getString("cause"), "frame-too-large");
    ::close(fd);

    // Well-framed hostile payloads are per-request errors; the
    // connection stays usable.
    fd = serve::connectUnix(cfg.socketPath);
    ASSERT_GE(fd, 0);
    const struct { const char *payload; const char *cause; } bad[] = {
        {"{\"op\":", "bad-json"},
        {"{\"op\":\"sweep\",\"figure\":\"\xc0\xaf\"}",
         "invalid-utf8"},
        {"[1,2,3]", "bad-request"},
        {"{\"op\":\"frobnicate\"}", "unknown-request"},
    };
    for (const auto &c : bad) {
        ASSERT_TRUE(serve::sendRequest(fd, c.payload));
        ASSERT_TRUE(serve::recvResponse(fd, &resp, 10000, &err))
            << err;
        ASSERT_TRUE(serve::parseJson(resp, &v, &err)) << resp;
        EXPECT_EQ(v.getString("status"), "error") << c.payload;
        EXPECT_EQ(v.getString("cause"), c.cause) << c.payload;
    }
    ASSERT_TRUE(serve::sendRequest(fd, sweepPayload("echo", "still")));
    ASSERT_TRUE(serve::recvResponse(fd, &resp, 30000, &err)) << err;
    ASSERT_TRUE(serve::parseJson(resp, &v, &err)) << resp;
    EXPECT_EQ(v.getString("output"), "echo:still");
    ::close(fd);

    const int status = stopServer(pid);
    guard.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

/** Health roundtrip on a held connection; returns health.sessions or -1. */
double
sessionsSeenOn(int fd)
{
    if (!serve::sendRequest(fd, "{\"op\":\"health\"}"))
        return -1.0;
    std::string resp, err;
    if (!serve::recvResponse(fd, &resp, 10000, &err))
        return -1.0;
    serve::JsonValue v;
    if (!serve::parseJson(resp, &v, &err))
        return -1.0;
    const serve::JsonValue *h = v.get("health");
    return h ? h->getNumber("sessions", -1.0) : -1.0;
}

TEST(ServeDaemon, SessionLimitRefusesExplicitly)
{
    serve::ServerConfig cfg = baseConfig("serve-sessions");
    cfg.maxSessions = 2;
    const pid_t pid = spawnServer(cfg);
    ASSERT_GT(pid, 0);
    DaemonGuard guard{pid};

    // Which connection gets refused depends on when the daemon notices
    // session EOFs, so sequence the setup with roundtrips: wait until
    // spawnServer()'s readiness probe has been reaped and `a` is the
    // only live session, then prove `b` was admitted as the second.
    const int a = serve::connectUnix(cfg.socketPath);
    ASSERT_GE(a, 0);
    double seen = -1.0;
    for (int i = 0; i < 200 && seen != 1.0; ++i) {
        seen = sessionsSeenOn(a);
        if (seen != 1.0)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(seen, 1.0);

    const int b = serve::connectUnix(cfg.socketPath);
    ASSERT_GE(b, 0);
    ASSERT_EQ(sessionsSeenOn(b), 2.0);

    // Both slots are held, so the third connection must be refused
    // explicitly rather than silently dropped or left unanswered.
    const int c = serve::connectUnix(cfg.socketPath);
    ASSERT_GE(c, 0);
    std::string resp, err;
    ASSERT_TRUE(serve::recvResponse(c, &resp, 10000, &err)) << err;
    serve::JsonValue v;
    ASSERT_TRUE(serve::parseJson(resp, &v, &err)) << resp;
    EXPECT_EQ(v.getString("status"), "error");
    EXPECT_EQ(v.getString("cause"), "too-many-sessions");
    ::close(c);
    ::close(a);
    ::close(b);

    const int status = stopServer(pid);
    guard.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ---------------------------------------------------------------
// Soak: many clients, injected faults, zero daemon restarts.
// ---------------------------------------------------------------

TEST(ServeSoak, ConcurrentClientsWithInjectedFaults)
{
    serve::ServerConfig cfg = baseConfig("serve-soak");
    cfg.workers = 8;
    cfg.queueDepth = 256;
    const pid_t pid = spawnServer(cfg);
    ASSERT_GT(pid, 0);
    DaemonGuard guard{pid};

    constexpr int kThreads = 8;
    constexpr int kPerThread = 125;  // 1000 requests total
    std::vector<int> okCount(kThreads, 0);
    std::vector<int> crashCount(kThreads, 0);
    std::vector<int> badCount(kThreads, 0);
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                // Rude mid-request disconnects ride along (not
                // counted in the 1000): send and hang up.
                if (i == 31 || i == 93) {
                    const int fd =
                        serve::connectUnix(cfg.socketPath);
                    if (fd >= 0) {
                        serve::sendRequest(
                            fd, sweepPayload("sleep", "300"));
                        ::close(fd);
                    }
                }
                const int idx = t * kPerThread + i;
                const bool crash = idx % 97 == 0;
                const std::string tag = "t" + std::to_string(t) +
                                        "-i" + std::to_string(i);
                std::string resp, err;
                if (!serve::requestOnce(
                        cfg.socketPath,
                        sweepPayload(crash ? "segv" : "echo", tag),
                        60000, &resp, &err)) {
                    ++badCount[t];
                    continue;
                }
                serve::JsonValue v;
                if (!serve::parseJson(resp, &v, &err)) {
                    ++badCount[t];
                    continue;
                }
                if (crash) {
                    if (v.getString("status") == "error" &&
                        v.getString("cause") == "SIGSEGV")
                        ++crashCount[t];
                    else
                        ++badCount[t];
                } else {
                    // Byte-exact response for every request.
                    if (v.getString("status") == "ok" &&
                        v.getString("output") == "echo:" + tag)
                        ++okCount[t];
                    else
                        ++badCount[t];
                }
            }
        });
    }
    for (std::thread &c : clients)
        c.join();

    int ok = 0, crashed = 0, bad = 0;
    for (int t = 0; t < kThreads; ++t) {
        ok += okCount[t];
        crashed += crashCount[t];
        bad += badCount[t];
    }
    EXPECT_EQ(bad, 0);
    EXPECT_EQ(ok + crashed, kThreads * kPerThread);
    EXPECT_EQ(crashed, 11);  // idx % 97 == 0 over [0, 1000)

    // Zero daemon restarts: the original process is still the one
    // serving (a crashed daemon could not have answered above, and
    // it has not been reaped or replaced).
    EXPECT_EQ(::waitpid(pid, nullptr, WNOHANG), 0);
    const serve::JsonValue h =
        ask(cfg.socketPath, "{\"op\":\"health\"}");
    EXPECT_EQ(h.getString("status"), "ok");
    EXPECT_GE(statValue(cfg.socketPath, "completed"),
              static_cast<double>(ok));

    // SIGTERM drain: exit 0 with a terminally clean journal.
    const int status = stopServer(pid);
    guard.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    const std::string tail = lastLine(cfg.journalPath);
    EXPECT_NE(tail.find("\"event\":\"drained\""),
              std::string::npos);
    EXPECT_NE(tail.find("\"ok\":true"), std::string::npos);
}

// ---------------------------------------------------------------
// Chaos soak: the same load with the host-I/O fault injector armed
// inside the daemon. Journal writes, worker pipes, response
// sockets, accept, pipe2 and fork all fail probabilistically; the
// daemon must shed or error every affected request and keep
// serving — zero exits, byte-exact output for every ok response.
// ---------------------------------------------------------------

TEST(ServeSoak, ChaosSoakUnderHostIoFaultInjection)
{
    serve::ServerConfig cfg = baseConfig("serve-chaos");
    cfg.workers = 8;
    cfg.queueDepth = 256;
    // No `open:` rule (the daemon must be able to come up) and no
    // `eintr` (that chaos is invisible by design — covered in
    // test_io_fault). Rates are low enough that most requests
    // succeed and the soak stays fast.
    const pid_t pid = spawnServer(
        cfg,
        "seed=11 write:enospc@0.01 read:short@0.05 flush:eio@0.05 "
        "accept:econnaborted@0.02 pipe:emfile@0.01 "
        "fork:eagain@0.01");
    ASSERT_GT(pid, 0);
    DaemonGuard guard{pid};

    constexpr int kThreads = 8;
    constexpr int kPerThread = 125;  // 1000 requests total
    std::vector<int> okCount(kThreads, 0);
    std::vector<int> errCount(kThreads, 0);
    std::vector<int> shedCount(kThreads, 0);
    std::vector<int> badCount(kThreads, 0);
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const std::string tag = "t" + std::to_string(t) +
                                        "-i" + std::to_string(i);
                std::string resp, err;
                if (!serve::requestOnce(cfg.socketPath,
                                        sweepPayload("echo", tag),
                                        60000, &resp, &err)) {
                    // An injected fault tore this connection (e.g.
                    // the daemon's response write died): shed, not
                    // wrong.
                    ++shedCount[t];
                    continue;
                }
                serve::JsonValue v;
                if (!serve::parseJson(resp, &v, &err)) {
                    ++badCount[t];
                    continue;
                }
                const std::string status = v.getString("status");
                if (status == "ok" &&
                    v.getString("output") == "echo:" + tag) {
                    // Byte-exact or bust: a fault may *fail* a
                    // request but never corrupt a success.
                    ++okCount[t];
                } else if (status == "error" &&
                           !v.getString("cause").empty()) {
                    // Structured shedding ({"status":"error"} with
                    // a cause), never a silent wrong answer.
                    ++errCount[t];
                } else {
                    ++badCount[t];
                }
            }
        });
    }
    for (std::thread &c : clients)
        c.join();

    int ok = 0, errored = 0, shed = 0, bad = 0;
    for (int t = 0; t < kThreads; ++t) {
        ok += okCount[t];
        errored += errCount[t];
        shed += shedCount[t];
        bad += badCount[t];
    }
    EXPECT_EQ(bad, 0);
    EXPECT_EQ(ok + errored + shed, kThreads * kPerThread);
    // The rates above leave the vast majority unharmed.
    EXPECT_GT(ok, kThreads * kPerThread / 2);

    // The daemon survived all of it: never exited, still answers.
    EXPECT_EQ(::waitpid(pid, nullptr, WNOHANG), 0);
    bool healthy = false;
    for (int i = 0; i < 10 && !healthy; ++i) {
        // health itself can be shed by an injected response-write
        // fault; retry a few times rather than flake.
        std::string resp, err;
        if (serve::requestOnce(cfg.socketPath,
                               "{\"op\":\"health\"}", 10000,
                               &resp, &err)) {
            serve::JsonValue v;
            healthy = serve::parseJson(resp, &v, &err) &&
                      v.getString("status") == "ok";
        }
    }
    EXPECT_TRUE(healthy);

    // Clean SIGTERM drain even with the injector still armed. (No
    // journal assertion here: under flush faults the journal may
    // have legitimately degraded — that is the policy under test.)
    const int status = stopServer(pid);
    guard.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ---------------------------------------------------------------
// Real figures: serve output is byte-identical to offline runs
// and shares the content-addressed run cache across processes.
// ---------------------------------------------------------------

TEST(ServeFigures, ResponseMatchesOfflineRenderByteForByte)
{
    const std::string cacheDir = tempPath("serve-figure-cache");
    ::setenv("MELODY_SWEEP_CACHE", "1", 1);
    ::setenv("MELODY_SWEEP_CACHE_DIR", cacheDir.c_str(), 1);
    ::setenv("MELODY_CRASHTEST_MODE", "ok", 1);

    // Offline reference, rendered exactly like `melody sweep`:
    // scoped to the figure's binary name.
    const figs::Figure *fig = figs::find("crashtest");
    ASSERT_NE(fig, nullptr);
    sweep::Options opts = sweep::optionsFromEnv();
    opts.isolate = false;
    sweep::Sweep offline("melody-serve", opts);
    offline.scope(fig->binary);
    fig->build(offline);
    sweep::Sweep::Report rep;
    const std::string ref = offline.renderToString(&rep);
    ASSERT_TRUE(rep.clean());
    ASSERT_FALSE(ref.empty());

    serve::ServerConfig cfg = baseConfig("serve-figure");
    cfg.runner = figs::makeServeRunner();
    const pid_t pid = spawnServer(cfg);
    ASSERT_GT(pid, 0);
    DaemonGuard guard{pid};

    const serve::JsonValue v =
        ask(cfg.socketPath, sweepPayload("crashtest", "ok"), 120000);
    EXPECT_EQ(v.getString("status"), "ok");
    EXPECT_EQ(v.getString("output"), ref);

    // The worker ran in a different process yet hit the entries
    // the offline render stored: one shared run cache.
    EXPECT_GE(statValue(cfg.socketPath, "cache_hits"), 1.0);

    // Unknown figures are a structured error, not a daemon fault.
    const serve::JsonValue bad =
        ask(cfg.socketPath, sweepPayload("no-such-figure"));
    EXPECT_EQ(bad.getString("status"), "error");
    EXPECT_EQ(bad.getString("cause"), "unknown-figure");

    const int status = stopServer(pid);
    guard.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    ::unsetenv("MELODY_SWEEP_CACHE");
    ::unsetenv("MELODY_SWEEP_CACHE_DIR");
    ::unsetenv("MELODY_CRASHTEST_MODE");
}

// ---------------------------------------------------------------
// Single-flight coalescing: identical in-flight requests share one
// forked worker; every attached client gets the same result bytes.
// ---------------------------------------------------------------

TEST(ServeCoalesce, DuplicateBurstForksExactlyOnce)
{
    serve::ServerConfig cfg = baseConfig("serve-coalesce");
    cfg.workers = 4;
    cfg.queueDepth = 64;
    const pid_t pid = spawnServer(cfg);
    ASSERT_GT(pid, 0);
    DaemonGuard guard{pid};

    // Park one slow request in a worker, then burst 19 duplicates
    // at it while it is provably in flight.
    constexpr int kClients = 20;
    const std::string payload = sweepPayload("sleep", "3000");
    int fds[kClients];
    fds[0] = serve::connectUnix(cfg.socketPath);
    ASSERT_GE(fds[0], 0);
    ASSERT_TRUE(serve::sendRequest(fds[0], payload));
    ASSERT_TRUE(waitForStat(cfg.socketPath, "workers_active", 1.0,
                            10000));
    for (int i = 1; i < kClients; ++i) {
        fds[i] = serve::connectUnix(cfg.socketPath);
        ASSERT_GE(fds[i], 0);
        ASSERT_TRUE(serve::sendRequest(fds[i], payload));
    }
    ASSERT_TRUE(waitForStat(cfg.socketPath, "coalesced_hits",
                            kClients - 1.0, 10000));

    // Distinct requests admitted mid-flight fork their own workers
    // — coalescing keys on (figure, arg), not on "anything busy".
    EXPECT_EQ(ask(cfg.socketPath, sweepPayload("echo", "a"))
                  .getString("output"),
              "echo:a");
    EXPECT_EQ(ask(cfg.socketPath, sweepPayload("echo", "b"))
                  .getString("output"),
              "echo:b");

    // All 20 clients get a well-formed ok with identical result
    // bytes (ids differ per request; the payload must not).
    std::vector<std::string> outputs;
    for (int i = 0; i < kClients; ++i) {
        std::string resp, err;
        ASSERT_TRUE(serve::recvResponse(fds[i], &resp, 30000, &err))
            << "client " << i << ": " << err;
        serve::JsonValue v;
        ASSERT_TRUE(serve::parseJson(resp, &v, &err)) << resp;
        EXPECT_EQ(v.getString("status"), "ok") << resp;
        outputs.push_back(v.getString("output"));
        ::close(fds[i]);
    }
    for (int i = 1; i < kClients; ++i)
        EXPECT_EQ(outputs[i], outputs[0]) << "client " << i;

    // One fork for the burst, one each for the two distinct echoes.
    EXPECT_EQ(statValue(cfg.socketPath, "forked"), 3.0);
    EXPECT_EQ(statValue(cfg.socketPath, "coalesced_hits"),
              kClients - 1.0);
    EXPECT_EQ(statValue(cfg.socketPath, "completed"),
              kClients + 2.0);

    // The throughput-accounting surfaces ride along in stats.
    std::string resp, err;
    ASSERT_TRUE(serve::requestOnce(cfg.socketPath,
                                   "{\"op\":\"stats\"}", 10000,
                                   &resp, &err))
        << err;
    EXPECT_NE(resp.find("\"queue_wait_ms\""), std::string::npos);
    EXPECT_NE(resp.find("\"worker_ms_by_cause\""),
              std::string::npos);
    EXPECT_NE(resp.find("\"ok\""), std::string::npos);

    const int status = stopServer(pid);
    guard.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeCoalesce, PrimaryDisconnectPromotesAWaiter)
{
    serve::ServerConfig cfg = baseConfig("serve-promote");
    cfg.workers = 1;
    const pid_t pid = spawnServer(cfg);
    ASSERT_GT(pid, 0);
    DaemonGuard guard{pid};

    const std::string payload = sweepPayload("sleep", "2500");
    const int primary = serve::connectUnix(cfg.socketPath);
    ASSERT_GE(primary, 0);
    ASSERT_TRUE(serve::sendRequest(primary, payload));
    ASSERT_TRUE(waitForStat(cfg.socketPath, "workers_active", 1.0,
                            10000));

    int waiters[3];
    for (int &fd : waiters) {
        fd = serve::connectUnix(cfg.socketPath);
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(serve::sendRequest(fd, payload));
    }
    ASSERT_TRUE(waitForStat(cfg.socketPath, "coalesced_hits", 3.0,
                            10000));

    // The primary vanishes mid-flight. With waiters attached the
    // worker must NOT be killed: a waiter is promoted to primary
    // and the in-progress computation is kept.
    ::close(primary);
    ASSERT_TRUE(waitForStat(cfg.socketPath, "cancelled", 1.0,
                            10000));

    for (int i = 0; i < 3; ++i) {
        std::string resp, err;
        ASSERT_TRUE(serve::recvResponse(waiters[i], &resp, 30000,
                                        &err))
            << "waiter " << i << ": " << err;
        serve::JsonValue v;
        ASSERT_TRUE(serve::parseJson(resp, &v, &err)) << resp;
        EXPECT_EQ(v.getString("status"), "ok") << resp;
        EXPECT_EQ(v.getString("output"), "slept");
        ::close(waiters[i]);
    }

    // Exactly one fork ever happened: the worker survived its
    // primary's death because it still had an audience.
    EXPECT_EQ(statValue(cfg.socketPath, "forked"), 1.0);
    EXPECT_EQ(statValue(cfg.socketPath, "cancelled"), 1.0);
    EXPECT_EQ(statValue(cfg.socketPath, "completed"), 3.0);

    const int status = stopServer(pid);
    guard.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}
