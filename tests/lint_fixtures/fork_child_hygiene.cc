/**
 * Fixture: fork-child-hygiene — between fork() and _exit()/exec the
 * child of a multithreaded process may only touch async-signal-safe
 * state; violations are followed through same-TU calls out of the
 * child block. Virtual path: src/serve/fixture.cc.
 */

namespace fixture {

void
spawnBad()
{
    pid_t pid = ::fork();
    if (pid == 0) {
        std::lock_guard<std::mutex> g(mu);  // VIOLATION line 15
        childWork();
        exit(1);  // VIOLATION line 17
    }
    reap(pid);
}

// Reached through the same-TU call closure from the child block.
void
childWork()
{
    fflush(stdout);  // VIOLATION line 26
    if (looksBad())
        throw ServeError("no");  // VIOLATION line 28
}

// The parent branch and non-fork code stay quiet.
void
spawnGood()
{
    pid_t pid = ::fork();
    if (pid == 0) {
        ::close(3);
        ::_exit(0);
    }
    if (pid > 0)
        exit(0);  // parent side: exit() is fine here
}

// A fork-worker spawn call's child body is a child region too:
// a lambda, or a same-TU function passed by name.
void
spawnThroughWorker(ForkWorker &w, ForkWorker *p)
{
    fflush(stdout);  // parent side, before the fork: quiet
    w.spawn(
        [&] {
            throw WorkerError("no");  // VIOLATION line 52
            return childRows();
        },
        {}, 0);
    p->spawn(workerBody, {}, 0);
}

std::vector<std::string>
childRows()
{
    std::lock_guard<std::mutex> g(mu);  // VIOLATION line 62
    return {};
}

std::vector<std::string>
workerBody()
{
    exit(3);  // VIOLATION line 69
}

// The fault-injectable fork wrapper forks too, qualified or not.
void
spawnWrapped()
{
    const pid_t child = sim::retryFork();
    if (child == 0) {
        fflush(stderr);  // VIOLATION line 78
        ::_exit(0);
    }
}

}  // namespace fixture
