/**
 * @file
 * The real-figure Runner behind `melody serve`: executes one
 * registered figure per request through the sweep engine, scoped
 * exactly like `melody sweep <figure>` — so serve responses are
 * byte-identical to offline runs and both share one
 * content-addressed run cache.
 *
 * This lives in bench/ (not src/serve/) on purpose: the serve
 * daemon core stays independent of the figure registry, and tests
 * drive it with synthetic runners instead of real simulations.
 *
 * The returned closure only ever runs inside the daemon's forked
 * request workers, so per-request env injection (the crashtest
 * figure's MELODY_CRASHTEST_MODE) cannot leak between requests.
 */

#include <cstdlib>

#include "bench/figures.hh"
#include "serve/protocol.hh"
#include "sim/sweep.hh"

namespace figs {

cxlsim::serve::Runner
makeServeRunner(unsigned jobs)
{
    return [jobs](const cxlsim::serve::SweepJob &job) {
        using namespace cxlsim;
        serve::SweepResult res;
        const Figure *fig = find(job.figure);
        if (!fig) {
            res.cause = "unknown-figure";
            res.output = "no figure named '" + job.figure +
                         "' (melody sweep --list)";
            return res;
        }
        // Per-request fault injection for the hidden crashtest
        // figure: the arg becomes the victim's mode in this worker
        // process only.
        if (!job.arg.empty())
            ::setenv("MELODY_CRASHTEST_MODE", job.arg.c_str(), 1);

        sweep::Options opts = sweep::optionsFromEnv();
        // The daemon already isolates at request granularity;
        // double-forking per point would only add overhead.
        opts.isolate = false;
        if (jobs > 0)
            opts.jobs = jobs;

        sweep::Sweep s("melody-serve", opts);
        s.scope(fig->binary);
        fig->build(s);
        sweep::Sweep::Report rep;
        res.output = s.renderToString(&rep);
        res.cacheHits = rep.cacheHits;
        res.cacheStores = rep.cacheStores;
        if (!rep.clean()) {
            res.cause = "figure-failed";
            res.output = "figure '" + job.figure + "' reported " +
                         std::to_string(rep.failures.size()) +
                         " failed point(s) and " +
                         std::to_string(rep.invariantDiags.size()) +
                         " invariant violation(s)";
            return res;
        }
        res.ok = true;
        return res;
    };
}

}  // namespace figs
