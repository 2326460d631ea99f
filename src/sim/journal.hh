/**
 * @file
 * Sweep execution journal: an append-only JSONL record of every
 * point's lifecycle, written by the supervised sweep runner
 * (src/sim/supervisor.hh) and consumed by `melody sweep --resume`.
 *
 * The run cache (src/sim/run_cache.hh) only ever records
 * *successful* completions, and the plain engine only stores them
 * after the whole sweep finishes — a sweep killed mid-run leaves
 * nothing behind. The journal is stronger on both axes: each
 * point's queued → started → finished/failed transitions are
 * appended (and flushed) the moment they happen, each `finished`
 * record carries the point's full output slots, and each `failed`
 * record carries the attempt count and structured exit cause. A
 * `--resume` run therefore skips every journaled-complete point
 * even if the previous process died between two points — or inside
 * one.
 *
 * One JSON object per line:
 *
 *   {"event":"sweep","name":...,"salt":...,"resumed":false}
 *   {"event":"queued","hash":"<16-hex>","point":N,"key":...}
 *   {"event":"started","hash":...,"attempt":N}
 *   {"event":"finished","hash":...,"attempt":N,"slots_hex":"..."}
 *   {"event":"failed","hash":...,"attempt":N,"cause":...,
 *    "final":true|false}
 *
 * `hash` is the same salted fnv1a64 addressing the run cache uses,
 * so a salt bump orphans journal entries exactly like cache
 * entries (load() refuses a journal whose header salt differs).
 * `slots_hex` is the stats::encodeRows framing of the point's
 * slots, hex-encoded: structurally self-validating on decode and
 * trivially parseable without a full JSON parser. Appends are one
 * buffered write + flush per line, so a crash can tear at most the
 * final line — load() ignores a trailing partial line.
 */

#ifndef CXLSIM_SIM_JOURNAL_HH
#define CXLSIM_SIM_JOURNAL_HH

#include <cstddef>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace cxlsim::sweep {

/** Writer/loader for one sweep journal file. */
class Journal
{
  public:
    /** A journal that writes nowhere (journaling disabled). */
    Journal() = default;

    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Open @p path for appending; truncates first unless
     * @p keep. Write failures disable the journal with a warning
     * rather than failing the sweep (mirrors RunCache).
     */
    void open(const std::string &path, bool keep);

    bool active() const { return f_ != nullptr; }

    /**
     * Why journaling stopped, as a short structured reason
     * ("open-failed: <path>" / "write-failed: <path>"), or empty
     * while healthy (or never opened). Sweep reports surface this
     * so a lost journal is a visible per-run diagnostic, not just
     * one stderr line.
     */
    const std::string &failure() const { return failure_; }

    /** Header record naming the sweep and its cache salt. */
    void begin(const std::string &name, const std::string &salt,
               bool resumed);

    void queued(const std::string &hash, std::size_t point,
                const std::string &key);
    void started(const std::string &hash, unsigned attempt);
    void finished(const std::string &hash, unsigned attempt,
                  const std::vector<std::string> &slots);
    void failed(const std::string &hash, unsigned attempt,
                const std::string &cause, bool final);

    /**
     * Load the completions journaled in @p path: fills @p done
     * with hash -> decoded slots for every `finished` record
     * (last one wins). Returns false with a message in @p err when
     * the file is unreadable, has no header, or was written under
     * a different @p salt. Torn or foreign lines are skipped, and
     * so are fields this reader does not know (older journals
     * carried an `elapsed_us` per `finished` record).
     */
    static bool load(
        const std::string &path, const std::string &salt,
        std::map<std::string, std::vector<std::string>> *done,
        std::string *err);

  private:
    void append(const std::string &line);

    std::FILE *f_ = nullptr;
    std::string path_;
    std::string failure_;
    bool warned_ = false;
};

}  // namespace cxlsim::sweep

#endif  // CXLSIM_SIM_JOURNAL_HH
