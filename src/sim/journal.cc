#include "journal.hh"

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string_view>
#include <system_error>
#include <utility>

#include "sim/io_fault.hh"
#include "sim/logging.hh"
#include "stats/json.hh"
#include "stats/rows.hh"

namespace cxlsim::sweep {

namespace {

constexpr const char *kHexDigits = "0123456789abcdef";

/** Hex-encode arbitrary bytes (keeps journal values escape-free). */
std::string
hexEncode(const std::string &bytes)
{
    std::string out;
    out.reserve(bytes.size() * 2);
    for (unsigned char c : bytes) {
        out += kHexDigits[c >> 4];
        out += kHexDigits[c & 0xf];
    }
    return out;
}

int
hexNibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    return -1;
}

bool
hexDecode(std::string_view hex, std::string *out)
{
    if (hex.size() % 2 != 0)
        return false;
    out->clear();
    out->reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
        const int hi = hexNibble(hex[i]);
        const int lo = hexNibble(hex[i + 1]);
        if (hi < 0 || lo < 0)
            return false;
        out->push_back(static_cast<char>((hi << 4) | lo));
    }
    return true;
}

/**
 * Extract the string value of @p key from one JSONL line written
 * by this file's writer: finds `"key":"` and unescapes up to the
 * closing quote (exactly the escapes stats::JsonWriter emits).
 * Returns false when the key is absent or the value is torn.
 */
bool
extractString(const std::string &line, const std::string &key,
              std::string *out)
{
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    out->clear();
    for (std::size_t i = at + needle.size(); i < line.size(); ++i) {
        char c = line[i];
        if (c == '"')
            return true;
        if (c != '\\') {
            out->push_back(c);
            continue;
        }
        if (++i >= line.size())
            return false;
        switch (line[i]) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            if (i + 4 >= line.size())
                return false;
            unsigned v = 0;
            for (int k = 0; k < 4; ++k) {
                const int n = hexNibble(static_cast<char>(
                    std::tolower(line[i + 1 + k])));
                if (n < 0)
                    return false;
                v = (v << 4) | static_cast<unsigned>(n);
            }
            // The writer only emits \u for control bytes.
            out->push_back(static_cast<char>(v & 0xff));
            i += 4;
            break;
          }
          default:
            return false;
        }
    }
    return false;  // unterminated (torn final line)
}

}  // namespace

Journal::~Journal()
{
    if (f_)
        sim::iofault::xfclose(f_);
}

void
Journal::open(const std::string &path, bool keep)
{
    path_ = path;
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
    }
    f_ = sim::iofault::xfopen(path.c_str(), keep ? "abe" : "wbe");
    if (!f_) {
        failure_ = "open-failed: " + path;
        SIM_WARN("sweep journal: cannot open '" + path +
                 "'; journaling disabled for this run");
    }
}

void
Journal::append(const std::string &line)
{
    if (!f_)
        return;
    namespace iof = sim::iofault;
    // One buffered write + flush per record: a crash can tear at
    // most the final line, which load() skips.
    const bool ok =
        iof::xfwrite(line.data(), 1, line.size(), f_) ==
            line.size() &&
        iof::xfputc('\n', f_) != EOF && iof::xfflush(f_) == 0;
    if (!ok) {
        iof::xfclose(f_);
        f_ = nullptr;
        failure_ = "write-failed: " + path_;
        if (!warned_) {
            warned_ = true;
            SIM_WARN("sweep journal: write to '" + path_ +
                     "' failed; journaling disabled for this run");
        }
    }
}

void
Journal::begin(const std::string &name, const std::string &salt,
               bool resumed)
{
    stats::JsonWriter j;
    j.beginObject();
    j.field("event", "sweep");
    j.field("v", 1);
    j.field("name", name);
    j.field("salt", salt);
    j.field("resumed", resumed);
    j.endObject();
    append(j.str());
}

void
Journal::queued(const std::string &hash, std::size_t point,
                const std::string &key)
{
    stats::JsonWriter j;
    j.beginObject();
    j.field("event", "queued");
    j.field("hash", hash);
    j.field("point", static_cast<std::uint64_t>(point));
    j.field("key", key);
    j.endObject();
    append(j.str());
}

void
Journal::started(const std::string &hash, unsigned attempt)
{
    stats::JsonWriter j;
    j.beginObject();
    j.field("event", "started");
    j.field("hash", hash);
    j.field("attempt", attempt);
    j.endObject();
    append(j.str());
}

void
Journal::finished(const std::string &hash, unsigned attempt,
                  const std::vector<std::string> &slots)
{
    stats::JsonWriter j;
    j.beginObject();
    j.field("event", "finished");
    j.field("hash", hash);
    j.field("attempt", attempt);
    j.field("slots_hex", hexEncode(stats::encodeRows(slots)));
    j.endObject();
    append(j.str());
}

void
Journal::failed(const std::string &hash, unsigned attempt,
                const std::string &cause, bool final)
{
    stats::JsonWriter j;
    j.beginObject();
    j.field("event", "failed");
    j.field("hash", hash);
    j.field("attempt", attempt);
    j.field("cause", cause);
    j.field("final", final);
    j.endObject();
    append(j.str());
}

bool
Journal::load(const std::string &path, const std::string &salt,
              std::map<std::string, std::vector<std::string>> *done,
              std::string *err)
{
    std::FILE *f = std::fopen(path.c_str(), "rbe");
    if (!f) {
        *err = "cannot read journal '" + path + "'";
        return false;
    }
    std::string data;
    char buf[1 << 14];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, n);
    const bool readOk = !std::ferror(f);
    std::fclose(f);
    if (!readOk) {
        *err = "error reading journal '" + path + "'";
        return false;
    }

    bool sawHeader = false;
    std::size_t pos = 0;
    while (pos < data.size()) {
        std::size_t nl = data.find('\n', pos);
        if (nl == std::string::npos)
            break;  // trailing torn line: ignore
        const std::string line = data.substr(pos, nl - pos);
        pos = nl + 1;

        std::string event;
        if (!extractString(line, "event", &event))
            continue;  // foreign or garbled line
        if (event == "sweep") {
            std::string jsalt;
            if (!extractString(line, "salt", &jsalt)) {
                *err = "journal '" + path + "' has a malformed "
                       "header";
                return false;
            }
            if (jsalt != salt) {
                *err = "journal '" + path +
                       "' was written under salt '" + jsalt +
                       "' (current salt '" + salt +
                       "'); delete it and rerun without --resume";
                return false;
            }
            sawHeader = true;
            continue;
        }
        if (event != "finished")
            continue;
        std::string hash, slotsHex, blob;
        std::vector<std::string> slots;
        if (!extractString(line, "hash", &hash) ||
            !extractString(line, "slots_hex", &slotsHex) ||
            !hexDecode(slotsHex, &blob) ||
            !stats::decodeRows(blob, &slots))
            continue;  // torn record: the point just recomputes
        (*done)[hash] = std::move(slots);
    }
    if (!sawHeader) {
        *err = "journal '" + path + "' has no sweep header "
               "(not a melody sweep journal?)";
        return false;
    }
    return true;
}

}  // namespace cxlsim::sweep
