/**
 * @file
 * melody-lint tree driver: one serial pass that reads and lints
 * every file in sorted path order, then the project phase
 * (include-cycle detection over the repo-wide graph), plus the
 * JSON report writer. In the core library (not main.cc) so tests
 * can exercise it.
 *
 * Nothing persists between runs: every scan lints every file with
 * the rules as built, so a rule change shows on the next run.
 */

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hh"
#include "project.hh"

namespace fs = std::filesystem;

namespace melodylint {
namespace {

bool
lintableFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".cpp" || ext == ".cxx" ||
           ext == ".hh" || ext == ".h" || ext == ".hpp";
}

/** Directories that hold generated or fixture content, not code. */
bool
skippedDir(const std::string &name)
{
    return name == "lint_fixtures" || name == ".git" ||
           name == "CMakeFiles" || name == "results" ||
           name.rfind("build", 0) == 0;
}

std::string
readFile(const fs::path &p, bool *ok)
{
    std::ifstream in(p, std::ios::binary);
    *ok = static_cast<bool>(in);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Repo-relative-ish display path: strip a leading "./". */
std::string
displayPath(const fs::path &p)
{
    std::string s = p.generic_string();
    if (s.rfind("./", 0) == 0)
        s = s.substr(2);
    return s;
}

std::vector<fs::path>
collectFiles(const std::vector<std::string> &roots)
{
    std::vector<fs::path> files;
    for (const std::string &root : roots) {
        fs::path rp(root);
        std::error_code ec;
        if (fs::is_regular_file(rp, ec)) {
            files.push_back(rp);
            continue;
        }
        if (!fs::is_directory(rp, ec)) {
            std::cerr << "melody-lint: no such path: " << root
                      << "\n";
            continue;
        }
        fs::recursive_directory_iterator it(
            rp, fs::directory_options::skip_permission_denied, ec);
        for (auto end = fs::end(it); it != end; it.increment(ec)) {
            if (ec)
                break;
            const fs::directory_entry &e = *it;
            if (e.is_directory(ec)) {
                if (skippedDir(e.path().filename().string()))
                    it.disable_recursion_pending();
                continue;
            }
            if (e.is_regular_file(ec) && lintableFile(e.path()))
                files.push_back(e.path());
        }
    }
    std::sort(files.begin(), files.end(),
              [](const fs::path &a, const fs::path &b) {
                  return a.generic_string() < b.generic_string();
              });
    files.erase(std::unique(files.begin(), files.end()),
                files.end());
    return files;
}

}  // namespace

Report
lintTree(const std::vector<std::string> &roots)
{
    const auto t0 = std::chrono::steady_clock::now();
    Report report;

    // Files come sorted by path, so diagnostics aggregate in path
    // order; per-file diags are already (line, rule)-sorted by
    // lintSource.
    std::vector<ScannedFile> scanned;
    for (const fs::path &file : collectFiles(roots)) {
        bool ok = false;
        const std::string content = readFile(file, &ok);
        if (!ok) {
            std::cerr << "melody-lint: cannot read " << file << "\n";
            continue;
        }
        ScannedFile &sf = scanned.emplace_back();
        sf.path = displayPath(file);
        std::vector<SuppressionNote> notes;
        const std::vector<Diagnostic> diags =
            lintSource(sf.path, content, &report.suppressed, &notes,
                       &sf.includes);
        report.diags.insert(report.diags.end(), diags.begin(),
                            diags.end());
        report.suppressions.insert(report.suppressions.end(),
                                   notes.begin(), notes.end());
        ++report.filesScanned;
    }

    // Project phase: include cycles over the whole scanned set.
    const std::vector<Diagnostic> cycles =
        projectIncludeCycles(scanned);
    report.diags.insert(report.diags.end(), cycles.begin(),
                        cycles.end());

    report.elapsedMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    return report;
}

void
writeJsonReport(const Report &report, std::ostream &os)
{
    auto escape = [](const std::string &s) {
        std::string out;
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out;
    };
    os << "{\n  \"filesScanned\": " << report.filesScanned
       << ",\n  \"errors\": " << report.errorCount()
       << ",\n  \"warnings\": " << report.warningCount()
       << ",\n  \"suppressed\": " << report.suppressed
       << ",\n  \"elapsedMs\": " << report.elapsedMs
       << ",\n  \"diagnostics\": [";
    for (std::size_t i = 0; i < report.diags.size(); ++i) {
        const Diagnostic &d = report.diags[i];
        os << (i ? "," : "") << "\n    {\"path\": \""
           << escape(d.path) << "\", \"line\": " << d.line
           << ", \"rule\": \"" << escape(d.rule)
           << "\", \"severity\": \"" << severityName(d.severity)
           << "\", \"message\": \"" << escape(d.message) << "\"}";
    }
    os << (report.diags.empty() ? "" : "\n  ")
       << "],\n  \"suppressions\": [";
    for (std::size_t i = 0; i < report.suppressions.size(); ++i) {
        const SuppressionNote &n = report.suppressions[i];
        os << (i ? "," : "") << "\n    {\"path\": \""
           << escape(n.path) << "\", \"line\": " << n.line
           << ", \"rule\": \"" << escape(n.rule)
           << "\", \"reason\": \"" << escape(n.reason) << "\"}";
    }
    os << (report.suppressions.empty() ? "" : "\n  ") << "]\n}\n";
}

}  // namespace melodylint
