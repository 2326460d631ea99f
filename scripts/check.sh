#!/usr/bin/env bash
# Full local correctness gate: configure + build + ctest (unit,
# determinism, RAS, lint) + melody-lint JSON report + clang-tidy
# (when installed). CI runs the same sequence; run this before
# pushing.
#
# Usage: scripts/check.sh [build-dir]   (default: build)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== configure (${BUILD_DIR}) =="
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo

echo "== build =="
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== ctest =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

echo "== melody-lint =="
# One pass over every file; the JSON report is the only file written.
"${BUILD_DIR}/tools/lint/melody_lint" \
    --json "${BUILD_DIR}/lint-report.json" \
    src tools examples tests
echo "report: ${BUILD_DIR}/lint-report.json"

echo "== clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
    # compile_commands.json makes tidy see the exact build flags.
    cmake -B "${BUILD_DIR}" -S . \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    mapfile -t TIDY_SOURCES < <(find src tools -name '*.cc' | sort)
    clang-tidy -p "${BUILD_DIR}" --quiet "${TIDY_SOURCES[@]}"
else
    echo "clang-tidy not installed; skipping (install it to run" \
         "the .clang-tidy profile)"
fi

echo "== all checks passed =="
