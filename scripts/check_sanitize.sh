#!/usr/bin/env sh
# Run the replay suites under AddressSanitizer and
# UndefinedBehaviorSanitizer, with libstdc++'s container assertions on.
#
# The replay views drive the Checked = false scheme bodies
# (src/win/window_file.h policy note), which evaluate no structural
# assertion. A slip there corrupts memory instead of failing one test
# case, and can take the whole test binary down before its remaining
# cases report. Under the sanitizers the first bad access or undefined
# operation stops the test that made it, with a stack trace.
#
# The script configures <build-dir> with the sanitizer flags in
# CMAKE_CXX_FLAGS, builds test_win, test_trace and test_bench, runs
# the replay suites (the replay net, the lockstep batch and single-view
# suites, the lazy run, the op tape, the script tallies and the
# microtrace walks) and fails if any test fails or any sanitizer
# report appears in their output.
#
# Usage: scripts/check_sanitize.sh [build-dir]
#   build-dir  CMake build tree to configure (default: build-sanitize);
#              keep it apart from the normal build, whose flags it sets
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-build-sanitize}
jobs=$(nproc 2>/dev/null || echo 2)
flags="-fsanitize=address,undefined -fno-sanitize-recover=undefined"
flags="$flags -D_GLIBCXX_ASSERTIONS -fno-omit-frame-pointer"

cmake -B "$build_dir" -S "$root" -DCMAKE_CXX_FLAGS="$flags" >/dev/null
cmake --build "$build_dir" -j "$jobs" \
    --target test_win test_trace test_bench

log=$(mktemp)
trap 'rm -f "$log"' EXIT
status=0
ASAN_OPTIONS=abort_on_error=0:detect_leaks=1 \
UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" \
    -R 'ReplayNet|BatchReplay|FastReplay|LazyRun|OpTape|ScriptTallies|Microtrace' \
    >"$log" 2>&1 || status=$?
tail -n 3 "$log"
if grep -E 'ERROR: (Address|Leak)Sanitizer|runtime error:|SUMMARY: ' \
    "$log"; then
    echo "check_sanitize: sanitizer report above" >&2
    exit 1
fi
if [ "$status" -ne 0 ]; then
    grep -E '\(Failed\)|\(Timeout\)|Exception' "$log" >&2 || true
    echo "check_sanitize: ctest failed (exit $status)" >&2
    exit 1
fi
if ! grep -q '100% tests passed' "$log"; then
    echo "check_sanitize: no test ran" >&2
    exit 1
fi
echo "check_sanitize: ok"
