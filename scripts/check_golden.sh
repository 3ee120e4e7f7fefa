#!/usr/bin/env bash
# Golden runner: runs <binary> in <workdir>, fails if it exits non-zero,
# and diffs its stdout against <expected>. When a BENCH_<stem>.json
# baseline sits next to <expected> (stem = binary name minus "bench_"),
# the fresh BENCH json must also pass compare_bench.py. CMakeLists.txt
# registers one `golden.<binary>` ctest per file in docs/expected/.
#
# Usage: check_golden.sh <binary> <expected.txt> <workdir>
set -euo pipefail

binary=$(realpath "$1")
expected=$(realpath "$2")
compare=$(realpath "$(dirname "$0")/compare_bench.py")
name=$(basename "$binary")
json=BENCH_${name#bench_}.json
baseline=$(dirname "$expected")/$json

mkdir -p "$3"
cd "$3"
"$binary" > "$name.txt"
diff -u "$expected" "$name.txt"
if [ -f "$baseline" ]; then
    "$compare" "$baseline" "$json"
fi
