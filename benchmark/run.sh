#!/usr/bin/env bash
# Build the benchmark program (mmbench_perf) into benchmark/build/ and run
# it from the repository root. Arguments go to mmbench_perf:
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--quick] [--out DIR]
#
# The build log lands in benchmark/build/build.log. A failed build exits
# non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/build"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
    echo "run.sh: no mmbench sources in $root" >&2
    exit 2
fi

# Keep compiler temporaries and the solver perf-db inside the checkout.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
export MMBENCH_PERFDB="$build/perfdb.json"
# mmbench_perf uses at most four threads.
export MMBENCH_NUM_THREADS=4

if ! {
    if [[ ! -f "$build/CMakeCache.txt" ]]; then
        cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
    fi
    cmake --build "$build" -j 4
} >"$build/build.log" 2>&1; then
    tail -n 30 "$build/build.log" >&2
    echo "run.sh: build failed (log: $build/build.log)" >&2
    exit 3
fi

commit="unknown"
if [[ -d "$root/.git" ]]; then
    commit="$(git --git-dir="$root/.git" --work-tree="$root" \
                  describe --always --dirty 2>/dev/null || echo unknown)"
fi

cd "$root"
exec "$build/mmbench_perf" --commit "$commit" "$@"
