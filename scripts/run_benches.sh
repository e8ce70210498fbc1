#!/usr/bin/env bash
# Runs the micro benches with JSON output so the perf trajectory is tracked
# across PRs. Invoked by the `bench-json` CMake target:
#   cmake --build build --target bench-json
# Writes BENCH_crypto.json and BENCH_middleware.json at the repo root.
#
# With --jobs N the scenario sweep benches (fig4a-d + ablations) run too,
# fanned out over N worker threads each via deploy::SweepRunner:
#   scripts/run_benches.sh --jobs 4 build
# Sweep metrics are bitwise identical for any N (only wall-clock changes);
# N is also exported as SOS_SWEEP_JOBS so the bench binaries pick it up
# when run directly. SOS_SUBEPISODE_JOBS / --subepisode-jobs additionally
# replays each cell on the contact-strand engine.
#
# With --check, no benches run: the script is the repo's full correctness
# gate, in three stages.
#   1. sos-lint: the determinism & constant-time static-analysis pass
#      (tools/sos_lint) over src/, plus its rule-fixture selftest.
#   2. ASan+UBSan: a combined -DSOS_SANITIZE=address,undefined build in
#      <build-dir>-asan runs the ENTIRE ctest suite with UB findings fatal
#      (-fno-sanitize-recover=undefined), then the fast `soak`-labelled
#      tier again on its own (checkpoint/resume pins under ASan).
#   3. TSan: a -DSOS_SANITIZE=thread build in <build-dir>-tsan runs the
#      `sweep`-, `fault`-, `mw`-, and `soak`-labelled suites, then re-runs the
#      randomized multi-community harness and the strand relay tests with
#      SOS_SUBEPISODE_JOBS=4, so the contact-strand worker pool is
#      exercised at a fixed width.
# Each sanitizer stage refuses to report "clean" unless the suite binaries
# are actually instrumented (stale cache / toolchain dropping the flag):
#   scripts/run_benches.sh --check build
set -euo pipefail

jobs=""
check=0
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs)   jobs="${2:?--jobs needs a value}"; shift 2 ;;
    --jobs=*) jobs="${1#--jobs=}"; shift ;;
    --check)  check=1; shift ;;
    *)        args+=("$1"); shift ;;
  esac
done

build_dir="${args[0]:?usage: run_benches.sh [--jobs N] [--check] <build-dir> [repo-root]}"
repo_root="${args[1]:-$(cd "$(dirname "$0")/.." && pwd)}"

# require_instrumented <dir> <symbol-prefix> <bin>...: refuse to bless a
# suite whose binaries silently built without the sanitizer runtime
# (stale cache / toolchain dropping the flag).
require_instrumented() {
  local dir="$1" sym="$2" bin
  shift 2
  for bin in "$@"; do
    # Plain grep (not -q): under pipefail, -q would SIGPIPE nm on the first
    # match and fail the healthy case.
    if ! nm "$dir/$bin" 2>/dev/null | grep "$sym" > /dev/null; then
      echo "error: $dir/$bin is not ${sym}-instrumented; refusing --check" >&2
      exit 1
    fi
  done
}

# require_cache_flag <dir> <value>: the configured cache must carry the
# requested SOS_SANITIZE value or the build is not the one we think it is.
require_cache_flag() {
  if ! grep -q "^SOS_SANITIZE:STRING=$2\$" "$1/CMakeCache.txt"; then
    echo "error: $1 was configured without SOS_SANITIZE=$2; refusing --check" >&2
    exit 1
  fi
}

if [[ $check -eq 1 ]]; then
  # -- stage 1: static analysis ---------------------------------------------
  echo "== lint: sos-lint over src/ + rule fixtures =="
  python3 "$repo_root/tools/sos_lint/sos_lint.py" --root "$repo_root"
  python3 "$repo_root/tools/sos_lint/sos_lint.py" --root "$repo_root" --selftest

  # -- stage 2: ASan+UBSan over the entire suite ----------------------------
  # Separate build trees keep instrumented objects away from the bench build.
  asan_dir="${build_dir%/}-asan"
  echo "== ASan+UBSan check: configuring $asan_dir =="
  cmake -B "$asan_dir" -S "$repo_root" -DSOS_SANITIZE=address,undefined \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  require_cache_flag "$asan_dir" "address,undefined"
  cmake --build "$asan_dir" -j "$(nproc)"
  require_instrumented "$asan_dir" __asan mw_test sweep_test episode_test fault_test soak_test
  require_instrumented "$asan_dir" __ubsan mw_test sweep_test episode_test fault_test soak_test
  echo "== ASan+UBSan check: full ctest suite =="
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir "$asan_dir" --output-on-failure
  echo "== ASan+UBSan check: fast soak tier (ctest -L soak) =="
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir "$asan_dir" -L soak --output-on-failure

  # -- stage 3: TSan over the concurrency-bearing suites --------------------
  tsan_dir="${build_dir%/}-tsan"
  echo "== TSan check: configuring $tsan_dir =="
  cmake -B "$tsan_dir" -S "$repo_root" -DSOS_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  require_cache_flag "$tsan_dir" thread
  cmake --build "$tsan_dir" -j "$(nproc)" --target sweep_test episode_test fault_test \
        bundle_test fastpath_test mw_test sim_test soak_test
  require_instrumented "$tsan_dir" __tsan sweep_test episode_test fault_test mw_test soak_test
  for label in sweep fault mw soak; do
    echo "== TSan check: ctest -L $label =="
    ctest --test-dir "$tsan_dir" -L "$label" --output-on-failure
  done
  echo "== TSan check: randomized multi-community harness, SOS_SUBEPISODE_JOBS=4 =="
  SOS_SUBEPISODE_JOBS=4 "$tsan_dir/episode_test" \
    --gtest_filter='RandomizedDeterminism.*:StrandReplay.*'
  echo "lint + ASan/UBSan full suite + TSan sweep/fault/mw suites clean"
  exit 0
fi

# Fail before running anything if a bench binary is missing: otherwise the
# script would die mid-way having refreshed only some BENCH_*.json files,
# leaving a silently inconsistent snapshot.
micro_benches=(bench_micro_crypto bench_micro_middleware)
scenario_benches=(bench_fig4a_social_graph bench_fig4b_mobility_map
                  bench_fig4c_delay_cdf bench_fig4d_delivery_cdf
                  bench_ablation_density bench_ablation_schemes)
required=("${micro_benches[@]}")
[[ -n "$jobs" ]] && required+=("${scenario_benches[@]}")
missing=0
for bench in "${required[@]}"; do
  if [[ ! -x "$build_dir/$bench" ]]; then
    echo "error: $build_dir/$bench not found or not executable" >&2
    echo "       (build it first: cmake --build $build_dir --target $bench)" >&2
    missing=1
  fi
done
[[ $missing -eq 0 ]] || exit 1

"$build_dir/bench_micro_crypto" \
  --benchmark_out="$repo_root/BENCH_crypto.json" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.2
"$build_dir/bench_micro_middleware" \
  --benchmark_out="$repo_root/BENCH_middleware.json" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.2

echo "wrote $repo_root/BENCH_crypto.json and $repo_root/BENCH_middleware.json"

if [[ -n "$jobs" ]]; then
  export SOS_SWEEP_JOBS="$jobs"
  for bench in "${scenario_benches[@]}"; do
    echo "== $bench --jobs $jobs =="
    "$build_dir/$bench" --jobs "$jobs"
  done
fi
