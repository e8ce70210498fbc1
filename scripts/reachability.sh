#!/usr/bin/env bash
# Reachability gate: fails when libsos.a defines a sos:: function that no
# shipped binary runs.
#
# Builds the library and every shipped binary (sos_soak, the bench_* and
# example_* programs, and the sosbench driver) at -O0 with one section per
# function and --gc-sections, so the linker drops every function no binary
# reaches and no caller is hidden by inlining. A library function is
# unreachable when `nm` finds it in libsos.a but in none of the binaries.
# Tests are not shipped binaries: a function only tests call is unreachable.
# Functions are compared by name, so a file-local function that shares its
# full name with a reachable one in another file is not reported.
#
#   scripts/reachability.sh [build-dir]     # default: build-reach/
#
# scripts/reachability_allow.txt lists the unreachable functions that stay,
# one demangled name per line, each followed by " # " and the reason (a test
# observer, reference or fixture, or a pending ROADMAP item). Exits 1 on an
# unreachable function that is not listed, and on a listed one that is no
# longer unreachable (deleted, or called by a binary now); 0 otherwise.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-reach}"
allow_file="$repo_root/scripts/reachability_allow.txt"
jobs="$(nproc)"

cmake_flags=(
  -DCMAKE_BUILD_TYPE=None
  "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

targets=(sos sos_soak)
for src in "$repo_root"/bench/*.cpp; do targets+=("bench_$(basename "$src" .cpp)"); done
for src in "$repo_root"/examples/*.cpp; do targets+=("example_$(basename "$src" .cpp)"); done

cmake -S "$repo_root" -B "$build_dir/main" "${cmake_flags[@]}" -DSOS_WERROR=OFF > /dev/null
cmake --build "$build_dir/main" -j "$jobs" --target "${targets[@]}" > /dev/null
cmake -S "$repo_root/sosbench" -B "$build_dir/sosbench" "${cmake_flags[@]}" > /dev/null
cmake --build "$build_dir/sosbench" -j "$jobs" --target sosbench > /dev/null

# Every target but the library itself is a shipped binary.
binaries=("$build_dir/sosbench/sosbench")
for target in "${targets[@]:1}"; do binaries+=("$build_dir/main/$target"); done

# sos_functions <file>...: the demangled names of the sos:: functions (and
# lambdas inside them) that the files define out of line, one per line,
# sorted. Inline and template functions (weak symbols) are left out: the
# library emits one only for a caller inside it, so an unreachable one hangs
# off an unreachable out-of-line function, which is reported.
sos_functions() {
  nm --defined-only "$@" \
    | awk '$2 ~ /^[Tt]$/ && $3 ~ /^_ZZ?N[KVRO]*3sos/ { print $3 }' \
    | c++filt | LC_ALL=C sort -u
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
sos_functions "$build_dir/main/libsos.a" > "$tmp/library"
sos_functions "${binaries[@]}" > "$tmp/linked"
LC_ALL=C comm -23 "$tmp/library" "$tmp/linked" > "$tmp/unreachable"
sed -e '/^[[:space:]]*$/d' -e '/^#/d' -e 's/ # .*$//' "$allow_file" \
  | LC_ALL=C sort -u > "$tmp/allowed"

LC_ALL=C comm -23 "$tmp/unreachable" "$tmp/allowed" > "$tmp/new"
LC_ALL=C comm -13 "$tmp/unreachable" "$tmp/allowed" > "$tmp/stale"

echo "reachability: $(wc -l < "$tmp/library") sos:: functions in libsos.a," \
     "$(wc -l < "$tmp/unreachable") unreachable from ${#binaries[@]} binaries," \
     "$(wc -l < "$tmp/allowed") allowlisted"
status=0
if [[ -s "$tmp/new" ]]; then
  echo "reachability: no shipped binary runs these; call them, delete them, or" \
       "allowlist them with a reason in scripts/reachability_allow.txt:" >&2
  sed 's/^/  /' "$tmp/new" >&2
  status=1
fi
if [[ -s "$tmp/stale" ]]; then
  echo "reachability: these allowlist entries are not unreachable library" \
       "functions any more (deleted, or now called); drop them:" >&2
  sed 's/^/  /' "$tmp/stale" >&2
  status=1
fi
exit "$status"
