#!/usr/bin/env bash
# Runs every bench binary and stamps each recorded BENCH_*.json with a
# uniform provenance block (git commit, build flags, thread count, run
# time), so recorded artifacts are traceable to the build that produced
# them.
#
# Usage: tools/bench_all.sh [BUILD_DIR] [--smoke]
#
#   BUILD_DIR  cmake build tree holding bench/ (default: ./build); it must
#              be configured with -DCMAKE_BUILD_TYPE=Release, e.g.
#              cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
#   --smoke    pass --smoke to every bench (short run, same artifacts)
#
# JSON-emitting benches write into bench/BENCH_<exp>.json in the source
# tree; the remaining benches print their reproduced artifact to stdout.
set -euo pipefail

repo_dir="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_dir}/build"
smoke=""
for arg in "$@"; do
  case "$arg" in
    --smoke) smoke="--smoke" ;;
    *) build_dir="$(cd "$arg" && pwd)" ;;
  esac
done
bench_dir="${build_dir}/bench"
[ -d "$bench_dir" ] || { echo "no bench dir at ${bench_dir} — build first" >&2; exit 1; }

# --- Provenance, shared by every artifact this run produces ---
git_commit="$(git -C "$repo_dir" rev-parse HEAD 2>/dev/null || echo unknown)"
git_dirty=false
[ -n "$(git -C "$repo_dir" status --porcelain 2>/dev/null)" ] && git_dirty=true
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "${build_dir}/CMakeCache.txt" 2>/dev/null || true)"
if [ "$build_type" != "Release" ]; then
  echo "build tree ${build_dir} is '${build_type:-unset}', not Release: BENCH artifacts come only from Release builds" >&2
  exit 1
fi
cxx_flags="$(sed -n 's/^CMAKE_CXX_FLAGS:[^=]*=//p' "${build_dir}/CMakeCache.txt" 2>/dev/null || true)"
threads="$(nproc 2>/dev/null || echo 1)"
run_utc="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

provenance=$(printf '  "provenance": {"git_commit": "%s", "git_dirty": %s, "build_type": "%s", "cxx_flags": "%s", "hardware_threads": %s, "run_utc": "%s", "args": "%s"},' \
  "$git_commit" "$git_dirty" "${build_type:-unset}" "${cxx_flags:-}" "$threads" "$run_utc" "${smoke:-full}")

# Injects the provenance block right after the opening brace of a
# BENCH_*.json written by a bench binary this run. Drops any previous
# stamp first, so re-stamping a file the bench did not rewrite (e.g. a
# mode that skips the JSON artifact) cannot accumulate duplicates.
stamp() {
  local json="$1"
  [ -f "$json" ] || return 0
  awk -v prov="$provenance" \
    '/^  "provenance": / {next} NR==1 {print; print prov; next} {print}' \
    "$json" > "${json}.tmp" && mv "${json}.tmp" "$json"
  echo "stamped $(basename "$json")"
}

# Benches that record a JSON artifact: name -> BENCH file.
declare -A json_benches=(
  [bench_e7_ibe_primitives]=BENCH_e7.json
  [bench_e8_scalability]=BENCH_e8.json
  [bench_e15_resilience]=BENCH_e15.json
  [bench_e16_observability]=BENCH_e16.json
  [bench_e17_batching]=BENCH_e17.json
  [bench_e18_fleet]=BENCH_e18.json
  [bench_e19_shardscale]=BENCH_e19.json
  [bench_e20_controlplane]=BENCH_e20.json
)

# Benches that understand --smoke themselves. The rest are plain
# google-benchmark binaries, which reject unknown flags — for those,
# smoke mode prints the reproduced artifact and filters out every timed
# suite instead.
declare -A smoke_aware=(
  [bench_e7_ibe_primitives]=1 [bench_e8_scalability]=1
  [bench_e15_resilience]=1 [bench_e16_observability]=1
  [bench_e17_batching]=1 [bench_e18_fleet]=1
  [bench_e19_shardscale]=1 [bench_e20_controlplane]=1
  [bench_fig2_key_retrieval]=1 [bench_fig3_components]=1
)

# Per-bench extra flags. E8 records its JSON only in concurrent-
# deployment mode, and the recorded sweep covers 1..8 dispatch workers.
declare -A extra_flags=(
  [bench_e8_scalability]="--threads=8"
)

failures=0
for bin in "$bench_dir"/bench_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  flags=()
  if [ -n "${extra_flags[$name]:-}" ]; then flags+=(${extra_flags[$name]}); fi
  if [ -n "$smoke" ]; then
    if [ -n "${smoke_aware[$name]:-}" ]; then flags+=("--smoke")
    else flags+=("--benchmark_filter=^\$"); fi
  fi
  if [ -n "${json_benches[$name]:-}" ]; then
    flags+=("--json=${repo_dir}/bench/${json_benches[$name]}")
  fi
  echo
  echo "=== ${name} ${flags[*]:-} ==="
  if "$bin" "${flags[@]}"; then
    if [ -n "${json_benches[$name]:-}" ]; then
      stamp "${repo_dir}/bench/${json_benches[$name]}"
    fi
  else
    echo "FAILED: ${name}" >&2
    failures=$((failures + 1))
  fi
done

echo
if [ "$failures" -ne 0 ]; then
  echo "${failures} bench(es) failed" >&2
  exit 1
fi
echo "all benches completed; artifacts stamped with commit ${git_commit}"
