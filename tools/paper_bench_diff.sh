#!/usr/bin/env bash
# Runs the deterministic paper and ablation benches from two build trees
# and diffs what they print. Every figure these benches print is modeled
# (pages, tuples, cost-model ms, CSR) and repeats exactly run to run, apart
# from PrintResult's wall_s column, which is real elapsed time and is
# dropped before the diff.
#
# The benches are fig09-fig14, csr_simulation, bitmap_model and ablations.
# The scale comes from CHUNKCACHE_BENCH_SCALE and CHUNKCACHE_BENCH_QUERIES,
# defaulting to CI's bench-smoke values, 0.05 and 60.
#
# Usage: tools/paper_bench_diff.sh PARENT_BUILD CHANGE_BUILD
#   Each argument is a CMake build tree that holds bench/bench_* (the
#   repo's build/, or one configured in a checkout of the parent commit).
#   Prints "same" or the diff per bench; exits 1 when any bench differs
#   or fails on either side, 0 when all print the same numbers.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
export CHUNKCACHE_BENCH_SCALE="${CHUNKCACHE_BENCH_SCALE:-0.05}"
export CHUNKCACHE_BENCH_QUERIES="${CHUNKCACHE_BENCH_QUERIES:-60}"

benches="bench_fig09_locality_types bench_fig10_locality_pct
  bench_fig11_cache_size bench_fig12_chunk_range bench_fig13_replacement
  bench_fig14_bitmap bench_csr_simulation bench_bitmap_model bench_ablations"

# PrintResult's header and rows are the only lines with nine fields whose
# third is "queries" or a count; their ninth is wall_s.
strip_wall() {
  awk 'NF == 9 && ($3 == "queries" || $3 ~ /^[0-9]+$/) {
         sub(/[ ]+[^ ]+$/, "")
       }
       { print }'
}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

echo "scale $CHUNKCACHE_BENCH_SCALE, $CHUNKCACHE_BENCH_QUERIES queries"
status=0
for b in $benches; do
  ran=1
  for side in parent change; do
    if [ "$side" = parent ]; then dir=$1; else dir=$2; fi
    if ! "$dir/bench/$b" >"$out/$side.raw" 2>&1; then
      echo "$b: FAILED in $dir"
      ran=0
    fi
    strip_wall <"$out/$side.raw" >"$out/$side.txt"
  done
  if [ "$ran" = 0 ]; then
    status=1
  elif diff -u "$out/parent.txt" "$out/change.txt" >"$out/diff"; then
    echo "$b: same"
  else
    echo "$b: DIFFERS"
    cat "$out/diff"
    status=1
  fi
done
exit "$status"
