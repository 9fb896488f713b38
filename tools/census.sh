#!/usr/bin/env bash
# Link-level census of src/: prints every out-of-line chunkcache:: function
# defined in a libchunkcache_*.a that no deployed binary keeps.
#
# Deployed binaries are the ten paper, ablation and overhead benches, the
# five examples and bench_e2e (its own CMake project under bench/e2e).
# Everything is built at -O0 with one section per function and linked
# with --gc-sections, so a binary keeps exactly the functions it can
# reach. -O0 matters: at -O2 small helpers that are in fact called get
# inlined everywhere and would be reported as unreached.
#
# Header-inline functions are never defined out of line in a library, so
# this census cannot see them; cover those by grep.
#
# Usage: tools/census.sh   (builds into build-census/ at the repo root;
# about 1.5 min on 4 cores)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/build-census"
jobs=4
flags="-O0 -ffunction-sections -fdata-sections"
link="-Wl,--gc-sections"

benches="bench_fig09_locality_types bench_fig10_locality_pct
  bench_csr_simulation bench_fig11_cache_size bench_fig12_chunk_range
  bench_fig13_replacement bench_fig14_bitmap bench_bitmap_model
  bench_ablations bench_overhead"
examples="quickstart sales_analysis workload_explorer clustering_demo shell"

configure() {
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS="$link" >/dev/null
}

configure "$root" "$out/main"
# shellcheck disable=SC2086
cmake --build "$out/main" -j "$jobs" --target $benches $examples >/dev/null
configure "$root/bench/e2e" "$out/e2e"
cmake --build "$out/e2e" -j "$jobs" --target bench_e2e >/dev/null

bins=()
for b in $benches; do bins+=("$out/main/bench/$b"); done
for e in $examples; do bins+=("$out/main/examples/$e"); done
bins+=("$out/e2e/bench_e2e")

# Demangled names of out-of-line functions: nm's type column T.
defined() {
  nm -C --defined-only "$@" 2>/dev/null |
    awk '$2 == "T" { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
    grep '^chunkcache::' | sort -u
}

mapfile -t libs < <(find "$out/main/src" -name 'libchunkcache_*.a' | sort)
comm -23 <(defined "${libs[@]}") \
  <(nm -C "${bins[@]}" 2>/dev/null | cut -c20- | sort -u)
