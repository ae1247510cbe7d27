#!/usr/bin/env bash
# Fair pairs of load-benchmark runs: the parent revision against the working
# tree, in ABBA order, summarised per end-to-end metric by
# scripts/pairstats.go (median paired ratio, pairs won, bootstrap 95 %
# interval, order effect) and by benchmark/run.sh -compare (the verdict by
# each metric's bound in BENCHMARK.json).
#
#   scripts/pairs.sh [-n pairs] [-dir d] <parent-ref> [workload …] [-- run.sh arguments …]
#   scripts/pairs.sh [-n pairs] [-dir d] -bench <regex> <pkg> <parent-ref>
#
# The parent is exported with git archive into <dir>/parent (a plain tree:
# no worktree is registered in the repository) and each side is built and
# run by its own unchanged benchmark/run.sh, with its own defaults and the
# arguments after --, the same on both sides (e.g. -- --seed 7). One
# discarded warm-up run per side comes first, then for each workload
# (default: all four) n pairs (default 10): parent first in even pairs, the
# working tree first in odd ones. Each side's -out records stay in <dir>
# (default: a new directory under $TMPDIR). The exit status is -compare's:
# 1 when a metric is worse than its bound.
#
# With -bench the pairs are of the in-repo benchmarks matching <regex> in
# package <pkg> (e.g. ./internal/engine). The working tree's _test.go files
# of <pkg> that declare a benchmark are copied over the parent's, so that a
# benchmark the change adds or edits runs the same on both sides (one that
# calls test code the change adds elsewhere will not build on the parent's
# side). Each side's test binary is built
# once and run with -test.count 1 -test.benchmem from its package directory,
# one discarded warm-up per side, then n ABBA pairs; pairstats.go -bench
# prints ns/op, B/op and allocs/op per benchmark. There is no bound to
# compare against: the exit status is 0.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
n=10 dir="" bench="" pkg=""
while [ $# -gt 0 ]; do
  case "$1" in
    -n) n="$2"; shift 2 ;;
    -dir) dir="$2"; shift 2 ;;
    -bench) [ $# -ge 3 ] || { sed -n '9p' "$0" >&2; exit 2; }; bench="$2" pkg="$3"; shift 3 ;;
    -*) echo "pairs.sh: unknown flag $1" >&2; exit 2 ;;
    *) break ;;
  esac
done
[ $# -ge 1 ] || { sed -n '8p' "$0" >&2; exit 2; }
ref="$1"; shift
workloads=() extra=()
while [ $# -gt 0 ] && [ "$1" != -- ]; do workloads+=("$1"); shift; done
[ $# -gt 0 ] && { shift; extra=("$@"); }
[ ${#workloads[@]} -gt 0 ] || workloads=(session_ingest dashboard_reads view_maintenance remote_reads)
dir="${dir:-$(mktemp -d "${TMPDIR:-/tmp}/expdb-pairs.XXXXXX")}"
mkdir -p "$dir/parent"
git -C "$root" archive "$ref" | tar -x -C "$dir/parent"

if [ -n "$bench" ]; then
  : >"$dir/parent.txt"
  : >"$dir/change.txt"
  for f in "$root/$pkg"/*_test.go; do
    if grep -q '^func Benchmark' "$f"; then cp "$f" "$dir/parent/$pkg/"; fi
  done
  (cd "$dir/parent" && go test -c -o "$dir/parent.test" "$pkg")
  (cd "$root" && go test -c -o "$dir/change.test" "$pkg")
  # runb <side> <out>: one run of the side's benchmarks.
  runb() {
    local tree="$dir/parent"
    [ "$1" = change ] && tree="$root"
    (cd "$tree/$pkg" && "$dir/$1.test" -test.run '^$' -test.bench "$bench" -test.benchmem -test.count 1 -test.timeout 30m) >>"$2" ||
      { cat "$2" >&2; exit 1; }
  }
  echo "pairs.sh: $ref against the working tree, $n pairs of -bench '$bench' $pkg, in $dir" >&2
  runb parent /dev/null
  runb change /dev/null
  for ((k = 0; k < n; k++)); do
    echo "pairs.sh: pair $((k + 1))/$n" >&2
    if ((k % 2 == 0)); then
      runb parent "$dir/parent.txt"
      runb change "$dir/change.txt"
    else
      runb change "$dir/change.txt"
      runb parent "$dir/parent.txt"
    fi
  done
  exec go run "$root/scripts/pairstats.go" -bench "$dir/parent.txt" "$dir/change.txt"
fi
: >"$dir/parent.jsonl"
: >"$dir/change.jsonl"

# run <side> <workload> [out]: one run of the benchmark of one side.
run() {
  local tree="$dir/parent"
  [ "$1" = change ] && tree="$root"
  local args=(--workload "$2" ${extra[@]+"${extra[@]}"})
  [ -n "${3:-}" ] && args+=(-out "$3")
  bash "$tree/benchmark/run.sh" "${args[@]}" >"$dir/last.log" 2>&1 ||
    { cat "$dir/last.log" >&2; exit 1; }
}

echo "pairs.sh: $ref against the working tree, $n pairs, run.sh arguments: ${extra[*]:-none}, in $dir" >&2
run parent "${workloads[0]}"
run change "${workloads[0]}"
for w in "${workloads[@]}"; do
  for ((k = 0; k < n; k++)); do
    echo "pairs.sh: $w pair $((k + 1))/$n" >&2
    if ((k % 2 == 0)); then
      run parent "$w" "$dir/parent.jsonl"
      run change "$w" "$dir/change.jsonl"
    else
      run change "$w" "$dir/change.jsonl"
      run parent "$w" "$dir/parent.jsonl"
    fi
  done
done
go run "$root/scripts/pairstats.go" -spec "$root/BENCHMARK.json" "$dir/parent.jsonl" "$dir/change.jsonl"
echo
bash "$root/benchmark/run.sh" -compare "$dir/parent.jsonl" "$dir/change.jsonl"
