#!/usr/bin/env bash
# Applies the pair rule to the pinned kernel benchmarks of two checkouts
# of this repository: builds each checkout's root test binary, runs
# alternating rounds of the pinned set (base first in odd rounds, head
# first in even ones), prints benchdiff's table and exits with its
# status: 1 when head clearly lost some benchmark.
#
#   bash lint/cmd/benchdiff/rounds.sh <base-checkout> <head-checkout> [rounds]
#
# rounds defaults to 8; BENCHTIME (default 100ms) is each benchmark's
# -test.benchtime, and BENCH_OUT (default a fresh temporary directory)
# receives the binaries and each side's rounds.
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
rounds=${3:-8}
benchtime=${BENCHTIME:-100ms}
out=${BENCH_OUT:-$(mktemp -d)}
mkdir -p "$out"

pattern='^(BenchmarkEvaluateFullVsIncremental|BenchmarkNetworkBuild8x8|BenchmarkAnalyses|BenchmarkFig3Eval(PIP|VOPD|DVOPD)|BenchmarkTable2(VOPDMeshGA|DVOPDMeshGA|DVOPDMeshRPBLA))$'

(cd "$base" && go test -c -o "$out/base.test" .)
(cd "$head" && go test -c -o "$out/head.test" .)
(cd "$head/lint" && go build -o "$out/benchdiff" ./cmd/benchdiff)

: > "$out/base.txt"
: > "$out/head.txt"
for r in $(seq "$rounds"); do
	order="base head"
	if [ $((r % 2)) -eq 0 ]; then
		order="head base"
	fi
	for side in $order; do
		"$out/$side.test" -test.run '^$' -test.bench "$pattern" -test.benchtime "$benchtime" -test.benchmem >> "$out/$side.txt"
	done
done

"$out/benchdiff" "$out/base.txt" "$out/head.txt"
