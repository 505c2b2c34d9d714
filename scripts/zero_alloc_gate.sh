#!/usr/bin/env bash
# usage: scripts/zero_alloc_gate.sh <package> <bench-regex> <expected-rows>
#
# The zero-allocation gate CI puts on every hot serving path: runs the
# benchmarks matching <bench-regex> in <package> for 100 iterations and fails
# unless exactly <expected-rows> result rows come back and every one reports
# 0 allocs/op. The row count is part of the gate so a renamed or deleted
# benchmark fails it instead of passing vacuously.
set -euo pipefail

if [ $# -ne 3 ]; then
	echo "usage: $0 <package> <bench-regex> <expected-rows>" >&2
	exit 2
fi
pkg=$1 re=$2 want=$3

out=$(go test -run '^$' -bench "$re" -benchtime 100x -benchmem "$pkg")
echo "$out"
echo "$out" | awk -v want="$want" -v pkg="$pkg" '
	/^Benchmark/ && /allocs\/op/ {
		rows++
		if ($(NF-1) != 0) { print "zero-alloc gate: " pkg " allocates: " $0; bad = 1 }
	}
	END {
		if (rows != want) { print "zero-alloc gate: " pkg ": expected " want " benchmark rows, saw " rows+0; bad = 1 }
		exit bad
	}'
