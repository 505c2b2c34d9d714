#!/usr/bin/env bash
# usage: scripts/alloc_ceiling_gate.sh <package> <bench-regex> <max-bytes-per-op>
#
# The allocation ceiling CI puts on the set-up path, next to
# zero_alloc_gate.sh's gate on the serving paths: runs the one benchmark
# matching <bench-regex> in <package> for 10 iterations and fails unless
# exactly one result row comes back and its B/op is at most
# <max-bytes-per-op>. A set-up step has to allocate its outputs, so the gate
# is a ceiling just above them: a per-label table sneaking back in doubles
# the figure. The row count is part of the gate so a renamed or deleted
# benchmark fails it instead of passing vacuously.
set -euo pipefail

if [ $# -ne 3 ]; then
	echo "usage: $0 <package> <bench-regex> <max-bytes-per-op>" >&2
	exit 2
fi
pkg=$1 re=$2 max=$3

out=$(go test -run '^$' -bench "$re" -benchtime 10x -benchmem "$pkg")
echo "$out"
echo "$out" | awk -v max="$max" -v pkg="$pkg" '
	/^Benchmark/ && /B\/op/ {
		rows++
		if ($(NF-3) + 0 > max + 0) { print "alloc ceiling: " pkg " allocates more than " max " B/op: " $0; bad = 1 }
	}
	END {
		if (rows != 1) { print "alloc ceiling: " pkg ": expected 1 benchmark row, saw " rows+0; bad = 1 }
		exit bad
	}'
