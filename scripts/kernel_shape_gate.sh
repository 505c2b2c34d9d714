#!/usr/bin/env bash
# usage: scripts/kernel_shape_gate.sh
#
# The shape gate CI puts on the adjacency probe, read off the compiler with
# nothing but the Go toolchain:
#
#   - bounds checks: the checks the SSA back end leaves in
#     internal/core/blockprobe.go (the batch kernel) and
#     internal/core/queryengine.go (the scalar probe and the engine build)
#     may not exceed their pins; a change that removes some lowers the pin
#     with it;
#   - inlining: bitstr.SlabReadBits must stay inlined at its 3 call sites in
#     blockprobe.go and inlineSearch at its 1, or every probe pays a call.
#
# Run it from the repository root.
set -euo pipefail

bce_blockprobe=18
bce_queryengine=16

bce=$(go build -gcflags='repro/internal/core=-d=ssa/check_bce/debug=1' ./internal/core 2>&1)
inl=$(go build -gcflags='repro/internal/core=-m' ./internal/core 2>&1)
bad=0

check_bce() { # file pin
	local got
	got=$(grep -c "^internal/core/$1:.*Found Is" <<<"$bce" || true)
	echo "bounds checks in $1: $got (pin $2)"
	if [ "$got" -gt "$2" ]; then
		echo "kernel shape gate: $1 has $got bounds checks, above its pin of $2"
		grep "^internal/core/$1:" <<<"$bce"
		bad=1
	fi
}

check_inline() { # callee sites
	local got
	got=$(grep -c "^internal/core/blockprobe.go:.*inlining call to ${1//./\\.}\$" <<<"$inl" || true)
	echo "inlined calls to $1 in blockprobe.go: $got (want $2)"
	if [ "$got" -ne "$2" ]; then
		echo "kernel shape gate: $1 is inlined at $got sites of blockprobe.go, want $2"
		bad=1
	fi
}

check_bce blockprobe.go "$bce_blockprobe"
check_bce queryengine.go "$bce_queryengine"
check_inline bitstr.SlabReadBits 3
check_inline inlineSearch 1
exit "$bad"
