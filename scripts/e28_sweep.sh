#!/usr/bin/env bash
# E28 sweep: open-loop throughput-vs-p99 knee curves for the serving tier.
#
# Drives one plserve (n=20k Chung-Lu power-law graph, admission + shedding
# armed at depths the sweep load cannot trip) with cmd/plload open-loop runs
# across an offered-rate ladder, for uniform vs zipf(s=1.1) pair skew and
# batch 64 vs 4096 — four curves. A final pair of runs against a deliberately
# under-provisioned (-shed-depth 4) server shows overload degrading into shed
# frames rather than errors. Rows append to the JSON file given as $1
# (default: tracked BENCH_serving.json at the repo root).
#
# Takes ~2 minutes on the reference container. Usage: scripts/e28_sweep.sh [out.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_serving.json}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
work=$(mktemp -d)
trap 'kill "${serve_pid:-}" 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$work"' EXIT

echo "== build + generate (chunglu n=20000 alpha=2.5 seed=17)"
mkdir -p "$work/bin"
go build -o "$work/bin" ./cmd/plgen ./cmd/pllabel ./cmd/plserve ./cmd/plload
"$work/bin/plgen" -model chunglu -n 20000 -alpha 2.5 -wmin 2 -seed 17 -o "$work/graph.el" >/dev/null
"$work/bin/pllabel" -scheme powerlaw -in "$work/graph.el" -o "$work/labels.pllb" >/dev/null

start_server() { # start_server <shed-depth>
    "$work/bin/plserve" -labels "$work/labels.pllb" -addr 127.0.0.1:0 \
        -max-conns 64 -shed-depth "$1" >"$work/serve.log" 2>&1 &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/.*msg=listening addr=//p' "$work/serve.log")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { cat "$work/serve.log"; echo "plserve never came up"; exit 1; }
}
stop_server() { kill -TERM "$serve_pid"; wait "$serve_pid" || true; serve_pid=""; }

run() { # run <label> <extra plload args...>
    local label=$1; shift
    "$work/bin/plload" -addr "$addr" -duration 3s -warmup 500ms \
        -graph "$work/graph.el" -zipf-s 1.1 -seed 5 \
        -json "$out" -label "$label" "$@" \
        | sed -n 's/^plload: /  '"$label"': /p'
}

echo "== knee sweep (server shed-depth 256: unarmed at this worker count)"
start_server 256
for dist in uniform zipf; do
    for rate in 5000 15000 30000 45000 60000 75000 90000; do
        run "e28_${dist}_b64_r${rate}" -rate "$rate" -conns 4 -workers 8 \
            -batch 64 -pair-dist "$dist"
    done
    for rate in 250 750 1500 2250 3000; do
        run "e28_${dist}_b4096_r${rate}" -rate "$rate" -conns 4 -workers 8 \
            -batch 4096 -pair-dist "$dist"
    done
done
stop_server

echo "== overload (server shed-depth 4: pipelined bursts trip the latch)"
start_server 4
run e28_overload_b64 -conns 8 -workers 48 -batch 64 -pair-dist zipf
run e28_overload_b4096 -conns 8 -workers 48 -batch 4096 -pair-dist zipf
stop_server

echo "== wrote $(python3 -c "import json,sys; print(len(json.load(open('$out'))))" ) rows to $out"
