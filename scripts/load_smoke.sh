#!/usr/bin/env bash
# Loopback load-harness smoke test: generate + label a small power-law graph,
# serve it with plserve (admission + shedding armed), and drive it with a
# ~5 second plload open-loop run. Checks the harness achieves a nonzero rate,
# appends a well-formed BENCH_serving.json row, and that a deliberately
# under-provisioned server sheds instead of erroring. The CI-run complement
# to the in-process tests in cmd/plload and internal/adjserve.
#
# Usage: scripts/load_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
# A workdir passed as the argument is kept (all but bin/ and *.tmp); one the
# script makes itself is removed whole on exit.
work="${1:-}"
made_work=""
if [ -z "$work" ]; then work=$(mktemp -d); made_work=1; fi
trap 'kill "${serve_pid:-}" "${route_pid:-}" ${shard_pids:-} 2>/dev/null || true; wait 2>/dev/null || true; if [ -n "$made_work" ]; then rm -rf "$work"; else rm -rf "$work/bin" "$work"/*.tmp; fi' EXIT

echo "== build"
mkdir -p "$work/bin"
go build -o "$work/bin" ./cmd/plgen ./cmd/pllabel ./cmd/plserve ./cmd/plload

echo "== generate + label"
"$work/bin/plgen" -model chunglu -n 5000 -alpha 2.5 -wmin 2 -seed 7 -o "$work/graph.el"
"$work/bin/pllabel" -scheme powerlaw -in "$work/graph.el" -o "$work/labels.pllb"

echo "== serve (admission cap + shedding armed, admin plane on)"
"$work/bin/plserve" -labels "$work/labels.pllb" -addr 127.0.0.1:0 -admin-addr 127.0.0.1:0 \
    -max-conns 64 -shed-depth 128 >"$work/serve.log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*msg=listening addr=//p' "$work/serve.log")
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$work/serve.log"; echo "plserve died"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { cat "$work/serve.log"; echo "plserve never became ready"; exit 1; }
admin=$(sed -n 's/.*msg=admin addr=//p' "$work/serve.log")
echo "   plserve up at $addr, admin at $admin (pid $serve_pid)"

echo "== open-loop run: 2s at 1500 frames/s, zipf-skewed pairs, mixed batches"
"$work/bin/plload" -addr "$addr" -rate 1500 -duration 2s -warmup 500ms \
    -conns 2 -workers 4 -batch "64:0.9,1024:0.1" \
    -pair-dist zipf -zipf-s 1.1 -graph "$work/graph.el" -seed 3 \
    -json "$work/BENCH_serving.json" -label ci_smoke_open | tee "$work/load.log"

achieved=$(sed -n 's/.*achieved=\([0-9.]*\).*/\1/p' "$work/load.log" | head -1)
[ -n "$achieved" ] || { echo "no achieved rate in plload output"; exit 1; }
awk -v a="$achieved" 'BEGIN { exit (a > 0) ? 0 : 1 }' \
    || { echo "achieved rate $achieved, want > 0"; exit 1; }
grep -q " err=0 " "$work/load.log" \
    || { echo "error frames against a healthy server"; cat "$work/load.log"; exit 1; }
echo "   achieved $achieved frames/s with zero error frames"

echo "== closed-loop chaos run: slow client + mid-run kills (redial jitter path)"
"$work/bin/plload" -addr "$addr" -duration 1500ms -warmup 300ms \
    -conns 3 -workers 2 -batch 64 -slow-conns 1 -slow-bps 65536 -kill-every 400ms \
    -json "$work/BENCH_serving.json" -label ci_smoke_chaos | tee "$work/chaos.log"
grep -q "chaos:" "$work/chaos.log" || { echo "no chaos summary line"; exit 1; }

echo "== BENCH_serving.json: two well-formed rows"
python3 - "$work/BENCH_serving.json" <<'PY'
import json, sys
rows = json.load(open(sys.argv[1]))
assert isinstance(rows, list) and len(rows) == 2, f"want 2 rows, got {len(rows)}"
for r in rows:
    for key in ("label", "git_rev", "mode", "offered_qps", "achieved_qps",
                "frames_sent", "frames_ok", "p50_us", "p99_us"):
        assert key in r, f"row missing {key}: {r}"
open_row = rows[0]
assert open_row["label"] == "ci_smoke_open" and open_row["mode"] == "open"
assert open_row["frames_ok"] > 0 and open_row["achieved_qps"] > 0
assert open_row["p99_us"] >= open_row["p50_us"] > 0
chaos = rows[1]
assert chaos["label"] == "ci_smoke_chaos" and chaos["mode"] == "closed"
assert chaos["slow_conns"] == 1
print(f"   rows OK: open achieved={open_row['achieved_qps']:.0f}/s "
      f"p99={open_row['p99_us']}us; chaos ok={chaos['frames_ok']}")
PY

echo "== shedding: a depth-1 server under concurrency refuses, never errors"
kill -TERM "$serve_pid"; wait "$serve_pid" || true; serve_pid=""
"$work/bin/plserve" -labels "$work/labels.pllb" -addr 127.0.0.1:0 -admin-addr 127.0.0.1:0 \
    -shed-depth 1 >"$work/serve-shed.log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*msg=listening addr=//p' "$work/serve-shed.log")
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$work/serve-shed.log"; echo "plserve (shed) died"; exit 1; }
    sleep 0.1
done
admin=$(sed -n 's/.*msg=admin addr=//p' "$work/serve-shed.log")
"$work/bin/plload" -addr "$addr" -duration 1s -warmup 200ms \
    -conns 4 -workers 8 -batch 1024 | tee "$work/shed.log"
shed=$(sed -n 's/.* shed=\([0-9]*\).*/\1/p' "$work/shed.log" | head -1)
errs=$(sed -n 's/.* err=\([0-9]*\) .*/\1/p' "$work/shed.log" | head -1)
[ "${shed:-0}" -gt 0 ] || { echo "depth-1 server under 32-way load shed nothing"; exit 1; }
[ "${errs:-1}" = 0 ] || { echo "shedding produced $errs error frames, want 0"; exit 1; }
curl -fsS "http://$admin/metrics" >"$work/metrics.txt"
metric() { awk -v m="$1" '$1 == m { print $2; found=1 } END { if (!found) exit 1 }' "$work/metrics.txt"; }
sf=$(metric adjserve_shed_frames_total) || { echo "no adjserve_shed_frames_total in scrape"; exit 1; }
[ "$sf" -gt 0 ] || { echo "adjserve_shed_frames_total=$sf, want > 0"; exit 1; }
se=$(metric adjserve_shed_events_total) || { echo "no adjserve_shed_events_total in scrape"; exit 1; }
[ "$se" -gt 0 ] || { echo "adjserve_shed_events_total=$se, want > 0"; exit 1; }
echo "   shed $shed frames (metrics: frames=$sf events=$se), zero errors"

kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "plserve (shed) exited non-zero"; cat "$work/serve-shed.log"; exit 1; }
serve_pid=""


echo "== tracing: 3-shard fleet behind plserve -shards, sampled end-to-end attribution"
"$work/bin/pllabel" -scheme powerlaw -in "$work/graph.el" \
    -o "$work/labels-sh.pllb" -shards 3 >"$work/label-sh.log"
shard_addrs=""
shard_pids=""
for i in 0 1 2; do
    "$work/bin/plserve" -labels "$work/labels-sh.pllb.shard$i" -addr 127.0.0.1:0 \
        -trace-sample 4 >"$work/serve-tr$i.log" 2>&1 &
    shard_pids="$shard_pids $!"
done
for i in 0 1 2; do
    saddr=""
    for _ in $(seq 1 100); do
        saddr=$(sed -n 's/.*msg=listening addr=//p' "$work/serve-tr$i.log")
        [ -n "$saddr" ] && break
        sleep 0.1
    done
    [ -n "$saddr" ] || { cat "$work/serve-tr$i.log"; echo "traced shard $i never became ready"; exit 1; }
    shard_addrs="$shard_addrs,$saddr"
done
shard_addrs="${shard_addrs#,}"
"$work/bin/plserve" -shards "$shard_addrs" -addr 127.0.0.1:0 -admin-addr 127.0.0.1:0 \
    -trace-sample 4 -slowlog-ms 1 >"$work/route.log" 2>&1 &
route_pid=$!
raddr=""
for _ in $(seq 1 100); do
    raddr=$(sed -n 's/.*msg=listening addr=//p' "$work/route.log")
    [ -n "$raddr" ] && break
    kill -0 "$route_pid" 2>/dev/null || { cat "$work/route.log"; echo "router died"; exit 1; }
    sleep 0.1
done
[ -n "$raddr" ] || { cat "$work/route.log"; echo "router never became ready"; exit 1; }
radmin=$(sed -n 's/.*msg=admin addr=//p' "$work/route.log")
# No -json: the BENCH file must keep exactly the two rows asserted above.
"$work/bin/plload" -addr "$raddr" -duration 1500ms -warmup 300ms \
    -conns 2 -workers 2 -batch 256 -trace-sample 8 | tee "$work/trace.log"
grep -q "trace: per-stage latency attribution" "$work/trace.log" \
    || { echo "no attribution table in plload output"; exit 1; }
cover=$(sed -n 's/.*trace: stage sum covers \([0-9.]*\)%.*/\1/p' "$work/trace.log" | head -1)
[ -n "$cover" ] || { echo "no coverage line in plload output"; exit 1; }
awk -v c="$cover" 'BEGIN { exit (c >= 95.0 && c <= 101.0) ? 0 : 1 }' \
    || { echo "stage sum covers $cover% of e2e, want within 5%"; exit 1; }
curl -fsS "http://$radmin/debug/traces" >"$work/traces.json"
python3 - "$work/traces.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
traces = doc.get("traces", [])
assert traces, "router /debug/traces is empty after a sampled run"
tr = traces[0]
assert tr["trace_id"] and tr["stages"], f"trace missing id/stages: {tr}"
hops = {s["hop"] for s in tr["stages"]}
assert "local" in hops, f"no local-hop stages in {sorted(hops)}"
print(f"   /debug/traces OK: {len(traces)} traces, newest has "
      f"{len(tr['stages'])} stages across hops {sorted(hops)}")
PY
curl -fsS "http://$radmin/debug/slowlog" >"$work/slowlog.json"
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$work/slowlog.json" \
    || { echo "slowlog endpoint returned bad JSON"; exit 1; }
echo "   traced run OK: coverage=$cover%, slowlog artifact captured"

kill -TERM "$route_pid"
wait "$route_pid" || { echo "router exited non-zero"; cat "$work/route.log"; exit 1; }
route_pid=""
for p in $shard_pids; do kill -TERM "$p"; done
for p in $shard_pids; do wait "$p" || { echo "traced shard $p exited non-zero"; exit 1; }; done
shard_pids=""

cp "$work/BENCH_serving.json" "${BENCH_OUT:-$work/BENCH_serving.json}" 2>/dev/null || true
cp "$work/slowlog.json" "${SLOWLOG_OUT:-$work/slowlog.json}" 2>/dev/null || true
echo "== load smoke OK"
