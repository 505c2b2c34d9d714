#!/usr/bin/env bash
# Loopback end-to-end smoke test for the serving tier: generate a power-law
# graph, label it, serve the store with plserve (mmap path), and check that
# plquery -remote produces byte-identical output to plquery -labels on the
# same query stream. Exercises the real binaries over real TCP — the CI-run
# complement to the in-process tests in internal/adjserve.
#
# Usage: scripts/serving_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
# A workdir passed as the argument is kept (all but bin/ and *.tmp); one the
# script makes itself is removed whole on exit.
work="${1:-}"
made_work=""
if [ -z "$work" ]; then work=$(mktemp -d); made_work=1; fi
trap 'kill "${serve_pid:-}" "${route_pid:-}" ${shard_pids:-} ${dist_pids:-} 2>/dev/null || true; wait 2>/dev/null || true; if [ -n "$made_work" ]; then rm -rf "$work"; else rm -rf "$work/bin" "$work"/*.tmp; fi' EXIT

echo "== build"
mkdir -p "$work/bin"
go build -o "$work/bin" ./cmd/plgen ./cmd/pllabel ./cmd/plserve ./cmd/plquery

echo "== generate + label (pllabel writes the degree-ordered layout)"
"$work/bin/plgen" -model chunglu -n 5000 -alpha 2.5 -wmin 2 -seed 7 -o "$work/graph.el"
"$work/bin/pllabel" -scheme powerlaw -in "$work/graph.el" -o "$work/labels.pllb" >"$work/label.log"
grep -q "layout: degree-ordered" "$work/label.log" \
    || { echo "pllabel did not report the degree layout"; cat "$work/label.log"; exit 1; }

echo "== serve (port 0 = kernel-assigned, admin plane on)"
"$work/bin/plserve" -labels "$work/labels.pllb" -addr 127.0.0.1:0 -admin-addr 127.0.0.1:0 >"$work/serve.log" 2>&1 &
serve_pid=$!
# The daemon logs msg=listening addr=HOST:PORT once ready (and msg=admin
# addr=HOST:PORT for the admin endpoint).
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*msg=listening addr=//p' "$work/serve.log")
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$work/serve.log"; echo "plserve died"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { cat "$work/serve.log"; echo "plserve never became ready"; exit 1; }
admin=$(sed -n 's/.*msg=admin addr=//p' "$work/serve.log")
[ -n "$admin" ] || { cat "$work/serve.log"; echo "no admin address line"; exit 1; }
grep -q "layout=degree" "$work/serve.log" \
    || { echo "plserve did not report layout=degree"; cat "$work/serve.log"; exit 1; }
echo "   plserve up at $addr, admin at $admin (pid $serve_pid)"

echo "== admin: health + readiness"
curl -fsS "http://$admin/healthz" | grep -qx "ok" || { echo "/healthz not ok"; exit 1; }
curl -fsS "http://$admin/readyz" | grep -qx "ok" || { echo "/readyz not ok while serving"; exit 1; }

echo "== query: remote vs local must be byte-identical"
awk 'BEGIN{srand(9); for(i=0;i<2000;i++) printf "%d %d\n", int(rand()*5000), int(rand()*5000)}' >"$work/pairs.txt"
"$work/bin/plquery" -labels "$work/labels.pllb" -batch <"$work/pairs.txt" >"$work/local.out"
"$work/bin/plquery" -remote "$addr" -batch <"$work/pairs.txt" >"$work/remote.out"
"$work/bin/plquery" -remote "$addr" <"$work/pairs.txt" >"$work/remote-stream.out"
diff "$work/local.out" "$work/remote.out"
diff "$work/local.out" "$work/remote-stream.out"
echo "   $(wc -l <"$work/local.out") answers identical across local, remote-batch, remote-stream"

echo "== admin: /metrics mid-serve reflects the traffic just driven"
curl -fsS "http://$admin/metrics" >"$work/metrics.txt"
# 2000 batch pairs + 2000 streamed pairs answered so far, counted by both the
# frame loop and the engine; the store was mmapped exactly once.
metric() { awk -v m="$1" '$1 == m { print $2; found=1 } END { if (!found) exit 1 }' "$work/metrics.txt"; }
q=$(metric adjserve_queries_total) || { echo "no adjserve_queries_total in scrape"; exit 1; }
[ "$q" = 4000 ] || { echo "adjserve_queries_total=$q, want 4000"; exit 1; }
eq=$(metric engine_queries_total) || { echo "no engine_queries_total in scrape"; exit 1; }
[ "$eq" = 4000 ] || { echo "engine_queries_total=$eq, want 4000"; exit 1; }
mm=$(metric 'labelstore_open_total{mode="mmap"}') || { echo "no labelstore_open_total in scrape"; exit 1; }
[ "$mm" = 1 ] || { echo "labelstore_open_total{mode=mmap}=$mm, want 1"; exit 1; }
for fam in adjserve_frames_total adjserve_bytes_in_total engine_branch_thin_total \
           engine_branch_thin_inline_total labelstore_mapped_bytes go_goroutines process_uptime_seconds_total; do
    grep -q "^$fam" "$work/metrics.txt" || { echo "family $fam missing from scrape"; exit 1; }
done
grep -q '^plabel_build_info{' "$work/metrics.txt" \
    || { echo "no plabel_build_info gauge in scrape"; exit 1; }
grep '^plabel_build_info{' "$work/metrics.txt" | grep -q 'goversion="go' \
    || { echo "plabel_build_info missing goversion label"; exit 1; }
grep '^plabel_build_info{' "$work/metrics.txt" | grep -q 'scheme="powerlaw' \
    || { echo "plabel_build_info missing scheme label"; exit 1; }
echo "   scrape OK: adjserve_queries_total=$q engine_queries_total=$eq mmap_opens=$mm build_info present"

echo "== graceful shutdown on SIGTERM"
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "plserve exited non-zero after SIGTERM"; cat "$work/serve.log"; exit 1; }
grep -q "draining" "$work/serve.log" || { echo "no drain line in log"; cat "$work/serve.log"; exit 1; }
grep -q "served" "$work/serve.log" || { echo "no serve summary in log"; cat "$work/serve.log"; exit 1; }
serve_pid=""

echo "== sharded phase: 3 shard stores, 3 servers, one router"
"$work/bin/pllabel" -scheme powerlaw -in "$work/graph.el" \
    -o "$work/labels-sh.pllb" -shards 3 >"$work/label-sh.log"
grep -c "shard store written" "$work/label-sh.log" | grep -qx 3 \
    || { echo "expected 3 shard stores"; cat "$work/label-sh.log"; exit 1; }
shard_addrs=""
shard_pids=""
for i in 0 1 2; do
    "$work/bin/plserve" -labels "$work/labels-sh.pllb.shard$i" -addr 127.0.0.1:0 \
        -admin-addr 127.0.0.1:0 >"$work/serve-sh$i.log" 2>&1 &
    shard_pids="$shard_pids $!"
done
for i in 0 1 2; do
    saddr=""
    for _ in $(seq 1 100); do
        saddr=$(sed -n 's/.*msg=listening addr=//p' "$work/serve-sh$i.log")
        [ -n "$saddr" ] && break
        sleep 0.1
    done
    [ -n "$saddr" ] || { cat "$work/serve-sh$i.log"; echo "shard $i never became ready"; exit 1; }
    grep -q "shard=$i/3 fn=range" "$work/serve-sh$i.log" \
        || { echo "shard $i did not report its shard map"; cat "$work/serve-sh$i.log"; exit 1; }
    shard_addrs="$shard_addrs,$saddr"
done
shard_addrs="${shard_addrs#,}"
"$work/bin/plserve" -shards "$shard_addrs" -addr 127.0.0.1:0 -admin-addr 127.0.0.1:0 \
    >"$work/route.log" 2>&1 &
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
echo "   fleet $shard_addrs behind plserve -shards at $raddr"

echo "== query: routed fleet vs single-store local must be byte-identical"
curl -fsS "http://$radmin/readyz" | grep -qx "ok" || { echo "router /readyz not ok"; exit 1; }
"$work/bin/plquery" -remote "$raddr" -batch <"$work/pairs.txt" >"$work/routed.out"
diff "$work/local.out" "$work/routed.out"
echo "   $(wc -l <"$work/routed.out") routed answers identical to the single-store local run"

echo "== admin: per-shard router metrics nonzero"
curl -fsS "http://$radmin/metrics" >"$work/metrics-route.txt"
metric_rt() { awk -v m="$1" '$1 == m { print $2; found=1 } END { if (!found) exit 1 }' "$work/metrics-route.txt"; }
rq=$(metric_rt adjserve_router_queries_total) || { echo "no adjserve_router_queries_total"; exit 1; }
[ "$rq" = 2000 ] || { echo "adjserve_router_queries_total=$rq, want 2000"; exit 1; }
for i in 0 1 2; do
    up=$(metric_rt "adjserve_router_upstream_pairs_total{shard=\"$i\"}") \
        || { echo "no upstream pairs series for shard $i"; exit 1; }
    [ "$up" -gt 0 ] || { echo "shard $i routed 0 pairs"; exit 1; }
    # One series per (shard, lane); a connection uses one lane, so sum them.
    fr=$(awk -v m="adjserve_client_frames_total{shard=\"$i\",lane=" \
        'index($1, m) == 1 { sum += $2; found=1 } END { if (!found) exit 1; print sum }' "$work/metrics-route.txt") \
        || { echo "no per-shard client frames series for shard $i"; exit 1; }
    [ "$fr" -gt 0 ] || { echo "shard $i client sent 0 frames"; exit 1; }
    # The router sends a pair to the shard holding its larger-identifier
    # endpoint's label; a shard asked for any other pair answers an error
    # frame ("not resident"). None may have.
    sadmin=$(sed -n 's/.*msg=admin addr=//p' "$work/serve-sh$i.log")
    ef=$(curl -fsS "http://$sadmin/metrics" | awk '$1 == "adjserve_error_frames_total" { print $2 }')
    [ "$ef" = 0 ] || { echo "shard $i answered $ef error frames (not resident?)"; cat "$work/serve-sh$i.log"; exit 1; }
    ue=$(metric_rt "adjserve_router_upstream_errors_total{shard=\"$i\"}") \
        || { echo "no upstream errors series for shard $i"; exit 1; }
    [ "$ue" = 0 ] || { echo "router saw $ue failed sub-batches from shard $i"; exit 1; }
done
echo "   per-shard scrape OK: router_queries=$rq, all 3 upstreams nonzero, no shard error frames"

echo "== graceful shutdown: router then fleet"
kill -TERM "$route_pid"
wait "$route_pid" || { echo "router exited non-zero after SIGTERM"; cat "$work/route.log"; exit 1; }
grep -q "routed" "$work/route.log" || { echo "no route summary in log"; cat "$work/route.log"; exit 1; }
route_pid=""
for p in $shard_pids; do kill -TERM "$p"; done
for p in $shard_pids; do wait "$p" || { echo "shard server $p exited non-zero"; exit 1; }; done
shard_pids=""

echo "== distance phase: dist-pll store, distance daemon, replica fleet"
"$work/bin/pllabel" -scheme dist-pll -in "$work/graph.el" \
    -o "$work/dists.pllb" >"$work/label-dist.log"
grep -q "verify: ok" "$work/label-dist.log" \
    || { echo "distance labeling failed verification"; cat "$work/label-dist.log"; exit 1; }
dist_addrs=""
dist_pids=""
for i in 0 1; do
    "$work/bin/plserve" -labels "$work/dists.pllb" -addr 127.0.0.1:0 \
        >"$work/serve-dist$i.log" 2>&1 &
    dist_pids="$dist_pids $!"
done
for i in 0 1; do
    daddr=""
    for _ in $(seq 1 100); do
        daddr=$(sed -n 's/.*msg=listening addr=//p' "$work/serve-dist$i.log")
        [ -n "$daddr" ] && break
        sleep 0.1
    done
    [ -n "$daddr" ] || { cat "$work/serve-dist$i.log"; echo "distance replica $i never became ready"; exit 1; }
    grep -q "plane=distance/pll" "$work/serve-dist$i.log" \
        || { echo "replica $i did not report the distance plane"; cat "$work/serve-dist$i.log"; exit 1; }
    dist_addrs="$dist_addrs,$daddr"
    [ $i = 0 ] && daddr0="$daddr"
done
dist_addrs="${dist_addrs#,}"

echo "== query: distance remote vs local must be byte-identical"
"$work/bin/plquery" -dist -labels "$work/dists.pllb" -batch <"$work/pairs.txt" >"$work/dist-local.out"
"$work/bin/plquery" -dist -remote "$daddr0" -batch <"$work/pairs.txt" >"$work/dist-remote.out"
"$work/bin/plquery" -dist -remote "$daddr0" <"$work/pairs.txt" >"$work/dist-stream.out"
diff "$work/dist-local.out" "$work/dist-remote.out"
diff "$work/dist-local.out" "$work/dist-stream.out"
echo "   $(wc -l <"$work/dist-local.out") distances identical across local, remote-batch, remote-stream"

echo "== replica fleet: 2 identical distance servers behind plserve -shards"
"$work/bin/plserve" -shards "$dist_addrs" -addr 127.0.0.1:0 >"$work/route-dist.log" 2>&1 &
route_pid=$!
raddr=""
for _ in $(seq 1 100); do
    raddr=$(sed -n 's/.*msg=listening addr=//p' "$work/route-dist.log")
    [ -n "$raddr" ] && break
    kill -0 "$route_pid" 2>/dev/null || { cat "$work/route-dist.log"; echo "router (replicas) died"; exit 1; }
    sleep 0.1
done
[ -n "$raddr" ] || { cat "$work/route-dist.log"; echo "router (replicas) never became ready"; exit 1; }
grep -q "msg=handshaked shards=2 fleet=replicas" "$work/route-dist.log" \
    || { echo "fleet not admitted as replicas"; cat "$work/route-dist.log"; exit 1; }
"$work/bin/plquery" -dist -remote "$raddr" -batch <"$work/pairs.txt" >"$work/dist-routed.out"
diff "$work/dist-local.out" "$work/dist-routed.out"
echo "   $(wc -l <"$work/dist-routed.out") routed distances identical to local"

kill -TERM "$route_pid"
wait "$route_pid" || { echo "router (replicas) exited non-zero"; cat "$work/route-dist.log"; exit 1; }
route_pid=""
for p in $dist_pids; do kill -TERM "$p"; done
for p in $dist_pids; do wait "$p" || { echo "distance replica $p exited non-zero"; exit 1; }; done
dist_pids=""

echo "== distance phase: dist-bounded (Lemma 7, f=2) store, distance daemon"
"$work/bin/pllabel" -scheme dist-bounded -f 2 -in "$work/graph.el" \
    -o "$work/bdist.pllb" >"$work/label-bdist.log"
grep -q "verify: ok" "$work/label-bdist.log" \
    || { echo "dist-bounded labeling failed verification"; cat "$work/label-bdist.log"; exit 1; }
"$work/bin/plserve" -labels "$work/bdist.pllb" -addr 127.0.0.1:0 >"$work/serve-bdist.log" 2>&1 &
serve_pid=$!
baddr=""
for _ in $(seq 1 100); do
    baddr=$(sed -n 's/.*msg=listening addr=//p' "$work/serve-bdist.log")
    [ -n "$baddr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$work/serve-bdist.log"; echo "dist-bounded plserve died"; exit 1; }
    sleep 0.1
done
[ -n "$baddr" ] || { cat "$work/serve-bdist.log"; echo "dist-bounded plserve never became ready"; exit 1; }
grep -q "plane=distance/bdist" "$work/serve-bdist.log" \
    || { echo "plserve did not report plane=distance/bdist"; cat "$work/serve-bdist.log"; exit 1; }
"$work/bin/plquery" -dist -labels "$work/bdist.pllb" -batch <"$work/pairs.txt" >"$work/bdist-local.out"
"$work/bin/plquery" -dist -remote "$baddr" -batch <"$work/pairs.txt" >"$work/bdist-remote.out"
"$work/bin/plquery" -dist -remote "$baddr" <"$work/pairs.txt" >"$work/bdist-stream.out"
diff "$work/bdist-local.out" "$work/bdist-remote.out"
diff "$work/bdist-local.out" "$work/bdist-stream.out"
echo "   $(wc -l <"$work/bdist-local.out") bounded distances identical across local, remote-batch, remote-stream"
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "dist-bounded plserve exited non-zero"; cat "$work/serve-bdist.log"; exit 1; }
serve_pid=""

echo "== serving smoke OK"
