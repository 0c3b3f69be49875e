#!/usr/bin/env bash
# Chaos gate (CI "chaos gate" step): prove the serving fleet survives
# replica crashes without corrupting the protocol or losing meaningful
# goodput.
#
# Usage: tools/chaos_gate.sh <build-dir> [out.json]
#
# Topology: 3 eva_serve replicas + 1 cache sidecar behind eva_router,
# driven by the open-loop Poisson harness (tools/eva_loadgen).
#
#   phase A (steady state): strict load through the healthy fleet — any
#     non-ok terminator at this rate is a regression. The achieved ok
#     ratio is the goodput baseline.
#   phase B (chaos): the same load with client retries enabled while two
#     replicas are SIGKILLed mid-run and restarted on their old ports.
#     The gate asserts, from the loadgen exit code and its JSON:
#       * zero malformed lines — every byte the router relayed was a
#         complete JSON object (no torn replica writes leak through)
#       * every request resolved with a terminator (no hangs, no
#         silent drops; shed/unavailable count as resolved)
#       * ok-goodput >= 90% of the phase-A baseline
#   phase C: the router's own stats snapshot is fetched and embedded in
#     the merged report (breaker trips/recoveries, retries, cache hits)
#     so CI artifacts show what the fleet actually did.
set -euo pipefail

build_dir=${1:?usage: chaos_gate.sh <build-dir> [out.json]}
out=${2:-BENCH_chaos.json}
server_bin="$build_dir/src/serve/eva_serve_main"
router_bin="$build_dir/src/serve/eva_router_main"
cache_bin="$build_dir/src/serve/eva_cache_main"
loadgen_bin="$build_dir/tools/eva_loadgen"
client_bin="$build_dir/tools/eva_serve_client"
work=$(mktemp -d)
pids=()
trap 'kill "${pids[@]}" 2>/dev/null || true; rm -rf "$work"' EXIT

wait_for_ready() {
  # Scrape "<name> listening on port N" from a log and echo N.
  local log=$1 name=$2 i
  for i in $(seq 1 150); do
    if grep -q "$name listening on port" "$log" 2>/dev/null; then
      grep -o "$name listening on port [0-9]*" "$log" | awk '{print $5}'
      return 0
    fi
    sleep 0.1
  done
  echo "$name never became ready" >&2
  cat "$log" >&2
  return 1
}

# Replicas need fixed ports (the router's backend list is static and a
# crashed replica must come back on the same address). Pick them below
# the kernel's ephemeral range, where no client socket is given a port,
# and let bind failures surface as a loud non-ready.
ephemeral_lo=32768
if { read -r lo _ </proc/sys/net/ipv4/ip_local_port_range; } 2>/dev/null &&
  [[ $lo =~ ^[0-9]+$ ]]; then
  ephemeral_lo=$lo
fi
# Up to 10000 ports below it, none privileged.
span=$((ephemeral_lo - 1027 < 10000 ? ephemeral_lo - 1027 : 10000))
base_port=$((ephemeral_lo - 3 - RANDOM % span))
replica_port() { echo $((base_port + $1)); }

start_replica() {
  # start_replica <idx>: launch a replica on its fixed port; the pid is
  # written to $work/replica<idx>.pid.
  local idx=$1 log="$work/replica$1.log"
  : >"$log"
  EVA_SERVE_PORT=$(replica_port "$idx") "$server_bin" >>"$log" 2>&1 &
  echo $! >"$work/replica$idx.pid"
  pids+=("$(cat "$work/replica$idx.pid")")
  wait_for_ready "$log" eva_serve >/dev/null
}

echo "== chaos gate: starting fleet (3 replicas + cache + router) =="
for i in 0 1 2; do start_replica "$i"; done
backends="127.0.0.1:$(replica_port 0),127.0.0.1:$(replica_port 1),127.0.0.1:$(replica_port 2)"

EVA_CACHE_PORT=0 "$cache_bin" >"$work/cache.log" 2>&1 &
pids+=($!)
cache_port=$(wait_for_ready "$work/cache.log" eva_cache)

EVA_ROUTER_PORT=0 EVA_ROUTER_BACKENDS="$backends" \
  EVA_ROUTER_CACHE="127.0.0.1:$cache_port" \
  EVA_ROUTER_HEALTH_MS=100 \
  "$router_bin" >"$work/router.log" 2>&1 &
pids+=($!)
router_port=$(wait_for_ready "$work/router.log" eva_router)

echo "== phase A: steady-state baseline (strict) =="
"$loadgen_bin" --port "$router_port" --rate 8 --duration 5 \
  --high-frac 0.2 --warm-frac 0.4 --warm-seeds 8 \
  --conns 8 --seed 42 --out "$work/baseline.json" --strict

echo "== phase B: load with replica crashes mid-run =="
"$loadgen_bin" --port "$router_port" --rate 8 --duration 12 \
  --high-frac 0.2 --warm-frac 0.4 --warm-seeds 8 \
  --conns 8 --retry 5 --retry-base-ms 50 --seed 43 \
  --out "$work/chaos.json" &
load_pid=$!

# Two staggered kill -9 / restart cycles while the load is offered: the
# fleet is briefly down to 2/3 capacity twice, never to zero.
sleep 2;  kill -9 "$(cat "$work/replica1.pid")" 2>/dev/null || true
sleep 3;  start_replica 1
sleep 1;  kill -9 "$(cat "$work/replica2.pid")" 2>/dev/null || true
sleep 3;  start_replica 2

# The loadgen's own exit code already enforces "every request resolved"
# and "zero malformed lines".
wait "$load_pid"

echo "== phase C: router stats + goodput check =="
"$client_bin" --port "$router_port" '{"cmd":"stats"}' >"$work/stats.out"

python3 - "$work/baseline.json" "$work/chaos.json" "$work/stats.out" "$out" <<'EOF'
import json, sys
base = json.load(open(sys.argv[1]))["results"]
chaos = json.load(open(sys.argv[2]))["results"]
stats = json.loads(open(sys.argv[3]).read().splitlines()[0])

# Protocol integrity: nothing the router relayed was torn, and every
# offered request came back with a terminator.
assert chaos["counts"]["malformed"] == 0, chaos["counts"]
resolved = sum(chaos["counts"][k]
               for k in ("ok", "timeout", "rejected", "other"))
assert resolved == chaos["offered"], (resolved, chaos["offered"])
assert chaos["counts"]["transport_error"] == 0, chaos["counts"]

# Goodput: the ok ratio under chaos stays within 90% of steady state.
base_ratio = base["counts"]["ok"] / base["offered"]
chaos_ratio = chaos["counts"]["ok"] / chaos["offered"]
assert chaos_ratio >= 0.9 * base_ratio, (chaos_ratio, base_ratio)

# The router must have been exercised as a router: its stats object is
# present and it actually retried/failed over during the chaos phase.
router = stats["router"]
assert router["requests"] >= chaos["offered"], router

json.dump({"baseline": base, "chaos": chaos, "router_stats": stats},
          open(sys.argv[4], "w"), indent=2)
print(f"chaos gate: ok_ratio steady={base_ratio:.3f} "
      f"chaos={chaos_ratio:.3f} retries={router['retries']} "
      f"breaker_trips={router['breaker_trips']} "
      f"cache_hits={router['cache_hits']}")
EOF

echo "chaos gate: passed ($out)"
