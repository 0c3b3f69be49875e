#!/usr/bin/env bash
# Loopback smoke test for the serving layer (CI "server smoke" step).
#
# Usage: tools/serve_smoke.sh <build-dir>
#
# Exercises the full wire path against a real eva_serve process:
#   1. round trip:   n=2 seeded request answered with item + done lines,
#                    every line echoing the request id, the terminator
#                    carrying the per-stage latency attribution
#   2. bad request:  malformed JSON and unknown "cmd" values get a
#                    bad_request terminator and the connection stays usable
#   3. stats:        {"cmd":"stats"} answers inline with a parseable
#                    snapshot of stage percentiles / queue depths / cache
#   4. past deadline: deadline_ms=1 resolves to a "timeout" terminator
#   5. queue overflow: EVA_SERVE_QUEUE_MAX=1 plus parallel bursty clients
#                    forces "rejected" terminators carrying retry_after_ms
#   6. SIGTERM drain: the server exits cleanly with its drain banner
#   7. client failure paths: against a replica that hangs up on its first
#                    generation request (EVA_FAULT=serve_conn_drop:1), a
#                    burst client reports its unanswered responses and
#                    exits 1 (never killed by SIGPIPE, exit 141), and a
#                    --retry 1 client reconnects and completes its request
set -euo pipefail

build_dir=${1:?usage: serve_smoke.sh <build-dir>}
server_bin="$build_dir/src/serve/eva_serve_main"
client_bin="$build_dir/tools/eva_serve_client"
work=$(mktemp -d)
trap 'kill "${server_pid:-}" 2>/dev/null || true; rm -rf "$work"' EXIT

wait_for_port() {
  # Scrape the readiness line and echo the bound port.
  local log=$1 i
  for i in $(seq 1 100); do
    if grep -q 'eva_serve listening on port' "$log"; then
      grep -o 'eva_serve listening on port [0-9]*' "$log" | awk '{print $5}'
      return 0
    fi
    sleep 0.1
  done
  echo "server never became ready" >&2
  cat "$log" >&2
  return 1
}

echo "== phase 1: round trip, bad request, past deadline =="
EVA_SERVE_PORT=0 "$server_bin" >"$work/server1.log" 2>&1 &
server_pid=$!
port=$(wait_for_port "$work/server1.log")

"$client_bin" --port "$port" '{"n":2,"seed":7}' 'this is not json' \
  '{"cmd":"selfdestruct"}' >"$work/client1.out"
grep -q '"status": "ok"' "$work/client1.out"
grep -q '"status": "bad_request"' "$work/client1.out"
grep -q 'unknown cmd: selfdestruct' "$work/client1.out"
# The ok response must stream one line per requested topology, each
# echoing the request id, and the terminator must attribute latency to
# stages (DESIGN.md "Request timelines & load harness").
[ "$(grep -c '"netlist"' "$work/client1.out")" -ge 2 ]
[ "$(grep -c '"request_id"' "$work/client1.out")" -ge 3 ]
grep -q '"stages": {"queue_ms"' "$work/client1.out"

echo "== phase 1b: live stats snapshot =="
"$client_bin" --port "$port" '{"cmd":"stats"}' >"$work/stats.out"
python3 - "$work/stats.out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    line = next(l for l in f if '"stats"' in l)
doc = json.loads(line)
assert doc["status"] == "ok" and doc["cmd"] == "stats"
stats = doc["stats"]
for stage in ("queue", "decode", "cache", "verify", "write", "e2e"):
    snap = stats["stages"][stage]
    assert "window" in snap and "total" in snap, stage
    assert "p99" in snap["total"], stage
# The n=2 round trip above must already be visible in the snapshot.
assert stats["requests"]["completed"] >= 1, stats["requests"]
assert stats["stages"]["e2e"]["total"]["count"] >= 1
assert set(stats["queue_depth"]) == {"high", "normal", "low", "total"}
print("stats snapshot: ok")
EOF

# A 1ms deadline only expires if the scheduler cannot pick the request
# up immediately, so park a long-running request in front of it.
"$client_bin" --port "$port" '{"n":64,"seed":5}' >"$work/long.out" &
long_pid=$!
sleep 0.1
"$client_bin" --port "$port" '{"n":1,"deadline_ms":1}' >"$work/deadline.out"
wait "$long_pid"
grep -q '"status": "timeout"' "$work/deadline.out"

echo "== phase 2: SIGTERM drain =="
kill -TERM "$server_pid"
wait "$server_pid"
grep -q 'eva_serve drained, exiting' "$work/server1.log"

echo "== phase 3: queue overflow under EVA_SERVE_QUEUE_MAX=1 =="
EVA_SERVE_PORT=0 EVA_SERVE_QUEUE_MAX=1 "$server_bin" >"$work/server2.log" 2>&1 &
server_pid=$!
port=$(wait_for_port "$work/server2.log")

# One scheduler drains a queue of one: parallel clients bursting n=32
# requests must overflow admission. Clients exit 0 on rejected
# terminators too -- rejection is a well-formed response.
for i in $(seq 1 8); do
  "$client_bin" --port "$port" --burst --repeat 4 '{"n":32,"seed":11}' \
    >"$work/burst$i.out" &
done
wait %2 %3 %4 %5 %6 %7 %8 %9
cat "$work"/burst*.out >"$work/burst.all"
grep -q '"status": "rejected"' "$work/burst.all"
grep -q 'retry_after_ms' "$work/burst.all"
grep -q '"status": "ok"' "$work/burst.all"

kill -TERM "$server_pid"
wait "$server_pid"
grep -q 'eva_serve drained, exiting' "$work/server2.log"
unset server_pid

echo "== phase 4: client failure paths under EVA_FAULT=serve_conn_drop:1 =="
# Each check gets a fresh replica, so the drop lands on its first request.
start_dropping_server() {
  EVA_SERVE_PORT=0 EVA_FAULT=serve_conn_drop:1 "$server_bin" >"$1" 2>&1 &
  server_pid=$!
  port=$(wait_for_port "$1")
}
stop_server() {
  kill -TERM "$server_pid"
  wait "$server_pid"
  grep -q 'eva_serve drained, exiting' "$1"
  unset server_pid
}

# The burst's later writes meet a socket the server has hung up: the
# client must count the unanswered responses and exit 1.
start_dropping_server "$work/server3.log"
rc=0
"$client_bin" --port "$port" --burst --repeat 20000 \
  >/dev/null 2>"$work/drop_burst.err" || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "burst client exited $rc, want 1" >&2
  cat "$work/drop_burst.err" >&2
  exit 1
fi
grep -q '0/20000 responses complete' "$work/drop_burst.err"
stop_server "$work/server3.log"

# One retry reconnects and gets the dropped request answered.
start_dropping_server "$work/server4.log"
"$client_bin" --port "$port" --retry 1 '{"n":1,"seed":9}' \
  >"$work/drop_retry.out" 2>"$work/drop_retry.err"
grep -q '1/1 responses complete (1 retries)' "$work/drop_retry.err"
grep -q '"status": "ok"' "$work/drop_retry.out"
stop_server "$work/server4.log"

echo "serve smoke: all phases passed"
