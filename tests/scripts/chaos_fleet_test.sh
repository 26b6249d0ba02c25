#!/usr/bin/env bash
# Chaos conformance at the process level: the fleet study of
# fleet_queue_test.sh re-run with NNR_FAULT_SPEC armed in every process —
# daemon, coordinator, and both workers all inject seeded drop / delay /
# corrupt / reset faults into every socket they own. The contract:
#
#   1. a fault-free local run produces the ground-truth tables;
#   2. under the fault plan, the coordinator + 2 workers still complete
#      the wave: every cell settles once (daemon tally trained + served ==
#      grid, trained >= 1, failed == 0) — faults cost retries, never cells;
#   3. the fleet tables are byte-identical to the fault-free reference
#      (faults cost time, never bytes);
#   4. SIGTERM stops the daemon gracefully (drain + queue persist).
#
# The spec seed makes the whole storm replayable: a red run IS the
# reproduction recipe.
#
# Usage: chaos_fleet_test.sh /path/to/nnr_run /path/to/nnr_cached [SPEC]
set -euo pipefail

NNR_RUN="$1"
NNR_CACHED="$2"
SPEC="${3:-drop=0.02,delay_ms=5:0.05,corrupt=0.02,reset=0.01,seed=7}"
WORK="$(mktemp -d)"
DAEMON_PID=""
COORD_PID=""
WORKER_A=""
WORKER_B=""
cleanup() {
  # Kill the clients first and hard: a worker orphaned by a FAIL exit
  # polls the (now dead) daemon forever and would hold our pipes open.
  for pid in "$COORD_PID" "$WORKER_A" "$WORKER_B"; do
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  done
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

export NNR_QUICK=1
unset NNR_CACHE_DIR NNR_CACHE_URL NNR_CACHE_BUDGET NNR_THREADS \
      NNR_FAULT_SPEC 2>/dev/null || true

TOTAL=12  # fig2 under NNR_QUICK: 2 tasks x 3 variants x 2 replicates

# 1. Ground truth: plain local run — no cache, no faults.
"$NNR_RUN" --study fig2 --out "$WORK/out-local" 2> "$WORK/local.err"

# Everything below runs under the fault plan. Client timeouts/backoffs are
# tightened so each injected fault costs tens of milliseconds, not the
# multi-second production defaults.
export NNR_FAULT_SPEC="$SPEC"
export NNR_CACHE_IO_TIMEOUT_MS=500
export NNR_CACHE_BACKOFF_MS=50
export NNR_CACHE_BACKOFF_MAX_MS=400

# 2. The daemon — faults armed on its sockets too.
"$NNR_CACHED" --dir "$WORK/cache" --port 0 > "$WORK/daemon.out" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  grep -q 'listening on' "$WORK/daemon.out" 2>/dev/null && break
  kill -0 "$DAEMON_PID" 2>/dev/null || { echo "FAIL: daemon died at startup";
    cat "$WORK/daemon.out"; exit 1; }
  sleep 0.05
done
PORT="$(sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' "$WORK/daemon.out")"
[ -n "$PORT" ] || { echo "FAIL: could not parse daemon port"; exit 1; }
URL="tcp://127.0.0.1:$PORT"

grep -q '\[fault\] injector armed' "$WORK/daemon.out" || {
  echo "FAIL: daemon did not arm the fault injector from NNR_FAULT_SPEC"
  cat "$WORK/daemon.out"; exit 1; }

# 3. Coordinator + two workers, all under the storm.
"$NNR_RUN" --submit fig2 --cache-url "$URL" --out "$WORK/out-fleet" \
    2> "$WORK/coord.err" &
COORD_PID=$!
"$NNR_RUN" --worker --cache-url "$URL" 2> "$WORK/worker-a.err" &
WORKER_A=$!
"$NNR_RUN" --worker --cache-url "$URL" 2> "$WORK/worker-b.err" &
WORKER_B=$!

wait "$COORD_PID" || { echo "FAIL: coordinator exited non-zero";
  cat "$WORK/coord.err"; exit 1; }
COORD_PID=""
wait "$WORKER_A" || { echo "FAIL: worker A exited non-zero";
  cat "$WORK/worker-a.err"; exit 1; }
WORKER_A=""
wait "$WORKER_B" || { echo "FAIL: worker B exited non-zero";
  cat "$WORK/worker-b.err"; exit 1; }
WORKER_B=""

# 4a. Exactly-once under chaos: every cell settled once fleet-wide, none
#     failed, none lost. trained alone may fall short of the grid: a REPORT
#     lost to a fault releases the lease, and a peer settles the
#     already-stored cell as served. (No warm-replay or per-worker-sum
#     assertions here: a faulty cache load during the coordinator's replay
#     may legitimately retrain a cell locally, and a lease lost to an
#     injected reset may legitimately double-train one — the daemon tally
#     and the tables are the invariants faults cannot be allowed to move.)
FLEET_LINE="$(grep "\[fleet\] $TOTAL/$TOTAL cells" "$WORK/coord.err" | tail -1)"
[ -n "$FLEET_LINE" ] || { echo "FAIL: no final [fleet] $TOTAL/$TOTAL line";
  cat "$WORK/coord.err"; exit 1; }
TRAINED="$(echo "$FLEET_LINE" | grep -o 'trained=[0-9]*' | cut -d= -f2)"
SERVED="$(echo "$FLEET_LINE" | grep -o 'served=[0-9]*' | cut -d= -f2)"
[ -n "$TRAINED" ] && [ -n "$SERVED" ] || {
  echo "FAIL: cannot parse tallies from: $FLEET_LINE"; exit 1; }
[ "$((TRAINED + SERVED))" -eq "$TOTAL" ] || {
  echo "FAIL: trained+served = $TRAINED+$SERVED != $TOTAL under spec '$SPEC':"
  echo "$FLEET_LINE"; exit 1; }
[ "$TRAINED" -ge 1 ] || {
  echo "FAIL: nothing trained under spec '$SPEC': $FLEET_LINE"; exit 1; }
echo "$FLEET_LINE" | grep -q 'failed=0' || {
  echo "FAIL: fleet saw failures under spec '$SPEC': $FLEET_LINE"; exit 1; }

# 4b. Byte-identical tables: the storm cost retries, never bytes.
for ext in txt csv json; do
  cmp "$WORK/out-local/study_fig2.$ext" "$WORK/out-fleet/study_fig2.$ext" || {
    echo "FAIL: chaos study_fig2.$ext differs from the fault-free reference"
    exit 1
  }
done

# 4c. SIGTERM is the graceful path: drain, release leases, persist queue.
kill -TERM "$DAEMON_PID"
for _ in $(seq 1 100); do
  kill -0 "$DAEMON_PID" 2>/dev/null || break
  sleep 0.05
done
kill -0 "$DAEMON_PID" 2>/dev/null && {
  echo "FAIL: daemon did not exit within 5s of SIGTERM"; exit 1; }
DAEMON_PID=""
grep -q 'graceful stop' "$WORK/daemon.out" || {
  echo "FAIL: daemon exited without the graceful-stop drain";
  cat "$WORK/daemon.out"; exit 1; }

echo "chaos-fleet OK: spec='$SPEC' trained=$TRAINED served=$SERVED" \
     "tables identical (port $PORT)"
