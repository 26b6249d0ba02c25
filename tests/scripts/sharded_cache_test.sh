#!/usr/bin/env bash
# The sharded cache tier at the process level: three nnr_cached daemons
# (each owning its own directory), one coordinator and two workers driving
# a fleet study through the multi-shard --cache-url, with NNR_FAULT_SPEC
# armed in every process AND one non-queue shard SIGKILLed mid-study and
# restarted on the same directory + port. The contract:
#
#   1. a fault-free local run produces the ground-truth tables;
#   2. the wave still completes exactly-once: every cell settles
#      (trained + served == grid), none fails — the killed shard costs PUT
#      retries and degraded loads on its own key range only, never cells.
#      (trained alone is NOT asserted == grid: under a sharded tier REPORT
#      is the settlement path for non-queue-shard keys, and a fault that
#      drops the queue connection between FETCH and REPORT releases the
#      lease, requeues the item, and lets a peer settle the already-stored
#      cell as served — an accounting shift, not lost or repeated work);
#   3. the fleet tables are byte-identical to the fault-free reference;
#   4. a warm replay through the same multi-shard map trains 0 cells —
#      every entry is served by its owner shard.
#
# Usage: sharded_cache_test.sh /path/to/nnr_run /path/to/nnr_cached [SPEC]
set -euo pipefail

NNR_RUN="$1"
NNR_CACHED="$2"
SPEC="${3:-drop=0.02,delay_ms=5:0.05,corrupt=0.02,reset=0.01,seed=11}"
WORK="$(mktemp -d)"
D0_PID=""
D1_PID=""
D2_PID=""
COORD_PID=""
WORKER_A=""
WORKER_B=""
cleanup() {
  for pid in "$COORD_PID" "$WORKER_A" "$WORKER_B"; do
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  done
  for pid in "$D0_PID" "$D1_PID" "$D2_PID"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

export NNR_QUICK=1
unset NNR_CACHE_DIR NNR_CACHE_URL NNR_CACHE_BUDGET NNR_THREADS \
      NNR_FAULT_SPEC 2>/dev/null || true

TOTAL=12  # fig2 under NNR_QUICK: 2 tasks x 3 variants x 2 replicates

# 1. Ground truth: plain local run — no cache, no faults.
"$NNR_RUN" --study fig2 --out "$WORK/out-local" 2> "$WORK/local.err"

# Everything below runs under the fault plan, with tight backoffs (so a
# fault or the killed shard costs tens of milliseconds per retry). No fleet
# knob is needed for the worker holding a result for the killed shard's key
# range to ride out its restart: it re-sends the PUT for up to one lease TTL
# (NNR_CACHE_LEASE_MS, default 10 s), paced by these backoffs.
export NNR_FAULT_SPEC="$SPEC"
export NNR_CACHE_IO_TIMEOUT_MS=500
export NNR_CACHE_BACKOFF_MS=50
export NNR_CACHE_BACKOFF_MAX_MS=400

# 2. Three shard daemons, each with its own directory. Shard 0 carries the
#    work queue; shard 2 is the one we murder mid-study.
start_daemon() {  # index port(0=ephemeral) -> prints nothing, sets PORT
  local index="$1" port="$2"
  : > "$WORK/daemon$index.out"
  "$NNR_CACHED" --dir "$WORK/shard$index" --port "$port" \
      >> "$WORK/daemon$index.out" 2>&1 &
  local pid=$!
  eval "D${index}_PID=$pid"
  for _ in $(seq 1 100); do
    grep -q 'listening on' "$WORK/daemon$index.out" 2>/dev/null && break
    kill -0 "$pid" 2>/dev/null || { echo "FAIL: daemon $index died at startup"
      cat "$WORK/daemon$index.out"; exit 1; }
    sleep 0.05
  done
  PORT="$(sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' \
      "$WORK/daemon$index.out" | tail -1)"
  [ -n "$PORT" ] || { echo "FAIL: no port from daemon $index"; exit 1; }
}

start_daemon 0 0; PORT0="$PORT"
start_daemon 1 0; PORT1="$PORT"
start_daemon 2 0; PORT2="$PORT"
URLS="tcp://127.0.0.1:$PORT0,tcp://127.0.0.1:$PORT1,tcp://127.0.0.1:$PORT2"

# Failure forensics: daemon liveness, per-process logs, and what actually
# landed in each shard directory — a red run on a loaded CI machine must
# explain itself without a rerun.
dump_state() {
  for index in 0 1 2; do
    pid_var="D${index}_PID"
    pid="${!pid_var}"
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      echo "--- daemon $index (pid $pid): alive"
    else
      echo "--- daemon $index (pid ${pid:-?}): DEAD"
    fi
    tail -20 "$WORK/daemon$index.out" 2>/dev/null
    echo "--- shard$index entries:"
    find "$WORK/shard$index" -name '*.rr' 2>/dev/null | sort
  done
  for log in coord.err worker-a.err worker-b.err warm.err; do
    echo "--- $log:"; tail -30 "$WORK/$log" 2>/dev/null
  done
}

# 3. Coordinator + two workers, all on the full shard map.
"$NNR_RUN" --submit fig2 --cache-url "$URLS" --out "$WORK/out-fleet" \
    2> "$WORK/coord.err" &
COORD_PID=$!
"$NNR_RUN" --worker --cache-url "$URLS" 2> "$WORK/worker-a.err" &
WORKER_A=$!
"$NNR_RUN" --worker --cache-url "$URLS" 2> "$WORK/worker-b.err" &
WORKER_B=$!

# 4. Mid-study chaos: once training has started, SIGKILL the non-queue
#    shard 2 (no drain, no lease release, no goodbye), hold it down for
#    2 s — long enough that a worker's PUT to it really is retried across
#    the outage — then restart it on the same directory and port.
for _ in $(seq 1 200); do
  grep -q '\[worker\] trained' "$WORK/worker-a.err" "$WORK/worker-b.err" \
      2>/dev/null && break
  kill -0 "$COORD_PID" 2>/dev/null || break  # tiny grids can finish early
  sleep 0.05
done
if kill -0 "$D2_PID" 2>/dev/null; then
  kill -9 "$D2_PID" 2>/dev/null || true
  wait "$D2_PID" 2>/dev/null || true
  D2_PID=""
  sleep 2
  start_daemon 2 "$PORT2"
fi

wait "$COORD_PID" || { echo "FAIL: coordinator exited non-zero"
  cat "$WORK/coord.err"; exit 1; }
COORD_PID=""
wait "$WORKER_A" || { echo "FAIL: worker A exited non-zero"
  cat "$WORK/worker-a.err"; exit 1; }
WORKER_A=""
wait "$WORKER_B" || { echo "FAIL: worker B exited non-zero"
  cat "$WORK/worker-b.err"; exit 1; }
WORKER_B=""

# All three daemons must have survived the storm (shard 2 in its revived
# incarnation) — a dead daemon here would corrupt every later assertion.
for index in 0 1 2; do
  pid_var="D${index}_PID"
  if ! kill -0 "${!pid_var}" 2>/dev/null; then
    echo "FAIL: daemon $index died during the fleet phase"
    dump_state; exit 1
  fi
done

# 5a. Exactly-once across the sharded tier: every cell settled fleet-wide
#     (trained + served == grid), none failed — the killed shard moved no
#     cells. See the header for why trained alone may fall short of the
#     grid under the fault plan.
FLEET_LINE="$(grep "\[fleet\] $TOTAL/$TOTAL cells" "$WORK/coord.err" | tail -1)"
[ -n "$FLEET_LINE" ] || { echo "FAIL: no final [fleet] $TOTAL/$TOTAL line"
  cat "$WORK/coord.err"; exit 1; }
TRAINED="$(echo "$FLEET_LINE" | grep -o 'trained=[0-9]*' | cut -d= -f2)"
SERVED="$(echo "$FLEET_LINE" | grep -o 'served=[0-9]*' | cut -d= -f2)"
[ -n "$TRAINED" ] && [ -n "$SERVED" ] || {
  echo "FAIL: cannot parse tallies from: $FLEET_LINE"; exit 1; }
[ "$((TRAINED + SERVED))" -eq "$TOTAL" ] || {
  echo "FAIL: trained+served = $TRAINED+$SERVED != $TOTAL with a shard killed"
  echo "$FLEET_LINE"; exit 1; }
[ "$TRAINED" -ge 1 ] || {
  echo "FAIL: nothing trained — the wave was served from a stale cache?"
  echo "$FLEET_LINE"; exit 1; }
echo "$FLEET_LINE" | grep -q 'failed=0' || {
  echo "FAIL: fleet saw failures: $FLEET_LINE"; exit 1; }

# 5b. Byte-identical tables: sharding + chaos cost retries, never bytes.
for ext in txt csv json; do
  cmp "$WORK/out-local/study_fig2.$ext" "$WORK/out-fleet/study_fig2.$ext" || {
    echo "FAIL: sharded study_fig2.$ext differs from the reference"
    exit 1
  }
done

# 5c. Entries really are spread across shard directories (rendezvous
#     routing at work), and only there — no shard dir may be empty unless
#     the hash genuinely assigned it nothing (possible but rare for 12
#     keys over 3 shards; require at least 2 populated dirs).
POPULATED=0
for index in 0 1 2; do
  if find "$WORK/shard$index" -name '*.rr' | grep -q .; then
    POPULATED=$((POPULATED + 1))
  fi
done
[ "$POPULATED" -ge 2 ] || {
  echo "FAIL: entries are not spread across shards ($POPULATED populated)"
  exit 1; }

# 5d. Warm replay through the same multi-shard map: every cell is served
#     by its owner shard, nothing trains. That demands a genuinely quiet
#     wire, so first strip the chaos-phase environment (client timeouts
#     back to their defaults — a 500ms IO timeout on a loaded CI machine
#     can mark a healthy shard down by itself) AND gracefully restart all
#     three daemons fault-free: the running ones armed the fault plan at
#     startup, and one daemon-side drop during the replay would knock a
#     healthy shard into the client's down state and retrain its keys
#     (byte-identically, but trained would be nonzero). The restart also
#     proves every shard's entries persist across a full-tier bounce.
unset NNR_FAULT_SPEC NNR_CACHE_IO_TIMEOUT_MS NNR_CACHE_BACKOFF_MS \
      NNR_CACHE_BACKOFF_MAX_MS
for index in 0 1 2; do
  pid_var="D${index}_PID"
  kill "${!pid_var}" 2>/dev/null || true
  wait "${!pid_var}" 2>/dev/null || true
  eval "D${index}_PID="
done
start_daemon 0 "$PORT0"
start_daemon 1 "$PORT1"
start_daemon 2 "$PORT2"
"$NNR_RUN" --study fig2 --cache-url "$URLS" --out "$WORK/out-warm" \
    2> "$WORK/warm.err"
WARM_TRAINED="$(grep -o 'trained=[0-9]*' "$WORK/warm.err" | tail -1 | cut -d= -f2)"
[ "$WARM_TRAINED" = "0" ] || {
  echo "FAIL: warm sharded replay trained $WARM_TRAINED cells, expected 0"
  dump_state; exit 1; }
for ext in txt csv json; do
  cmp "$WORK/out-local/study_fig2.$ext" "$WORK/out-warm/study_fig2.$ext" || {
    echo "FAIL: warm study_fig2.$ext differs from the reference"; exit 1; }
done

echo "sharded-cache OK: spec='$SPEC' trained=$TRAINED served=$SERVED" \
     "shards=$POPULATED populated (ports $PORT0/$PORT1/$PORT2," \
     "shard 2 SIGKILLed + revived)"
