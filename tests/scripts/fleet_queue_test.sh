#!/usr/bin/env bash
# Fleet work-queue contract at the process level:
#   1. a local reference run (no cache) produces the ground-truth tables;
#   2. an nnr_cached daemon fronts a fresh dir on an ephemeral port;
#   3. a coordinator submits fig2 to the daemon's queue and waits; workers
#      drain it — one worker is SIGKILLed mid-study and replacements join,
#      so the dead worker's leased cell must return to the queue;
#   4. every cell settles exactly once (daemon-side tally: trained +
#      served == grid, trained >= 1, failed == 0; a worker killed between
#      PUT and REPORT leaves its cell to be served by the next worker), no
#      cell trains twice, the coordinator's warm replay trains nothing, and
#      its tables are byte-identical to the local reference run.
#
# Usage: fleet_queue_test.sh /path/to/nnr_run /path/to/nnr_cached
set -euo pipefail

NNR_RUN="$1"
NNR_CACHED="$2"
WORK="$(mktemp -d)"
DAEMON_PID=""
KILL_ME_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  [ -n "$KILL_ME_PID" ] && kill -9 "$KILL_ME_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

export NNR_QUICK=1
unset NNR_CACHE_DIR NNR_CACHE_URL NNR_CACHE_BUDGET NNR_THREADS 2>/dev/null || true

TOTAL=12  # fig2 under NNR_QUICK: 2 tasks x 3 variants x 2 replicates

last_trained() {
  grep -o 'trained=[0-9]*' "$1" | tail -1 | cut -d= -f2
}

# 1. Ground truth: a plain local run, no cache anywhere near it.
"$NNR_RUN" --study fig2 --out "$WORK/out-local" 2> "$WORK/local.err"

# 2. The daemon on an ephemeral port (parsed from its startup line).
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

# 3. Coordinator submits and waits; the first worker starts alone so we can
#    kill it once it is demonstrably mid-study.
"$NNR_RUN" --submit fig2 --cache-url "$URL" --out "$WORK/out-fleet" \
    2> "$WORK/coord.err" &
COORD_PID=$!
"$NNR_RUN" --worker --cache-url "$URL" 2> "$WORK/worker-k.err" &
KILL_ME_PID=$!

# Wait until the doomed worker has trained at least one cell (so it holds a
# lease on its next one), then SIGKILL it — no REPORT, no clean release.
for _ in $(seq 1 200); do
  grep -q '\[worker\] trained' "$WORK/worker-k.err" 2>/dev/null && break
  kill -0 "$KILL_ME_PID" 2>/dev/null || { echo "FAIL: doomed worker exited early";
    cat "$WORK/worker-k.err"; exit 1; }
  sleep 0.1
done
grep -q '\[worker\] trained' "$WORK/worker-k.err" || {
  echo "FAIL: doomed worker never trained a cell"; cat "$WORK/worker-k.err"; exit 1; }
kill -9 "$KILL_ME_PID"
wait "$KILL_ME_PID" 2>/dev/null || true
KILL_ME_PID=""

# Two replacement workers join mid-study and drain the rest.
"$NNR_RUN" --worker --cache-url "$URL" 2> "$WORK/worker-a.err" &
WORKER_A=$!
"$NNR_RUN" --worker --cache-url "$URL" 2> "$WORK/worker-b.err" &
WORKER_B=$!

wait "$COORD_PID" || { echo "FAIL: coordinator exited non-zero";
  cat "$WORK/coord.err"; exit 1; }
wait "$WORKER_A" || { echo "FAIL: worker A exited non-zero";
  cat "$WORK/worker-a.err"; exit 1; }
wait "$WORKER_B" || { echo "FAIL: worker B exited non-zero";
  cat "$WORK/worker-b.err"; exit 1; }

# 4a. The daemon's final tally: every cell settled exactly once, fleet-wide.
FLEET_LINE="$(grep "\[fleet\] $TOTAL/$TOTAL cells" "$WORK/coord.err" | tail -1)"
[ -n "$FLEET_LINE" ] || { echo "FAIL: no final [fleet] $TOTAL/$TOTAL line";
  cat "$WORK/coord.err"; exit 1; }
TRAINED="$(echo "$FLEET_LINE" | grep -o 'trained=[0-9]*' | cut -d= -f2)"
SERVED="$(echo "$FLEET_LINE" | grep -o 'served=[0-9]*' | cut -d= -f2)"
[ -n "$TRAINED" ] && [ -n "$SERVED" ] || {
  echo "FAIL: cannot parse tallies from: $FLEET_LINE"; exit 1; }
[ "$((TRAINED + SERVED))" -eq "$TOTAL" ] || {
  echo "FAIL: trained+served = $TRAINED+$SERVED != $TOTAL (a requeued cell"
  echo "was lost or double-counted): $FLEET_LINE"; exit 1; }
[ "$TRAINED" -ge 1 ] || {
  echo "FAIL: nothing trained — the wave was served from a stale cache?"
  echo "$FLEET_LINE"; exit 1; }
echo "$FLEET_LINE" | grep -q 'failed=0' || {
  echo "FAIL: fleet saw failures: $FLEET_LINE"; exit 1; }

# 4b. The coordinator's replay ran fully warm: zero local training.
WARM="$(last_trained "$WORK/coord.err")"
if [ "$WARM" -ne 0 ]; then
  echo "FAIL: coordinator's warm replay trained=$WARM, expected 0"
  cat "$WORK/coord.err"
  exit 1
fi

# 4c. Per-worker logs must corroborate exactly-once: the counts sum to the
#     grid — minus at most the one cell the SIGKILL can interrupt after its
#     PUT (its REPORT or its log line never happened; a cell that lost its
#     REPORT is served by the next worker, not retrained). A sum ABOVE the
#     grid means some cell trained twice.
A_TRAINED="$(last_trained "$WORK/worker-a.err")"
B_TRAINED="$(last_trained "$WORK/worker-b.err")"
K_TRAINED="$(grep -c '\[worker\] trained' "$WORK/worker-k.err" || true)"
SUM="$((A_TRAINED + B_TRAINED + K_TRAINED))"
if [ "$SUM" -gt "$TOTAL" ] || [ "$SUM" -lt "$((TOTAL - 1))" ]; then
  echo "FAIL: per-worker trained counts k=$K_TRAINED a=$A_TRAINED" \
       "b=$B_TRAINED sum to $SUM, expected $TOTAL (or $((TOTAL - 1)) when" \
       "the kill eats one log line)"
  cat "$WORK/worker-k.err" "$WORK/worker-a.err" "$WORK/worker-b.err"
  exit 1
fi

# 4d. Fleet tables byte-identical to the no-cache local reference.
for ext in txt csv json; do
  cmp "$WORK/out-local/study_fig2.$ext" "$WORK/out-fleet/study_fig2.$ext" || {
    echo "FAIL: fleet study_fig2.$ext differs from the local reference"
    exit 1
  }
done

echo "fleet-queue OK: trained=$TRAINED served=$SERVED killed-worker=$K_TRAINED" \
     "a=$A_TRAINED b=$B_TRAINED warm=$WARM (port $PORT)"
