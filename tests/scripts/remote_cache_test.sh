#!/usr/bin/env bash
# Remote-cache contract at the process level — the network twin of the
# flock concurrency test (fs_cache_test.sh, ctest fs_cache_study):
#   1. one nnr_cached daemon fronts a fresh cache dir on an ephemeral port;
#   2. two concurrent `nnr_run --study fig2 --cache-url` clients must
#      partition the grid via remote leases (combined trained == total,
#      nothing duplicated, nothing corrupt) and emit byte-identical tables;
#   3. a warm rerun against the same daemon trains zero replicates, with
#      byte-identical tables again (a cached replicate IS the replicate);
#   4. `nnr_run --cache-gc --cache-url` has the daemon sweep an orphaned
#      temp file from its directory.
#
# Usage: remote_cache_test.sh /path/to/nnr_run /path/to/nnr_cached
set -euo pipefail

NNR_RUN="$1"
NNR_CACHED="$2"
WORK="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

export NNR_QUICK=1
unset NNR_CACHE_DIR NNR_CACHE_URL NNR_CACHE_BUDGET NNR_THREADS 2>/dev/null || true

last_trained() {
  grep -o 'trained=[0-9]*' "$1" | tail -1 | cut -d= -f2
}

# Start the daemon on an ephemeral port and parse the port from its
# startup line (the documented contract for scripts).
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

# Two concurrent clients against the fresh remote cache.
"$NNR_RUN" --study fig2 --cache-url "$URL" --out "$WORK/out-a" 2> "$WORK/a.err" &
pid_a=$!
"$NNR_RUN" --study fig2 --cache-url "$URL" --out "$WORK/out-b" 2> "$WORK/b.err" &
pid_b=$!
wait "$pid_a"
wait "$pid_b"

ta="$(last_trained "$WORK/a.err")"
tb="$(last_trained "$WORK/b.err")"
total=12  # fig2 under NNR_QUICK: 2 tasks x 3 variants x 2 replicates
if [ "$((ta + tb))" -ne "$total" ]; then
  echo "FAIL: combined trained = $ta + $tb != $total (grid not partitioned)"
  cat "$WORK/a.err" "$WORK/b.err"
  exit 1
fi
grep -q 'corrupt=0' "$WORK/a.err" || { echo "FAIL: client A saw corruption"; exit 1; }
grep -q 'corrupt=0' "$WORK/b.err" || { echo "FAIL: client B saw corruption"; exit 1; }
for ext in txt csv json; do
  cmp "$WORK/out-a/study_fig2.$ext" "$WORK/out-b/study_fig2.$ext" || {
    echo "FAIL: concurrent clients emitted different study_fig2.$ext"
    exit 1
  }
done

# Warm rerun: everything must come from the daemon, nothing retrains.
"$NNR_RUN" --study fig2 --cache-url "$URL" --out "$WORK/out-warm" 2> "$WORK/warm.err"
warm="$(last_trained "$WORK/warm.err")"
if [ "$warm" -ne 0 ]; then
  echo "FAIL: warm remote rerun trained=$warm, expected 0"
  cat "$WORK/warm.err"
  exit 1
fi
grep -q 'misses=0' "$WORK/warm.err" || {
  echo "FAIL: warm remote rerun had misses"; cat "$WORK/warm.err"; exit 1; }
for ext in txt csv json; do
  cmp "$WORK/out-a/study_fig2.$ext" "$WORK/out-warm/study_fig2.$ext" || {
    echo "FAIL: warm table study_fig2.$ext differs"
    exit 1
  }
done

# Daemon-side housekeeping through --cache-url: an orphaned temp file (its
# writer pid cannot exist) is swept, the entries stay.
ORPHAN="$WORK/cache/0123456789abcdef0123456789abcdef.rr.tmp99999999.1"
touch "$ORPHAN"
"$NNR_RUN" --cache-gc --cache-url "$URL" > "$WORK/gc.out"
grep -q 'removed_tmp=1' "$WORK/gc.out" || {
  echo "FAIL: remote --cache-gc did not report the orphan sweep"
  cat "$WORK/gc.out"; exit 1; }
grep -q "entries=$total" "$WORK/gc.out" || {
  echo "FAIL: remote --cache-gc lost entries"; cat "$WORK/gc.out"; exit 1; }
[ ! -e "$ORPHAN" ] || { echo "FAIL: remote --cache-gc left the orphan"; exit 1; }

echo "remote-cache OK: trained a=$ta b=$tb warm=$warm (port $PORT)"
