#!/usr/bin/env bash
# nnr_cached's command-line contract, at the process level: --help names
# every flag; every usage error (a missing --dir, a flag without its value,
# an unknown or retired flag, an out-of-range value) exits 2 with nothing on
# stdout and no daemon started; a valid command line prints the
# "listening on HOST:PORT" startup line, and SIGTERM stops the daemon
# gracefully with exit status 0.
#
# Usage: nnr_cached_cli_test.sh /path/to/nnr_cached
set -euo pipefail

NNR_CACHED="$1"
WORK="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT
unset NNR_FAULT_SPEC 2>/dev/null || true

fail() {
  echo "FAIL: $*"
  exit 1
}

# --help exits 0 and names every flag.
"$NNR_CACHED" --help > "$WORK/help.out" || fail "--help exited $?"
for flag in --dir --port --bind --budget --ttl-ms --max-conns --idle-ms \
            --drain-ms --help; do
  grep -Eq -- "^  $flag( |$)" "$WORK/help.out" ||
    fail "--help does not name $flag"
done

# Usage errors: exit status 2 and nothing on stdout. The timeout turns a
# command line that wrongly starts a daemon into a failure, not a hang.
usage_error_case() {
  local status=0
  timeout 10 "$NNR_CACHED" "$@" > "$WORK/case.out" 2> "$WORK/case.err" ||
    status=$?
  [ "$status" -eq 2 ] || fail "'$*' exited $status, expected 2"
  [ ! -s "$WORK/case.out" ] || fail "'$*' printed to stdout"
}

D="$WORK/cache"
usage_error_case --port 0
usage_error_case --dir "$D" --port
usage_error_case --dir "$D" --port 0 --no-such-flag
usage_error_case --dir "$D" --port 0 --max-rps 5
usage_error_case --dir "$D" --port 70000
usage_error_case --dir "$D" --port -1
usage_error_case --dir "$D" --port 4x
usage_error_case --dir "$D" --port 0 --budget -1
usage_error_case --dir "$D" --port 0 --ttl-ms 99
usage_error_case --dir "$D" --port 0 --ttl-ms 3600001
usage_error_case --dir "$D" --port 0 --max-conns -1
usage_error_case --dir "$D" --port 0 --idle-ms -1
usage_error_case --dir "$D" --port 0 --drain-ms -1

# A valid command line: the startup line, then a graceful SIGTERM stop.
"$NNR_CACHED" --dir "$D" --port 0 > "$WORK/daemon.out" \
  2> "$WORK/daemon.err" &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  grep -q 'listening on' "$WORK/daemon.out" 2>/dev/null && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died at startup"
  sleep 0.1
done
grep -Eq '^nnr_cached listening on 127\.0\.0\.1:[1-9][0-9]*$' \
  "$WORK/daemon.out" ||
  fail "unexpected startup line: $(cat "$WORK/daemon.out")"
kill -TERM "$DAEMON_PID"
status=0
wait "$DAEMON_PID" || status=$?
DAEMON_PID=""
[ "$status" -eq 0 ] || fail "SIGTERM exited $status, expected 0"
grep -q 'graceful stop' "$WORK/daemon.err" ||
  fail "no graceful stop line on stderr: $(cat "$WORK/daemon.err")"

echo "nnr_cached CLI OK"
