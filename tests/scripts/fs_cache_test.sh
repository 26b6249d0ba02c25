#!/usr/bin/env bash
# The filesystem replicate cache at the process level:
#   1. two concurrent `nnr_run --study fig2 --cache-dir` runs against one
#      fresh directory partition the grid through the per-key flock claims:
#      their trained counts sum to the grid (each cell trains once),
#      nothing is corrupt, and both emit byte-identical tables;
#   2. `nnr_run --cache-gc --cache-dir` sweeps an orphaned temp file and an
#      unheld lockfile; `--cache-budget 1` then evicts every entry, and a
#      rerun retrains the grid with byte-identical tables and corrupt=0.
# The remote twin is remote_cache_test.sh; kill_resume_test.sh covers the
# cold/warm/resume contract.
#
# Usage: fs_cache_test.sh /path/to/nnr_run
set -euo pipefail

NNR_RUN="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

export NNR_QUICK=1
unset NNR_CACHE_DIR NNR_CACHE_URL NNR_CACHE_BUDGET NNR_THREADS \
      NNR_REPLICATES NNR_EPOCHS 2>/dev/null || true

fail() {
  echo "FAIL: $*"
  exit 1
}

last_trained() {
  # The final "[study] trained=N" stderr line (progress lines also contain
  # trained=, so take the last occurrence).
  grep -o 'trained=[0-9]*' "$1" | tail -1 | cut -d= -f2
}

same_tables() {
  for ext in txt csv json; do
    cmp "$1/study_fig2.$ext" "$2/study_fig2.$ext" ||
      fail "study_fig2.$ext differs between $1 and $2"
  done
}

CACHE="$WORK/cache"
GRID=12  # fig2 at NNR_QUICK: 2 tasks x 3 variants x 2 replicates

# 1. Two concurrent runs share one fresh cache dir.
"$NNR_RUN" --study fig2 --cache-dir "$CACHE" --out "$WORK/out-a" \
  > "$WORK/a.out" 2> "$WORK/a.err" &
pid_a=$!
"$NNR_RUN" --study fig2 --cache-dir "$CACHE" --out "$WORK/out-b" \
  > "$WORK/b.out" 2> "$WORK/b.err" &
pid_b=$!
wait "$pid_a" || fail "run a exited $?: $(cat "$WORK/a.err")"
wait "$pid_b" || fail "run b exited $?: $(cat "$WORK/b.err")"
ta="$(last_trained "$WORK/a.err")"
tb="$(last_trained "$WORK/b.err")"
[ $((ta + tb)) -eq "$GRID" ] ||
  fail "concurrent runs trained a=$ta + b=$tb, expected $GRID in total"
grep -q ' corrupt=0 ' "$WORK/a.err" || fail "run a saw corrupt entries"
grep -q ' corrupt=0 ' "$WORK/b.err" || fail "run b saw corrupt entries"
same_tables "$WORK/out-a" "$WORK/out-b"

# 2. GC sweeps a dead writer's temp file and an unheld lockfile...
orphan="$CACHE/0123456789abcdef0123456789abcdef.rr.tmp99999999.1"
lockfile="$CACHE/0123456789abcdef0123456789abcdef.lock"
touch "$orphan" "$lockfile"
"$NNR_RUN" --cache-gc --cache-dir "$CACHE" > "$WORK/gc.out" ||
  fail "--cache-gc exited $?"
[ ! -e "$orphan" ] || fail "gc left the orphaned temp file"
[ ! -e "$lockfile" ] || fail "gc left the unheld lockfile"

# ...and a one-byte budget evicts every entry; the cache still serves.
"$NNR_RUN" --cache-gc --cache-dir "$CACHE" --cache-budget 1 \
  > "$WORK/evict.out" || fail "--cache-gc --cache-budget 1 exited $?"
left="$(find "$CACHE" -name '*.rr' | wc -l)"
[ "$left" -eq 0 ] || fail "budget 1 left $left entries"
"$NNR_RUN" --study fig2 --cache-dir "$CACHE" --out "$WORK/out-regc" \
  > "$WORK/regc.out" 2> "$WORK/regc.err" ||
  fail "rerun after eviction exited $?"
retrained="$(last_trained "$WORK/regc.err")"
[ "$retrained" -eq "$GRID" ] ||
  fail "rerun after eviction trained $retrained, expected $GRID"
grep -q ' corrupt=0 ' "$WORK/regc.err" || fail "rerun saw corrupt entries"
same_tables "$WORK/out-a" "$WORK/out-regc"

echo "fs cache OK: concurrent trained a=$ta b=$tb, gc swept, evicted," \
     "retrained=$retrained"
