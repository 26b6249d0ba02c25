#!/usr/bin/env bash
# Kill-and-resume contract for the replicate cache, at the process level:
# a study killed mid-grid (SIGKILL — no cleanup runs, claims are released
# by the kernel, temp files may be orphaned) and rerun against the same
# cache trains exactly the replicates that were not yet durably stored,
# and the final tables are byte-identical to an uninterrupted run. A warm
# rerun against the resumed cache then misses nothing, trains nothing and
# writes nothing: the cache dir's file names and sizes are unchanged.
#
# Usage: kill_resume_test.sh /path/to/nnr_run
set -euo pipefail

NNR_RUN="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Quick scale, but enough replicates that the grid takes long enough to be
# killed mid-way on a fast machine.
export NNR_QUICK=1
export NNR_REPLICATES=6
unset NNR_CACHE_DIR NNR_CACHE_BUDGET NNR_THREADS 2>/dev/null || true

last_trained() {
  # The final "[study] trained=N" stderr line (progress lines also contain
  # trained=, so take the last occurrence).
  grep -o 'trained=[0-9]*' "$1" | tail -1 | cut -d= -f2
}

# Reference: one uninterrupted run with its own cache.
"$NNR_RUN" --study fig2 --cache-dir "$WORK/cache-ref" --out "$WORK/out-ref" \
  2> "$WORK/ref.err"
total="$(last_trained "$WORK/ref.err")"
[ "$total" -gt 0 ] || { echo "reference run trained nothing"; exit 1; }

# Interrupted run: SIGKILL once at least two replicates are durably cached.
mkdir -p "$WORK/cache"
"$NNR_RUN" --study fig2 --cache-dir "$WORK/cache" 2> "$WORK/killed.err" &
pid=$!
for _ in $(seq 1 1200); do
  n="$(find "$WORK/cache" -name '*.rr' | wc -l)"
  [ "$n" -ge 2 ] && break
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.05
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

present="$(find "$WORK/cache" -name '*.rr' | wc -l)"
if [ "$present" -ge "$total" ]; then
  echo "note: run finished before the kill landed ($present/$total cached);" \
       "resume still must train zero"
fi

# Resume against the killed run's cache: trains exactly the remaining
# replicates, reads the rest from disk, and matches the reference tables
# byte for byte.
"$NNR_RUN" --study fig2 --cache-dir "$WORK/cache" --out "$WORK/out-resume" \
  2> "$WORK/resume.err"
trained="$(last_trained "$WORK/resume.err")"
expected=$((total - present))
if [ "$trained" -ne "$expected" ]; then
  echo "FAIL: resume trained=$trained, expected $expected" \
       "(total=$total, cached-at-kill=$present)"
  cat "$WORK/resume.err"
  exit 1
fi
grep -q 'corrupt=0' "$WORK/resume.err" || {
  echo "FAIL: resume saw corrupt cache entries"; exit 1; }
for ext in txt csv json; do
  cmp "$WORK/out-ref/study_fig2.$ext" "$WORK/out-resume/study_fig2.$ext" || {
    echo "FAIL: resumed table study_fig2.$ext differs from reference"
    exit 1
  }
done

# Warm rerun: every replicate is a hit, and a hit only re-stamps its
# entry's mtime — no file is created, removed, or grows.
listing() { find "$WORK/cache" -type f -printf '%p %s\n' | sort; }
listing > "$WORK/cache.before"
"$NNR_RUN" --study fig2 --cache-dir "$WORK/cache" --out "$WORK/out-warm" \
  2> "$WORK/warm.err"
warm="$(last_trained "$WORK/warm.err")"
[ "$warm" -eq 0 ] || { echo "FAIL: warm rerun trained=$warm"; exit 1; }
grep -q ' misses=0 ' "$WORK/warm.err" || {
  echo "FAIL: warm rerun missed the cache"; cat "$WORK/warm.err"; exit 1; }
listing > "$WORK/cache.after"
diff "$WORK/cache.before" "$WORK/cache.after" || {
  echo "FAIL: a warm rerun changed the cache dir's files"; exit 1; }
for ext in txt csv json; do
  cmp "$WORK/out-ref/study_fig2.$ext" "$WORK/out-warm/study_fig2.$ext" || {
    echo "FAIL: warm table study_fig2.$ext differs from reference"; exit 1; }
done

echo "kill-resume OK: total=$total cached-at-kill=$present resumed-trained=$trained warm-trained=0"
