#!/usr/bin/env bash
# nnr_run's command-line contract, at the process level: single-cell mode
# trains and prints its stability table, and a warm rerun against its
# cache trains nothing; its --out dir holds the table and its index only;
# every usage error exits 2 before anything trains; --help names every flag
# of the parser's flag table (tools/nnr_run.cpp kFlags); --list names the
# studies and the optimizer catalog.
#
# Usage: nnr_run_cli_test.sh /path/to/nnr_run
set -euo pipefail

NNR_RUN="$1"
SRC_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

export NNR_QUICK=1
unset NNR_CACHE_DIR NNR_CACHE_URL NNR_CACHE_BUDGET NNR_THREADS \
      NNR_REPLICATES NNR_EPOCHS 2>/dev/null || true

fail() {
  echo "FAIL: $*"
  exit 1
}

# Single-cell mode: one cell, two one-epoch replicates.
"$NNR_RUN" --task smallcnn --replicates 2 --epochs 1 \
  > "$WORK/cell.out" 2> "$WORK/cell.err" || fail "single-cell run exited $?"
grep -q '^nnr_run stability summary (2 replicates)$' "$WORK/cell.out" ||
  fail "single-cell run printed no 2-replicate summary: $(cat "$WORK/cell.out")"
grep -Eq '^SmallCNN CIFAR-10 +V100 +ALGO\+IMPL ' "$WORK/cell.out" ||
  fail "single-cell table lacks its SmallCNN/V100/ALGO+IMPL row"
grep -q '^\[study\] trained=2$' "$WORK/cell.err" ||
  fail "single-cell run did not report trained=2"

# Single-cell mode against a cache: a cold run trains both replicates, a
# warm rerun trains none, and both emit the same table. Only study runs
# write cache_stats_* artifacts, so --out holds the table and its index.
expected_files="index.json nnr_run_smallcnn.csv nnr_run_smallcnn.json"
expected_files="$expected_files nnr_run_smallcnn.txt"
for run in cold warm; do
  "$NNR_RUN" --task smallcnn --replicates 2 --epochs 1 \
    --cache-dir "$WORK/cell-cache" --out "$WORK/out-$run" \
    > "$WORK/$run.out" 2> "$WORK/$run.err" ||
    fail "$run single-cell run exited $?"
  listing="$(ls "$WORK/out-$run" | tr '\n' ' ')"
  [ "$listing" = "$expected_files " ] ||
    fail "$run single-cell --out holds: $listing"
done
grep -q '^\[study\] trained=2$' "$WORK/cold.err" ||
  fail "cold single-cell run did not report trained=2"
grep -q '^\[study\] trained=0$' "$WORK/warm.err" ||
  fail "warm single-cell run did not report trained=0"
cmp "$WORK/cold.out" "$WORK/warm.out" || fail "warm single-cell table differs"
for ext in txt csv json; do
  cmp "$WORK/out-cold/nnr_run_smallcnn.$ext" \
      "$WORK/out-warm/nnr_run_smallcnn.$ext" ||
    fail "warm single-cell nnr_run_smallcnn.$ext differs"
done

# Usage errors: exit status 2, nothing on stdout, nothing trained.
usage_error_case() {
  local status=0
  "$NNR_RUN" "$@" > "$WORK/case.out" 2> "$WORK/case.err" || status=$?
  [ "$status" -eq 2 ] || fail "'$*' exited $status, expected 2"
  [ ! -s "$WORK/case.out" ] || fail "'$*' printed to stdout"
  if grep -q 'trained=' "$WORK/case.err"; then
    fail "'$*' trained before rejecting its flags"
  fi
}

usage_error_case --task smallcnn --replicates 0
usage_error_case --task smallcnn --replicates -3
usage_error_case --task smallcnn --epochs 0
usage_error_case --task smallcnn --epochs -1
usage_error_case --task smallcnn --threads 4x
usage_error_case --no-such-flag
usage_error_case --task smallcnn --replicates
usage_error_case --variant no-such-variant
usage_error_case --task no-such-task
usage_error_case --device no-such-device
usage_error_case --study no-such-study
usage_error_case --study ''
usage_error_case --study fig2 --task smallcnn
usage_error_case --cache-gc --study fig2 --cache-dir "$WORK/cache"
usage_error_case --submit fig2
usage_error_case --worker
usage_error_case --submit fig2 --worker --cache-url tcp://127.0.0.1:1
usage_error_case --worker --study fig2 --cache-url tcp://127.0.0.1:1
usage_error_case --task smallcnn --cache-url not-a-url
usage_error_case --task smallcnn --cache-url tcp://127.0.0.1:99999
usage_error_case --optimizer no-such
# Study names resolve at parse time, for every mode that takes them.
usage_error_case --submit no-such-study --cache-url tcp://127.0.0.1:1
printf '# only a comment\n\n' > "$WORK/comments.txt"
usage_error_case --study-file "$WORK/comments.txt"
printf 'fig2\nno-such-study\n' > "$WORK/unknown.txt"
usage_error_case --study-file "$WORK/unknown.txt"
# Modes are exclusive: any two mode flags are a usage error.
usage_error_case --cache-gc --worker --cache-url tcp://127.0.0.1:1
usage_error_case --study fig2 --submit fig2 --cache-url tcp://127.0.0.1:1

# --help is generated from kFlags; it must name every flag in the table.
"$NNR_RUN" --help > "$WORK/help.out"
flags="$(sed -n '/^const FlagSpec kFlags\[\] = {/,/^};/p' \
           "$SRC_ROOT/tools/nnr_run.cpp" | grep -o '{"--[a-z-]*"' |
         tr -d '{"')"
[ -n "$flags" ] || fail "found no flags in the kFlags table"
for flag in $flags; do
  grep -Eq -- "^  $flag( |$)" "$WORK/help.out" ||
    fail "--help does not name $flag"
done

"$NNR_RUN" --list > "$WORK/list.out"
grep -Eq '^  fig2 ' "$WORK/list.out" || fail "--list does not name fig2"
grep -q '^optimizers: sgd, sgd_momentum, adam, rmsprop ' "$WORK/list.out" ||
  fail "--list does not print the optimizer catalog"

echo "nnr_run CLI OK: $(echo "$flags" | wc -w) flags in --help"
