#!/usr/bin/env bash
# Paired A/B benchmark of a base revision against the working tree:
#
#   scripts/bench_pairs.sh BASE [PAIRS] [WORKLOAD...]
#
# Builds BASE (any git revision) from a `git archive` copy in a
# temporary directory, and the working tree in place. Then runs PAIRS
# (default 10) pairs of single `crdbench --runs 1` runs, one per side,
# each side with its own rd2 and crdbench, swapping which side runs
# first on every pair so that drift on a shared host falls on both
# sides alike. Each side's runs are merged into one set file, and the
# two sets go to `crdbench --compare` (A = BASE, B = the working tree),
# whose exit status this script returns. With no WORKLOAD, every
# workload runs. Last, for each workload and end-to-end metric of
# BENCHMARK.json, it prints how many pairs the working tree won (by
# the metric's "better" direction; ties count for neither side).
#
# Environment:
#   WINDOW  measured window of one run, in seconds   (default 20)
#   SEED    input seed                               (default 7)
#   KEEP    directory to keep both set files in      (default: none)
#
# Needs git, dune and jq.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
  echo "usage: $0 BASE [PAIRS] [WORKLOAD...]" >&2
  exit 2
fi
BASE=$1
shift
PAIRS=10
if [ $# -gt 0 ] && [[ $1 =~ ^[0-9]+$ ]]; then
  PAIRS=$1
  shift
fi
WINDOW="${WINDOW:-20}"
SEED="${SEED:-7}"
command -v jq >/dev/null || { echo "$0: needs jq" >&2; exit 2; }

HEAD_DIR=$(pwd)
TMP=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$TMP"' EXIT
mkdir -p "$TMP/base" "$TMP/runs"

echo "building $BASE in $TMP/base" >&2
git archive "$BASE" | tar -x -C "$TMP/base"
dune build --root "$TMP/base" ./bin/rd2.exe ./crdbench/crdbench.exe 1>&2
echo "building the working tree" >&2
dune build --root "$HEAD_DIR" ./bin/rd2.exe ./crdbench/crdbench.exe 1>&2

workload_args=()
for w in "$@"; do
  workload_args+=(--workload "$w")
done

# run SIDE DIR PAIR: one crdbench run of DIR's build, from DIR, so its
# default reference.txt and BENCHMARK.json are that side's own.
run() {
  local side=$1 dir=$2 pair=$3
  echo "pair $pair: $side" >&2
  (cd "$dir" &&
    ./_build/default/crdbench/crdbench.exe --rd2 ./_build/default/bin/rd2.exe \
      --seed "$SEED" --seconds "$WINDOW" --runs 1 \
      --work "$TMP/work-$side" --out "$TMP/runs/$side-$pair.json" \
      ${workload_args[@]+"${workload_args[@]}"} >/dev/null)
}

for pair in $(seq 1 "$PAIRS"); do
  if [ $((pair % 2)) -eq 1 ]; then
    run base "$TMP/base" "$pair"
    run head "$HEAD_DIR" "$pair"
  else
    run head "$HEAD_DIR" "$pair"
    run base "$TMP/base" "$pair"
  fi
done

# Merged in pair order, so the Nth run of each set is one pair.
for side in base head; do
  jq -s '{runs: map(.runs) | add}' \
    $(for pair in $(seq 1 "$PAIRS"); do echo "$TMP/runs/$side-$pair.json"; done) \
    >"$TMP/$side.json"
done
if [ -n "${KEEP:-}" ]; then
  mkdir -p "$KEEP"
  cp "$TMP/base.json" "$TMP/head.json" "$KEEP/"
fi
status=0
./_build/default/crdbench/crdbench.exe --compare "$TMP/base.json" "$TMP/head.json" || status=$?

# Pair wins: the Nth run of a workload in each set is one pair.
echo
jq -rn --slurpfile base "$TMP/base.json" --slurpfile head "$TMP/head.json" \
  --slurpfile bench BENCHMARK.json '
  def metrics($set; $w): [$set[0].runs[] | select(.workload == $w) | .result.metrics];
  (["workload", "metric", "head_wins", "base_wins", "ties", "pairs"] | @tsv),
  ($base[0].runs | map(.workload) | reduce .[] as $w ([]; if index([$w]) then . else . + [$w] end))[] as $w
  | metrics($base; $w) as $a | metrics($head; $w) as $b
  | $bench[0].end_to_end[] as $m
  | [range(0; [($a | length), ($b | length)] | min)
     | {a: $a[.][$m.name].value, b: $b[.][$m.name].value}
     | select(.a != null and .b != null)] as $pairs
  | ($pairs | map(select(if $m.better == "lower" then .b < .a else .b > .a end)) | length) as $won
  | ($pairs | map(select(.a == .b)) | length) as $ties
  | [$w, $m.name, $won, ($pairs | length) - $won - $ties, $ties, ($pairs | length)]
  | @tsv' | awk -F'\t' '{ printf "%-22s %-20s %9s %9s %5s %6s\n", $1, $2, $3, $4, $5, $6 }'
exit "$status"
