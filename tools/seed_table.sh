#!/usr/bin/env bash
# Score the working tree at a range of seeds, one markdown row per seed.
#
# Usage: tools/seed_table.sh <first> <last> [KEY=VALUE ...]
#
# For each seed from <first> to <last> it runs gen -> train-tcnn ->
# train-stcnn -> detect -> segment -> eval through the CLI on the working
# tree, with `seed=<seed>` and every KEY=VALUE given as a config override,
# in a temporary directory of its own that is removed on exit. Seeds run
# side by side, never more at once than there are usable CPUs. Once all
# have finished it prints one row per seed: frame-mAP, frame-mAP with each
# video's true label, video-mAP, J (mean region IoU), label accuracy and
# wall-clock minutes. Exits 1 if any run fails, after printing the end of
# that run's log.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 <first> <last> [KEY=VALUE ...]" >&2
  exit 2
fi
first=$1 last=$2
shift 2
repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

sets=()
for kv in "$@"; do sets+=(--set "$kv"); done

# one_seed <seed>: the whole pipeline into $work/<seed>, its log in
# $work/<seed>.log and its minutes in $work/<seed>.min
one_seed() {
  local dir="$work/$1" start verb
  start=$(date +%s)
  for verb in gen train-tcnn train-stcnn detect segment eval; do
    PYTHONPATH="$repo/src" PYTHONDONTWRITEBYTECODE=1 \
      python3 -m tubenet.cli "$verb" --set "seed=$1" \
      --set "data_dir=$dir/data" --set "out_dir=$dir/out" "${sets[@]}" \
      || return 1
  done
  echo "$start $(date +%s)" \
    | awk '{printf "%.1f\n", ($2 - $1) / 60}' >"$work/$1.min"
}

slots=$(nproc)
for seed in $(seq "$first" "$last"); do
  while [ "$(jobs -rp | wc -l)" -ge "$slots" ]; do wait -n || true; done
  one_seed "$seed" >"$work/$seed.log" 2>&1 &
done
wait || true

status=0
for seed in $(seq "$first" "$last"); do
  if [ ! -f "$work/$seed.min" ]; then
    echo "seed $seed: the run failed:" >&2
    tail -n 20 "$work/$seed.log" >&2
    status=1
  fi
done

# the eval verb prints each metric as "<key>: <value>"
metric() { awk -v k="$1:" '$1 == k {print $2}' "$work/$2.log"; }
echo "| seed | frame-mAP | true-label frame-mAP | video-mAP | J | label acc | min |"
echo "|---|---|---|---|---|---|---|"
for seed in $(seq "$first" "$last"); do
  [ -f "$work/$seed.min" ] || continue
  echo "| $seed | $(metric frame_map "$seed")" \
       "| $(metric frame_map_true_label "$seed") | $(metric video_map "$seed")" \
       "| $(metric J_mean "$seed") | $(metric label_accuracy "$seed")" \
       "| $(cat "$work/$seed.min") |"
done
exit "$status"
