#!/usr/bin/env bash
# Check that the working tree writes the same bytes as a git ref.
#
# Usage: tools/same_bytes.sh <git-ref>
#
# Runs gen -> train-tcnn -> train-stcnn -> detect -> segment -> eval through
# the CLI on a tiny config, once with each upsampler, both on
# `git archive <ref>` and on the working tree, then compares the two output
# trees (dataset, checkpoints and results) file by file. Everything is
# written to a temporary directory that is removed on exit; nothing is
# written inside the repository. Exits 1 if any file differs or exists on
# one side only.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <git-ref>" >&2
  exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/ref"
git -C "$repo" archive "$1" | tar -x -C "$work/ref"

tiny=(num_videos=10 num_frames=16 epochs_tpn=2 epochs_refine=2 epochs_seg=2)

# run <source checkout> <output tree> <upsampler>
run() {
  local sets=(--set "data_dir=$2/data" --set "out_dir=$2/out"
              --set "upsampler=$3")
  local kv verb
  for kv in "${tiny[@]}"; do sets+=(--set "$kv"); done
  for verb in gen train-tcnn train-stcnn detect segment eval; do
    PYTHONPATH="$1/src" PYTHONDONTWRITEBYTECODE=1 \
      python3 -m tubenet.cli "$verb" "${sets[@]}"
  done
}

status=0
for ups in subpixel unpool; do
  # the two sides run at once, each in its own process
  run "$work/ref" "$work/$ups/ref" "$ups" >"$work/$ups.ref.log" 2>&1 &
  ref_pid=$!
  run "$repo" "$work/$ups/tree" "$ups" >"$work/$ups.tree.log" 2>&1 &
  tree_pid=$!
  for side in ref tree; do
    pid_var=${side}_pid
    if ! wait "${!pid_var}"; then
      echo "$ups: the run on the $side side failed:" >&2
      tail -n 20 "$work/$ups.$side.log" >&2
      exit 1
    fi
  done
  files=$(find "$work/$ups/ref" -type f | wc -l)
  if diff -rq "$work/$ups/ref" "$work/$ups/tree"; then
    echo "$ups: $files files, identical to $1"
  else
    echo "$ups: the trees differ from $1" >&2
    status=1
  fi
done
exit "$status"
