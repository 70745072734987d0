#!/usr/bin/env bash
# Compare the peak memory of the reference forwards with a git ref's, and
# show which calls set the working tree's.
#
# Usage: tools/forward_peaks.sh <git-ref> [runs]
#
# Runs the top-down and the bottom-up reference forward (criterion 2) at
# their layer-table sizes, each alone in a fresh process (each forward
# holds BLAS at one thread itself), `runs` times (default 3) on
# `git archive <git-ref>` and on the working tree, alternating which side
# runs first. Each run checks every row's shape against its table and
# prints the process's `ru_maxrss` in MB; the next lines give each side's
# median. Then each forward runs once more on the working tree under
# `tracemalloc`: it prints the forward's traced peak, the calls of
# `conv3d`, `maxpool3d`, `toi_pool_forward`, `_fc_forward` and
# `subpixel_upsample3d` with the highest traced peak, each with the live
# traced memory at its entry, and the highest peak between two calls
# (outside every traced call), with the calls it fell between.
# Everything is written to a temporary directory that is removed on exit.
# Exits 1 if a shape differs from its table or a forward fails.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <git-ref> [runs]" >&2
  exit 2
fi
ref=$1
runs=${2:-3}
repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/ref"
git -C "$repo" archive "$ref" | tar -x -C "$work/ref"

# peak <source checkout> <tcnn|stcnn>: one forward in a fresh process;
# prints its ru_maxrss in MB, exits 3 if a shape differs from the table
peak() {
  PYTHONPATH="$1/src" PYTHONDONTWRITEBYTECODE=1 python3 - "$2" <<'EOF'
import resource
import sys

from tubenet import networks

rows, shapes = getattr(networks, f"run_{sys.argv[1]}_table_forward")()
want = [(r.name, tuple(r.out_shape)) for r in rows]
got = [(name, tuple(shape)) for name, shape in shapes]
if got != want:
    # the rows on one side only: each wrong shape beside the table's
    print("shapes differ from the table:", *sorted(set(got) ^ set(want)),
          file=sys.stderr)
    sys.exit(3)
print(f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f}")
EOF
}

status=0
declare -A peaks
for ((i = 1; i <= runs; i++)); do
  sides=(ref tree)
  [ $((i % 2)) -eq 0 ] && sides=(tree ref)
  for forward in tcnn stcnn; do
    for side in "${sides[@]}"; do
      src=$repo
      [ "$side" = ref ] && src=$work/ref
      if mb=$(peak "$src" "$forward"); then
        echo "$forward $side run $i: ru_maxrss $mb MB"
        peaks[$forward.$side]+="$mb "
      else
        echo "$forward $side run $i: failed" >&2
        status=1
      fi
    done
  done
done
for forward in tcnn stcnn; do
  for side in ref tree; do
    median=$(printf '%s\n' ${peaks[$forward.$side]:-} | sort -n | awk '
      NF {v[++n] = $1}
      END {if (n) print (v[int((n + 1) / 2)] + v[int(n / 2) + 1]) / 2}')
    label=$ref
    [ "$side" = tree ] && label="working tree"
    echo "$forward median on $label: ${median:-no passing run}${median:+ MB}"
  done
done

# calls <source checkout> <tcnn|stcnn>: one traced forward in a fresh
# process; prints its traced peak, the calls with the highest peaks and
# the highest peak between calls
calls() {
  PYTHONPATH="$1/src" PYTHONDONTWRITEBYTECODE=1 python3 - "$2" <<'EOF'
import sys
import tracemalloc

from tubenet import networks, tensor, toi, upsample

MIB = 2**20
records = []  # (peak, live at entry, call number, name, input shape)
open_calls = []  # the highest peak so far of each traced call in progress
gap = (0, None, None)  # the highest peak between two calls, and the calls
last = "the forward's start"  # the last call to end outside every other


def fold():
    """The traced peak since the last fold, added to the innermost call in
    progress; resets the peak."""
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.reset_peak()
    if open_calls:
        open_calls[-1] = max(open_calls[-1], peak)
    return peak


def traced(module, name):
    real = getattr(module, name)

    def wrapper(x, *args, **kwargs):
        global gap, last
        live = tracemalloc.get_traced_memory()[0]
        n = len(records) + len(open_calls) + 1
        label = f"call {n} {name} {tuple(x.shape)}"
        peak = fold()
        if not open_calls and peak > gap[0]:
            gap = (peak, last, label)
        open_calls.append(0)
        try:
            return real(x, *args, **kwargs)
        finally:
            fold()
            peak = open_calls.pop()
            if open_calls:  # a call inside another peaks inside it too
                open_calls[-1] = max(open_calls[-1], peak)
            else:
                last = label
            records.append((peak, live, n, name, tuple(x.shape)))

    setattr(module, name, wrapper)


# the sub-pixel upsamplers call conv3d through the upsample module, and
# the bottom-up forward calls the upsampler through networks
for module, name in ((tensor, "conv3d"), (upsample, "conv3d"),
                     (tensor, "maxpool3d"), (toi, "toi_pool_forward"),
                     (networks, "_fc_forward"),
                     (networks, "subpixel_upsample3d")):
    traced(module, name)
tracemalloc.start()
getattr(networks, f"run_{sys.argv[1]}_table_forward")()
end = fold()
if end > gap[0]:
    gap = (end, last, "the forward's end")
tracemalloc.stop()
peak = max([gap[0]] + [r[0] for r in records])
print(f"{sys.argv[1]} traced peak {peak / MIB:.1f} MiB over "
      f"{len(records)} traced calls; the highest:")
for peak, live, n, name, shape in sorted(records, reverse=True)[:6]:
    print(f"  call {n} {name} {shape}: live at entry {live / MIB:.1f} MiB, "
          f"peak {peak / MIB:.1f} MiB")
print(f"  highest between calls: {gap[0] / MIB:.1f} MiB, after {gap[1]} "
      f"and before {gap[2]}")
EOF
}

for forward in tcnn stcnn; do
  calls "$repo" "$forward" || { echo "$forward traced run failed" >&2; status=1; }
done
exit "$status"
