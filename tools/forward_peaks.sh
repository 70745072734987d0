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
# median. Then each forward runs once more on the working tree, traced
# by `tests/forward_trace.py` as the memory tests trace it: it prints the
# forward's traced peak, the traced calls with the highest peaks, each
# with the live traced memory at its entry, and the highest peak between
# two calls (outside every traced call), with the calls it fell between.
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

# each forward once more, traced in a fresh process of the working tree
for forward in tcnn stcnn; do
  PYTHONPATH="$repo/src:$repo/tests" PYTHONDONTWRITEBYTECODE=1 \
    python3 - "$forward" <<'EOF' ||
import sys

from forward_trace import trace_forward

MIB = 2**20
record = trace_forward(sys.argv[1])
peak = max([record.gap[0]] + [c.peak for c in record.calls])
print(f"{sys.argv[1]} traced peak {peak / MIB:.1f} MiB over "
      f"{len(record.calls)} traced calls; the highest:")
for c in sorted(record.calls, key=lambda c: (c.peak, c.live),
                reverse=True)[:6]:
    print(f"  {c.label}: live at entry {c.live / MIB:.1f} MiB, "
          f"peak {c.peak / MIB:.1f} MiB")
print("  highest between calls: {:.1f} MiB, after {} and before {}".format(
    record.gap[0] / MIB, *record.gap[1:]))
EOF
    { echo "$forward traced run failed" >&2; status=1; }
done
exit "$status"
