"""Run one workload of the tubenet benchmark and print its metrics.

    python3 bench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is the `src/tubenet` beside
this directory, never an installed copy. The run sets up the workload's
inputs from the seed (five times, timing each), then repeats whole rounds
of the workload's stage calls until `--seconds` have passed, checks the last
round's outputs and prints the result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, measured untraced. `--trace 1`
wraps every public function of the tubenet modules (see `tracer.TRACED`)
on alternate rounds and reports the per-layer metrics of one set-up plus
one round. The full record (machine, stage rates, checks, per-layer
figures) goes to `.bench_work/results/`, and with `--trace 1` the spans too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import INCLUSIVE, Patch, Tracer, traced_names

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 5


def _import_tubenet():
    """Import the checkout's tubenet; exit 2 if it is absent."""
    if not (SRC / "tubenet" / "__init__.py").is_file():
        sys.exit(f"bench: no tubenet package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tubenet
    if Path(tubenet.__file__).resolve().parent != SRC / "tubenet":
        sys.exit(f"bench: imported tubenet from {tubenet.__file__}, "
                 f"not from {SRC}")


def _import_seconds():
    """Wall-clock seconds for a fresh interpreter to import tubenet, the
    cost every CLI command pays before it works."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tubenet"], env=env,
                   check=True)
    return time.perf_counter() - t0


def _machine(seed, blas_seen):
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} "
                    f"{blas.get('version', '')}".strip(),
            "blas_threads_in_stage": sorted(blas_seen, key=str),
            "seed": seed}


class _FirstRoundProbes:
    """During the first round only: read the BLAS thread count inside the
    stages (at each conv3d call) and keep each `link_top_k` call's inputs
    and result for the linking check."""

    def __init__(self):
        self.blas_seen = set()
        self.link_calls = []
        self._patch = Patch()

    def __enter__(self):
        from tubenet import tensor

        def probe_conv(fn):
            def wrapper(*args, **kwargs):
                self.blas_seen.add(tensor.blas_thread_count())
                return fn(*args, **kwargs)
            return wrapper

        def capture_link(fn):
            def wrapper(per_clip, k, *args, **kwargs):
                per_clip = [list(c) for c in per_clip]
                result = fn(per_clip, k, *args, **kwargs)
                self.link_calls.append((per_clip, k, result))
                return result
            return wrapper

        self._patch.replace("tensor.conv3d", probe_conv)
        self._patch.replace("linking.link_top_k", capture_link)
        return self

    def __exit__(self, *exc):
        self._patch.restore()


def _makeup(workload, link_calls):
    makeup = workload.makeup()
    if link_calls:
        clips = sum(len(per_clip) for per_clip, _, _ in link_calls)
        makeup["proposals_per_clip"] = sum(
            len(c) for per_clip, _, _ in link_calls for c in per_clip) / clips
    return makeup


def _run_round(stages, record):
    """Call each stage once, appending its seconds to `record`; returns the
    number of calls that raised."""
    times, failed = {}, 0
    for name, call in stages:
        t0 = time.perf_counter()
        try:
            call()
        except Exception:  # one failed operation; the run goes on
            traceback.print_exc()
            failed += 1
        times[name] = time.perf_counter() - t0
    record.append(times)
    return failed


def _stage_medians(rounds, keep):
    """Median seconds of each stage over the rounds flagged in `keep`."""
    kept = [r for r, k in zip(rounds, keep) if k]
    return {name: statistics.median(r[name] for r in kept)
            for name in kept[0]}


def _per_layer(setup_tracer, round_tracer, traced_rounds, workload):
    calls_a, incl_a, self_a = setup_tracer.summary()
    calls_b, incl_b, self_b = round_tracer.summary()
    n = max(traced_rounds, 1)
    metrics = {}
    for name in traced_names():
        metrics[f"{name}.self_s"] = (self_a[name] + self_b[name] / n, "s")
        metrics[f"{name}.calls"] = (calls_a[name] + calls_b[name] / n,
                                    "count")
        if name.split(".")[0] in INCLUSIVE:
            metrics[f"{name}.s"] = (incl_a[name] + incl_b[name] / n, "s")
    counts = round_tracer.counts
    metrics["tensor.conv3d.gflop"] = (
        setup_tracer.counts["conv_gflop"] + counts["conv_gflop"] / n, "GFLOP")
    metrics["tensor.conv3d.im2col_mb"] = (
        setup_tracer.counts["im2col_mb"] + counts["im2col_mb"] / n, "MB")

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["models.encoder_forwards_per_clip"] = (ratio(
        round_tracer.nested_calls("models.Encoder.forward",
                                  "models.TCNN.recognition_step"),
        counts["rec_clips"]), "forwards/clip")
    metrics["models.stcnn_forwards_per_clip"] = (ratio(
        round_tracer.nested_calls("models.STCNN.forward",
                                  "harness.run_segment"),
        getattr(workload, "segment_clips", 0) * traced_rounds),
        "forwards/clip")
    metrics["linking.proposals_per_clip"] = (ratio(
        counts["link_proposals"], counts["link_clips"]), "proposals/clip")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_tubenet()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    setup_tracer, round_tracer = Tracer(), Tracer()

    # set-up: a fresh import plus the workload's inputs, several times
    setup_times, import_times = [], []
    for i in range(SETUPS):
        traced = args.trace and i == SETUPS - 1
        t0 = time.perf_counter()
        import_times.append(_import_seconds())
        if traced:
            setup_tracer.install()
        try:
            workload.setup(run_dir / f"setup{i}", args.seed)
        finally:
            setup_tracer.uninstall()
        setup_times.append(time.perf_counter() - t0)

    # rounds: whole rounds until the time is up; with tracing, every other
    # round after the first is traced
    stages = workload.stages()
    rounds, traced_flags = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        index = len(rounds)
        traced = bool(args.trace) and index % 2 == 1
        if index == 0:
            with _FirstRoundProbes() as probes:
                failed += _run_round(stages, rounds)
        elif traced:
            round_tracer.install()
            try:
                failed += _run_round(stages, rounds)
            finally:
                round_tracer.uninstall()
        else:
            failed += _run_round(stages, rounds)
        traced_flags.append(traced)
        attempted += len(stages)
        if time.perf_counter() >= deadline and (not args.trace
                                                or any(traced_flags)):
            break

    try:
        checks = workload.check(args.seed, probes.link_calls)
    except Exception:  # outputs missing or unreadable
        checks = [("checks ran", False, traceback.format_exc())]
    correct = all(ok for _, ok, _ in checks)
    untraced = [not t for t in traced_flags]
    medians = _stage_medians(rounds, untraced)
    stage_figures = {}
    for stage, (name, unit, amount) in workload.rates().items():
        stage_figures[name] = {
            "value": medians[stage] if amount is None
            else amount / medians[stage], "unit": unit}

    if args.trace:
        metrics = _per_layer(setup_tracer, round_tracer, sum(traced_flags),
                             workload)
        warm = [u and i > 0 for i, u in enumerate(untraced)]
        if not any(warm):
            warm = untraced
        metrics["trace.overhead_s"] = (
            sum(_stage_medians(rounds, traced_flags).values())
            - sum(_stage_medians(rounds, warm).values()), "s")
    else:
        metrics = {
            "round_s": (sum(medians.values()), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": _machine(args.seed, probes.blas_seen),
        "makeup": _makeup(workload, probes.link_calls),
        "attempted": attempted, "failed": failed,
        "rounds": rounds, "traced_rounds": traced_flags,
        "setup_s": setup_times, "import_s": import_times,
        "stages": stage_figures,
        "checks": [{"name": n, "passed": ok, "detail": d}
                   for n, ok, d in checks],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        setup_tracer.write(results / f"{stem}.setup-spans.jsonl")
        round_tracer.write(results / f"{stem}.round-spans.jsonl")
    shutil.rmtree(run_dir, ignore_errors=True)

    print("machine: " + json.dumps(record["machine"]))
    print("makeup: " + json.dumps(record["makeup"]))
    for name, figure in stage_figures.items():
        print(f"{name}: {figure['value']:.4g} {figure['unit']}")
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))


if __name__ == "__main__":
    main()
