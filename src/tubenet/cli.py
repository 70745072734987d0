"""Command-line entry point.

Verbs: gen, train-tcnn, train-stcnn, detect, segment, eval. The
benchmark is a separate program: ``python3 bench/run.py --workload <w>``.
Every verb takes its configuration from the command line alone: the
`RunConfig` defaults with each ``--set key=value`` applied. A bad key or
value stops the command with one line that names it.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (RunConfig, run_detect, run_eval, run_gen, run_segment,
                      train_stcnn, train_tcnn)


def _config_from(args):
    overrides = {}
    for item in args.overrides:
        key, _, val = item.partition("=")
        if not _:
            raise SystemExit(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = val.strip()
    try:
        return RunConfig.load(overrides)
    except (KeyError, ValueError) as err:
        raise SystemExit(err.args[0]) from None


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tubenet",
        description="Tube-based video action detection and segmentation.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in (
            ("gen", "generate a synthetic dataset"),
            ("train-tcnn", "train the tube-proposal detector"),
            ("train-stcnn", "train the segmentation network"),
            ("detect", "run detection on the test split"),
            ("segment", "run segmentation on the test split"),
            ("eval", "score written detections/segmentations")):
        sub.add_parser(verb, help=help_text).add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE", help="override a single config value")

    args = parser.parse_args(argv)
    cfg = _config_from(args)

    if args.verb == "gen":
        run_gen(cfg)
        print(f"wrote dataset to {cfg.data_dir}")
    elif args.verb == "train-tcnn":
        train_tcnn(cfg)
        print(f"saved model to {cfg.out_dir}/tcnn_model")
    elif args.verb == "train-stcnn":
        train_stcnn(cfg)
        print(f"saved model to {cfg.out_dir}/stcnn_model")
    elif args.verb == "detect":
        rows = run_detect(cfg)
        print(f"wrote {len(rows)} frame detections to "
              f"{cfg.out_dir}/detections")
    elif args.verb == "segment":
        rows = run_segment(cfg)
        print(f"segmented {len(rows)} videos into {cfg.out_dir}/segmentations")
    elif args.verb == "eval":
        report = run_eval(cfg)
        for key in sorted(report):
            val = report[key]
            if isinstance(val, float):
                print(f"{key}: {val:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
