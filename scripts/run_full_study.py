#!/usr/bin/env python3
"""End-to-end study runner.

Generates the calibrated synthetic dataset, then runs the study of
`geocluster.study`, the command lines the acceptance gate judges: the
alpha sweep, the baseline comparison, the multislice resolution sweep and
the GT(p, q) noise-model sweep. Each writes `<command>.json` and, next to
it, a plot-ready CSV in the output directory. Last, it prints the gate's
verdicts on them for criteria 8-12 (`geocluster.study.judge`).

Usage:
    python scripts/run_full_study.py [--out results] [--seed 18]
"""

import argparse
import sys
from pathlib import Path

from geocluster import study
from geocluster.cli import main as cli
from geocluster.io import load_results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=study.DATASET_SEED)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = out / "dataset"
    commands = study.commands(data, out)
    for argv in [study.generate(args.seed, data), *commands.values()]:
        print(f"\n$ geocluster {' '.join(argv)}")
        if code := cli(argv):
            return code
    reports = {command: load_results(argv[-1]) for command, argv in commands.items()}
    print(f"\nacceptance criteria 8-12 on the reports in {out}/:")
    for num, (description, passed, detail) in study.judge(reports).items():
        print(f"{num:2d} {'PASS' if passed else 'FAIL'} - {description} ({detail})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
