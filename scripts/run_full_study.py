#!/usr/bin/env python3
"""End-to-end study runner.

Generates the calibrated synthetic dataset, then runs the study of
`geocluster.study`, the command lines the acceptance gate judges: the
alpha sweep, the baseline comparison, the multislice resolution sweep and
the GT(p, q) noise-model sweep. Each writes `<command>.json` and, next to
it, a plot-ready CSV in the output directory.

Usage:
    python scripts/run_full_study.py [--out results] [--seed 18]
"""

import argparse
import sys
from pathlib import Path

from geocluster import study
from geocluster.cli import main as cli
from geocluster.io import load_results


def run(args_list):
    print(f"\n$ geocluster {' '.join(args_list)}")
    code = cli(args_list)
    if code != 0:
        sys.exit(code)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=study.DATASET_SEED)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = out / "dataset"
    run(study.generate(args.seed, data))
    for argv in study.commands(data, out).values():
        run(argv)

    sweep = load_results(out / "sweep-alpha.json")
    print("\n=== headline numbers ===")
    for rec in sweep["results"]:
        print(f"alpha={rec['alpha']:>4}: purity {rec['purity_mean']:.3f} "
              f"± {rec['purity_std']:.3f}, z-Rand {rec['zrand_mean']:.1f} "
              f"± {rec['zrand_std']:.1f}")
    gt = load_results(out / "gt-sweep.json")
    print(f"GT equivalence point p* = {gt['equivalence_p']:.4f}")
    print(f"\nreports in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
