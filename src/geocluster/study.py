"""The study: the CLI command lines that reproduce the paper's findings on
the calibrated dataset, as the acceptance gate (`tests/test_acceptance.py`)
judges them and `scripts/run_full_study.py` runs them.

Each function returns argv lists for `geocluster.cli.main`. Neither the CLI
nor the package's public API imports this module.
"""

from __future__ import annotations

from pathlib import Path

# The calibrated dataset the findings are judged on.
DATASET_SEED = 18


def generate(seed: int, out: str | Path) -> list[str]:
    """The `generate` command line of the calibrated dataset `seed`."""
    return ["generate", "--preset", "hollenbeck", "--seed", str(seed), "--out", str(out)]


def commands(dataset: str | Path, out_dir: str | Path) -> dict[str, list[str]]:
    """{command: argv} of the study on `dataset`, in run order; each writes
    its report to `<out_dir>/<command>.json`."""
    runs = ["--k", "31", "--runs", "10", "--seed", "100"]
    flags = {
        "sweep-alpha": ["--alphas", "0,0.2,0.4,0.6,0.8,1.0", *runs],
        "baselines": ["--alphas", "0.4", *runs],
        "multislice": ["--alpha", "0.4", "--gamma-grid", "0.5:3.0:0.25", "--omega", "1.0",
                       "--seed", "77"],
        "gt-sweep": ["--alphas", "0.8", "--p-grid", "0,0.25,0.5,0.75,1.0", "--q-list", "0", *runs],
    }
    return {command: [command, "--dataset", str(dataset), *argv,
                      "--out", str(Path(out_dir) / f"{command}.json")]
            for command, argv in flags.items()}
