#!/usr/bin/env python3
"""Byte check of the CLI's reports on the benchmark's workloads.

Runs every command list of `perfbench/workloads.py` (read, never changed)
on that workload's datasets, generated with seed 18 + 1000 i, and compares
the sha256 of each report JSON and plot CSV with `report_digests.json`
(beside this script). Every command is a `python -m geocluster.cli`
subprocess of this checkout's `src/`, run in a temporary directory with
relative paths and `OPENBLAS_NUM_THREADS=1`, because report bytes depend on
the BLAS thread count. The manifest records the numpy and scipy versions
and the thread count with the digests; digests from other versions need
not match. A change that should keep reports byte-identical runs `--check`;
one that changes them on purpose rewrites the manifest with `--write` and
says so. It takes about 40 s on a 2-core x86-64 container.

Usage:
    python scripts/report_digests.py --check
    python scripts/report_digests.py --write
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("report_digests.json")
THREADS = "1"

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import DEFAULT_SEED, WORKLOADS, WRITES_CSV  # noqa: E402


def environment() -> dict:
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_num_threads": int(THREADS)}


def cli(argv: list[str], cwd: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": THREADS}
    proc = subprocess.run([sys.executable, "-m", "geocluster.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"`geocluster {' '.join(argv)}` exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_all(work: Path) -> dict:
    """sha256 of every report and plot CSV, keyed by their relative paths.
    Datasets that two workloads share are generated once."""
    digests = {}
    (work / "data").mkdir()
    for workload in WORKLOADS.values():
        for i, dataset_seed in enumerate(workload.dataset_seeds(DEFAULT_SEED)):
            dataset = f"data/{workload.dataset_name(dataset_seed)}"
            if not (work / dataset).exists():
                cli(["generate", *workload.generate, "--seed", str(dataset_seed),
                     "--out", dataset], work)
            out_dir = work / workload.name / f"dataset{i}"
            out_dir.mkdir(parents=True)
            for index, command in enumerate(workload.commands):
                report = out_dir / f"{index}-{command[0]}.json"
                out = str(report.relative_to(work))
                cli([tok.format(dataset=dataset, out=out) for tok in command], work)
                paths = [report, report.with_suffix(".csv")] if command[0] in WRITES_CSV else [report]
                digests.update({str(p.relative_to(work)): sha256(p) for p in paths})
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="rerun the workloads and report any mismatch")
    mode.add_argument("--write", action="store_true",
                      help="rerun the workloads and rewrite the manifest")
    args = parser.parse_args()

    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all(Path(tmp))
    elapsed = time.perf_counter() - start

    if args.write:
        MANIFEST.write_text(json.dumps({"environment": environment(), "reports": digests},
                                       indent=1) + "\n")
        print(f"wrote {len(digests)} digests to {MANIFEST} in {elapsed:.1f} s")
        return 0
    recorded = json.loads(MANIFEST.read_text())
    if recorded["environment"] != environment():
        print(f"note: manifest written under {recorded['environment']}, "
              f"this run under {environment()}")
    expected = recorded["reports"]
    mismatched = sorted(k for k in expected.keys() | digests.keys()
                        if expected.get(k) != digests.get(k))
    for key in mismatched:
        print(f"MISMATCH {key}")
    matched = sum(digests.get(k) == v for k, v in expected.items())
    print(f"{matched} of {len(expected)} reports match "
          f"the manifest in {elapsed:.1f} s")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
