#!/usr/bin/env python3
"""Byte check of the calibrated generator and of the CLI's reports.

Datasets: regenerates, in this process, the panel of every seed known to
calibrate and compares the sha256 of each `individuals.csv` and
`contacts.csv` with `generator_digests.json`. The panel holds 420 datasets
at the default n = 748 / 31 groups (seeds 0-119, and s + 1000 i for s in
0-29 and 100-129, i = 1-5) and 16 at n = 3000 / 124 groups (18 + 1000 i,
i = 0-15).

Reports: runs every command list of `perfbench/workloads.py` (read, never
changed) on that workload's datasets, seed 18 + 1000 i, which are all in
the panel and are kept from the generation pass under the relative paths
`data/<dataset name>` that the reports embed. Every command is a
`python -m geocluster.cli` subprocess of this checkout's `src/`, run in a
temporary directory. Report bytes depend on the BLAS thread count, so
every command runs with `OPENBLAS_NUM_THREADS=1` and again with `=2`; each
key of `report_digests.json` starts with its thread count (`1/sweep/...`),
and `--check` also counts the reports whose bytes differ between the two.
That manifest records the numpy and scipy versions and the thread counts;
digests from other versions need not match.

Study files: runs, in this process and from fixed relative paths in a
temporary directory, `generate` of the CLI tests' 120-member dataset and,
on it, the `spectral` line and the study's command lines, all three named
by `geocluster.study`, and compares the sha256 of the 2 dataset CSVs and
the 9 report and plot files with `study_digests.json`, which records the
numpy and scipy versions. They take under a second; `tests/test_digests.py`
reruns them in tier-1.

A change that should keep datasets and reports byte-identical runs
`--check`, which exits 1 on any mismatch; one that changes them on purpose
rewrites the three manifests with `--write` and says so. The report
commands run while the rest of the panel is generated; one run takes about
44 s on a 2-core x86-64 container.

Usage:
    python scripts/digests.py --check
    python scripts/digests.py --write
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy  # noqa: E402
import scipy  # noqa: E402
from geocluster import study  # noqa: E402
from geocluster.cli import build_parser, main as cli  # noqa: E402
from geocluster.io import DatasetFiles, save_dataset  # noqa: E402
from geocluster.synth import SynthConfig, generate_dataset  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, WRITES_CSV  # noqa: E402

DATASETS = Path(__file__).with_name("generator_digests.json")
REPORTS = Path(__file__).with_name("report_digests.json")
STUDY = Path(__file__).with_name("study_digests.json")
THREADS = ("1", "2")


def panel() -> list[SynthConfig]:
    """Every dataset of the generator manifest, in its order."""
    base = list(range(120))
    base += [s + 1000 * i for i in range(1, 6)
             for s in (*range(30), *range(100, 130))]
    large = [18 + 1000 * i for i in range(16)]
    return ([SynthConfig(n_members=748, n_groups=31, seed=s) for s in base]
            + [SynthConfig(n_members=3000, n_groups=124, seed=s) for s in large])


def workload_datasets() -> dict[SynthConfig, str]:
    """The config of every dataset a workload generates, read through the
    CLI's own `generate` flags, with its path relative to the work
    directory."""
    parser = build_parser()
    datasets = {}
    for workload in WORKLOADS.values():
        for seed in workload.dataset_seeds(DEFAULT_SEED):
            args = parser.parse_args(["generate", *workload.generate, "--seed", str(seed),
                                      "--out", "-"])
            config = SynthConfig(n_members=args.n_members, n_groups=args.n_groups, seed=args.seed)
            datasets[config] = f"data/{workload.dataset_name(seed)}"
    return datasets


def written(command: str, out: str) -> list[str]:
    """The report and, for a command of WRITES_CSV, the plot CSV that
    `command --out out` writes."""
    return [out, out.removesuffix(".json") + ".csv"] if command in WRITES_CSV else [out]


def report_runs() -> list[tuple[str, list[str], list[str]]]:
    """Every CLI run of the report check, in manifest order: its BLAS thread
    count, its argv and the manifest keys of the files it writes, all paths
    relative to the work directory."""
    runs = []
    for workload in WORKLOADS.values():
        for i, seed in enumerate(workload.dataset_seeds(DEFAULT_SEED)):
            dataset = f"data/{workload.dataset_name(seed)}"
            for threads in THREADS:
                for index, command in enumerate(workload.commands):
                    out = f"{threads}/{workload.name}/dataset{i}/{index}-{command[0]}.json"
                    runs.append((threads, [tok.format(dataset=dataset, out=out) for tok in command],
                                 written(command[0], out)))
    return runs


def study_runs() -> list[tuple[list[str], list[str]]]:
    """Every CLI run of the study-file check, in manifest order: its argv and
    the manifest keys of the files it writes, relative to the work
    directory."""
    runs = [(["generate", *study.TEST_DATASET, "--out", "data"],
             ["data/individuals.csv", "data/contacts.csv"]),
            (study.spectral("data", "spectral.json"), ["spectral.json"])]
    runs += [(argv, written(command, argv[-1]))
             for command, argv in study.commands("data", ".").items()]
    return runs


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(config: SynthConfig, directory: Path) -> dict:
    """Manifest entry of the dataset `config`, written to `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    files = DatasetFiles.in_dir(directory)
    save_dataset(*generate_dataset(config), files)
    return {"n_members": config.n_members, "n_groups": config.n_groups, "seed": config.seed,
            "individuals.csv": sha256(files.individuals_csv),
            "contacts.csv": sha256(files.contacts_csv)}


def run_reports(work: Path) -> dict:
    """sha256 of every report and plot CSV, by manifest key."""
    digests = {}
    for threads, argv, keys in report_runs():
        (work / keys[0]).parent.mkdir(parents=True, exist_ok=True)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "geocluster.cli", *argv], cwd=work, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"`geocluster {' '.join(argv)}` exited {proc.returncode}:\n"
                             f"{proc.stdout}{proc.stderr}")
        digests.update({key: sha256(work / key) for key in keys})
    return digests


def study_digests(work: Path) -> dict:
    """sha256 of every study-check file, by manifest key, each run in this
    process with `work` as the working directory (reports embed the dataset
    path) and its stdout dropped."""
    home = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv, _ in study_runs():
                if cli(argv) != 0:
                    raise SystemExit(f"`geocluster {' '.join(argv)}` failed")
    finally:
        os.chdir(home)
    return {key: sha256(work / key) for _, keys in study_runs() for key in keys}


def run_all(work: Path) -> tuple[list[dict], dict]:
    """Manifest entries of the panel, in its order, and the report digests.
    The workloads' datasets are generated first, into their paths under
    `work`; the report commands then run in a second thread while the rest
    of the panel is generated, each dataset overwriting the last."""
    keep = workload_datasets()
    entries = {}
    with ThreadPoolExecutor(max_workers=1) as pool:
        for config in sorted(panel(), key=lambda c: c not in keep):
            entries[config] = generate(config, work / keep.get(config, "panel"))
            if len(entries) == len(keep):
                reports = pool.submit(run_reports, work)
        return [entries[config] for config in panel()], reports.result()


def versions() -> dict:
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def environment() -> dict:
    return {**versions(), "openblas_num_threads": [int(t) for t in THREADS]}


def by_dataset(entries: list[dict]) -> dict:
    return {f"n_members={e['n_members']} n_groups={e['n_groups']} seed={e['seed']}": e
            for e in entries}


def compare(what: str, expected: dict, got: dict) -> bool:
    """Print every key whose digests differ and the match count; True on a
    mismatch."""
    mismatched = [k for k in {**expected, **got} if expected.get(k) != got.get(k)]
    for key in mismatched:
        print(f"MISMATCH {key}")
    matched = sum(got.get(k) == v for k, v in expected.items())
    print(f"{matched} of {len(expected)} {what} match the manifest")
    return bool(mismatched)


def thread_dependent(digests: dict) -> list[str]:
    """Reports (keys without the thread count) whose bytes differ between
    the thread counts."""
    keys = {key.split("/", 1)[1] for key in digests}
    return sorted(key for key in keys
                  if len({digests.get(f"{t}/{key}") for t in THREADS}) > 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="regenerate the panel, rerun the workloads and the study, and report "
                           "any mismatch")
    mode.add_argument("--write", action="store_true",
                      help="regenerate the panel, rerun the workloads and the study, and rewrite "
                           "the three manifests")
    args = parser.parse_args()

    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "study").mkdir()
        files = study_digests(Path(tmp) / "study")
        datasets, reports = run_all(Path(tmp))
    elapsed = time.perf_counter() - start

    if args.write:
        lines = ",\n".join(json.dumps(entry) for entry in datasets)
        DATASETS.write_text(f'{{"datasets": [\n{lines}\n]}}\n')
        REPORTS.write_text(json.dumps({"environment": environment(), "reports": reports},
                                      indent=1) + "\n")
        STUDY.write_text(json.dumps({"environment": versions(), "files": files}, indent=1) + "\n")
        print(f"wrote {len(datasets)} datasets to {DATASETS}, {len(reports)} digests to "
              f"{REPORTS} and {len(files)} to {STUDY} in {elapsed:.1f} s")
        return 0
    recorded = json.loads(REPORTS.read_text())
    recorded_study = json.loads(STUDY.read_text())
    for path, written_under, now in ((REPORTS, recorded["environment"], environment()),
                                     (STUDY, recorded_study["environment"], versions())):
        if written_under != now:
            print(f"note: {path.name} written under {written_under}, this run under {now}")
    failed = (compare("datasets", by_dataset(json.loads(DATASETS.read_text())["datasets"]),
                      by_dataset(datasets))
              | compare("reports", recorded["reports"], reports)
              | compare("study files", recorded_study["files"], files))
    differ = thread_dependent(reports)
    print(f"{len(differ)} of {len(reports) // len(THREADS)} reports differ between "
          f"{' and '.join(THREADS)} BLAS threads: {', '.join(differ) or 'none'}")
    print(f"checked in {elapsed:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
