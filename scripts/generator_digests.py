#!/usr/bin/env python3
"""Byte check of the calibrated generator over a fixed panel of datasets.

Regenerates every dataset listed in `generator_digests.json` (beside this
script) and compares the sha256 of its `individuals.csv` and `contacts.csv`
with the recorded digests. The panel is every seed known to calibrate: 420
at the default n = 748 / 31 groups (0-119, and s + 1000 i for s in 0-29 and
100-129, i = 1-5) and 16 at n = 3000 / 124 groups (18 + 1000 i, i = 0-15).
A generator change that should keep datasets byte-identical runs `--check`;
one that changes them on purpose rewrites the manifest with `--write` and
says so.

Usage:
    PYTHONPATH=src python scripts/generator_digests.py --check
    PYTHONPATH=src python scripts/generator_digests.py --write
"""

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

from geocluster.io import DatasetFiles, save_dataset
from geocluster.synth import SynthConfig, generate_dataset

MANIFEST = Path(__file__).with_name("generator_digests.json")


def panel() -> list[dict]:
    """The (n_members, n_groups, seed) of every dataset in the manifest."""
    base = list(range(120))
    base += [s + 1000 * i for i in range(1, 6)
             for s in (*range(30), *range(100, 130))]
    large = [18 + 1000 * i for i in range(16)]
    return ([dict(n_members=748, n_groups=31, seed=s) for s in base]
            + [dict(n_members=3000, n_groups=124, seed=s) for s in large])


def digests(config: dict, directory: Path) -> dict:
    """sha256 of the CSV pair that `generate` writes for `config`."""
    files = DatasetFiles.in_dir(directory)
    save_dataset(*generate_dataset(SynthConfig(**config)), files)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (files.individuals_csv, files.contacts_csv)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="regenerate the panel and report any mismatch")
    mode.add_argument("--write", action="store_true",
                      help="regenerate the panel and rewrite the manifest")
    args = parser.parse_args()

    configs = panel()
    recorded = {}
    if args.check:
        recorded = {(e["n_members"], e["n_groups"], e["seed"]): e
                    for e in json.loads(MANIFEST.read_text())["datasets"]}
    entries, mismatched = [], []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            entry = {**config, **digests(config, Path(tmp))}
            entries.append(entry)
            key = (config["n_members"], config["n_groups"], config["seed"])
            if args.check and recorded.get(key) != entry:
                mismatched.append(key)
                print(f"MISMATCH n_members={key[0]} n_groups={key[1]} seed={key[2]}")
    elapsed = time.perf_counter() - start

    if args.write:
        lines = ",\n".join(json.dumps(entry) for entry in entries)
        MANIFEST.write_text(f'{{"datasets": [\n{lines}\n]}}\n')
        print(f"wrote {len(entries)} datasets to {MANIFEST} in {elapsed:.1f} s")
        return 0
    print(f"{len(entries) - len(mismatched)} of {len(entries)} datasets match "
          f"the manifest in {elapsed:.1f} s")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
