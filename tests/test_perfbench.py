"""Every benchmark workload still runs traced, and perfbench can score what
it writes. `perfbench/child.py` wraps the package functions a workload's
`expected` set names and records one span per call; a traced run that
fails, or that no longer calls one of them, breaks the benchmark. So does a
report that `perfbench/run.py` cannot score: its `quality_records` must
find at least one record, each with 0 < purity <= 1 and a finite z-Rand,
and a command of `WRITES_CSV` must leave its plot CSV. Each workload's
command list runs here through the child on the CLI tests' 120-member
dataset. `perfbench/` is read, never changed."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_module

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
RUN = load_module(PERFBENCH / "run.py", "perfbench_run")


@pytest.mark.parametrize("name", list(RUN.WORKLOADS))
def test_traced_run_calls_every_expected_function(name, dataset_dir, tmp_path):
    workload = RUN.WORKLOADS[name]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    fired = set()
    for index, command in enumerate(workload.commands):
        report = tmp_path / f"{index}-{command[0]}.json"
        spans = report.with_suffix(".spans.json")
        argv = [tok.format(dataset=dataset_dir, out=report) for tok in command]
        proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), "cli",
                               "--spans", str(spans), "--", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        fired |= {span[0] for span in json.loads(spans.read_text())}
        records = RUN.quality_records(json.loads(report.read_text()))
        assert records, f"{command[0]}: no record perfbench can score"
        assert all(0 < purity <= 1 and math.isfinite(z) for purity, z in records), records
        assert command[0] not in RUN.WRITES_CSV or report.with_suffix(".csv").is_file()
    assert workload.expected <= fired, f"never called: {sorted(workload.expected - fired)}"
