"""Every benchmark workload still runs traced. `perfbench/child.py` wraps
the package functions a workload's `expected` set names and records one
span per call; a traced run that fails, or that no longer calls one of
them, breaks the benchmark. Each workload's command list runs here through
the child on the CLI tests' 120-member dataset. `perfbench/workloads.py`
is read, never changed."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_calls_every_expected_function(name, dataset_dir, tmp_path):
    workload = WORKLOADS[name]
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
    assert workload.expected <= fired, f"never called: {sorted(workload.expected - fired)}"
