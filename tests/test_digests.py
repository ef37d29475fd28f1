"""The byte-check manifests cover the benchmark. `scripts/digests.py`
derives its dataset panel and its report keys from its own code and from
`perfbench/workloads.py`; both must equal what the recorded manifests hold,
so a workload or dataset added to the benchmark fails here until the
manifests are rewritten with `python scripts/digests.py --write`. Nothing
is generated or run."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("digests", SCRIPTS / "digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_keys_equal_the_manifest(digests):
    recorded = json.loads((SCRIPTS / "report_digests.json").read_text())["reports"]
    assert [key for *_, keys in digests.report_runs() for key in keys] == list(recorded)


def test_panel_equals_the_manifest(digests):
    recorded = json.loads((SCRIPTS / "generator_digests.json").read_text())["datasets"]
    assert ([(c.n_members, c.n_groups, c.seed) for c in digests.panel()]
            == [(e["n_members"], e["n_groups"], e["seed"]) for e in recorded])


def test_every_workload_dataset_is_in_the_panel(digests):
    datasets = digests.workload_datasets()
    assert datasets and set(datasets) <= set(digests.panel())
