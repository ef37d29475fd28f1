"""The byte-check manifests cover the benchmark, and tier-1 sees their
bytes where that is cheap. `scripts/digests.py` derives its dataset panel,
its report keys and its study-file keys from its own code, from
`perfbench/workloads.py` and from `geocluster.study`; each must equal what
the recorded manifests hold, so a workload or dataset added to the
benchmark fails here until the manifests are rewritten with `python
scripts/digests.py --write`. The benchmark's 8 datasets are regenerated and
the study files rerun here, and their sha256 must equal the recorded ones;
the rest of the panel and the workloads' reports are checked only by
`python scripts/digests.py --check`."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
REWRITE = ("if the change is meant, rewrite the manifests with "
           "`python scripts/digests.py --write` and say why")


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


def test_every_workload_dataset_is_in_the_panel(digests, tmp_path):
    """Each also regenerates to the bytes that generator_digests.json records."""
    datasets = digests.workload_datasets()
    assert datasets and set(datasets) <= set(digests.panel())
    recorded = digests.by_dataset(
        json.loads((SCRIPTS / "generator_digests.json").read_text())["datasets"])
    got = digests.by_dataset([digests.generate(config, tmp_path / path)
                              for config, path in datasets.items()])
    differ = [key for key, entry in got.items() if recorded.get(key) != entry]
    assert not differ, f"{differ} differ from generator_digests.json; {REWRITE}"


def test_study_files_match_the_manifest(digests, tmp_path):
    manifest = json.loads((SCRIPTS / "study_digests.json").read_text())
    recorded, got = manifest["files"], digests.study_digests(tmp_path)
    differ = [key for key in {**recorded, **got} if recorded.get(key) != got.get(key)]
    assert not differ, (f"{differ} differ from study_digests.json, written under "
                        f"{manifest['environment']} and run under {digests.versions()}; {REWRITE}")
