"""The byte-check manifests cover the benchmark, and tier-1 sees their
bytes where that is cheap. `scripts/digests.py` derives its dataset panel,
its report keys and its study-file keys from its own code, from
`perfbench/workloads.py` and from `geocluster.study`; each must equal what
the recorded manifests hold, so a workload or dataset added to the
benchmark fails here until the manifests are rewritten with `python
scripts/digests.py --write`. The benchmark's datasets that
`test_synth.py` does not pin are regenerated here, the study files rerun
and the CLI tests' `dataset_dir` checked, each against the recorded sha256.
The rest of the panel and the workloads' reports are checked only by
`--check`."""

import pytest

from geocluster.synth import SynthConfig

from conftest import SCRIPTS, load_module, manifest, pinned_datasets

GENERATOR, REPORTS, STUDY = map(manifest, ("generator", "report", "study"))
REWRITE = ("if the change is meant, rewrite the manifests with "
           "`python scripts/digests.py --write` and say why")


@pytest.fixture(scope="module")
def digests():
    return load_module(SCRIPTS / "digests.py", "digests")


def test_report_keys_equal_the_manifest(digests):
    assert [key for *_, keys in digests.report_runs() for key in keys] == list(REPORTS["reports"])


def test_panel_equals_the_manifest(digests):
    assert ([(c.n_members, c.n_groups, c.seed) for c in digests.panel()]
            == [(e["n_members"], e["n_groups"], e["seed"]) for e in GENERATOR["datasets"]])


def test_every_workload_dataset_is_in_the_panel(digests, tmp_path):
    """Each that `test_synth.py` does not pin also regenerates to the bytes
    that generator_digests.json records."""
    datasets = digests.workload_datasets()
    assert datasets and set(datasets) <= set(digests.panel())
    pinned = {SynthConfig(**kwargs) for kwargs, _ in pinned_datasets()}
    recorded = digests.by_dataset(GENERATOR["datasets"])
    got = digests.by_dataset([digests.generate(config, tmp_path)
                              for config in datasets if config not in pinned])
    differ = [key for key, entry in got.items() if recorded.get(key) != entry]
    assert not differ, f"{differ} differ from generator_digests.json; {REWRITE}"


def test_study_files_match_the_manifest(digests, tmp_path):
    recorded, got = STUDY["files"], digests.study_digests(tmp_path)
    differ = [key for key in {**recorded, **got} if recorded.get(key) != got.get(key)]
    assert not differ, (f"{differ} differ from study_digests.json, written under "
                        f"{STUDY['environment']} and run under {digests.versions()}; {REWRITE}")


def test_cli_test_dataset_is_the_pinned_one(digests, dataset_dir):
    """The CLI tests read the dataset whose bytes study_digests.json pins."""
    for name in ("individuals.csv", "contacts.csv"):
        assert digests.sha256(dataset_dir / name) == STUDY["files"][f"data/{name}"], name
