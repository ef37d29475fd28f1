"""Metamorphic relations: re-encodings of the same data that must leave the
results unchanged, with every transform fixed before its assertion."""

import json
import shutil

import numpy as np
import pytest

from geocluster.cli import main
from geocluster.graph import Individual, build_weight_matrix, compute_sigma
from geocluster.io import DatasetFiles, load_dataset, save_dataset

# A small grid of each command the relations cover; every run writes its
# report under the same dataset path, so `config.dataset` matches too.
COMMANDS = {
    "spectral": ["--alpha", "0.4", "--k", "6", "--runs", "3", "--seed", "2"],
    "multislice": ["--alpha", "0.4", "--gamma-grid", "0.5,1,2", "--omega", "1", "--seed", "2"],
    "gt-sweep": ["--alphas", "0.4,0.8", "--p-grid", "0,0.5", "--q-list", "0,0.3",
                 "--k", "6", "--runs", "2", "--seed", "2"],
}


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """The CLI tests' dataset: 120 members in 6 groups, seed 7."""
    out = tmp_path_factory.mktemp("data") / "ds"
    assert main(["generate", "--n-members", "120", "--n-groups", "6", "--seed", "7",
                 "--out", str(out)]) == 0
    return out


def run_all(dataset, out_dir, commands) -> dict:
    """{file name: bytes} of each command's report and plot CSV."""
    out_dir.mkdir()
    for command in commands:
        assert main([command, "--dataset", str(dataset), *COMMANDS[command],
                     "--out", str(out_dir / f"{command}.json")]) == 0
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def test_contact_order_orientation_and_repeats_change_no_byte(dataset_dir, tmp_path):
    dataset = tmp_path / "ds"
    shutil.copytree(dataset_dir, dataset)
    want = run_all(dataset, tmp_path / "want", COMMANDS)
    assert len(want) == 5  # spectral writes no plot CSV

    # The transform: permute the contact rows with default_rng(11), swap
    # the two ids of every second row of the result (rows 1, 3, 5, ...),
    # then append its first 10 rows again.
    contacts = DatasetFiles.in_dir(dataset).contacts_csv
    header, *rows = contacts.read_text().splitlines()
    rows = [rows[i] for i in np.random.default_rng(11).permutation(len(rows))]
    rows[1::2] = [",".join(reversed(row.split(","))) for row in rows[1::2]]
    rows += rows[:10]
    contacts.write_text("\n".join([header, *rows]) + "\n")

    assert run_all(dataset, tmp_path / "got", COMMANDS) == want


class TestLengthScale:
    """Multiplying every coordinate by 4 (a power of two, so every
    coordinate, difference and distance scales exactly) multiplies sigma by
    exactly 4 and leaves everything else the same: the generator needs no
    length setting."""

    SCALE = 4.0

    def scaled(self, individuals):
        return [Individual(p.id, p.x * self.SCALE, p.y * self.SCALE, p.gang)
                for p in individuals]

    def test_sigma_scales_and_w_is_bit_identical(self, small_dataset):
        individuals, social, _ = small_dataset
        sigma = compute_sigma(individuals, social)
        scaled = self.scaled(individuals)
        assert compute_sigma(scaled, social) == self.SCALE * sigma
        for alpha in (0.0, 0.4, 1.0):
            want = build_weight_matrix(individuals, social, alpha, sigma).W
            got = build_weight_matrix(scaled, social, alpha, self.SCALE * sigma).W
            assert np.array_equal(got, want)

    def test_reports_agree_in_the_unit_of_the_original(self, dataset_dir, tmp_path):
        dataset = tmp_path / "ds"
        shutil.copytree(dataset_dir, dataset)
        commands = ["spectral", "multislice"]
        want = run_all(dataset, tmp_path / "want", commands)
        files = DatasetFiles.in_dir(dataset)
        individuals, social = load_dataset(files)
        save_dataset(self.scaled(individuals), social, files)
        got = run_all(dataset, tmp_path / "got", commands)

        def unscaled(report: dict) -> dict:
            report["config"]["sigma"] /= self.SCALE
            for record in report["results"]:
                for community in record["communities"]:
                    community["centroid"] = [c / self.SCALE for c in community["centroid"]]
            return report

        assert want.keys() == got.keys() == {"spectral.json", "multislice.json",
                                             "multislice.csv"}
        for name in ("spectral.json", "multislice.json"):
            assert json.loads(got[name]) != json.loads(want[name])
            assert unscaled(json.loads(got[name])) == json.loads(want[name])
        assert got["multislice.csv"] == want["multislice.csv"]
