
import numpy as np
import pytest

from geocluster.graph import Individual
from geocluster.io import (
    DatasetFiles,
    ParseError,
    SelfContact,
    UnknownId,
    load_dataset,
    load_results,
    save_dataset,
    save_plot_csv,
    save_results,
)


def write_dataset(tmp_path, individuals_rows, contacts_rows):
    files = DatasetFiles.in_dir(tmp_path)
    files.individuals_csv.write_text(
        "id,x,y,gang\n" + "".join(r + "\n" for r in individuals_rows)
    )
    files.contacts_csv.write_text(
        "id_a,id_b\n" + "".join(r + "\n" for r in contacts_rows)
    )
    return files


class TestLoadDataset:
    def test_three_row_file(self, tmp_path):
        files = write_dataset(
            tmp_path,
            ["a,0.0,1.5,red", "b,10.25,-3.0,", "c,7.0,7.0,blue"],
            ["a,b"],
        )
        individuals, social = load_dataset(files)
        assert individuals[0] == Individual("a", 0.0, 1.5, "red")
        assert individuals[1] == Individual("b", 10.25, -3.0, None)
        assert individuals[2] == Individual("c", 7.0, 7.0, "blue")
        assert social.pairs == frozenset({(0, 1)})

    def test_unknown_id(self, tmp_path):
        files = write_dataset(tmp_path, ["a,0,0,", "b,1,1,"], ["a,zz"])
        with pytest.raises(UnknownId):
            load_dataset(files)

    def test_self_contact(self, tmp_path):
        files = write_dataset(tmp_path, ["a,0,0,", "b,1,1,"], ["a,a"])
        with pytest.raises(SelfContact):
            load_dataset(files)

    def test_bad_coordinate(self, tmp_path):
        files = write_dataset(tmp_path, ["a,zero,0,"], [])
        with pytest.raises(ParseError):
            load_dataset(files)

    def test_duplicate_id(self, tmp_path):
        files = write_dataset(tmp_path, ["a,0,0,", "a,1,1,"], [])
        with pytest.raises(ParseError):
            load_dataset(files)

    def test_missing_column(self, tmp_path):
        files = DatasetFiles.in_dir(tmp_path)
        files.individuals_csv.write_text("id,x,y\na,0,0\n")
        files.contacts_csv.write_text("id_a,id_b\n")
        with pytest.raises(ParseError):
            load_dataset(files)

    def test_duplicate_contacts_deduplicated(self, tmp_path):
        files = write_dataset(
            tmp_path, ["a,0,0,", "b,1,1,"], ["a,b", "b,a", "a,b"]
        )
        _, social = load_dataset(files)
        assert social.n_contacts == 1


class TestRoundTrip:
    def test_dataset_round_trip_identity(self, tmp_path, small_dataset):
        individuals, social, _ = small_dataset
        files = DatasetFiles.in_dir(tmp_path)
        save_dataset(individuals, social, files)
        loaded_inds, loaded_social = load_dataset(files)
        assert loaded_inds == individuals
        assert loaded_social.pairs == social.pairs

    def test_report_round_trip(self, tmp_path):
        report = {
            "command": "spectral",
            "config": {"alpha": 0.4, "seeds": [0, 1]},
            "results": [{"purity_mean": 0.5, "assignment": np.array([0, 1, 0])}],
        }
        path = tmp_path / "report.json"
        save_results(report, path)
        loaded = load_results(path)
        assert loaded["config"]["alpha"] == 0.4
        assert loaded["results"][0]["assignment"] == [0, 1, 0]

    def test_numpy_scalars_and_arrays(self, tmp_path):
        path = tmp_path / "report.json"
        save_results({"a": np.float64(1.5), "b": np.int64(2), "c": np.arange(3),
                      "d": np.bool_(True), "e": np.arange(4.0).reshape(2, 2)}, path)
        loaded = load_results(path)
        assert loaded == {"a": 1.5, "b": 2, "c": [0, 1, 2], "d": True,
                          "e": [[0.0, 1.0], [2.0, 3.0]]}
        assert [type(v) for v in loaded.values()] == [float, int, list, bool, list]
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            save_results({"f": object()}, path)

    def test_preserves_key_order(self, tmp_path):
        path = tmp_path / "report.json"
        save_results({"z": 1, "a": 2}, path)
        assert list(load_results(path)) == ["z", "a"]

    def test_empty_results_is_valid_json(self, tmp_path):
        path = tmp_path / "empty.json"
        save_results({"command": "spectral", "results": []}, path)
        assert load_results(path)["results"] == []


class TestPlotCsv:
    def test_long_format_header_and_rows(self, tmp_path):
        path = tmp_path / "plot.csv"
        save_plot_csv(
            [{"param": "alpha", "value": 0.4, "metric": "purity",
              "mean": 0.55, "std": 0.02}],
            path,
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "param,value,metric,mean,std"
        assert lines[1] == "alpha,0.4,purity,0.55,0.02"
