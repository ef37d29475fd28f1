
import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocluster.errors import DataError
from geocluster.graph import Individual
from geocluster.io import (
    DatasetFiles,
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
        with pytest.raises(DataError, match="^contact references unknown id 'zz'$"):
            load_dataset(files)

    def test_self_contact(self, tmp_path):
        files = write_dataset(tmp_path, ["a,0,0,", "b,1,1,"], ["a,a"])
        with pytest.raises(DataError, match="^self-contact for id 'a'$"):
            load_dataset(files)

    def test_bad_coordinate(self, tmp_path):
        files = write_dataset(tmp_path, ["a,zero,0,"], [])
        with pytest.raises(DataError, match=r"individuals\.csv:2: bad coordinate$"):
            load_dataset(files)

    def test_duplicate_id(self, tmp_path):
        files = write_dataset(tmp_path, ["a,0,0,", "a,1,1,"], [])
        with pytest.raises(DataError, match=r"individuals\.csv:3: duplicate id 'a'$"):
            load_dataset(files)

    def test_missing_column(self, tmp_path):
        files = DatasetFiles.in_dir(tmp_path)
        files.individuals_csv.write_text("id,x,y\na,0,0\n")
        files.contacts_csv.write_text("id_a,id_b\n")
        with pytest.raises(DataError,
                           match=r"individuals\.csv:1: missing required columns \['gang'\]$"):
            load_dataset(files)

    def test_repeated_header_column(self, tmp_path):
        files = DatasetFiles.in_dir(tmp_path)
        files.individuals_csv.write_text("id,x,y,gang,x\na,1,2,g,5\n")
        files.contacts_csv.write_text("id_a,id_b\n")
        with pytest.raises(DataError, match=r"individuals\.csv:1: .*\['x'\]"):
            load_dataset(files)
        files = write_dataset(tmp_path, ["a,0,0,"], [])
        files.contacts_csv.write_text("id_a,id_b,id_a\n")
        with pytest.raises(DataError, match=r"contacts\.csv:1: "):
            load_dataset(files)

    @pytest.mark.parametrize("row", ["b,1,1", "b,1,1,g,extra"])
    def test_ragged_individuals_row(self, tmp_path, row):
        files = write_dataset(tmp_path, ["a,0,0,", row], [])
        with pytest.raises(DataError, match=r"individuals\.csv:3: "):
            load_dataset(files)

    @pytest.mark.parametrize("row", ["a", "a,b,c"])
    def test_ragged_contacts_row(self, tmp_path, row):
        files = write_dataset(tmp_path, ["a,0,0,", "b,1,1,"], ["a,b", row])
        with pytest.raises(DataError, match=r"contacts\.csv:3: "):
            load_dataset(files)

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("row, message", [
        (b"b,1,1," + b"g" * 140_000, "field larger than field limit"),
        (b"b,1,1,\xff", r"not UTF-8 \(invalid start byte 0xff\)"),
    ], ids=["over_long_field", "non_utf8_byte"])
    def test_unreadable_row(self, tmp_path, row, message, eol):
        files = write_dataset(tmp_path, [], [])
        lines = [b"\xef\xbb\xbfid,x,y,gang", b"a,0,0,", b"", row, b"c,2,2,"]
        files.individuals_csv.write_bytes(eol.join(lines) + eol)
        with pytest.raises(DataError, match=rf"individuals\.csv:4: {message}"):
            load_dataset(files)

    @pytest.mark.parametrize("column", ["id", "gang"])
    @pytest.mark.parametrize("brk", ["\r", "\n", "\r\n"], ids=["cr", "lf", "crlf"])
    def test_line_break_in_id_or_label(self, tmp_path, column, brk):
        # A quoted line break would load, but `save_dataset` leaves a bare CR
        # unquoted, so its copy would not.
        fields = {"id": "b", "x": "1", "y": "1", "gang": "g"}
        fields[column] = f'"x{brk}y"'
        files = write_dataset(tmp_path, ["a,0,0,", ",".join(fields.values())], [])
        with pytest.raises(DataError,
                           match=r"individuals\.csv:3: line break in an id or group label"):
            load_dataset(files)

    @pytest.mark.parametrize("brk", ["\r", "\n", "\r\n"], ids=["cr", "lf", "crlf"])
    def test_ragged_multi_line_row_names_its_first_line(self, tmp_path, brk):
        files = write_dataset(tmp_path, ["a,0,0,", f'b,1,1,"g{brk}h",extra', "c,2,2,"], [])
        with pytest.raises(DataError, match=r"individuals\.csv:3: has 5 fields, not 4"):
            load_dataset(files)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        files = write_dataset(tmp_path, ["a,0,0,", "", "b,zero,1,"], [])
        with pytest.raises(DataError, match=r"individuals\.csv:4: bad coordinate"):
            load_dataset(files)

    def test_byte_order_mark_and_crlf(self, tmp_path):
        files = DatasetFiles.in_dir(tmp_path)
        files.individuals_csv.write_bytes(b"\xef\xbb\xbfid,x,y,gang\r\na,0,1,g\r\nb,2,3,\r\n")
        files.contacts_csv.write_bytes(b"\xef\xbb\xbfid_a,id_b\r\na,b\r\n")
        individuals, social = load_dataset(files)
        assert individuals == [Individual("a", 0.0, 1.0, "g"), Individual("b", 2.0, 3.0, None)]
        assert social.pairs == frozenset({(0, 1)})

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


def _csv_text(header, rows, eol, bom):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=eol)
    writer.writerow(header)
    writer.writerows(rows)
    return ("\ufeff" if bom else "") + out.getvalue()


def _ragged(row, change):
    """The row itself (change 0), its last field dropped (-1), or an extra one (1)."""
    return row[:-1] if change < 0 else row + ["extra"] * change


def _mostly(common, rare, one_in):
    """`common`, except for about one draw in `one_in`, which comes from `rare`."""
    return st.tuples(st.integers(1, one_in), common, rare).map(lambda t: t[2] if t[0] == 1 else t[1])


IDS = _mostly(st.sampled_from("abcdefgh"), st.sampled_from([" a ", "", " "]), 8)
COORDS = _mostly(st.floats(min_value=-1e7, max_value=1e7).map(repr),
                 st.sampled_from(["nan", "inf", "-inf", "1e400", " 2.5 ", "", "x"]), 8)
HEADERS = _mostly(st.just(["id", "x", "y", "gang"]), st.sampled_from([
    ["gang", "y", "x", "id"], ["id", "x", "y", "gang", "x"], ["id", "x", "y", "gang", "id"],
    ["id", "x", "y", "gang", "note"], ["id", "x", "y"],
]), 2)
CONTACT_HEADERS = _mostly(st.just(["id_a", "id_b"]),
                          st.sampled_from([["id_b", "id_a"], ["id_a", "id_b", "id_a"]]), 3)
CHANGES = _mostly(st.just(0), st.sampled_from([-1, 1]), 10)


@settings(max_examples=300, deadline=None)
@given(header=HEADERS,
       people=st.lists(st.tuples(IDS, COORDS, COORDS, st.text(max_size=3), CHANGES),
                       max_size=6, unique_by=lambda p: p[0]),
       contact_header=CONTACT_HEADERS,
       eol=st.sampled_from(["\n", "\r\n"]), boms=st.tuples(st.booleans(), st.booleans()),
       data=st.data())
def test_load_dataset_fuzz_loads_or_raises_data_error(header, people, contact_header,
                                                      eol, boms, data):
    ends = _mostly(st.sampled_from([p[0] for p in people] or ["a"]), IDS, 10)
    contacts = data.draw(st.lists(st.tuples(ends, ends, CHANGES), max_size=5))
    _load_or_raise_data_error(header, people, contact_header, contacts, eol, boms)


def test_load_dataset_bare_cr_in_label():
    # Once found by the fuzz test: this file loaded, but its saved copy
    # wrote the label's CR unquoted and failed to load.
    people = [(" a ", "0.0", "0.0", "", 0), ("b", "0.0", "0.0", "0\r0", 0)]
    _load_or_raise_data_error(["gang", "y", "x", "id"], people, ["id_a", "id_b"], [],
                              "\r\n", (False, False))


def _load_or_raise_data_error(header, people, contact_header, contacts, eol, boms):
    """Malformed files end in a `DataError`; a file that loads is well formed,
    holds the values written, and round-trips."""
    rows = []
    for ident, x, y, gang, change in people:
        fields = {"id": ident, "x": x, "y": y, "gang": gang, "note": "n"}
        rows.append(_ragged([fields[c] for c in header], change))
    contact_rows = [_ragged([a, b] if contact_header[0] == "id_a" else [b, a], change)
                    for a, b, change in contacts]
    with tempfile.TemporaryDirectory() as tmp:
        files = DatasetFiles.in_dir(tmp)
        files.individuals_csv.write_text(_csv_text(header, rows, eol, boms[0]),
                                         encoding="utf-8", newline="")
        files.contacts_csv.write_text(_csv_text(contact_header, contact_rows, eol, boms[1]),
                                      encoding="utf-8", newline="")
        try:
            individuals, social = load_dataset(files)
        except DataError:
            return
        assert len(set(header)) == len(header) and len(set(contact_header)) == 2
        assert not any(p[-1] for p in people) and not any(c[-1] for c in contacts)
        assert individuals == [Individual(i.strip(), float(x), float(y), g.strip() or None)
                               for i, x, y, g, _ in people]
        copy = DatasetFiles.in_dir(Path(tmp) / "copy")
        copy.individuals_csv.parent.mkdir()
        save_dataset(individuals, social, copy)
        again, again_social = load_dataset(copy)
        assert again == individuals and again_social.pairs == social.pairs
