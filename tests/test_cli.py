import argparse
import contextlib
import functools
import io
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import geocluster
from geocluster import baselines, cli, study
from geocluster.cli import community_summaries, find_plateaus, local_maxima, main
from geocluster.errors import DataError
from geocluster.io import load_results
from geocluster.modularity import louvain
from geocluster.graph import Individual, build_weight_matrix, compute_sigma, normalize
from geocluster.io import DatasetFiles, load_dataset, save_dataset
from geocluster.synth import gt_matrix

from conftest import peak_bytes
from oracles import naive_community_summaries


@pytest.fixture
def stub_load(monkeypatch):
    """The CLI's dataset load fails with "dataset load reached", so a test
    that sees any other error knows its check ran before the load."""
    def load_dataset(*args, **kwargs):
        raise DataError("dataset load reached")

    monkeypatch.setattr("geocluster.cli.load_dataset", load_dataset)


class TestGenerate:
    def test_writes_files(self, dataset_dir):
        assert (dataset_dir / "individuals.csv").exists()
        assert (dataset_dir / "contacts.csv").exists()

    def test_same_seed_identical_files(self, dataset_dir, tmp_path):
        out2 = tmp_path / "ds2"
        assert main(["generate", "--preset", "hollenbeck", *study.TEST_DATASET,
                     "--out", str(out2)]) == 0
        for name in ("individuals.csv", "contacts.csv"):
            assert (out2 / name).read_bytes() == (dataset_dir / name).read_bytes()

    def test_missing_output_dir_fails_cleanly(self, capsys):
        code = main([
            "generate", "--seed", "1", "--out", "/nonexistent/deep/path/ds",
        ])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_negative_seed_fails_before_output(self, tmp_path, capsys, monkeypatch):
        def generate_dataset(*args, **kwargs):
            pytest.fail("a dataset was generated")

        monkeypatch.setattr("geocluster.cli.generate_dataset", generate_dataset)
        out = tmp_path / "ds"
        assert main(["generate", "--seed", "-1", "--out", str(out)]) == 3
        assert "--seed must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_out_that_is_a_file_fails_before_generating(self, tmp_path, capsys, monkeypatch):
        def generate_dataset(*args, **kwargs):
            pytest.fail("a dataset was generated")

        monkeypatch.setattr("geocluster.cli.generate_dataset", generate_dataset)
        out = tmp_path / "ds"
        out.write_bytes(b"keep")
        assert main(["generate", "--seed", "1", "--out", str(out)]) == 3
        assert f"--out {out} exists and is not a directory" in capsys.readouterr().err
        assert out.read_bytes() == b"keep"


class TestSpectralCommand:
    def test_single_run_has_zero_std(self, dataset_dir, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "spectral", "--dataset", str(dataset_dir), "--alpha", "0.4",
            "--k", "6", "--runs", "1", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        report = load_results(out)
        rec = report["results"][0]
        assert rec["purity_std"] == 0.0
        assert rec["zrand_std"] == 0.0
        assert len(rec["runs"]) == 1

    def test_multi_run_populates_spread(self, dataset_dir, tmp_path):
        out = tmp_path / "r.json"
        assert main([
            "spectral", "--dataset", str(dataset_dir), "--alpha", "0.4",
            "--k", "6", "--runs", "5", "--seed", "3", "--out", str(out),
        ]) == 0
        rec = load_results(out)["results"][0]
        assert rec["purity_std"] > 0.0
        assert rec["runs"][0]["seed"] == 3 and rec["runs"][-1]["seed"] == 7
        assert {"id", "size", "label", "composition", "centroid"} == set(
            rec["communities"][0]
        )

    def test_invalid_alpha_exits_with_data_error(self, dataset_dir, tmp_path, capsys):
        code = main([
            "spectral", "--dataset", str(dataset_dir), "--alpha", "1.5",
            "--k", "6", "--runs", "1", "--seed", "0",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 3

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_runs_below_one_exits_with_data_error(self, dataset_dir, tmp_path, capsys, runs):
        code = main([
            "spectral", "--dataset", str(dataset_dir), "--k", "6", "--runs", runs,
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 3
        assert "--runs must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectral", "sweep-alpha", "gt-sweep", "baselines"])
    def test_runs_above_bound_exits_before_load(self, dataset_dir, tmp_path, capsys,
                                                stub_load, command):
        argv = [command, "--dataset", str(dataset_dir), "--out", str(tmp_path / "r.json")]
        assert main([*argv, "--runs", "10001"]) == 3
        assert "at most 10000, got 10001" in capsys.readouterr().err
        assert main([*argv, "--runs", "10000"]) == 3
        assert "dataset load reached" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["spectral"], ["sweep-alpha"], ["baselines"],
        ["gt-sweep", "--alphas", "0.8", "--p-grid", "0", "--q-list", "0"],
        ["multislice", "--gamma-grid", "1"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exits_before_load(self, dataset_dir, tmp_path, capsys, stub_load,
                                             argv):
        out = tmp_path / "r.json"
        argv = [*argv, "--dataset", str(dataset_dir), "--out", str(out)]
        assert main([*argv, "--seed", "-5"]) == 3
        assert "--seed must be at least 0, got -5" in capsys.readouterr().err
        assert main([*argv, "--seed", "0"]) == 3
        assert "dataset load reached" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,flag", [
        ("sweep-alpha", "--alphas"), ("baselines", "--alphas"), ("gt-sweep", "--alphas"),
        ("gt-sweep", "--q-list"), ("gt-sweep", "--p-grid"), ("multislice", "--gamma-grid"),
    ])
    def test_value_list_above_bound_exits_before_load(self, dataset_dir, tmp_path, capsys,
                                                      stub_load, command, flag):
        def values(count):
            return ",".join(str((i + 1) / (count + 1)) for i in range(count))

        argv = [command, "--dataset", str(dataset_dir), "--out", str(tmp_path / "r.json")]
        if command == "gt-sweep":
            argv += ["--alphas", "0.5", "--p-grid", "0", "--q-list", "0"]
        assert main([*argv, flag, values(10_001)]) == 3
        err = capsys.readouterr().err
        assert "value list has 10001 values, more than 10000" in err and len(err) < 200
        assert main([*argv, flag, values(10_000)]) == 3
        assert "dataset load reached" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        ("sweep-alpha", "--alphas"), ("baselines", "--alphas"), ("gt-sweep", "--alphas"),
        ("gt-sweep", "--q-list"),
    ])
    def test_range_value_list_reaches_load(self, dataset_dir, tmp_path, capsys, stub_load,
                                           command, flag):
        argv = [command, "--dataset", str(dataset_dir), "--out", str(tmp_path / "r.json")]
        if command == "gt-sweep":
            argv += ["--alphas", "0.5", "--p-grid", "0", "--q-list", "0"]
        assert main([*argv, flag, "0:0.3:0.15"]) == 3
        assert "dataset load reached" in capsys.readouterr().err

    @pytest.mark.parametrize("values,shown", [
        (",".join(["x"] * 10_001), "value 1 of 10001 in a value list: 'x'"),
        ("0.5," + "y" * 20_000, "value 2 of 2 in a value list: '" + "y" * 40 + "...'"),
    ], ids=["10001_tokens", "long_token"])
    def test_unparsable_value_list_names_first_bad_token(self, dataset_dir, tmp_path, capsys,
                                                         values, shown):
        assert main(["sweep-alpha", "--dataset", str(dataset_dir), "--alphas", values,
                     "--out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert shown in err and len(err) < 200

    @pytest.mark.parametrize("argv,message", [
        (["spectral", "--alpha", "1.5"], "alpha must lie in [0, 1], got 1.5"),
        (["spectral", "--alpha", "nan"], "alpha must lie in [0, 1], got nan"),
        (["multislice", "--alpha", "-0.1"], "alpha must lie in [0, 1], got -0.1"),
        (["sweep-alpha", "--alphas", "0,0.2,0.4,0.6,0.8,1.5"],
         "alpha must lie in [0, 1], got 1.5"),
        (["baselines", "--alphas", "0.4,1.5"], "alpha must lie in [0, 1], got 1.5"),
        (["gt-sweep", "--alphas", "0.4,1.5", "--p-grid", "0", "--q-list", "0"],
         "alpha must lie in [0, 1], got 1.5"),
        (["gt-sweep", "--alphas", "0.4,0.8", "--p-grid", "0,0.25,0.5,0.75,1.5", "--q-list", "0"],
         "p must lie in [0, 1], got 1.5"),
        (["gt-sweep", "--alphas", "0.4", "--p-grid", "0", "--q-list", "0,1.5"],
         "q must lie in [0, 1], got 1.5"),
        (["spectral", "--k", "0"], "--k must be at least 1, got 0"),
        (["sweep-alpha", "--k", "-1"], "--k must be at least 1, got -1"),
        (["gt-sweep", "--k", "0"], "--k must be at least 1, got 0"),
        (["baselines", "--k", "0"], "--k must be at least 1, got 0"),
        (["sweep-alpha", "--alphas", ","], "empty value list ','"),
        (["multislice", "--gamma-grid", "1:0:0.5"], "bad grid bounds in '1:0:0.5'"),
        (["spectral", "--alpha", "x"], "could not parse value 1 of 1 in a value list: 'x'"),
    ], ids=["spectral_alpha", "spectral_nan_alpha", "multislice_alpha", "sweep_alpha_alphas",
            "baselines_alphas", "gt_sweep_alphas", "gt_sweep_p", "gt_sweep_q", "spectral_k",
            "sweep_alpha_k", "gt_sweep_k", "baselines_k", "sweep_alpha_empty_list",
            "multislice_reversed_grid", "spectral_junk_alpha"])
    def test_bad_value_exits_before_load(self, dataset_dir, tmp_path, capsys, stub_load,
                                         argv, message):
        assert main([*argv, "--dataset", str(dataset_dir), "--out", str(tmp_path / "r.json")]) == 3
        assert message in capsys.readouterr().err

    def test_gt_sweep_product_above_bound_exits_before_load(self, dataset_dir, tmp_path,
                                                            capsys, stub_load):
        argv = ["gt-sweep", "--dataset", str(dataset_dir), "--out", str(tmp_path / "r.json"),
                "--alphas", ",".join(["0.5"] * 100)]
        assert main([*argv, "--p-grid", "0:1:0.01", "--q-list", "0,0.1"]) == 3
        assert "2 x 100 x 101 = 20200 points, more than 10000" in capsys.readouterr().err
        assert main([*argv, "--p-grid", "0:0.99:0.01", "--q-list", "0"]) == 3
        assert "dataset load reached" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row, message", [
        (b"z,1,1," + b"g" * 140_000, "individuals.csv:122: "),
        (b"z,1,1,\xff", "individuals.csv:122: "),
        (b"z,1,1,", "error: 1 individuals lack a group label (first: 'z'); "
                    "scoring commands need fully labeled data\n"),
    ], ids=["over_long_field", "non_utf8_byte", "blank_gang"])
    def test_unreadable_dataset_exits_with_data_error(self, dataset_dir, tmp_path, capsys,
                                                      bad_row, message):
        good, bad = DatasetFiles.in_dir(dataset_dir), DatasetFiles.in_dir(tmp_path)
        bad.contacts_csv.write_bytes(good.contacts_csv.read_bytes())
        bad.individuals_csv.write_bytes(good.individuals_csv.read_bytes() + bad_row + b"\n")
        code = main(["spectral", "--dataset", str(tmp_path), "--k", "6", "--runs", "1",
                     "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectral", "sweep-alpha", "multislice", "gt-sweep",
                                         "baselines"])
    def test_out_that_is_a_directory_fails_before_load(self, dataset_dir, tmp_path, capsys,
                                                       stub_load, command):
        out = tmp_path / "r.json"
        out.mkdir()
        assert main([command, "--dataset", str(dataset_dir), "--out", str(out)]) == 3
        assert f"--out {out} exists and is a directory" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["spectral", "sweep-alpha", "multislice", "gt-sweep",
                                         "baselines"])
    def test_plot_csv_that_is_a_directory_fails_before_load(self, dataset_dir, tmp_path, capsys,
                                                            stub_load, command):
        csv = tmp_path / "r.csv"
        csv.mkdir()
        assert main([command, "--dataset", str(dataset_dir), "--out",
                     str(tmp_path / "r.json")]) == 3
        assert f"plot CSV {csv} exists and is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [csv] and list(csv.iterdir()) == []

    @pytest.mark.parametrize("command", ["spectral", "sweep-alpha", "multislice", "gt-sweep",
                                         "baselines"])
    def test_report_named_like_its_plot_csv_fails_before_load(self, dataset_dir, tmp_path,
                                                              capsys, stub_load, command):
        # The plot CSV would overwrite the report it was written beside.
        out = tmp_path / "r.csv"
        assert main([command, "--dataset", str(dataset_dir), "--out", str(out)]) == 3
        assert f"--out {out} ends in .csv, the name of its plot CSV" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (["spectral", "--dataset", "{dataset}", "--out", "{tmp}/r\0.json"], "--out"),
        (["multislice", "--dataset", "{dataset}\0", "--out", "{tmp}/r.json"], "--dataset"),
        (["generate", "--out", "{tmp}/d\0s"], "--out"),
        # `spectral --alpha` is stored as sweep-alpha's `alphas`.
        (["spectral", "--dataset", "{dataset}", "--alpha", "0.4\0", "--out", "{tmp}/r.json"],
         "--alphas"),
    ], ids=["spectral_out", "multislice_dataset", "generate_out", "spectral_alpha"])
    def test_nul_byte_in_a_path_is_a_data_error(self, dataset_dir, tmp_path, capsys,
                                                monkeypatch, argv, flag):
        def no_work(*args, **kwargs):
            pytest.fail("work started before the NUL check")

        monkeypatch.setattr("geocluster.cli.load_dataset", no_work)
        monkeypatch.setattr("geocluster.cli.generate_dataset", no_work)
        argv = [tok.format(dataset=dataset_dir, tmp=tmp_path) for tok in argv]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.endswith(" holds a NUL byte\n")
        assert list(tmp_path.iterdir()) == []

    def test_unreadable_dataset_path_exits_with_data_error(self, dataset_dir, tmp_path, capsys):
        files = DatasetFiles.in_dir(tmp_path / "ds")
        files.individuals_csv.mkdir(parents=True)  # an OSError, not a missing file
        files.contacts_csv.write_bytes(DatasetFiles.in_dir(dataset_dir).contacts_csv.read_bytes())
        out = tmp_path / "r.json"
        assert main(["spectral", "--dataset", str(files.individuals_csv.parent), "--k", "6",
                     "--runs", "1", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "individuals.csv" in err
        assert not out.exists()

    def test_k_above_n_is_a_data_error(self, hollenbeck, tmp_path, capsys):
        individuals, social, _ = hollenbeck
        save_dataset(individuals, social, DatasetFiles.in_dir(tmp_path))
        out = tmp_path / "r.json"
        assert main(["spectral", "--dataset", str(tmp_path), "--k", "1000", "--runs", "1",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: embedding dimension k=1000 outside [1, 748]\n"
        assert not out.exists()

    def test_unexpected_value_error_is_not_a_data_error(self, dataset_dir, tmp_path,
                                                         monkeypatch):
        # A ValueError the package does not raise on purpose is a bug: it
        # must end in a traceback, not in "error: ..." and exit 3.
        def kmeans(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr("geocluster.cli.kmeans", kmeans)
        with pytest.raises(ValueError, match="could not be broadcast"):
            main(["spectral", "--dataset", str(dataset_dir), "--k", "6", "--runs", "1",
                  "--out", str(tmp_path / "r.json")])

    @pytest.mark.parametrize("argv,point", [
        (["multislice", "--gamma-grid", "1e6"], "gamma=1000000.0"),
        (["spectral", "--k", "120", "--runs", "1", "--seed", "3"], "alpha=0.4, seed=3"),
    ], ids=["multislice_gamma", "spectral_k_equals_n"])
    def test_undefined_z_rand_names_the_grid_point(self, dataset_dir, tmp_path, capsys, argv,
                                                   point):
        # Every one of the 120 individuals ends in a community of its own.
        out = tmp_path / "r.json"
        assert main([*argv, "--dataset", str(dataset_dir), "--out", str(out)]) == 3
        assert (f"error: at {point}, z-Rand is undefined: no two individuals share a community"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_one_label_dataset_leaves_z_rand_undefined(self, dataset_dir, tmp_path, capsys):
        individuals, social = load_dataset(DatasetFiles.in_dir(dataset_dir))
        save_dataset([Individual(p.id, p.x, p.y, "a") for p in individuals], social,
                     DatasetFiles.in_dir(tmp_path))
        out = tmp_path / "r.json"
        assert main(["spectral", "--dataset", str(tmp_path), "--k", "6", "--runs", "1",
                     "--out", str(out)]) == 3
        assert ("error: at alpha=0.4, seed=0, z-Rand is undefined: all individuals share one "
                "label (" in capsys.readouterr().err)
        assert not out.exists()

    def test_byte_identical_reruns(self, dataset_dir, tmp_path):
        out = tmp_path / "r.json"
        args = [
            "spectral", "--dataset", str(dataset_dir), "--alpha", "0.4",
            "--k", "6", "--runs", "3", "--seed", "5", "--out", str(out),
        ]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_is_sweep_alpha_at_one_alpha(self, dataset_dir, tmp_path):
        flags = ["--dataset", str(dataset_dir), "--k", "6", "--runs", "3", "--seed", "5"]
        spectral, sweep = tmp_path / "spectral.json", tmp_path / "sweep.json"
        assert main(["spectral", *flags, "--alpha", "0.4", "--out", str(spectral)]) == 0
        assert main(["sweep-alpha", *flags, "--alphas", "0.4", "--out", str(sweep)]) == 0
        assert spectral.with_suffix(".csv").read_bytes() == sweep.with_suffix(".csv").read_bytes()
        got, want = load_results(spectral), load_results(sweep)
        assert (got.pop("command"), want.pop("command")) == ("spectral", "sweep-alpha")
        assert got == want


class TestSweepAlpha:
    def test_one_record_per_alpha_and_plot_csv(self, dataset_dir, tmp_path):
        out = tmp_path / "sweep.json"
        assert main([
            "sweep-alpha", "--dataset", str(dataset_dir),
            "--alphas", "0,0.5,1.0", "--k", "6", "--runs", "2",
            "--seed", "0", "--out", str(out),
        ]) == 0
        report = load_results(out)
        assert [rec["alpha"] for rec in report["results"]] == [0.0, 0.5, 1.0]
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "param,value,metric,mean,std"
        assert len(lines) == 1 + 3 * 2  # two metrics per alpha


class TestSpectralGrid:
    """The grid commands embed a chunk of grid points, then run k-means on
    the held coordinates; the chunk size must not change a report byte."""

    GRIDS = {
        "sweep-alpha": ["--alphas", "0,0.2,0.4,0.6,0.8,1.0"],  # 6 points
        "gt-sweep": ["--alphas", "0.4,0.8", "--p-grid", "0,0.5,1", "--q-list", "0,0.3"],  # 12
    }

    def _run(self, monkeypatch, dataset_dir, out, command, chunk):
        """The report and CSV bytes of `command` with the chunk bound set to
        `chunk` points (None: the default), and the most W and embedding
        coordinate arrays that were alive at once."""
        live = {"W": 0, "coords": 0}
        most = dict(live)

        def release(kind):
            live[kind] -= 1

        def hold(kind, array):
            live[kind] += 1
            most[kind] = max(most[kind], live[kind])
            weakref.finalize(array, release, kind)

        def build_weight_matrix(*args):
            graph = real_build(*args)
            hold("W", graph.W)
            return graph

        def embed(graph, k, **options):
            emb = real_embed(graph, k, **options)
            hold("coords", emb.coords)
            return emb

        real_build, real_embed = cli.build_weight_matrix, cli.embed
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_weight_matrix", build_weight_matrix)
            patch.setattr(cli, "embed", embed)
            if chunk is not None:
                patch.setattr(cli, "_grid_chunk", lambda n, k: chunk)
            assert main([command, "--dataset", str(dataset_dir), *self.GRIDS[command],
                         "--k", "6", "--runs", "3", "--seed", "4", "--out", str(out)]) == 0
        return out.read_bytes(), out.with_suffix(".csv").read_bytes(), most

    @pytest.mark.parametrize("command", sorted(GRIDS))
    def test_chunk_bound_changes_no_byte(self, dataset_dir, tmp_path, monkeypatch, command):
        points = 6 if command == "sweep-alpha" else 12
        bound = cli._grid_chunk(120, 6)
        assert bound == 10
        runs = {chunk: self._run(monkeypatch, dataset_dir, tmp_path / f"r{chunk}.json",
                                 command, chunk)
                for chunk in (1, cli.MAX_GRID_POINTS, None)}
        assert runs[1][:2] == runs[cli.MAX_GRID_POINTS][:2] == runs[None][:2]
        assert runs[1][2] == {"W": 1, "coords": 1}
        assert runs[cli.MAX_GRID_POINTS][2] == {"W": 1, "coords": points}
        assert runs[None][2] == {"W": 1, "coords": min(points, bound)}


class TestClosedStdout:
    def test_broken_pipe_keeps_report_and_exits_0(self, dataset_dir, tmp_path, capsys,
                                                  monkeypatch):
        argv = ["sweep-alpha", "--dataset", str(dataset_dir), "--alphas", "0.4,0.8",
                "--k", "6", "--runs", "2"]
        assert main([*argv, "--out", str(tmp_path / "want.json")]) == 0
        capsys.readouterr()
        read_end, write_end = os.pipe()
        os.close(read_end)
        # Unbuffered, as under PYTHONUNBUFFERED=1: the first print meets the
        # closed pipe.
        closed = io.TextIOWrapper(io.FileIO(write_end, "w"), write_through=True)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", closed)
                code = main([*argv, "--out", str(tmp_path / "got.json")])
        finally:
            with contextlib.suppress(BrokenPipeError):  # text still pending for the pipe
                closed.close()
        assert code == 0
        assert capsys.readouterr().err == ""
        for suffix in (".json", ".csv"):
            got = (tmp_path / "got").with_suffix(suffix).read_bytes()
            assert got == (tmp_path / "want").with_suffix(suffix).read_bytes()


class TestMultislice:
    def test_single_gamma_reduces_to_louvain(self, dataset_dir, tmp_path):
        out = tmp_path / "ms.json"
        assert main([
            "multislice", "--dataset", str(dataset_dir), "--alpha", "0.4",
            "--gamma-grid", "1.0", "--omega", "1.0", "--seed", "5",
            "--out", str(out),
        ]) == 0
        report = load_results(out)
        individuals, social = load_dataset(DatasetFiles.in_dir(dataset_dir))
        sigma = compute_sigma(individuals, social)
        graph = build_weight_matrix(individuals, social, 0.4, sigma)
        t = normalize(graph)
        part = louvain(0.5 * (t + t.T), 1.0, seed=5)
        got = np.array(report["assignment"])[:, 0]
        assert np.array_equal(got, part.assignment)
        assert report["quality"] == pytest.approx(part.objective, abs=1e-12)

    def test_omega_whose_coupling_total_overflows_is_a_data_error(self, dataset_dir, tmp_path,
                                                                   capsys):
        # 2 * omega * n * (slices - 1) = 2.4e309 at n = 120 with two slices;
        # a finite omega that large overflowed the Louvain link sums.
        out = tmp_path / "ms.json"
        assert main(["multislice", "--dataset", str(dataset_dir), "--gamma-grid", "0.5,1",
                     "--omega", "1e307", "--out", str(out)]) == 3
        assert ("error: interslice coupling omega=1e+307 is too large"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_extreme_omega_slice_constant(self, dataset_dir, tmp_path):
        out = tmp_path / "ms.json"
        assert main([
            "multislice", "--dataset", str(dataset_dir), "--alpha", "0.4",
            "--gamma-grid", "0.5,1.0,1.5", "--omega", "1e6", "--seed", "5",
            "--out", str(out),
        ]) == 0
        assignment = np.array(load_results(out)["assignment"])
        assert np.all(assignment == assignment[:, :1])

    @pytest.mark.parametrize("flags", [
        ("--gamma-grid", "1.0", "--omega", "nan"),
        ("--gamma-grid", "1.0", "--omega", "-1"),
        ("--gamma-grid", "nan,1", "--omega", "1"),
        ("--gamma-grid=-1,1", "--omega", "1"),
    ])
    def test_bad_gamma_or_omega_exits_with_data_error(self, dataset_dir, tmp_path, capsys,
                                                      stub_load, flags):
        out = tmp_path / "ms.json"
        code = main(["multislice", "--dataset", str(dataset_dir), *flags, "--out", str(out)])
        assert code == 3
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,reason", [
        (("multislice", "--alpha", "0.4", "--gamma-grid", "0:inf:1", "--omega", "1"),
         "finite"),
        (("gt-sweep", "--alphas", "0.8", "--p-grid", "0:inf:0.5", "--q-list", "0"),
         "finite"),
        (("multislice", "--alpha", "0.4", "--gamma-grid", "nan:1:0.5", "--omega", "1"),
         "finite"),
        (("multislice", "--alpha", "0.4", "--gamma-grid", "0:1:inf", "--omega", "1"),
         "finite"),
        (("multislice", "--alpha", "0.4", "--gamma-grid", "0.5:3.0:1e-300", "--omega", "1"),
         "more than 10000 points"),
    ])
    def test_bad_range_grid_exits_with_data_error(self, dataset_dir, tmp_path, capsys,
                                                  flags, reason):
        out = tmp_path / "report.json"
        code = main([*flags, "--dataset", str(dataset_dir), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"grid {flags[4]!r}" in err and reason in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_grid_parsing_range_syntax(self, dataset_dir, tmp_path):
        out = tmp_path / "ms.json"
        assert main([
            "multislice", "--dataset", str(dataset_dir), "--alpha", "0.4",
            "--gamma-grid", "0.5:1.5:0.5", "--omega", "1", "--seed", "2",
            "--out", str(out),
        ]) == 0
        report = load_results(out)
        assert [s["gamma"] for s in report["results"]] == [0.5, 1.0, 1.5]
        assert "plateaus" in report and "zrand_local_maxima" in report


class TestGtSweep:
    def test_perfect_social_matrix_recovers_labels(self, dataset_dir, tmp_path):
        out = tmp_path / "gt.json"
        assert main([
            "gt-sweep", "--dataset", str(dataset_dir), "--alphas", "1.0",
            "--p-grid", "1.0", "--q-list", "0", "--k", "6", "--runs", "2",
            "--seed", "1", "--out", str(out),
        ]) == 0
        report = load_results(out)
        rec = report["results"][0]
        assert rec["purity_mean"] >= 0.95
        assert 0.0 < report["equivalence_p"] < 1.0

    @staticmethod
    def grid_records(dataset_dir, out, alphas, runs="1", seed="1"):
        """The records of gt-sweep over 3 p values and 2 q values."""
        assert main([
            "gt-sweep", "--dataset", str(dataset_dir), "--alphas", alphas,
            "--p-grid", "0,0.5,1", "--q-list", "0,0.3", "--k", "6",
            "--runs", runs, "--seed", seed, "--out", str(out),
        ]) == 0
        return load_results(out)["results"]

    def test_record_per_grid_point(self, dataset_dir, tmp_path):
        records = self.grid_records(dataset_dir, tmp_path / "gt.json", "0.4,0.8")
        assert len(records) == 2 * 3 * 2
        keys = [(r["q"], r["alpha"], r["p"]) for r in records]
        assert keys == sorted(keys)

    def test_draw_does_not_depend_on_the_alphas(self, dataset_dir, tmp_path):
        # Each GT(p, q) draw is seeded by its (q, p) position alone, so every
        # alpha scores the same matrix and adding an alpha changes no record.
        records = {alphas: self.grid_records(dataset_dir, tmp_path / f"gt-{alphas}.json",
                                             alphas, runs="2", seed="3")
                   for alphas in ("0.8", "0.4,0.8")}
        assert [r for r in records["0.4,0.8"] if r["alpha"] == 0.8] == records["0.8"]
        # 6 (q, p) points, one gt_seed each
        assert len({(r["q"], r["p"], r["gt_seed"]) for r in records["0.4,0.8"]}) == 6

    def test_each_draw_is_made_once(self, dataset_dir, tmp_path, monkeypatch):
        seeds = []

        def counting(labels, params):
            seeds.append(params.seed)
            return gt_matrix(labels, params)

        monkeypatch.setattr("geocluster.cli.gt_matrix", counting)
        self.grid_records(dataset_dir, tmp_path / "gt.json", "0.4,0.8")
        # 2 alphas x 6 (q, p) points share 6 draws, made in grid order.
        assert seeds == [1 + 7919 * i for i in range(1, 7)]

    @pytest.mark.parametrize("alphas, most", [("0.8", 1), ("0.4,0.8", 3)])
    def test_each_draw_is_kept_only_until_its_last_alpha(self, dataset_dir, tmp_path,
                                                          monkeypatch, alphas, most):
        # One alpha scores each draw as it is made; with two, a q row's 3
        # draws wait for the second alpha, and no draw outlives its row.
        alive, counts = set(), []

        def tracked(labels, params):
            gt = gt_matrix(labels, params)
            alive.add(params.seed)
            weakref.finalize(gt, alive.discard, params.seed)
            counts.append(len(alive))
            return gt

        monkeypatch.setattr("geocluster.cli.gt_matrix", tracked)
        self.grid_records(dataset_dir, tmp_path / "gt.json", alphas)
        assert len(counts) == 6 and max(counts) == most


class TestBaselinesCommand:
    def test_reports_all_three_methods(self, dataset_dir, tmp_path):
        out = tmp_path / "b.json"
        assert main([
            "baselines", "--dataset", str(dataset_dir), "--alphas", "0,0.9",
            "--k", "6", "--runs", "2", "--seed", "0", "--out", str(out),
        ]) == 0
        report = load_results(out)
        assert "gmm" in report
        assert [r["alpha"] for r in report["kmeans_columns"]] == [0.0, 0.9]
        assert [r["alpha"] for r in report["spectral"]] == [0.0, 0.9]
        for run in report["gmm"]["runs"]:
            assert list(run)[-3:] == ["em_iters", "cap_hit", "assignment"]
            assert run["em_iters"] >= 2 and run["cap_hit"] is False
        for name in ("kmeans_columns", "spectral"):
            assert set(report[name][0]["runs"][0]) == TestReportSchema.RUN_KEYS

    def test_k_above_n_is_a_data_error(self, dataset_dir, tmp_path, capsys):
        # The mixture runs first, so its own k check speaks.
        out = tmp_path / "b.json"
        assert main(["baselines", "--dataset", str(dataset_dir), "--k", "121", "--runs", "1",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: k=121 outside [1, 120]\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("exponent", [50, 75, 76, 150, 152])
    def test_coordinates_the_mixture_cannot_represent(self, dataset_dir, tmp_path, capsys,
                                                      exponent):
        # Every coordinate times 10^exponent. From 10^75 the squared location
        # variance, the order of a component's covariance determinant,
        # overflows float64; at 10^152 sigma is inf too. Any warning would
        # fail the test (pytest turns warnings into errors).
        individuals, social = load_dataset(DatasetFiles.in_dir(dataset_dir))
        scale = 10.0 ** exponent
        (tmp_path / "ds").mkdir()
        save_dataset([Individual(p.id, p.x * scale, p.y * scale, p.gang) for p in individuals],
                     social, DatasetFiles.in_dir(tmp_path / "ds"))
        out = tmp_path / "b.json"
        code = main(["baselines", "--dataset", str(tmp_path / "ds"), "--alphas", "0.4",
                     "--k", "6", "--runs", "1", "--out", str(out)])
        err = capsys.readouterr().err
        if exponent == 50:
            assert code == 0 and load_results(out)["gmm"]["runs"]
            return
        assert code == 3
        assert err.startswith("error: location variance ") and err.endswith(
            " m^2 is too large for the mixture: its square overflows float64\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["baselines", "spectral", "multislice"])
    def test_coordinates_near_the_float_limit_are_data_errors(self, tmp_path, capsys, command):
        # Neighbours at -1.7e308 and 1.7e308: their difference and the mean
        # distance overflow, which sigma and the mixture's variance absorb
        # without a warning and then reject.
        rows = [f"p{i},{(-1) ** i * 1.7e308},0,{'ab'[i % 2]}" for i in range(8)]
        (tmp_path / "individuals.csv").write_text("\n".join(["id,x,y,gang", *rows]) + "\n")
        (tmp_path / "contacts.csv").write_text(
            "\n".join(["id_a,id_b", *(f"p{i},p{i + 1}" for i in range(7))]) + "\n")
        out = tmp_path / "r.json"
        flags = [] if command == "multislice" else ["--k", "2", "--runs", "1"]
        assert main([command, "--dataset", str(tmp_path), *flags, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: location variance " if command == "baselines"
                              else "error: sigma must be a positive finite length, got ")
        assert not out.exists()

    def test_forced_em_cap_is_reported(self, dataset_dir, tmp_path, monkeypatch):
        # gmm_cluster looks fit_gmm up in its module, so the cap reaches it.
        monkeypatch.setattr(baselines, "fit_gmm",
                            functools.partial(baselines.fit_gmm, max_iter=1))
        out = tmp_path / "b.json"
        assert main([
            "baselines", "--dataset", str(dataset_dir), "--alphas", "0.4",
            "--k", "6", "--runs", "2", "--seed", "0", "--out", str(out),
        ]) == 0
        runs = load_results(out)["gmm"]["runs"]
        assert [(r["em_iters"], r["cap_hit"]) for r in runs] == [(1, True), (1, True)]


class TestReportSchema:
    """Reports carry a fixed key set per command (golden schema)."""

    RUN_KEYS = {"seed", "purity", "z_rand", "objective", "n_communities",
                "degenerate", "assignment"}
    SCORED_KEYS = {"purity_mean", "purity_std", "zrand_mean", "zrand_std",
                   "best_run", "runs", "communities"}

    RUN_FLAGS = ("--k", "6", "--runs", "2", "--seed", "0")
    HEADER = ["command", "config", "diagnostics"]
    RUN_CONFIG = ["sigma", "k", "runs", "seeds"]
    # Plot CSV rows beside each command's report under the flags below:
    # two metrics per scored record, three per multislice slice.
    CSV_ROWS = {"spectral": 2, "sweep-alpha": 4, "gt-sweep": 2, "baselines": 6,
                "multislice": 6}

    @pytest.mark.parametrize("argv, report_keys, config_keys", [
        (("spectral", "--alpha", "0.4", *RUN_FLAGS),
         HEADER + ["results"], ["dataset", "alphas"] + RUN_CONFIG),
        (("sweep-alpha", "--alphas", "0.5,0", *RUN_FLAGS),
         HEADER + ["results"], ["dataset", "alphas"] + RUN_CONFIG),
        (("gt-sweep", "--alphas", "0.8", "--p-grid", "0.5", "--q-list", "0", *RUN_FLAGS),
         HEADER + ["equivalence_p", "results"],
         ["dataset", "alphas", "p_grid", "q_list"] + RUN_CONFIG),
        (("baselines", "--alphas", "0.4", *RUN_FLAGS),
         HEADER + ["gmm", "kmeans_columns", "spectral"], ["dataset", "alphas"] + RUN_CONFIG),
        (("multislice", "--alpha", "0.4", "--gamma-grid", "0.5,1.0", "--omega", "1",
          "--seed", "0"),
         HEADER + ["quality", "n_communities_total", "results", "plateaus",
                   "zrand_local_maxima", "assignment"],
         ["dataset", "alpha", "sigma", "gamma_grid", "omega", "seeds"]),
    ])
    def test_report_and_config_key_order(self, dataset_dir, tmp_path, argv, report_keys,
                                         config_keys):
        out = tmp_path / "r.json"
        assert main([argv[0], "--dataset", str(dataset_dir), *argv[1:], "--out", str(out)]) == 0
        report = load_results(out)
        assert list(report) == report_keys
        assert list(report["config"]) == config_keys
        assert report["command"] == argv[0]
        assert report["config"]["dataset"] == str(dataset_dir)
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert lines[0] == "param,value,metric,mean,std"
        assert len(lines) == 1 + self.CSV_ROWS[argv[0]]

    def test_spectral_record_keys(self, dataset_dir, tmp_path):
        out = tmp_path / "r.json"
        assert main([
            "spectral", "--dataset", str(dataset_dir), "--alpha", "0.4",
            "--k", "6", "--runs", "2", "--seed", "0", "--out", str(out),
        ]) == 0
        report = load_results(out)
        assert set(report) == {"command", "config", "diagnostics", "results"}
        rec = report["results"][0]
        assert set(rec) == {"alpha"} | self.SCORED_KEYS
        assert set(rec["runs"][0]) == self.RUN_KEYS
        assert set(report["diagnostics"]) == {
            "n", "n_contacts", "degree_mean", "degree_std", "degree_max",
            "n_isolates", "isolate_fraction", "intra_fraction",
        }

    def test_gt_sweep_record_keys(self, dataset_dir, tmp_path):
        out = tmp_path / "gt.json"
        assert main([
            "gt-sweep", "--dataset", str(dataset_dir), "--alphas", "0.8",
            "--p-grid", "0.5", "--q-list", "0", "--k", "6", "--runs", "1",
            "--seed", "1", "--out", str(out),
        ]) == 0
        report = load_results(out)
        assert set(report) == {
            "command", "config", "diagnostics", "equivalence_p", "results",
        }
        rec = report["results"][0]
        assert set(rec) == {"q", "alpha", "p", "gt_seed"} | self.SCORED_KEYS

    def test_multislice_record_keys(self, dataset_dir, tmp_path):
        out = tmp_path / "ms.json"
        assert main([
            "multislice", "--dataset", str(dataset_dir), "--alpha", "0.4",
            "--gamma-grid", "0.5,1.0", "--omega", "1", "--seed", "0",
            "--out", str(out),
        ]) == 0
        report = load_results(out)
        assert set(report) == {
            "command", "config", "diagnostics", "quality",
            "n_communities_total", "results", "plateaus",
            "zrand_local_maxima", "assignment",
        }
        assert set(report["results"][0]) == {
            "gamma", "n_communities", "purity", "z_rand", "communities",
        }


class TestPeakMemory:
    """Each scoring command's tracemalloc peak on the seed-18 dataset
    (n = 748), in units of one n x n float64 array, with the study's flags
    at `--runs 2` (`spectral` with the same k and seed, at alpha 0.4). One
    untraced call first imports what the command imports. Each bound sits
    just above the peak measured when it was set: spectral 2.07,
    sweep-alpha 2.28, gt-sweep 2.29, multislice 2.07, baselines 3.24. The
    spectral commands peak at W plus the D^-1 W that `embed`'s strength
    check (`normalize`) allocates; `baselines` peaks in k-means++ on its
    n-dimensional column features."""

    @pytest.fixture(scope="class")
    def seed18_dir(self, hollenbeck, tmp_path_factory):
        individuals, social, _ = hollenbeck
        out = tmp_path_factory.mktemp("seed18")
        save_dataset(individuals, social, DatasetFiles.in_dir(out))
        return out, len(individuals)

    @pytest.mark.parametrize("command, bound", [
        ("spectral", 2.10), ("sweep-alpha", 2.31), ("gt-sweep", 2.32),
        ("multislice", 2.10), ("baselines", 3.28),
    ])
    def test_peak_in_dense_arrays(self, seed18_dir, tmp_path, command, bound):
        dataset, n = seed18_dir
        commands = study.commands(dataset, tmp_path)
        commands["spectral"] = study.spectral(dataset, tmp_path / "spectral.json")
        argv = ["2" if prev == "--runs" else tok
                for prev, tok in zip([None, *commands[command]], commands[command])]
        assert main(argv) == 0
        assert peak_bytes(main, argv) < bound * 8 * n * n


class TestNumericalFailureExit:
    def test_impossible_calibration_exits_4(self, tmp_path, capsys, monkeypatch):
        def no_draw(*args):
            pytest.fail("a contact draw was made")

        monkeypatch.setattr("geocluster.synth._sample_contacts", no_draw)
        out = tmp_path / "ds"
        code = main([
            "generate", "--n-members", "20", "--n-groups", "2",
            "--seed", "0", "--out", str(out),
        ])
        # 20 members get 13 contacts, 12 of them intra-group: every draw's
        # intra fraction would be 12/13 = 0.9231, outside 0.887 +- 0.02, so
        # the generator fails before its first draw.
        assert code == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "every draw would have" in err
        assert "mean degree 1.3000 (target 1.2754" in err
        assert "intra fraction 0.9231 (target 0.887" in err
        assert not out.exists()  # the directory is made only for a dataset


class TestHelpers:
    def test_find_plateaus(self):
        counts = [3, 3, 3, 5, 5, 8]
        plats = find_plateaus(counts)
        assert plats == [
            {"start": 0, "end": 2, "length": 3, "n_communities": 3},
            {"start": 3, "end": 4, "length": 2, "n_communities": 5},
        ]

    def test_local_maxima(self):
        assert local_maxima([1.0, 3.0, 2.0, 2.0, 4.0]) == [1, 4]
        assert local_maxima([2.0, 2.0]) == [0, 1]

    def test_community_summaries_match_counter_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            labels = rng.choice(["a", "ab", "b", "c"], size=n)
            assignment = np.unique(rng.integers(0, 6, size=n), return_inverse=True)[1]
            points = rng.uniform(-1e3, 1e3, size=(n, 2))
            people = [Individual(str(i), x, y, lab) for i, ((x, y), lab)
                      in enumerate(zip(points.tolist(), labels.tolist()))]
            got = community_summaries(people, labels, assignment)
            want = naive_community_summaries(points.tolist(), labels.tolist(),
                                             assignment.tolist())
            for g, w in zip(got, want, strict=True):
                assert g["centroid"] == pytest.approx(w.pop("centroid"), rel=1e-12)
                assert {k: v for k, v in g.items() if k != "centroid"} == w
                assert list(g["composition"]) == list(w["composition"])
                assert type(g["size"]) is int and type(g["id"]) is int

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["spectral"])  # missing required flags
        assert err.value.code == 2

    def test_spectral_command_leaves_scipy_linalg_unloaded(self, dataset_dir, tmp_path):
        code = ("import sys; from geocluster.cli import main; "
                f"code = main(['spectral', '--dataset', {str(dataset_dir)!r}, '--k', '6', "
                f"'--runs', '2', '--out', {str(tmp_path / 'r.json')!r}]); "
                "print(code, 'scipy.linalg' in sys.modules)")
        src = str(Path(geocluster.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.splitlines()[-1] == "0 False"

    def test_cli_import_leaves_scipy_sparse_unloaded(self):
        code = ("import sys, geocluster.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
        src = str(Path(geocluster.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"


class TestStudy:
    """`geocluster.study` serves the gate and the study script, off the CLI's path."""

    SRC = str(Path(geocluster.__file__).resolve().parents[1])

    def test_cli_import_leaves_study_unloaded(self):
        code = "import sys, geocluster, geocluster.cli; print('geocluster.study' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": self.SRC})
        assert out.stdout.strip() == "False"

    def test_study_script_help(self):
        script = Path(self.SRC).parent / "scripts" / "run_full_study.py"
        out = subprocess.run([sys.executable, str(script), "--help"], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": self.SRC})
        assert "--out" in out.stdout and "--seed" in out.stdout
        assert "--runs" not in out.stdout


class TestBlasThreadTimeout:
    """`import geocluster` sets OpenBLAS's idle-worker timeout before numpy
    loads, and keeps a value the user has set."""

    # A meta-path hook records the variable when numpy is first imported.
    CODE = """if True:
        import os, sys

        class Hook:
            seen = "numpy never imported"

            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and "numpy" not in sys.modules:
                    Hook.seen = os.environ.get("OPENBLAS_THREAD_TIMEOUT")

        sys.meta_path.insert(0, Hook())
        import geocluster
        print(Hook.seen)
    """

    @pytest.mark.parametrize("preset", [None, "20"])
    def test_set_before_numpy_loads(self, preset):
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_THREAD_TIMEOUT"}
        env["PYTHONPATH"] = str(Path(geocluster.__file__).resolve().parents[1])
        if preset is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = preset
        out = subprocess.run([sys.executable, "-c", self.CODE], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == (preset or geocluster.BLAS_THREAD_TIMEOUT)


class TestReadme:
    """README's CLI section and the argument parser describe the same CLI."""

    TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    # scripts/digests.py's own options, and the pytest option that picks the
    # fuzzer's hypothesis profile
    SCRIPT_FLAGS = {"--check", "--write", "--hypothesis-profile"}

    def test_every_cli_line_parses(self):
        block = self.TEXT.split("\n## CLI\n", 1)[1].split("```")[1]
        lines = [line.split()[1:] for line in block.splitlines()
                 if line.startswith("geocluster ")]
        assert len(lines) == 6
        parser = cli.build_parser()
        for argv in lines:
            parser.parse_args(argv)

    def test_library_example_runs(self, capsys):
        block = self.TEXT.split("\n## Library use\n", 1)[1].split("```python\n", 1)[1]
        exec(block.split("```", 1)[0], {})
        purity, z = map(float, capsys.readouterr().out.split())
        assert 0 < purity <= 1 and np.isfinite(z)

    def test_readme_and_parser_name_the_same_flags(self):
        [sub] = [action for action in cli.build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)]
        flags = {flag for command in sub.choices.values() for action in command._actions
                 for flag in action.option_strings if flag.startswith("--")} - {"--help"}
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", self.TEXT)) - self.SCRIPT_FLAGS
        assert named == flags
