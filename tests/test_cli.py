import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geocluster
from geocluster import baselines
from geocluster.cli import community_summaries, find_plateaus, local_maxima, main
from geocluster.errors import DataError
from geocluster.io import load_results
from geocluster.modularity import louvain
from geocluster.graph import Individual, build_weight_matrix, compute_sigma, normalize
from geocluster.io import DatasetFiles, load_dataset

from oracles import naive_community_summaries


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    code = main([
        "generate", "--preset", "hollenbeck", "--n-members", "120",
        "--n-groups", "6", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    return out


class TestGenerate:
    def test_writes_files(self, dataset_dir):
        assert (dataset_dir / "individuals.csv").exists()
        assert (dataset_dir / "contacts.csv").exists()

    def test_same_seed_identical_files(self, dataset_dir, tmp_path):
        out2 = tmp_path / "ds2"
        assert main([
            "generate", "--preset", "hollenbeck", "--n-members", "120",
            "--n-groups", "6", "--seed", "7", "--out", str(out2),
        ]) == 0
        for name in ("individuals.csv", "contacts.csv"):
            assert (out2 / name).read_bytes() == (dataset_dir / name).read_bytes()

    def test_missing_output_dir_fails_cleanly(self, capsys):
        code = main([
            "generate", "--seed", "1", "--out", "/nonexistent/deep/path/ds",
        ])
        assert code == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("spread", ["nan", "inf"])
    def test_non_finite_spread_fails_before_output(self, spread, tmp_path, capsys):
        out = tmp_path / "ds"
        code = main(["generate", "--spread", spread, "--seed", "1", "--out", str(out)])
        assert code == 3
        assert "spatial_spread" in capsys.readouterr().err
        assert not out.exists()


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
                                                monkeypatch, command):
        def load_dataset(*args, **kwargs):
            raise DataError("dataset load reached")

        monkeypatch.setattr("geocluster.cli.load_dataset", load_dataset)
        argv = [command, "--dataset", str(dataset_dir), "--out", str(tmp_path / "r.json")]
        assert main([*argv, "--runs", "10001"]) == 3
        assert "at most 10000, got 10001" in capsys.readouterr().err
        assert main([*argv, "--runs", "10000"]) == 3
        assert "dataset load reached" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row", [b"z,1,1," + b"g" * 140_000, b"z,1,1,\xff"],
                             ids=["over_long_field", "non_utf8_byte"])
    def test_unreadable_dataset_exits_with_data_error(self, dataset_dir, tmp_path, capsys,
                                                      bad_row):
        good, bad = DatasetFiles.in_dir(dataset_dir), DatasetFiles.in_dir(tmp_path)
        bad.contacts_csv.write_bytes(good.contacts_csv.read_bytes())
        bad.individuals_csv.write_bytes(good.individuals_csv.read_bytes() + bad_row + b"\n")
        code = main(["spectral", "--dataset", str(tmp_path), "--k", "6", "--runs", "1",
                     "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "individuals.csv:122: " in capsys.readouterr().err

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
                                                      monkeypatch, flags):
        def load_dataset(*args, **kwargs):
            pytest.fail("dataset loaded before the gamma/omega check")

        monkeypatch.setattr("geocluster.cli.load_dataset", load_dataset)
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

    def test_record_per_grid_point(self, dataset_dir, tmp_path):
        out = tmp_path / "gt.json"
        assert main([
            "gt-sweep", "--dataset", str(dataset_dir), "--alphas", "0.4,0.8",
            "--p-grid", "0,0.5,1", "--q-list", "0,0.3", "--k", "6",
            "--runs", "1", "--seed", "1", "--out", str(out),
        ]) == 0
        report = load_results(out)
        assert len(report["results"]) == 2 * 3 * 2
        keys = [(r["q"], r["alpha"], r["p"]) for r in report["results"]]
        assert keys == sorted(keys)


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
    CSV_ROWS = {"spectral": None, "sweep-alpha": 4, "gt-sweep": 2, "baselines": 6,
                "multislice": 6}

    @pytest.mark.parametrize("argv, report_keys, config_keys", [
        (("spectral", "--alpha", "0.4", *RUN_FLAGS),
         HEADER + ["results"], ["dataset", "alpha"] + RUN_CONFIG),
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
        csv_rows = self.CSV_ROWS[argv[0]]
        if csv_rows is None:
            assert not out.with_suffix(".csv").exists()
        else:
            lines = out.with_suffix(".csv").read_text().splitlines()
            assert lines[0] == "param,value,metric,mean,std"
            assert len(lines) == 1 + csv_rows

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


class TestNumericalFailureExit:
    def test_impossible_calibration_exits_4(self, tmp_path, capsys, monkeypatch):
        def no_draw(*args):
            pytest.fail("a contact draw was made")

        monkeypatch.setattr("geocluster.synth._sample_contacts", no_draw)
        code = main([
            "generate", "--n-members", "20", "--n-groups", "2",
            "--seed", "0", "--out", str(tmp_path / "ds"),
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

    def test_cli_import_leaves_scipy_sparse_unloaded(self):
        code = ("import sys, geocluster.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
        src = str(Path(geocluster.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"
