"""Fuzzer over the CLI's argv grammar: a subcommand, a subset of its flags,
and for each flag a valid, boundary or junk value, run in-process through
`cli.main` inside a fresh directory.

Every run must end in a documented exit code (0, 2, 3 or 4) with no other
exception escaping `main`; a non-zero exit must leave no new file or
directory; an exit-0 report must load and carry its command's top-level
keys. The example count comes from the hypothesis profile (see conftest):
tier-1 runs a few seconds' worth, and

    pytest tests/test_fuzz.py --hypothesis-profile=fuzz

runs a larger search.

Values are drawn from fixed lists so that a valid run stays small. No
thread or process count is ever drawn, and `--n-members` and `--n-groups`
stay at a few hundred or below: nothing guards a dense n x n allocation
yet, so a large n would exhaust memory rather than fail cleanly.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from geocluster.cli import main
from geocluster.io import DatasetFiles, load_dataset, load_results

JUNK = ["", "x", "nan", "inf", "-inf", "1e400", "0x10", " ", "1,", "\0"]
FRACTIONS = ["0.4", "0", "1", "1.0", "-0.1", "1.5", "1e-300"] + JUNK
# Value lists: comma lists and start:stop:step grids, valid and not.
GRIDS = ["0.4", "0,0.4", "0.4,0", "0:1:0.5", "1:0:0.5", "0:1:0", "0:1:-1", "0:1:0.00001",
         "0,,1", ",", "0:1", "0:1:0.5:1", "0.4,x"] + JUNK
GAMMAS = ["0.5,1", "1", "1,0.5", "1,1", "0.5:1.5:0.5", "0", "-1", "1e6", "1e308", "0:1:0.00001"] + JUNK
OMEGAS = ["1", "0", "0.5", "1e6", "-1", "1e308"] + JUNK
KS = ["1", "2", "6", "120", "121", "0", "-3"] + JUNK
RUNS = ["1", "2", "0", "-1", "10001"] + JUNK
SEEDS = ["0", "3", "-1", "99999999999"] + JUNK
MEMBERS = ["120", "40", "24", "300", "3", "0", "-5"] + JUNK
GROUPS = ["6", "2", "1", "12", "60", "0", "-1"] + JUNK

# Names `--out` and `--dataset` are drawn from; each maps to a path in the
# run's directory (made by `workspace`) or to a raw string.
OUTS = ["r.json", "r", "r.csv", "r.tar.gz", ".json", "missing/r.json", "dir", "dir.json",
        "file", "csvdir.json", "", ".", "\0.json", "r.json\0"]
DATASETS = ["data", "missing", "file", "dir", "", "data\0"]

COMMON = {"--dataset": DATASETS, "--k": KS, "--runs": RUNS, "--seed": SEEDS, "--out": OUTS}
FLAGS = {
    "generate": {"--preset": ["hollenbeck", "other", ""], "--n-members": MEMBERS,
                 "--n-groups": GROUPS, "--seed": SEEDS, "--out": OUTS},
    # An alias of sweep-alpha: --alpha is read as a value list.
    "spectral": {**COMMON, "--alpha": FRACTIONS + GRIDS},
    "sweep-alpha": {**COMMON, "--alphas": GRIDS},
    "multislice": {"--dataset": DATASETS, "--alpha": FRACTIONS, "--gamma-grid": GAMMAS,
                   "--omega": OMEGAS, "--seed": SEEDS, "--out": OUTS},
    "gt-sweep": {**COMMON, "--alphas": GRIDS, "--p-grid": GRIDS, "--q-list": GRIDS},
    "baselines": {**COMMON, "--alphas": GRIDS},
}
# Each command's documented top-level report keys (README "Data formats").
REPORT_KEYS = {
    "spectral": ["results"],
    "sweep-alpha": ["results"],
    "gt-sweep": ["equivalence_p", "results"],
    "baselines": ["gmm", "kmeans_columns", "spectral"],
    "multislice": ["quality", "n_communities_total", "results", "plateaus",
                   "zrand_local_maxima", "assignment"],
}
# The first value of each list above is valid; these small valid values
# stand in for flags whose default grid or run count would make a run slow.
SMALL = {"--k": "2", "--runs": "1", "--alphas": "0.4", "--p-grid": "0.5", "--q-list": "0",
         "--gamma-grid": "0.5,1"}


def workspace(root: Path, dataset: Path) -> dict:
    """Lay out the run's directory and map each drawn name to its path."""
    data = DatasetFiles.in_dir(root / "data")
    data.individuals_csv.parent.mkdir()
    for name in ("individuals_csv", "contacts_csv"):
        getattr(data, name).write_bytes(getattr(DatasetFiles.in_dir(dataset), name).read_bytes())
    (root / "dir").mkdir()
    (root / "dir.json").mkdir()
    (root / "csvdir.csv").mkdir()
    (root / "file").write_bytes(b"keep")
    names = {name: str(root / name) for name in OUTS + DATASETS}
    names.update({"": "", ".": "."})
    return names


def snapshot(root: Path) -> dict:
    """Every path under `root` with its bytes (None for a directory)."""
    return {path: None if path.is_dir() else path.read_bytes()
            for path in sorted(root.rglob("*"))}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS) + ["bogus"]))
    flags = FLAGS.get(command, {})
    argv = [command]
    for flag in sorted(flags):
        # Half the flags get a small valid value, so that most draws reach
        # the work; a flag is sometimes left out (a usage error when it is
        # required, its default otherwise).
        choice = draw(st.sampled_from(["drawn", "drawn", "valid", "valid", "omit"]))
        if choice == "valid":
            argv += [flag, SMALL.get(flag, flags[flag][0])]
        elif choice == "drawn":
            argv += [flag, draw(st.sampled_from(flags[flag]))]
    if draw(st.booleans()) and draw(st.booleans()):
        argv += draw(st.sampled_from([["--bogus"], ["--k"], ["extra"], ["--help"]]))
    return argv


@given(argv=argvs())
@settings(deadline=None)
def test_cli_ends_in_a_documented_exit_code(dataset_dir, argv):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        names = workspace(root, dataset_dir)
        resolved = [names.get(tok, tok) if prev in ("--out", "--dataset") else tok
                    for prev, tok in zip([None] + argv, argv)]
        before = snapshot(root)
        cwd = os.getcwd()
        os.chdir(root)  # so the relative names "" and "." stay inside
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(resolved)
                except SystemExit as exc:  # argparse: usage error or --help
                    code = exc.code
        finally:
            os.chdir(cwd)
        event(f"{resolved[0]} exit {code}")
        assert code in (0, 2, 3, 4), (resolved, code)
        after = snapshot(root)
        if code != 0:
            assert after == before, resolved
            return
        if "--help" in resolved:
            return
        out = root / resolved[resolved.index("--out") + 1]
        if resolved[0] == "generate":
            assert len(load_dataset(DatasetFiles.in_dir(out))[0]) > 0
            return
        report = load_results(out)
        assert list(report) == ["command", "config", "diagnostics"] + REPORT_KEYS[resolved[0]]
        assert report["command"] == resolved[0]
