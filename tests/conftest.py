import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from geocluster import study
from geocluster.cli import main
from geocluster.graph import Individual, SocialMatrix, build_weight_matrix, compute_sigma
from geocluster.synth import SynthConfig, generate_dataset

# Every property test pins its own example count except the CLI fuzzer
# (test_fuzz.py), which takes it from the loaded profile: hypothesis'
# default (100 examples, about 2 s on 2 cores) in the suite, and 2000 under
# `pytest tests/test_fuzz.py --hypothesis-profile=fuzz`.
settings.register_profile("fuzz", max_examples=2000)

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# One line per acceptance criterion, echoed after the run (test_acceptance
# fills this; capture would otherwise swallow the in-test prints).
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def peak_bytes(fn, *args, **kwargs) -> int:
    """The peak of the memory tracemalloc traces while `fn(*args, **kwargs)`
    runs, in bytes. Modules imported on a first call count too, so a caller
    warms them up beforehand."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def load_module(path, name):
    """The module of the file `path`, registered in `sys.modules` as `name`
    (dataclasses look their module up there). The file's directory is on
    `sys.path` only while it loads, for its imports of its neighbours."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(path.parent))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(path.parent))
    return module


def manifest(name):
    """`scripts/<name>_digests.json`, which `scripts/digests.py --write` rewrites."""
    return json.loads((SCRIPTS / f"{name}_digests.json").read_text())


def pinned_datasets():
    """(SynthConfig keyword arguments, recorded sha256 of `individuals.csv`
    and `contacts.csv`) of each dataset whose bytes `test_synth.py` pins:
    the CLI tests' dataset against `study_digests.json`, the benchmark's
    seed-18 datasets and the panel's first 8 against `generator_digests.json`."""
    fields = ("n_members", "n_groups", "seed")
    pins = {tuple(e[f] for f in fields): (e["individuals.csv"], e["contacts.csv"])
            for e in manifest("generator")["datasets"]}
    flags = dict(zip(study.TEST_DATASET[::2], study.TEST_DATASET[1::2]))
    test_dataset = tuple(int(flags["--" + f.replace("_", "-")]) for f in fields)
    files = manifest("study")["files"]
    pins[test_dataset] = files["data/individuals.csv"], files["data/contacts.csv"]
    keys = [(748, 31, 18), test_dataset, (3000, 124, 18), (3000, 124, 1018), *list(pins)[:8]]
    return [(dict(zip(fields, key)), pins[key]) for key in keys]


def random_instance(rng, n, contact_rate=0.1):
    """Random individuals plus a sparse contact matrix."""
    xy = rng.uniform(0.0, 2000.0, size=(n, 2))
    individuals = [Individual(f"p{i}", float(x), float(y)) for i, (x, y) in enumerate(xy)]
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < contact_rate
    ]
    return individuals, SocialMatrix.from_pairs(n, pairs)


def sparse_random_instance(rng, n, n_contacts):
    """Random individuals plus about `n_contacts` random contacts, without
    the O(n^2) pair loop of `random_instance` (for large n)."""
    xy = rng.uniform(0.0, 2000.0, size=(n, 2))
    individuals = [Individual(f"p{i}", float(x), float(y)) for i, (x, y) in enumerate(xy)]
    pairs = rng.integers(n, size=(n_contacts, 2))
    return individuals, SocialMatrix.from_pairs(n, pairs[pairs[:, 0] != pairs[:, 1]])


def random_weighted_graph(rng, n, density=0.6):
    """Symmetric nonnegative weight matrix with a zero diagonal."""
    a = rng.uniform(0.0, 1.0, size=(n, n))
    a *= rng.random(size=(n, n)) < density
    a = np.triu(a, k=1)
    return a + a.T


@pytest.fixture(scope="session")
def hollenbeck():
    """Calibrated 748-member / 31-group dataset shared by trend tests."""
    individuals, social = generate_dataset(SynthConfig(seed=study.DATASET_SEED))
    labels = np.array([p.gang for p in individuals])
    return individuals, social, labels


@pytest.fixture(scope="session")
def dataset_dir(tmp_path_factory):
    """The CLI tests' dataset directory, `study.TEST_DATASET`: 120 members
    in 6 groups. Tests read it; one that edits a dataset copies it first."""
    out = tmp_path_factory.mktemp("data") / "ds"
    assert main(["generate", *study.TEST_DATASET, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="session")
def small_dataset():
    """Fast 160-member / 8-group dataset for integration-level tests."""
    config = SynthConfig(n_members=160, n_groups=8, seed=5)
    individuals, social = generate_dataset(config)
    labels = np.array([p.gang for p in individuals])
    return individuals, social, labels


@pytest.fixture(scope="session")
def small_graph(small_dataset):
    individuals, social, _ = small_dataset
    sigma = compute_sigma(individuals, social)
    return build_weight_matrix(individuals, social, 0.4, sigma)
