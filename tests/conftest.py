import tracemalloc

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
    """The CLI tests' dataset directory: 120 members in 6 groups, seed 7.
    Tests read it; one that edits a dataset copies it first."""
    out = tmp_path_factory.mktemp("data") / "ds"
    assert main(["generate", "--n-members", "120", "--n-groups", "6", "--seed", "7",
                 "--out", str(out)]) == 0
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
