"""Shared fixtures and hypothesis profiles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core.executors import EXECUTOR_KINDS
from repro.datasets.planting import make_corpus
from repro.datasets.ucr_like import DATASETS

#: Seed of the planted pool cases: six per UCR-like dataset.
POOL_SEED = 20200330


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--executor",
        choices=EXECUTOR_KINDS,
        default=None,
        help="restrict executor-parametrized tests to one backend "
        "(e.g. --executor process under a constrained taskset)",
    )


def pytest_generate_tests(metafunc: pytest.Metafunc) -> None:
    """Parametrize ``executor_kind`` over all backends (or the --executor one)."""
    if "executor_kind" in metafunc.fixturenames:
        restrict = metafunc.config.getoption("--executor")
        kinds = [restrict] if restrict else list(EXECUTOR_KINDS)
        metafunc.parametrize("executor_kind", kinds)


def repro_shm_segments() -> set[str]:
    """Names of this library's live /dev/shm segments (empty off-POSIX)."""
    import os

    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("repro")}


@pytest.fixture(name="shm_segments")
def shm_segments_fixture():
    """Callable returning the current set of library shm segment names."""
    return repro_shm_segments

# A moderate example budget keeps the property suite fast but meaningful;
# data generation dominates, so suppress the too-slow health check.
settings.register_profile(
    "repro",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def sine_series() -> np.ndarray:
    """A clean periodic series: 40 cycles of 100 samples each."""
    t = np.linspace(0.0, 80.0 * np.pi, 4000)
    return np.sin(t)


@pytest.fixture
def anomalous_sine(sine_series: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Periodic series with one damped cycle; returns (series, gt_pos, gt_len)."""
    series = sine_series.copy()
    series[2000:2100] *= 0.1
    return series, 2000, 100


@pytest.fixture
def random_walk_series(rng: np.random.Generator) -> np.ndarray:
    """A length-500 random walk."""
    return np.cumsum(rng.standard_normal(500))


@pytest.fixture(scope="session")
def pool_cases():
    """The 36 planted pool cases (six per UCR-like dataset), each with a seed."""
    return [
        (case, POOL_SEED + index)
        for offset, dataset in enumerate(DATASETS.values())
        for index, case in enumerate(make_corpus(dataset, n_cases=6, seed=POOL_SEED + offset))
    ]
