import numpy as np
import pytest
from hypothesis import settings

from supernorms import InvalidInputError, OptimizerConfig

# Optimizer-backed tests dominate the runtime of property checks, so keep
# hypothesis off the clock and let pytest's own timing tell the story.
settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")


def complex_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


# counts and seeds as (value, whole): fractional and boolean values are
# refused, whole numbers of any numeric type act as the int 2
COUNTS = [(2.5, False), (True, False), (np.int64(2), True), (2.0, True)]


def check_count(build, count, whole: bool) -> None:
    """Check that ``build(count)`` raises for a refused count and otherwise
    returns the same arrays as ``build(2)``."""
    if not whole:
        with pytest.raises(InvalidInputError, match="must be a whole number"):
            build(count)
        return
    for got, want in zip(build(count), build(2), strict=True):
        np.testing.assert_array_equal(got, want)


def random_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    G = complex_matrix(rng, n, n)
    return G @ G.conj().T


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def quick_cfg() -> OptimizerConfig:
    # enough restarts for the small fixed instances used in unit tests
    return OptimizerConfig(restarts=12, seed=7)
